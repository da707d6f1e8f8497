"""Benchmark entry point: set up a seeded workload, measure it, print metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload live-1khz --seed 1 --seconds 36 --trace 0

Workloads are defined in inputs.py and described in README.md. Set-up
(writing the seeded inputs) runs at least five times and for at least a
second in this process, and ``setup_s`` is the median; the measured phase then runs in fresh worker
processes (worker.py), so their peak RSS excludes set-up. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it show the same metrics for
people. The exit code is 0 only when every checked output was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import inputs
import reference

HERE = Path(__file__).resolve().parent
# Set-up repeats at least this often and for at least this long; the
# small workloads' set-up takes milliseconds and its fsyncs are noisy.
SETUP_RUNS = 5
SETUP_MIN_S = 1.0
WORKER_TIMEOUT_S = 150
# The measured phase is split over this many worker processes, one after
# another, and their samples are pooled: one process's run overhead can
# sit well above another's for its whole lifetime.
WORKERS = 4
END_TO_END_UNITS = {
    "run_overhead_ms_per_iter": "ms",
    "run_cpu_ms_per_iter": "ms",
    "report_s": "s",
    "report_html_s": "s",
    "report_csv_s": "s",
    "report_machine_s": "s",
    "compare_s": "s",
    "evolution_s": "s",
    "append_s": "s",
    "store_mb": "MB",
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    checkout = Path.cwd()
    src = checkout / "src"
    if not (src / "manai" / "__init__.py").is_file():
        print(f"error: no manai sources under {src}; run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import manai  # noqa: F401  imported before timing: loading code is not set-up

    work = checkout / ".perfbench" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    setup_times: list[float] = []  # scaled to the reference speed
    spent_s = 0.0
    while not setup_times or not args.trace and (
            len(setup_times) < SETUP_RUNS or spent_s < SETUP_MIN_S):
        target = work / f"setup{len(setup_times)}"
        _, elapsed, _, ref = reference.timed(
            lambda: inputs.setup(args.workload, args.seed, target))
        spent_s += elapsed / 1e9
        setup_times.append(elapsed / 1e9 * reference.REFERENCE_NS / ref)
        if len(setup_times) > 1:
            shutil.rmtree(work / f"setup{len(setup_times) - 2}")
    root = target

    env = dict(os.environ, PYTHONPATH=str(src))
    results = []
    for index in range(1 if args.trace else WORKERS):
        out = root / f"worker{index}.json"
        worker = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(root / "meta.json"),
             str(args.seconds / (1 if args.trace else WORKERS)), str(args.trace), str(out)],
            env=env,
            stdout=sys.stderr,
        )
        try:
            code = worker.wait(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            worker.kill()
            worker.wait()
            print("error: worker timed out", file=sys.stderr)
            return 3
        if code != 0 or not out.is_file():
            print(f"error: worker exited {code}", file=sys.stderr)
            return 3
        results.append(json.loads(out.read_text(encoding="utf-8")))

    samples: dict[str, list[float]] = {}
    for result in results:
        for name, values in result["samples"].items():
            samples.setdefault(name, []).extend(values)
    if args.trace:
        metrics = results[0]["metrics"]
    else:
        metrics = {
            name: {"value": statistics.median(samples[name]), "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
        metrics["peak_rss_mb"] = {"value": max(r["peak_rss_mb"] for r in results), "unit": "MB"}
        metrics["setup_s"] = {"value": statistics.median(setup_times), "unit": "s"}
    (root / "samples.json").write_text(json.dumps(samples), encoding="utf-8")
    errors = [error for result in results for error in result["errors"]]
    attempted = sum(result["attempted"] for result in results)
    failed = sum(result["failed"] for result in results)
    reference_ms = statistics.median(samples["host.reference_ms"])
    for error in errors[:20]:
        print(f"check failed: {error}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name in sorted(metrics):
        print(f"  {name:<36} {metrics[name]['value']:>14.6g} {metrics[name]['unit']}")
    print(f"  {'host reference work':<36} {reference_ms:>14.6g} ms "
          "(timings are scaled to the speed where it takes 10 ms)")
    print(f"  {'failed_frac':<36} {failed / attempted if attempted else 1.0:>14.6g} "
          f"({failed} of {attempted} ops)")
    summary = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
