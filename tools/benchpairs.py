#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs and compare them.

Usage (stdlib only, from anywhere):

    python3 tools/benchpairs.py --parent ../parent --change . \\
        --workload report-history --seeds 2801-2810 --seconds 36 --out BENCH.json

For each workload and seed it runs ``perfbench/run.py --trace 0`` in each
checkout, the parent first on odd seeds. Runs already in ``--out`` are kept,
not rerun. For each workload and end-to-end metric of ``BENCHMARK.json`` it
prints and writes both medians, the parent's quartiles, the pairs the change
won (ties count for neither), whether the change stays inside the metric's
bound and whether the medians differ by more than the parent's quartile gap.
A run that prints no result counts as one failed operation.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def seeds(text: str) -> list[int]:
    """``2801-2810`` or ``2801,2803``."""
    first, _, last = text.partition("-")
    return list(range(int(first), int(last) + 1)) if last else [int(s) for s in text.split(",")]


def run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"]
    start = time.monotonic()
    done = subprocess.run(command, cwd=root, capture_output=True, text=True)
    last = (done.stdout.strip().splitlines() or [""])[-1]
    result = json.loads(last) if last.startswith("{") else None
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": 0,
            "exit": done.returncode, "wall_s": round(time.monotonic() - start, 1), "result": result}


def summarize(runs: list[dict], workload: str, metric: dict) -> dict | None:
    name, bound = metric["name"], metric["bound"]
    sign = 1 if metric["better"] == "lower" else -1
    pairs = {}
    for entry in runs:
        if entry["workload"] == workload and entry["result"]:
            pairs.setdefault(entry["seed"], {})[entry["side"]] = entry["result"]["metrics"][name]["value"]
    pairs = [p for p in pairs.values() if len(p) == 2]
    if not pairs:
        return None
    parent = [p["parent"] for p in pairs]
    change = [p["change"] for p in pairs]
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) > 1 else (p_med, p_med, p_med)
    wins = sum(sign * (p["change"] - p["parent"]) < 0 for p in pairs)
    return {
        "parent_median": p_med, "parent_q1_q3": [q1, q3], "change_median": c_med,
        "ratio": c_med / p_med if p_med else None, "change_better_pairs": f"{wins}/{len(pairs)}",
        "bound": bound, "worse_than_bound": sign * (c_med - p_med) > bound * abs(p_med),
        "gap_exceeds_parent_iqr": sign * (p_med - c_med) > q3 - q1,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout root of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout root of the change")
    parser.add_argument("--workload", action="append", required=True, help="repeat for several")
    parser.add_argument("--seeds", type=seeds, required=True, help="e.g. 2801-2810")
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    metrics = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    doc = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {"runs": []}
    roots = {"parent": args.parent, "change": args.change}
    for workload in args.workload:
        for seed in args.seeds:
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for side in order:
                if any((r["workload"], r["seed"], r["side"]) == (workload, seed, side) for r in doc["runs"]):
                    continue
                entry = {"side": side, **run(roots[side], workload, seed, args.seconds)}
                print(f"{workload} seed {seed} {side}: exit {entry['exit']}, {entry['wall_s']} s", flush=True)
                doc["runs"].append(entry)
                args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")

    doc["summary"], doc["failed_over_attempted"] = {}, {}
    for workload in sorted({r["workload"] for r in doc["runs"]}):
        for side in roots:
            results = [r["result"] for r in doc["runs"] if (r["workload"], r["side"]) == (workload, side)]
            failed = sum(r["failed"] if r else 1 for r in results)
            attempted = sum(r["attempted"] if r else 1 for r in results)
            doc["failed_over_attempted"][f"{workload} {side}"] = f"{failed}/{attempted}"
        for metric in metrics:
            row = doc["summary"][f"{workload} {metric['name']}"] = summarize(doc["runs"], workload, metric)
            if row is None:
                continue
            print(f"{workload:<15} {metric['name']:<26} parent {row['parent_median']:.6g} "
                  f"[{row['parent_q1_q3'][0]:.6g}, {row['parent_q1_q3'][1]:.6g}] "
                  f"change {row['change_median']:.6g} ({row['ratio'] or 0:.3f}x) "
                  f"wins {row['change_better_pairs']} "
                  f"{'WORSE THAN BOUND' if row['worse_than_bound'] else 'inside bound'}"
                  f"{', gap > parent IQR' if row['gap_exceeds_parent_iqr'] else ''}")
    for key, counts in doc["failed_over_attempted"].items():
        print(f"failed/attempted {key}: {counts}")
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
