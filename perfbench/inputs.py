"""Seeded inputs for the benchmark workloads.

Everything the program sees is generated here from the workload and the
seed: the harness plan, the experiment config, the simulated power trace,
the fake powercap tree and a store of earlier revisions. The same seed
always yields the same files. ``setup`` writes them into a directory and
returns the metadata the worker needs to drive the program and check its
outputs; the program itself only ever reads the generated files.

Stored history records are built with manai's public data model and
written with ``Store.save``, so a change to the on-disk format flows into
the store the benchmark reads.
"""

from __future__ import annotations

import json
import random
import shlex
import sys
from dataclasses import dataclass
from pathlib import Path

MAX_RANGE_UJ = {"package": 262143328850, "core": 262143328850, "dram": 65712999613}
DOMAINS = ("package", "core", "dram")
UPDATE_INTERVAL_NS = 1_000_000
SAMPLE_NS = 1_000_000
RUN_LABEL = "ci-run"
APPEND_LABEL = "ci-append"
HARNESS = Path(__file__).resolve().parent / "harness.py"


@dataclass(frozen=True)
class Shape:
    """Size of one workload. Seeds change values and names, never sizes,
    so that run-to-run spread comes from the program, not the inputs."""

    backend: str  # "rapl" or "simulated"
    run_tests: int
    run_iterations: int
    sleep_ms: tuple[int, ...]  # planned test bodies, dealt to the tests in seeded order
    history_labels: int
    repeated_labels: tuple[int, ...]  # label indices stored twice
    history_tests: int
    history_iterations: int
    history_samples: int
    trace_segments: int  # 1 ms segments in the simulated power trace


SHAPES = {
    # Live path: RaplProbe over a fake powercap tree, sampler thread at 1 kHz.
    "live-1khz": Shape(
        backend="rapl", run_tests=4, run_iterations=2, sleep_ms=(240, 250, 250, 260),
        history_labels=2, repeated_labels=(), history_tests=4,
        history_iterations=1, history_samples=400, trace_segments=0,
    ),
    # Virtual-clock replay of a long power trace; few spawns.
    "sim-trace": Shape(
        backend="simulated", run_tests=2, run_iterations=2, sleep_ms=(250, 350),
        history_labels=2, repeated_labels=(), history_tests=2,
        history_iterations=1, history_samples=400, trace_segments=2000,
    ),
    # Large store of accumulated revisions; one tiny run per repetition.
    "report-history": Shape(
        backend="simulated", run_tests=1, run_iterations=1, sleep_ms=(20,),
        history_labels=12, repeated_labels=(4, 9), history_tests=4,
        history_iterations=3, history_samples=50, trace_segments=1,
    ),
}

_SUITES = ("parser", "codec", "index", "render", "sched", "crypto", "cache", "fs")
_NAMES = ("small", "large", "cold", "warm", "bulk", "stream", "sparse", "dense", "mixed")


def _test_ids(rng: random.Random, count: int) -> list[str]:
    ids: list[str] = []
    while len(ids) < count:
        test_id = f"{rng.choice(_SUITES)}::{rng.choice(_NAMES)}_{rng.randrange(100)}"
        if test_id not in ids:
            ids.append(test_id)
    return ids


def _watts(uw: int) -> str:
    return f"{uw // 1_000_000}.{uw % 1_000_000:06d}"


def _write_scenario(path: Path, rng: random.Random, segments: int) -> list[list[int]]:
    """A random-walk power trace of ``segments`` 1 ms steps, in integer uW."""
    levels = {"package": 15_000_000, "core": 9_000_000, "dram": 2_000_000}
    lows = {"package": 5_000_000, "core": 2_000_000, "dram": 500_000}
    powers = []
    lines = [f"update_interval_ns={UPDATE_INTERVAL_NS} max_range_uj={MAX_RANGE_UJ['package']}"]
    for _ in range(segments):
        row = []
        for domain in DOMAINS:
            step = rng.randrange(-levels[domain] // 10, levels[domain] // 10 + 1)
            levels[domain] = max(lows[domain], levels[domain] + step)
            row.append(levels[domain])
        powers.append(row)
        lines.append(
            f"duration_ns={SAMPLE_NS} "
            + " ".join(f"{d}={_watts(p)}" for d, p in zip(DOMAINS, row))
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return powers


def _write_powercap(root: Path, rng: random.Random) -> None:
    """Package zone with core and dram subzones; counters never advance."""
    zones = {
        "intel-rapl:0": "package-0",
        "intel-rapl:0/intel-rapl:0:0": "core",
        "intel-rapl:0/intel-rapl:0:1": "dram",
    }
    for rel, name in zones.items():
        zone = root / rel
        zone.mkdir(parents=True)
        kind = "package" if name.startswith("package") else name
        (zone / "name").write_text(name + "\n")
        (zone / "max_energy_range_uj").write_text(f"{MAX_RANGE_UJ[kind]}\n")
        (zone / "energy_uj").write_text(f"{rng.randrange(MAX_RANGE_UJ[kind])}\n")


def _write_config(path: Path, shape: Shape, plan: Path, scenario: Path | None) -> None:
    harness = shlex.join(["-I", "-S", str(HARNESS), str(plan)])
    lines = [
        "[harness]",
        f"program = {sys.executable}",
        f"args = {harness}",
        f"list_args = {harness} --list",
        "timeout_s = 60",
        "",
        "[probe]",
        f"backend = {shape.backend}",
    ]
    if scenario is not None:
        lines.append(f"scenario = {scenario}")
    lines += [
        "",
        "[experiment]",
        "rate_hz = 1000",
        f"iterations = {shape.run_iterations}",
        f"revision = {RUN_LABEL}",
        "",
    ]
    path.write_text("\n".join(lines), encoding="utf-8")


def build_record(
    label: str,
    created_at: str,
    tests: list[str],
    iterations: int,
    samples: int,
    base_w: dict[str, list[float]],
    drift: float,
    rng: random.Random,
):
    """A RevisionRecord of the given shape with 1 ms samples.

    ``base_w[test]`` gives per-domain power; ``drift`` scales it, so
    successive revisions show a trend in the evolution view.
    """
    # manai is imported here, not at the top: run.py loads this module
    # before it knows whether the checkout holds manai's sources.
    from manai.harness import TestId, TestStatus
    from manai.probe import DomainKind, EnergyDomain
    from manai.results import TestExecutionResult, summarize
    from manai.sampler import EnergySample
    from manai.store import RevisionRecord

    domains = tuple(EnergyDomain(DomainKind(d), 0) for d in DOMAINS)
    summaries, results = {}, {}
    for test_name in tests:
        test = TestId.parse(test_name)
        runs = []
        for iteration in range(iterations):
            energy_uj = []
            for _ in range(samples):
                energy_uj.append({
                    d: round(w * drift * rng.uniform(0.9, 1.1) * SAMPLE_NS / 1000)
                    for d, w in zip(domains, base_w[test_name])
                })
            totals = {d: sum(e[d] for e in energy_uj) for d in domains}
            duration_ns = samples * SAMPLE_NS
            runs.append(TestExecutionResult(
                test=test,
                iteration=iteration,
                duration_ns=duration_ns,
                energy_j={d: uj / 1e6 for d, uj in totals.items()},
                mean_power_w={d: uj / 1e6 / (duration_ns / 1e9) for d, uj in totals.items()},
                samples=tuple(
                    EnergySample(k * SAMPLE_NS, (k + 1) * SAMPLE_NS, e)
                    for k, e in enumerate(energy_uj)
                ),
                status=TestStatus.PASS,
                low_confidence=False,
                baseline_applied=False,
            ))
        summaries[test] = summarize(runs)
        results[test] = tuple(runs)
    return RevisionRecord(
        revision_label=label,
        created_at=created_at,
        config_digest="sha256:" + "%064x" % rng.getrandbits(256),
        probe_backend="simulated",
        probe_update_interval_ns=UPDATE_INTERVAL_NS,
        probe_domains=domains,
        config={"experiment.iterations": str(iterations), "probe.backend": "simulated"},
        summaries=summaries,
        results=results,
    )


def _history_plan(shape: Shape, rng: random.Random):
    """(label, created_at, drift) for every stored record, oldest first."""
    entries = []
    for index in range(shape.history_labels):
        label = f"r{index:02d}-{rng.getrandbits(24):06x}"
        copies = 2 if index in shape.repeated_labels else 1
        for copy in range(copies):
            created = f"2020-01-{index + 1:02d}T{10 + copy:02d}:00:00.{rng.randrange(10**6):06d}+00:00"
            entries.append((label, created, 1.0 + 0.03 * index + 0.01 * copy))
    return entries


def append_record(meta: dict):
    """The record the worker appends each repetition (same shape as history)."""
    rng = random.Random(meta["seed"] * 7919 + 1)
    shape = SHAPES[meta["workload"]]
    return build_record(
        APPEND_LABEL, "2020-12-31T00:00:00.000000+00:00", meta["history_tests"],
        shape.history_iterations, shape.history_samples, meta["base_w"], 1.5, rng,
    )


def setup(workload: str, seed: int, root: Path) -> dict:
    """Write every input of ``workload`` under ``root``; return its metadata."""
    from manai.store import Store

    shape = SHAPES[workload]
    rng = random.Random(f"{workload}/{seed}")
    root.mkdir(parents=True)
    history_tests = _test_ids(rng, shape.history_tests)
    run_tests = history_tests[: shape.run_tests]
    sleeps = dict(zip(run_tests, rng.sample(shape.sleep_ms, len(shape.sleep_ms))))
    plan = root / "plan.txt"
    plan.write_text("".join(f"{t} {ms}\n" for t, ms in sleeps.items()), encoding="utf-8")

    scenario = None
    powers: list[list[int]] = []
    if shape.backend == "simulated":
        scenario = root / "scenario.txt"
        powers = _write_scenario(scenario, rng, shape.trace_segments)
    else:
        _write_powercap(root / "powercap", rng)
    _write_config(root / "experiment.cfg", shape, plan, scenario)

    base_w = {
        t: [rng.uniform(8, 30), rng.uniform(3, 15), rng.uniform(0.5, 4)] for t in history_tests
    }
    store = Store(root / "data")
    history = _history_plan(shape, rng)
    for label, created, drift in history:
        store.save(build_record(
            label, created, history_tests, shape.history_iterations,
            shape.history_samples, base_w, drift, rng,
        ))

    labels = list(dict.fromkeys(label for label, _, _ in history))
    meta = {
        "workload": workload,
        "seed": seed,
        "root": str(root),
        "backend": shape.backend,
        "config": str(root / "experiment.cfg"),
        "data_dir": str(root / "data"),
        "powercap_root": str(root / "powercap") if shape.backend == "rapl" else None,
        "run_tests": run_tests,
        "run_iterations": shape.run_iterations,
        "sleep_ms": sleeps,
        "planned_body_ms": sum(sleeps.values()) * shape.run_iterations,
        "trace_powers_uw": powers,
        "history_tests": history_tests,
        "history_labels": labels,
        "history_points": [label for label, _, _ in history],
        "base_w": base_w,
    }
    (root / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
    return meta
