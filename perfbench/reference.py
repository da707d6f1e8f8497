"""The fixed reference work every benchmark timing is scaled by.

The host the benchmark was sized on (2 vCPUs shared with other guests)
runs in phases of several seconds in which the same code takes up to 1.7
times longer. No run length the benchmark can afford averages that out,
so every timed step runs between two passes of this work, JSON parsing
plus a Python loop over dicts like the store's own, which does not touch
manai. A timing is reported at the speed where one pass takes
REFERENCE_NS: a change to manai's own cost moves it in full, while the
host's phases largely cancel.
"""

import json
import time

REFERENCE_NS = 10_000_000
_DOC = json.dumps([
    {"start_ns": k, "end_ns": k + 1, "energy_uj": {"package:0": 7 * k, "core:0": 3 * k}}
    for k in range(3000)
])


def reference_ns() -> int:
    """Wall time of one pass of the reference work."""
    start = time.perf_counter_ns()
    for _ in range(2):
        rows = json.loads(_DOC)
        sum(row["energy_uj"]["package:0"] for row in rows)
    return time.perf_counter_ns() - start


def timed(fn):
    """(result of ``fn()``, wall ns, process CPU ns, reference ns around it).

    The time scaled to the reference speed is ``ns * REFERENCE_NS / ref``.
    """
    before = reference_ns()
    cpu0 = time.process_time_ns()
    start = time.perf_counter_ns()
    try:
        result = fn()
    finally:
        elapsed = time.perf_counter_ns() - start
        cpu = time.process_time_ns() - cpu0
    return result, elapsed, cpu, (before + reference_ns()) / 2
