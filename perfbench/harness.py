"""Stdlib-only test harness that speaks the manai marker protocol.

Usage:
    python3 -I -S harness.py PLAN --list   declare every test in PLAN
    python3 -I -S harness.py PLAN          run the test named by MANAI_FILTER

PLAN holds one ``<suite>::<name> <sleep_ms>`` pair per line. The test body
is a sleep of that length between the BEGIN and END markers.

The benchmark uses this script instead of ``python -m manai.fixture_harness``
so that the cost of spawning a test child does not depend on manai's own
import graph: a change to what ``manai`` imports must not read as a change
in per-iteration run overhead.
"""

import os
import sys
import time


def main(argv):
    plan = {}
    with open(argv[1], encoding="utf-8") as handle:
        for line in handle:
            test_id, sleep_ms = line.split()
            plan[test_id] = int(sleep_ms)
    out = sys.stdout
    if "--list" in argv[2:]:
        for test_id in plan:
            out.write(f"##MANAI:TEST {test_id}\n")
        out.flush()
        return 0
    test_id = os.environ.get("MANAI_FILTER", "")
    if test_id not in plan:
        print(f"harness: unknown test {test_id!r}", file=sys.stderr)
        return 2
    out.write(f"##MANAI:BEGIN {test_id}\n")
    out.flush()
    time.sleep(plan[test_id] / 1000.0)
    out.write(f"##MANAI:END {test_id} PASS\n")
    out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
