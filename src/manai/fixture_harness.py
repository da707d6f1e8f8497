"""Reference harness for exercising the marker protocol.

A tiny executable (``python -m manai.fixture_harness``) that declares and
runs scripted tests from a plan file. Meant for the test suite and for
trying the profiler out without a real project.

Plan format, one test per line (``#`` comments allowed):

    test <suite>::<name> [sleep_ms=<float>] [busy_ms=<float>]
         [status=PASS|FAIL|SKIP] [crash_after_begin=1] [no_begin=1]
         [begin_twice=1] [hang_after_begin=1]
         [noise_before=<int>] [noise_after=<int>]

``sleep_ms`` sleeps, ``busy_ms`` burns CPU. The crash/no_begin/begin_twice
knobs produce deliberately broken protocol streams. ``--noise-file`` prints
arbitrary extra lines around the markers to simulate chatty build output.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from manai.protocol import FILTER_ENV, format_marker


@dataclass
class PlannedTest:
    test_id: str
    sleep_ms: float = 0.0
    busy_ms: float = 0.0
    status: str = "PASS"
    crash_after_begin: bool = False
    no_begin: bool = False
    begin_twice: bool = False
    hang_after_begin: bool = False
    noise_before: int = 0
    noise_after: int = 0


def parse_plan(path: Path) -> list[PlannedTest]:
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = len((data[: exc.start].decode("utf-8") + ".").splitlines())
        raise SystemExit(f"plan line {line_no}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    tests = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] != "test" or len(tokens) < 2:
            raise SystemExit(f"plan line {line_no}: expected 'test <id> [options]'")
        planned = PlannedTest(test_id=tokens[1])
        for token in tokens[2:]:
            key, sep, value = token.partition("=")
            if not sep:
                raise SystemExit(f"plan line {line_no}: expected key=value, got {token!r}")
            if key in ("sleep_ms", "busy_ms"):
                setattr(planned, key, float(value))
            elif key == "status":
                planned.status = value
            elif key in ("crash_after_begin", "no_begin", "begin_twice", "hang_after_begin"):
                setattr(planned, key, value not in ("0", "false", ""))
            elif key in ("noise_before", "noise_after"):
                setattr(planned, key, int(value))
            else:
                raise SystemExit(f"plan line {line_no}: unknown option {key!r}")
        tests.append(planned)
    return tests


def emit(line: str) -> None:
    print(line, flush=True)


def burn_cpu(duration_ms: float) -> None:
    deadline = time.perf_counter_ns() + round(duration_ms * 1e6)
    while time.perf_counter_ns() < deadline:
        pass


def run_test(planned: PlannedTest, noise: list[str]) -> int:
    for i in range(planned.noise_before):
        emit(noise[i % len(noise)] if noise else f"building module {i}...")
    if not planned.no_begin:
        emit(format_marker("BEGIN", planned.test_id))
        if planned.begin_twice:
            emit(format_marker("BEGIN", planned.test_id))
    if planned.sleep_ms:
        time.sleep(planned.sleep_ms / 1000.0)
    if planned.busy_ms:
        burn_cpu(planned.busy_ms)
    if planned.hang_after_begin:
        time.sleep(3600)
    if planned.crash_after_begin:
        return 3
    emit(format_marker("END", planned.test_id, planned.status))
    for i in range(planned.noise_after):
        emit(noise[i % len(noise)] if noise else "cleaning up...")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="fixture-harness")
    parser.add_argument("--plan", required=True, type=Path)
    parser.add_argument("--list", action="store_true", help="declare tests and exit")
    parser.add_argument("--noise-file", type=Path, default=None,
                        help="extra stdout lines interleaved around markers")
    args = parser.parse_args(argv)

    tests = parse_plan(args.plan)
    noise = args.noise_file.read_text().splitlines() if args.noise_file else []

    if args.list:
        for index, planned in enumerate(tests):
            if noise:
                emit(noise[index % len(noise)])
            emit(format_marker("TEST", planned.test_id))
        for extra in noise[len(tests):]:
            emit(extra)
        return 0

    wanted = os.environ.get(FILTER_ENV)
    if wanted is None:
        print(f"fixture harness: set {FILTER_ENV} or pass --list", file=sys.stderr)
        return 2
    for planned in tests:
        if planned.test_id == wanted:
            return run_test(planned, noise)
    # Unknown filter: say nothing on stdout, exit cleanly. The caller
    # sees a missing BEGIN and reports the protocol violation.
    return 0


if __name__ == "__main__":
    sys.exit(main())
