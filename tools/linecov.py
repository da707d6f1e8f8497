#!/usr/bin/env python3
"""List the lines of ``src/manai`` that the Tier-1 suite never runs.

The suite runs under a ``sys.settrace`` line tracer, in the pytest
process and in every child Python that it starts: a generated
``sitecustomize.py``, first on ``PYTHONPATH``, installs the tracer in
each of them, and each writes the lines it ran when it exits. A child
that is killed, or that leaves through ``os._exit``, writes nothing. The
executable lines of a module are the lines its code objects map
instructions to (``co_lines``).

Usage, from anywhere (stdlib only):

    python3 tools/linecov.py [pytest arguments]

It prints each module's lines that never ran, as ``path: 12, 40-44``,
then the count, and exits with the suite's exit status. Tracing makes
the suite slower, so this is a development check, not a Tier-1 step.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "manai"

# Loaded at start-up by every traced Python; the format fields are filled in.
_SITECUSTOMIZE = """\
import atexit, json, os, sys, threading

_package = {package!r} + os.sep
_out = {out!r}
_hits = {{}}
_mine = {{}}


def _line(frame, event, arg):
    if event == "line":
        _hits[frame.f_code.co_filename].add(frame.f_lineno)
    return _line


def _call(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in _mine:
        _mine[name] = os.path.realpath(name).startswith(_package)
        if _mine[name]:
            _hits[name] = set()
    return _line if _mine[name] else None


def _dump():
    sys.settrace(None)
    hits = {{os.path.realpath(name): sorted(lines) for name, lines in _hits.items()}}
    with open(os.path.join(_out, "%d.json" % os.getpid()), "w") as handle:
        json.dump(hits, handle)


atexit.register(_dump)
threading.settrace(_call)
sys.settrace(_call)
"""


def executable_lines(path: Path) -> set[int]:
    """Every line that an instruction of ``path``'s code maps to."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        # Line 0 (a module's first instruction) and None map to no source line.
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def ranges(lines: list[int]) -> str:
    """``[3, 4, 5, 9]`` as ``3-5, 9``."""
    spans: list[list[int]] = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main(pytest_args: list[str]) -> int:
    with tempfile.TemporaryDirectory(prefix="linecov-") as tmp:
        site_dir, out_dir = Path(tmp, "site"), Path(tmp, "hits")
        site_dir.mkdir()
        out_dir.mkdir()
        (site_dir / "sitecustomize.py").write_text(
            _SITECUSTOMIZE.format(package=str(PACKAGE.resolve()), out=str(out_dir))
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(site_dir), str(SRC), env.get("PYTHONPATH")]))
        argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
        status = subprocess.run([*argv, *pytest_args], cwd=ROOT, env=env).returncode
        hits: dict[str, set[int]] = {}
        for dump in out_dir.glob("*.json"):
            for name, lines in json.loads(dump.read_text()).items():
                hits.setdefault(name, set()).update(lines)

    missed_total = executable_total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        executable = executable_lines(path)
        missed = sorted(executable - hits.get(str(path.resolve()), set()))
        executable_total += len(executable)
        missed_total += len(missed)
        if missed:
            print(f"{path.relative_to(ROOT)}: {ranges(missed)}")
    print(f"{missed_total} of {executable_total} executable lines of {PACKAGE.relative_to(ROOT)} never ran")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
