#!/usr/bin/env python3
"""List the lines of ``src/manai`` that the Tier-1 suite never runs.

The suite runs under a ``sys.settrace`` line tracer, in the pytest
process and in every child Python that it starts: a generated
``sitecustomize.py``, first on ``PYTHONPATH``, installs the tracer in
each of them. Each process appends every line to a file of its own the
first time the line runs, one short write a line, so a child that is
killed, or that leaves through ``os._exit``, has recorded every line it
ran; the reader skips an incomplete last line. The executable lines of
a module are the lines its code objects map instructions to
(``co_lines``).

Usage, from anywhere (stdlib only):

    python3 tools/linecov.py [pytest arguments]

It prints each module's lines that never ran, as ``path: 12, 40-44``,
then the count, and exits with the suite's exit status. Tracing makes
the suite slower, so this is a development check, not a Tier-1 step.
"""

from __future__ import annotations

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
import os, sys, threading

_package = {package!r} + os.sep
# A pid can be reused, so the file name is unique. A forked child
# appends to its parent's file, whole lines at a time.
_out = os.open(
    os.path.join({out!r}, "%d-%s.lines" % (os.getpid(), os.urandom(8).hex())),
    os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_APPEND | os.O_CLOEXEC,
)
_hits = {{}}
_mine = {{}}


def _line(frame, event, arg):
    if event == "line":
        name = frame.f_code.co_filename
        lines = _hits[name]
        if frame.f_lineno not in lines:
            lines.add(frame.f_lineno)
            os.write(_out, b"%d %s\\n" % (frame.f_lineno, _mine[name]))
    return _line


def _call(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in _mine:
        path = os.path.realpath(name)
        _mine[name] = os.fsencode(path) if path.startswith(_package) else None
        if _mine[name]:
            _hits[name] = set()
    return _line if _mine[name] else None


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
        for dump in out_dir.glob("*.lines"):
            # The last item is empty, or the incomplete line of a killed writer.
            for entry in dump.read_bytes().split(b"\n")[:-1]:
                line, _, name = entry.partition(b" ")
                hits.setdefault(os.fsdecode(name), set()).add(int(line))

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
