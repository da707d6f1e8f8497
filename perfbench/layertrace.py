"""Outside-in layer tracing for the benchmark worker.

``install`` rebinds manai's public entry points, in this process only,
to wrappers that record one span per call: name, layer, thread, start and
end on the monotonic clock (the clock the harness stamps markers with),
and the parent span. Spans are kept in memory and written out when the
run ends. Nothing under ``src/`` is edited; the wrappers cost one flag
test per call while tracing is off.

A span's self time is its duration minus the time its children on the
same thread cover. The sampler thread's spans name the main thread's
innermost open span as parent, but their time is never subtracted from
it, because the two threads run concurrently.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    layer: str
    op: str | None
    thread: int
    start_ns: int
    end_ns: int = 0
    cpu_ns: int | None = None
    error: bool = False
    info: dict = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    def __init__(self):
        self.enabled = False
        self.op: str | None = None  # benchmark operation the spans belong to
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[Span]] = {}
        self.main_thread = threading.get_ident()

    def _stack(self) -> list[Span]:
        return self._stacks.setdefault(threading.get_ident(), [])

    def _parent(self, stack: list[Span]) -> int | None:
        if stack:
            return stack[-1].id
        main = self._stacks.get(self.main_thread)
        return main[-1].id if main else None

    def wrap(self, name: str, layer: str, fn, info=None, cpu: bool = False):
        """Wrapper of ``fn`` recording a span while tracing is enabled.

        ``info(args, result)`` may return extra fields for the span.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            span = Span(
                id=next(tracer._ids), parent=tracer._parent(stack), name=name,
                layer=layer, op=tracer.op, thread=threading.get_ident(),
                start_ns=time.monotonic_ns(),
            )
            cpu0 = time.thread_time_ns() if cpu else 0
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = True
                span.info = {"exception": type(exc).__name__}
                raise
            else:
                if info is not None:
                    span.info = info(args, result)
                return result
            finally:
                span.end_ns = time.monotonic_ns()
                if cpu:
                    span.cpu_ns = time.thread_time_ns() - cpu0
                stack.pop()
                tracer.spans.append(span)

        return traced

    def self_ns(self) -> dict[int, int]:
        """Self time of every span: duration minus same-thread children."""
        own = {s.id: s.duration_ns for s in self.spans}
        by_id = {s.id: s for s in self.spans}
        for span in self.spans:
            parent = by_id.get(span.parent)
            if parent is not None and parent.thread == span.thread:
                own[parent.id] -= span.duration_ns
        return own

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


def _rebind(old, new) -> None:
    """Point every manai module attribute that names ``old`` at ``new``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "manai" or module_name.startswith("manai.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every manai layer."""
    from manai import cli, experiment, harness, report, results, store
    from manai.probe import RaplProbe, SimulatedProbe

    def run_info(args, run):
        return {"begin_ns": run.begin_ns, "end_ns": run.end_ns, "status": run.status.value}

    functions = [
        (cli.main, "cli.main", "cli", None, False),
        (experiment.run_experiment, "experiment.run_experiment", "experiment", None, False),
        (harness.discover, "harness.discover", "harness", None, False),
        (harness.run_one, "harness.run_one", "harness", run_info, False),
        (experiment.sample_stream, "sampler.sample_stream", "sampler",
         lambda a, r: {"interval_ns": a[1].interval_ns, "virtual": len(a) > 3 and a[3] is not None},
         True),
        (results.attribute, "results.attribute", "results",
         lambda a, r: {"samples": len(a[0])}, False),
        (results.summarize, "results.summarize", "results", None, False),
        (store.record_from_doc, "store.record_from_doc", "store_read", None, False),
        (store.render_record, "store.render_record", "store_write",
         lambda a, r: {"chars": len(r)}, False),
        (report.export, "report.export", "report", None, False),
        (report.render_summary, "report.render_summary", "report", None, False),
        (report.render_compare, "report.render_compare", "report", None, False),
        (report.render_history, "report.render_history", "report", None, False),
    ]
    for fn, name, layer, info, cpu in functions:
        _rebind(fn, tracer.wrap(name, layer, fn, info, cpu))

    methods = [
        (store.Store, "save", "store.save", "store_write", None),
        (store.Store, "latest", "store.latest", "store_read", lambda a, r: {"returned": 1}),
        (store.Store, "history", "store.history", "store_read",
         lambda a, r: {"returned": len(r.points)}),
        (RaplProbe, "read", "probe.read", "probe", lambda a, r: {"ts": r.timestamp_ns}),
        (SimulatedProbe, "read", "probe.read", "probe", lambda a, r: {"ts": r.timestamp_ns}),
    ]
    for cls, attr, name, layer, info in methods:
        setattr(cls, attr, tracer.wrap(name, layer, getattr(cls, attr), info))
