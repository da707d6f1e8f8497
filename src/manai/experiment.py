"""Experiment runner: replicable per-test energy experiments.

Binds a harness command and a probe, executes each selected test for a
configured number of iterations, attributes energy to each execution
window, aggregates statistics and persists the outcome keyed by revision
label.

Execution timing depends on the probe backend:

* RAPL: the run loop reads the live counters at each window edge it
  stamps (BEGIN or END handled, the deadline of a timeout, the exit
  before END) and once per wrap guard while the window is open, so a
  window is exactly the samples between its readings. No thread runs
  beside the test.
* Simulated: the child still runs for real (its status and measured
  duration are real), and its duration is then snapped to the counter
  refresh grid. A fresh simulated probe of the run's scenario is read as
  a live window is, on its virtual clock: at the scenario origin, once
  per wrap guard and at the snapped end. So a window's energy is exactly
  the wrap-corrected counter difference between its edges, and
  re-running the same configuration reproduces every stored number
  bit-exactly, as long as test durations exceed the refresh interval and
  marker timing is at most a quarter interval early or three quarters
  late. Sub-interval durations are kept as measured and read 0 J or one
  refresh step, as a live window does (low-confidence either way).

Both paths share one iteration body and one meter body: a meter, built
once per run, lends ``run_one`` its edge clock and wrap guard and turns
the window it reports into the samples between its readings. A
``calibrate`` baseline is read like a live window, on either backend: at
its edges and once per wrap guard, waiting on the probe's own clock in
between.

Exactly one experiment may run per data directory: the runner holds an
exclusive, non-blocking ``flock`` on ``<data_dir>/lock`` for the whole
experiment (see :class:`_DataDirLock`). Note that RAPL counters are machine-wide: anything
else running on the host during an experiment contaminates the readings,
so results carry the probe backend used.
"""

from __future__ import annotations

import fcntl
import hashlib
import logging
import math
import os
import shlex
import subprocess
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Mapping

from manai.errors import InvalidConfig, LockHeld, ProbeLost, ProtocolViolation, ReadFailed
from manai.harness import HarnessCommand, TestId, TestStatus, discover, run_one
from manai.probe import (
    Probe,
    ProbeBackend,
    ProbeDescriptor,
    ProbeReading,
    SimulatedProbe,
    SimulationScenario,
    create_probe,
)
from manai.results import TestExecutionResult, TestSummary, summarize
from manai.sampler import (
    BaselineProfile,
    _columns,
    _wrap_guard_ns,
    calibrate_baseline,
    check_calibration_window,
)
# Unused here: the benchmark's layer tracer (perfbench/layertrace.py) wraps
# the replay grid under the name ``experiment.sample_stream``.
from manai.sampler import sample_stream  # noqa: F401
from manai.store import RevisionRecord, Store

__all__ = [
    "BaselineSetting",
    "ExperimentConfig",
    "resolve_revision_label",
    "run_experiment",
]

logger = logging.getLogger(__name__)

DEFAULT_DATA_DIR = Path(".manai")


@dataclass(frozen=True)
class BaselineSetting:
    """Idle-power handling: off, calibrate before the run, or a fixed profile."""

    mode: str = "off"
    calibrate_duration_s: float | None = None
    profile: BaselineProfile | None = None

    def __post_init__(self):
        if self.mode not in ("off", "calibrate", "fixed"):
            raise InvalidConfig(f"unknown baseline mode {self.mode!r}")
        if self.mode == "calibrate":
            check_calibration_window(self.calibrate_duration_s or 0.0)
        if self.mode == "fixed" and self.profile is None:
            raise InvalidConfig("fixed baseline requires a profile")

    def describe(self) -> str:
        if self.mode == "calibrate":
            return f"calibrate:{self.calibrate_duration_s:g}"
        if self.mode == "fixed":
            powers = ",".join(
                f"{d}={w!r}" for d, w in sorted(self.profile.powers_w.items(), key=lambda kv: str(kv[0]))
            )
            return f"fixed:{powers}"
        return "off"


@dataclass(frozen=True)
class ExperimentConfig:
    """The replicable unit: what to run, how often, and how to measure it."""

    harness: HarnessCommand
    iterations: int
    revision_label: str
    selection: tuple[TestId, ...] = ()
    probe_backend: ProbeBackend = ProbeBackend.RAPL
    scenario_path: Path | None = None
    baseline: BaselineSetting = field(default_factory=BaselineSetting)
    update_interval_ns: int | None = None
    test_timeout_s: float | None = 120.0
    # Like the data directory, a location that does not alter the experiment:
    # it stays out of the config digest and the stored config.
    powercap_root: Path | None = None

    def __post_init__(self):
        timeout_s = self.test_timeout_s
        if timeout_s is not None and not 0 < timeout_s < math.inf:
            raise InvalidConfig(f"test timeout must be positive and finite, or none; got {timeout_s!r}")
        if self.iterations < 1:
            raise InvalidConfig("iterations must be at least 1")
        if not self.revision_label:
            raise InvalidConfig("revision label must be non-empty (no VCS head found?)")
        if self.probe_backend is ProbeBackend.SIMULATED and self.scenario_path is None:
            raise InvalidConfig("simulated probe requires a scenario path")
        object.__setattr__(self, "selection", tuple(self.selection))


def effective_config_items(config: ExperimentConfig, data_dir: Path | None = None) -> list[tuple[str, str]]:
    """Canonical key=value view of a config.

    This is what `run` echoes, what the record stores, and what the
    config digest hashes (minus the data directory, which does not alter
    the experiment itself).
    """
    items = [
        ("experiment.baseline", config.baseline.describe()),
        ("experiment.iterations", str(config.iterations)),
        ("experiment.revision", config.revision_label),
        (
            "experiment.selection",
            ",".join(str(t) for t in config.selection) if config.selection else "<discovered>",
        ),
        ("experiment.timeout_s", f"{config.test_timeout_s!r}"),
        ("harness.args", shlex.join(config.harness.args)),
        (
            "harness.env",
            ",".join(f"{k}={v}" for k, v in sorted(config.harness.env.items())),
        ),
        ("harness.list_args", shlex.join(config.harness.list_args)),
        ("harness.program", config.harness.program),
        ("harness.working_dir", str(config.harness.working_dir or "")),
        ("probe.backend", config.probe_backend.value),
        ("probe.scenario", str(config.scenario_path or "")),
        ("probe.update_interval_ns", str(config.update_interval_ns or "default")),
    ]
    if data_dir is not None:
        items.append(("store.data_dir", str(data_dir)))
    return items


def config_digest(config: ExperimentConfig) -> str:
    text = "\n".join(f"{k}={v}" for k, v in effective_config_items(config))
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def resolve_revision_label(explicit: str | None, cwd: Path | None = None) -> str:
    """Explicit label, or the VCS head hash of ``cwd`` when available.

    Raises:
        InvalidConfig: Neither an explicit label nor a git head exists.
    """
    if explicit:
        return explicit
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        proc = None
    if proc is not None and proc.returncode == 0 and proc.stdout.strip():
        return proc.stdout.strip()
    raise InvalidConfig("no revision label given and no git HEAD found; pass --revision")


class _DataDirLock:
    """An exclusive ``flock`` on ``data_dir/lock``: one experiment per data directory.

    The kernel drops the lock when the holding process exits, however it
    exits, so a killed runner leaves nothing stale behind and no runner
    ever deletes the file. The pid written into it only names the holder
    in the :class:`LockHeld` message.
    """

    def __init__(self, data_dir: Path):
        self.path = data_dir / "lock"
        self._fd: int | None = None

    def acquire(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            os.ftruncate(fd, 0)
            os.write(fd, str(os.getpid()).encode())
        except BlockingIOError:
            holder = os.pread(fd, 32, 0).decode(errors="replace").strip() or "?"
            os.close(fd)
            raise LockHeld(f"another experiment holds {self.path} (pid {holder})") from None
        except BaseException:
            os.close(fd)
            raise
        self._fd = fd

    def release(self) -> None:
        # Closing the only descriptor of the open file drops the flock.
        os.close(self._fd)
        self._fd = None


def _quantize_duration_ns(duration_ns: int, update_interval_ns: int) -> int:
    """Snap a measured duration onto the counter refresh grid.

    A duration in ``[k*I - I/4, k*I + 3*I/4)`` maps to ``k*I``. Marker
    timing lags the child's real window by a one-sided, long-tailed
    amount (sleep overshoot plus wake-up latency), while an early reading
    is rare and tiny, so the tolerance is a quarter interval early and
    three quarters late. Durations shorter than one interval are kept as
    measured; snapping them would collapse the window entirely.
    """
    if duration_ns < update_interval_ns:
        return max(duration_ns, 1)
    return (duration_ns + update_interval_ns // 4) // update_interval_ns * update_interval_ns


class _LiveMeter:
    """Reads a probe at each window edge ``run_one`` stamps, and nowhere else.

    :meth:`clock` is ``run_one``'s edge clock: it reads the probe, keeps
    the reading and returns its timestamp, so each edge of a window is a
    reading and the window is exactly the samples between its readings.
    While a window is open, ``run_one`` also calls it once every
    ``guard_ns``: half the longest interval the wrap check accepts, so no
    two readings can span a full counter wrap. Nothing else reads the
    probe, so no sampling thread burns CPU that the counters bill to the
    test. On real RAPL at 1000 W the guard is about 131 s, so a test
    shorter than that is two readings and one sample.
    """

    def __init__(self, probe: Probe):
        self._probe = probe
        self._descriptor = probe.describe()
        self.guard_ns = _wrap_guard_ns(self._descriptor)
        self._readings: list[ProbeReading] = []

    def start(self) -> None:
        self._readings = []

    def clock(self) -> int:
        """Read the probe and keep the reading; return its timestamp, or the
        last kept one when the clock did not advance."""
        try:
            reading = self._probe.read()
        except ReadFailed as exc:
            raise ProbeLost(f"probe lost during a test window: {exc}") from exc
        readings = self._readings
        if not readings or reading.timestamp_ns > readings[-1].timestamp_ns:
            readings.append(reading)
        return readings[-1].timestamp_ns

    def stop(self, begin_ns: int, end_ns: int):
        """The samples between the kept readings and the window ``run_one``
        reported, rebased onto its BEGIN reading so that stored times are
        window-relative."""
        samples = _columns(self._readings, self._descriptor).rebased(begin_ns)
        return samples, 0, max(end_ns - begin_ns, 1)


class _ReplayMeter:
    """Replays a scenario from its origin over each grid-snapped window.

    The child runs for real; nothing is read while it does. Its window is
    then snapped to the counter refresh grid, and a fresh probe of the
    scenario is read through a :class:`_LiveMeter` as ``run_one`` reads a
    live window, on the probe's virtual clock: at the origin, once per
    wrap guard and at the snapped end. So the samples are replicable, and
    their energy is exactly the wrap-corrected counter difference between
    the window's edges.
    """

    # The child's window is timed on the monotonic clock; no reading is
    # taken while it runs.
    clock = staticmethod(time.monotonic_ns)
    guard_ns = None

    def __init__(self, scenario: SimulationScenario):
        _wrap_guard_ns(scenario.descriptor)  # refuses a range that no guard can read
        self._scenario = scenario

    def start(self) -> None:
        pass

    def stop(self, begin_ns: int, end_ns: int):
        """The replayed samples of the window ``run_one`` reported, and the
        window itself, ``[0, snapped duration)``."""
        end_ns = _quantize_duration_ns(end_ns - begin_ns, self._scenario.update_interval_ns)
        probe = SimulatedProbe(self._scenario)
        meter = _LiveMeter(probe)
        for edge_ns in (*range(0, end_ns, meter.guard_ns or end_ns), end_ns):
            probe.wait_until(edge_ns)
            meter.clock()
        return meter.stop(0, end_ns)


def _meter(probe: Probe) -> _LiveMeter | _ReplayMeter:
    """The meter of a run on ``probe``: one per ``run_experiment`` call.

    Raises:
        InvalidConfig: Two readings one wrap guard apart could span a full
            counter wrap.
    """
    if isinstance(probe, SimulatedProbe):
        return _ReplayMeter(probe.scenario)
    return _LiveMeter(probe)


def _run_iteration(
    meter: _LiveMeter | _ReplayMeter,
    config: ExperimentConfig,
    descriptor: ProbeDescriptor,
    baseline_w: Mapping | None,
    test: TestId,
    iteration: int,
) -> TestExecutionResult:
    meter.start()
    begin_ns, end_ns, status, error = run_one(
        config.harness, test, config.test_timeout_s, meter.clock, meter.guard_ns
    )
    samples, begin_ns, end_ns = meter.stop(begin_ns, end_ns)
    return TestExecutionResult.build(
        test=test,
        iteration=iteration,
        samples=samples,
        begin_ns=begin_ns,
        end_ns=end_ns,
        status=status,
        update_interval_ns=descriptor.update_interval_ns,
        baseline_w=baseline_w,
        crashed=error is not None,
        error=error,
        domains=descriptor.domains,
    )


def _protocol_failure_result(
    test: TestId,
    iteration: int,
    message: str,
    descriptor: ProbeDescriptor,
    baseline_applied: bool,
) -> TestExecutionResult:
    return TestExecutionResult(
        test=test,
        iteration=iteration,
        duration_ns=0,
        energy_j={d: 0.0 for d in descriptor.domains},
        mean_power_w={d: 0.0 for d in descriptor.domains},
        samples=(),
        status=TestStatus.FAIL,
        low_confidence=True,
        baseline_applied=baseline_applied,
        crashed=False,
        error=f"protocol violation: {message}",
    )


def run_experiment(
    config: ExperimentConfig,
    data_dir: Path | str = DEFAULT_DATA_DIR,
    progress=None,
) -> RevisionRecord:
    """Execute the experiment and persist one revision record.

    Tests run strictly sequentially in selection order; the iterations of
    one test are consecutive. A protocol-violating test is recorded as a
    failure and skipped for its remaining iterations; the experiment
    continues with the next test. Spawn failures, a malformed discovery
    marker and any failure of the probe or the sampler abort the whole
    experiment without persisting anything.

    Args:
        config: The experiment definition.
        data_dir: Where the lock and the record store live.
        progress: Optional callable taking one human-readable line per
            finished test.

    Raises:
        InvalidConfig, NoProbeAvailable, PermissionDenied,
        HarnessSpawnFailed, ProtocolViolation, ProbeLost, LockHeld, StorageError.
    """
    data_dir = Path(data_dir)
    probe = create_probe(
        config.probe_backend, config.scenario_path, config.powercap_root, config.update_interval_ns
    )
    descriptor = probe.describe()
    # Refuses a wrap-ambiguous guard before the data directory is touched
    # or any test runs.
    meter = _meter(probe)

    lock = _DataDirLock(data_dir)
    lock.acquire()
    try:
        selection = list(config.selection)
        if not selection:
            selection = discover(config.harness)
        if not selection:
            raise InvalidConfig("test selection is empty after discovery")

        baseline = config.baseline
        profile = baseline.profile if baseline.mode == "fixed" else None
        if baseline.mode == "calibrate":
            profile = calibrate_baseline(probe, baseline.calibrate_duration_s)
        baseline_w = dict(profile.powers_w) if profile else None

        summaries: dict[TestId, TestSummary] = {}
        results: dict[TestId, tuple[TestExecutionResult, ...]] = {}
        for test in selection:
            iteration_results: list[TestExecutionResult] = []
            for iteration in range(config.iterations):
                try:
                    result = _run_iteration(meter, config, descriptor, baseline_w, test, iteration)
                except ProtocolViolation as exc:
                    logger.warning("test %s violated the protocol: %s", test, exc)
                    iteration_results.append(
                        _protocol_failure_result(
                            test, iteration, str(exc), descriptor, baseline_w is not None
                        )
                    )
                    break
                iteration_results.append(result)
            summaries[test] = summarize(iteration_results)
            results[test] = tuple(iteration_results)
            if progress is not None:
                progress(_progress_line(summaries[test], descriptor))

        record = RevisionRecord(
            revision_label=config.revision_label,
            created_at=datetime.now(timezone.utc).isoformat(timespec="microseconds"),
            config_digest=config_digest(config),
            probe_backend=config.probe_backend.value,
            probe_update_interval_ns=descriptor.update_interval_ns,
            probe_domains=descriptor.domains,
            config=dict(effective_config_items(config)),
            summaries=summaries,
            results=results,
        )
        Store(data_dir).save(record)
        return record
    finally:
        lock.release()


def _progress_line(summary: TestSummary, descriptor: ProbeDescriptor) -> str:
    lead_domain = descriptor.domains[0]
    stats = summary.energy_stats.get(lead_domain)
    energy = f"{stats.mean:.3g} J" if stats else "n/a"
    flags = " low-confidence" if summary.any_low_confidence else ""
    return (
        f"{summary.test}: {summary.iterations} iteration(s), "
        f"mean {lead_domain} energy {energy}, "
        f"{summary.pass_count}P/{summary.fail_count}F/{summary.skip_count}S{flags}"
    )
