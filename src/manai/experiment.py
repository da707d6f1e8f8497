"""Experiment runner: replicable per-test energy experiments.

Binds a harness command, a probe and a sampler configuration, executes
each selected test for a configured number of iterations, attributes
energy to each execution window, aggregates statistics and persists the
outcome keyed by revision label.

Execution timing depends on the probe backend:

* RAPL: a sampling thread polls the live counters while the test child
  runs; execution windows are the marker arrival timestamps.
* Simulated: the child still runs for real (its status and measured
  duration are real), and its duration is then snapped to the counter
  refresh grid. One replay grid per run, laid down from the scenario
  origin on the virtual clock of a simulated probe of the run's own and
  extended only when a window reaches past it, is cut to each snapped
  window, which yields exactly the samples a fresh probe would replay.
  Re-running the same configuration therefore reproduces every stored
  number bit-exactly, as long as test durations exceed the refresh
  interval and marker timing is at most a quarter interval early or
  three quarters late. Sub-interval durations are kept as measured (they
  are low-confidence either way).

Both paths share one iteration body: a meter, built once per run, is
started before the child is spawned and stopped after it exits.

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
import threading
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Mapping

from manai.clock import DeadlineStop
from manai.errors import InvalidConfig, LockHeld, ProtocolViolation
from manai.harness import HarnessCommand, TestId, TestStatus, discover, run_one
from manai.probe import (
    Probe,
    ProbeBackend,
    ProbeDescriptor,
    SimulatedProbe,
    SimulationScenario,
    create_probe,
)
from manai.results import TestExecutionResult, TestSummary, summarize
from manai.sampler import (
    BaselineProfile,
    SampleColumns,
    SamplerConfig,
    _check_single_wrap,
    calibrate_baseline,
    check_calibration_window,
    sample_stream,
)
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
    sampling_rate_hz: float
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
        try:
            SamplerConfig(self.sampling_rate_hz)
        except ValueError as exc:
            raise InvalidConfig(str(exc)) from None
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
        ("experiment.rate_hz", f"{config.sampling_rate_hz!r}"),
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
    """Samples a live probe on a thread that runs across the whole harness run.

    The thread's wake-ups keep the run loop quick to handle END. On 2
    vCPUs, with children that slept 250 ms and printed their own
    ``CLOCK_MONOTONIC`` reading just before each marker, END was handled
    0.11 ms after that stamp (p50; max 3.6 ms) beside this 1 kHz thread,
    but 2.72 ms after it with the same reads taken in the run loop, and
    2.75 ms (max 4.8 ms) with reads at BEGIN and END only. Those two cost
    10.1 and 1.0 ms of parent CPU per iteration against 10.8 ms here; a
    thread ticking only from BEGIN kept END at 0.10 ms and saved nothing
    (10.4 against 10.6 ms). Cheaper reads therefore wait for windows taken
    from stamps the harness writes into its markers. A simulated run has
    no thread, so its windows close about 2.7 ms late.
    """

    def __init__(self, probe: Probe, sampler_config: SamplerConfig):
        self._probe = probe
        self._sampler_config = sampler_config

    def start(self) -> None:
        self._stop = threading.Event()
        self._samples = SampleColumns()
        self._error: Exception | None = None
        self._thread = threading.Thread(target=self._sample, name="manai-sampler")
        self._thread.start()

    def _sample(self) -> None:
        # Every failure, not only a lost probe, is re-raised after the test.
        try:
            self._samples = sample_stream(self._probe, self._sampler_config, self._stop)
        except Exception as exc:  # noqa: BLE001
            self._error = exc

    def stop(self, begin_ns: int | None = None, end_ns: int | None = None):
        """End sampling. Given the window ``run_one`` reported, return the
        samples and that window, rebased onto the first reading so that
        stored times are run-relative; without one (the run failed),
        return ``None`` and drop any sampler failure."""
        self._stop.set()
        self._thread.join()
        if begin_ns is None:
            return None
        if self._error is not None:
            raise self._error
        samples = self._samples
        origin_ns = samples.starts_ns[0] if samples else begin_ns
        begin_ns -= origin_ns
        return samples.rebased(origin_ns), begin_ns, max(end_ns - origin_ns, begin_ns + 1)


class _ReplayMeter:
    """Replays a scenario from its origin over each grid-snapped window.

    The child runs for real; nothing is read while it does. Its window is
    snapped to the counter refresh grid and replayed from the scenario
    origin on the virtual clock of one probe the meter owns, so the
    samples are replicable. All windows of a run share one sample grid,
    extended only when a window reaches past it: the first
    ``ceil(end / interval)`` samples of the grid are the samples a fresh
    probe replays over ``[0, end)``.
    """

    def __init__(self, scenario: SimulationScenario, sampler_config: SamplerConfig):
        self._probe = SimulatedProbe(scenario)
        self._sampler_config = sampler_config
        self._grid = SampleColumns()

    def start(self) -> None:
        pass

    def stop(self, begin_ns: int | None = None, end_ns: int | None = None):
        """The replayed samples of the window ``run_one`` reported, and the
        window itself, ``[0, snapped duration)``; ``None`` without one."""
        if begin_ns is None:
            return None
        probe = self._probe
        end_ns = _quantize_duration_ns(end_ns - begin_ns, probe.scenario.update_interval_ns)
        count = max(1, -(-end_ns // self._sampler_config.interval_ns))
        if count > len(self._grid):
            more = sample_stream(probe, self._sampler_config, DeadlineStop(probe.scheduler.now, end_ns))
            grid = self._grid
            self._grid = SampleColumns(
                grid.starts_ns + more.starts_ns,
                grid.ends_ns + more.ends_ns,
                {d: grid.energy_uj.get(d, ()) + column for d, column in more.energy_uj.items()},
            )
        return self._grid[:count], 0, end_ns


def _meter(probe: Probe, sampler_config: SamplerConfig) -> _LiveMeter | _ReplayMeter:
    """The meter of a run on ``probe``: one per ``run_experiment`` call."""
    if isinstance(probe, SimulatedProbe):
        return _ReplayMeter(probe.scenario, sampler_config)
    return _LiveMeter(probe, sampler_config)


def _run_iteration(
    meter: _LiveMeter | _ReplayMeter,
    config: ExperimentConfig,
    descriptor: ProbeDescriptor,
    baseline_w: Mapping | None,
    test: TestId,
    iteration: int,
) -> TestExecutionResult:
    meter.start()
    try:
        begin_ns, end_ns, status, error = run_one(config.harness, test, config.test_timeout_s)
    except BaseException:
        meter.stop()
        raise
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
    sampler_config = SamplerConfig(config.sampling_rate_hz)
    # Refuse a wrap-ambiguous rate before the data directory is touched
    # or any test runs.
    _check_single_wrap(descriptor, sampler_config.interval_ns)
    meter = _meter(probe, sampler_config)

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
