"""Turn cumulative counter readings into wrap-corrected interval samples.

The sampling loop polls a probe at a configured rate against absolute
deadlines and keeps, per tick, only the reading itself: its timestamp
and its counters in ``probe.describe().domains`` order. After the stop
signal, one pass per column turns the kept readings into
:class:`SampleColumns`: the edge times, and per domain the wrap-corrected
energy between adjacent readings, less a calibrated idle baseline when
one is configured. No per-sample object is built on the way.

Sample energy is carried in integer microjoules so that the telescoping
identity holds exactly: the sum of sample energies over a run equals the
wrap-corrected delta between the first and last reading, as long as the
run consumes less than one full counter range.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from datetime import datetime, timezone
from operator import le, lt
from typing import Iterable, Mapping

from manai.clock import DeadlineStop, RealScheduler, Scheduler
from manai.errors import InvalidConfig, ProbeLost, ReadFailed
from manai.probe import MAX_PLAUSIBLE_POWER_W, EnergyDomain, Probe, ProbeDescriptor, ProbeReading

_UJ_PER_J = 1_000_000
_NS_PER_S = 1_000_000_000


def wrap_delta(before_uj: int, after_uj: int, max_range_uj: int) -> int:
    """Energy consumed between two counter values of one domain.

    Counters are modular: when ``after`` is smaller than ``before`` the
    counter wrapped exactly once, so the distance closes over the top of
    the range. The result is always in ``[0, max_range)``.
    """
    if not 0 <= before_uj < max_range_uj:
        raise ValueError(f"before={before_uj} outside [0, {max_range_uj})")
    if not 0 <= after_uj < max_range_uj:
        raise ValueError(f"after={after_uj} outside [0, {max_range_uj})")
    if after_uj >= before_uj:
        return after_uj - before_uj
    return max_range_uj - before_uj + after_uj


@dataclass(frozen=True)
class EnergySample:
    """Energy consumed per domain over one sampling interval, in integer microjoules."""

    start_ns: int
    end_ns: int
    energy_uj: Mapping[EnergyDomain, int]

    def __post_init__(self):
        if self.end_ns <= self.start_ns:
            raise ValueError("sample end must be after its start")
        if any(v < 0 for v in self.energy_uj.values()):
            raise ValueError("sample energy must be non-negative")

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


@dataclass(frozen=True)
class SampleColumns(Sequence):
    """Ordered, non-overlapping samples, held as columns.

    Sample ``i`` spans ``[starts_ns[i], ends_ns[i])`` and holds
    ``energy_uj[domain][i]`` microjoules of each domain, or ``None`` for a
    domain it lacks; a domain no sample holds has no column. Indexing and
    iteration build :class:`EnergySample` views; slicing yields columns.
    Construction checks each column as an :class:`EnergySample` checks
    its fields.
    """

    starts_ns: tuple[int, ...] = ()
    ends_ns: tuple[int, ...] = ()
    energy_uj: Mapping[EnergyDomain, tuple[int | None, ...]] = field(default_factory=dict)

    def __post_init__(self):
        starts, ends = tuple(self.starts_ns), tuple(self.ends_ns)
        columns = {domain: tuple(column) for domain, column in self.energy_uj.items()}
        count = len(starts)
        if len(ends) != count or any(len(column) != count for column in columns.values()):
            raise ValueError("sample columns must have one entry per sample")
        if not all(map(lt, starts, ends)):
            raise ValueError("sample end must be after its start")
        if not all(map(le, ends, starts[1:])):
            raise ValueError("samples must be ordered and must not overlap")
        if any(min(filter(None, column), default=0) < 0 for column in columns.values()):
            raise ValueError("sample energy must be non-negative")
        object.__setattr__(self, "starts_ns", starts)
        object.__setattr__(self, "ends_ns", ends)
        object.__setattr__(self, "energy_uj", {
            domain: column for domain, column in columns.items() if column.count(None) < count
        })

    @classmethod
    def of(cls, samples: Iterable[EnergySample]) -> "SampleColumns":
        """The columns of ``samples``; columns are returned as they are."""
        if isinstance(samples, cls):
            return samples
        samples = list(samples)
        domains = {domain for sample in samples for domain in sample.energy_uj}
        return cls(
            [sample.start_ns for sample in samples],
            [sample.end_ns for sample in samples],
            {domain: [sample.energy_uj.get(domain) for sample in samples] for domain in domains},
        )

    def rebased(self, origin_ns: int) -> "SampleColumns":
        """These samples with ``origin_ns`` taken off every edge time."""
        return SampleColumns(
            [t - origin_ns for t in self.starts_ns],
            [t - origin_ns for t in self.ends_ns],
            self.energy_uj,
        )

    def __len__(self) -> int:
        return len(self.starts_ns)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return SampleColumns(
                self.starts_ns[index],
                self.ends_ns[index],
                {domain: column[index] for domain, column in self.energy_uj.items()},
            )
        energy = {d: column[index] for d, column in self.energy_uj.items() if column[index] is not None}
        return EnergySample(self.starts_ns[index], self.ends_ns[index], energy)


@dataclass(frozen=True)
class BaselineProfile:
    """Idle power measured over a quiescent window.

    Subtracting it approximates the marginal energy of a workload; it is
    an approximation and results record whether it was applied.
    """

    powers_w: Mapping[EnergyDomain, float]
    duration_s: float
    calibrated_at: str

    def __post_init__(self):
        if not 1.0 <= self.duration_s < math.inf:
            raise ValueError(f"baseline window must be finite and at least 1 s, got {self.duration_s!r}")
        if not all(0 <= p < math.inf for p in self.powers_w.values()):
            raise ValueError("baseline power must be finite and non-negative")


@dataclass(frozen=True)
class SamplerConfig:
    rate_hz: float
    baseline_w: Mapping[EnergyDomain, float] | None = None

    def __post_init__(self):
        if self.rate_hz <= 0:
            raise ValueError("sampling rate must be positive")
        # Also rejects NaN, infinity and rates above 2 GHz, whose 0 ns
        # interval would never advance a virtual clock.
        if not 0.5 < _NS_PER_S / self.rate_hz < math.inf:
            raise ValueError(f"sampling rate {self.rate_hz!r} Hz has no finite interval of 1 ns or more")
        if self.baseline_w and any(p < 0 for p in self.baseline_w.values()):
            raise ValueError("baseline power must be non-negative")

    @property
    def interval_ns(self) -> int:
        return round(_NS_PER_S / self.rate_hz)


def _baseline_uj(power_w: float, duration_ns: int) -> int:
    # W * ns = nJ; divide by 1000 for uJ.
    return round(power_w * duration_ns / 1000.0)


def _columns(
    readings: list[ProbeReading],
    descriptor: ProbeDescriptor,
    baseline_w: Mapping[EnergyDomain, float] | None,
) -> SampleColumns:
    """The samples between adjacent ``readings``, built one column at a time."""
    edges_ns = [timestamp_ns for timestamp_ns, _ in readings]
    starts_ns, ends_ns = edges_ns[:-1], edges_ns[1:]
    energy_uj = {}
    for domain, counters in zip(descriptor.domains, zip(*(c for _, c in readings))):
        max_range_uj = descriptor.max_range_uj[domain]
        # ``wrap_delta`` of each adjacent pair: read() keeps counters in range.
        deltas = [(after - before) % max_range_uj for before, after in zip(counters, counters[1:])]
        power_w = baseline_w.get(domain, 0.0) if baseline_w else 0.0
        if power_w:
            deltas = [
                max(0, delta - _baseline_uj(power_w, end - start))
                for delta, start, end in zip(deltas, starts_ns, ends_ns)
            ]
        energy_uj[domain] = deltas
    return SampleColumns(starts_ns, ends_ns, energy_uj)


def _check_single_wrap(max_range: Mapping[EnergyDomain, int], interval_ns: int) -> None:
    interval_s = interval_ns / _NS_PER_S
    for domain, max_range_uj in max_range.items():
        wrap_horizon_s = (max_range_uj / _UJ_PER_J) / MAX_PLAUSIBLE_POWER_W
        if interval_s > wrap_horizon_s:
            raise InvalidConfig(
                f"sampling interval {interval_s:.3f} s could span more than one "
                f"counter wrap for {domain} (range {max_range_uj} uJ at up to "
                f"{MAX_PLAUSIBLE_POWER_W:.0f} W wraps within {wrap_horizon_s:.3f} s); "
                "increase the sampling rate"
            )


def sample_stream(
    probe: Probe,
    config: SamplerConfig,
    stop,
    scheduler: Scheduler | None = None,
) -> SampleColumns:
    """Poll ``probe`` every ``1/rate`` seconds until ``stop`` is set.

    Deadlines are absolute (``origin + k * interval``) so timer drift does
    not accumulate; sample boundaries use the actual reading timestamps.
    After the stop signal a final closing reading is taken so the stream
    covers the full window. A tick keeps its reading only; a reading whose
    timestamp does not advance past the last kept one is dropped. The
    samples between kept readings are built after the closing reading.

    Args:
        probe: Counter source; its descriptor supplies the domains and
            counter ranges.
        config: Rate and optional per-domain baseline to subtract.
        stop: Object with ``is_set()``; ``threading.Event`` works.
        scheduler: Time source override; defaults to the real clock.

    Returns:
        Ordered, adjacent samples. Empty if stopped before the first
        interval elapsed.

    Raises:
        InvalidConfig: The interval could span more than one counter wrap.
        ProbeLost: A reading failed; the samples collected so far are lost.
    """
    sched = scheduler or RealScheduler()
    interval_ns = config.interval_ns
    descriptor = probe.describe()
    _check_single_wrap(descriptor.max_range_uj, interval_ns)

    try:
        first = probe.read()
    except ReadFailed as exc:
        raise ProbeLost(f"probe failed at session start: {exc}") from exc

    # The loop runs inside the test window, so it does no more than read
    # and keep; its callables are bound once.
    readings = [first]
    keep = readings.append
    read, sleep_until, now, stopped = probe.read, sched.sleep_until, sched.now, stop.is_set
    origin_ns = last_ns = first.timestamp_ns
    tick = 1
    try:
        while not stopped():
            deadline_ns = origin_ns + tick * interval_ns
            sleep_until(deadline_ns, stop)
            if now() < deadline_ns:
                # Woken early by the stop signal.
                break
            reading = read()
            if reading.timestamp_ns > last_ns:
                keep(reading)
                last_ns = reading.timestamp_ns
            tick += 1

        if tick > 1:
            # Closing reading so energy up to the stop instant is captured.
            reading = read()
            if reading.timestamp_ns > last_ns:
                keep(reading)
    except ReadFailed as exc:
        raise ProbeLost(f"probe lost mid-stream: {exc}") from exc
    return _columns(readings, descriptor, config.baseline_w)


# Polling rate used while averaging idle power; accuracy comes from the
# window length, not the rate.
_CALIBRATION_RATE_HZ = 10.0
# Calibration polls the probe for its whole window, even when a simulated
# probe replays it on a virtual clock; an hour is 36,000 polls.
MAX_CALIBRATION_S = 3600.0


def check_calibration_window(duration_s: float) -> None:
    """Refuse a calibration window that is not finite, is shorter than 1 s
    or is longer than MAX_CALIBRATION_S."""
    if not 1.0 <= duration_s < math.inf:
        raise InvalidConfig(f"baseline calibration needs a finite window of at least 1 s, got {duration_s!r}")
    if duration_s > MAX_CALIBRATION_S:
        raise InvalidConfig(
            f"baseline calibration window must be at most {MAX_CALIBRATION_S:.0f} s, got {duration_s!r}"
        )


def calibrate_baseline(
    probe: Probe,
    duration_s: float,
    scheduler: Scheduler | None = None,
) -> BaselineProfile:
    """Measure mean idle power per domain over a quiescent window.

    The system is expected to be otherwise idle for the whole window;
    that is the operator's responsibility.

    Raises:
        InvalidConfig: Window not finite, shorter than 1 s or longer
            than MAX_CALIBRATION_S.
        ProbeLost: The probe failed during calibration.
    """
    check_calibration_window(duration_s)
    sched = scheduler or RealScheduler()
    stop = DeadlineStop(sched.now, sched.now() + round(duration_s * _NS_PER_S))
    samples = sample_stream(probe, SamplerConfig(rate_hz=_CALIBRATION_RATE_HZ), stop, sched)
    if not samples:
        raise ProbeLost("calibration produced no samples")

    window_ns = samples.ends_ns[-1] - samples.starts_ns[0]
    window_s = window_ns / _NS_PER_S
    powers_w = {d: (sum(uj) / _UJ_PER_J) / window_s for d, uj in samples.energy_uj.items()}
    return BaselineProfile(
        powers_w=powers_w,
        duration_s=window_s,
        calibrated_at=datetime.now(timezone.utc).isoformat(timespec="microseconds"),
    )
