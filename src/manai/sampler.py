"""Turn cumulative counter readings into wrap-corrected interval samples.

The sampling loop polls a probe at a configured rate against absolute
deadlines and keeps, per tick, only the reading itself: its timestamp
and its counters in ``probe.describe().domains`` order. After the stop
signal, one pass per column turns the kept readings into
:class:`SampleColumns`: the edge times, and per domain the wrap-corrected
counter delta between adjacent readings. A sample knows no idle
baseline; attribution takes it off once per window. No per-sample object
is built on the way.

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

from manai.clock import DeadlineStop
from manai.errors import InvalidConfig, ProbeLost, ReadFailed
from manai.probe import EnergyDomain, Probe, ProbeDescriptor, ProbeReading

_NS_PER_S = 1_000_000_000
_NJ_PER_UJ = 1_000


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

    def __post_init__(self):
        # Rejects rates that are not positive, NaN, infinity and rates above
        # 2 GHz, whose 0 ns interval would never advance a virtual clock.
        if not (self.rate_hz > 0 and 0.5 < _NS_PER_S / self.rate_hz < math.inf):
            raise ValueError(f"sampling rate {self.rate_hz!r} Hz has no finite interval of 1 ns or more")

    @property
    def interval_ns(self) -> int:
        return round(_NS_PER_S / self.rate_hz)


def _columns(readings: list[ProbeReading], descriptor: ProbeDescriptor) -> SampleColumns:
    """The samples between adjacent ``readings``, built one column at a time."""
    edges_ns = [timestamp_ns for timestamp_ns, _ in readings]
    starts_ns, ends_ns = edges_ns[:-1], edges_ns[1:]
    energy_uj = {}
    for domain, counters in zip(descriptor.domains, zip(*(c for _, c in readings))):
        max_range_uj = descriptor.max_range_uj[domain]
        # ``wrap_delta`` of each adjacent pair: read() keeps counters in range.
        energy_uj[domain] = [(after - before) % max_range_uj for before, after in zip(counters, counters[1:])]
    return SampleColumns(starts_ns, ends_ns, energy_uj)


def _wrap_horizon_ns(descriptor: ProbeDescriptor, domain: EnergyDomain) -> float:
    """How long ``domain`` at its peak power takes to fill its whole counter
    range (nJ / W = ns); infinite at 0 W. The counter moves only on its
    refresh grid, so two readings one interval apart can span up to
    ``interval + update_interval`` of energy, and a full range reads as 0 J."""
    peak_w = descriptor.peak_power_w[domain]
    return descriptor.max_range_uj[domain] * _NJ_PER_UJ / peak_w if peak_w else math.inf


def _check_single_wrap(descriptor: ProbeDescriptor, interval_ns: int) -> None:
    """Refuse an interval whose reading pairs could reach a domain's wrap horizon."""
    for domain in descriptor.domains:
        if interval_ns + descriptor.update_interval_ns >= _wrap_horizon_ns(descriptor, domain):
            raise InvalidConfig(
                f"sampling interval {interval_ns / _NS_PER_S:.3f} s plus one counter refresh could span "
                f"a full wrap for {domain} (range {descriptor.max_range_uj[domain]} uJ at up to "
                f"{descriptor.peak_power_w[domain]:g} W); increase the sampling rate"
            )


def sample_stream(probe: Probe, config: SamplerConfig, stop) -> SampleColumns:
    """Poll ``probe`` every ``1/rate`` seconds until ``stop`` is set.

    The loop sleeps on ``probe.scheduler`` toward absolute deadlines
    (``origin + k * interval``), so timer drift does not accumulate;
    sample boundaries use the actual reading timestamps.
    After the stop signal a final closing reading is taken so the stream
    covers the full window. A tick keeps its reading only; a reading whose
    timestamp does not advance past the last kept one is dropped. The
    samples between kept readings are built after the closing reading.

    Args:
        probe: Counter source; its descriptor supplies the domains and
            counter ranges.
        config: The polling rate.
        stop: Object with ``is_set()``; ``threading.Event`` works.

    Returns:
        Ordered, adjacent samples. Empty if stopped before the first
        interval elapsed.

    Raises:
        InvalidConfig: Two readings could span a full counter wrap.
        ProbeLost: A reading failed; the samples collected so far are lost.
    """
    interval_ns = config.interval_ns
    descriptor = probe.describe()
    _check_single_wrap(descriptor, interval_ns)

    try:
        first = probe.read()
    except ReadFailed as exc:
        raise ProbeLost(f"probe failed at session start: {exc}") from exc

    # The loop runs inside the test window, so it does no more than read
    # and keep; its callables are bound once.
    readings = [first]
    keep = readings.append
    sched = probe.scheduler
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
    return _columns(readings, descriptor)


# Polling interval while averaging idle power, unless a counter could
# wrap in less time; the mean is total energy over the window, so the
# interval only guards against wraps.
_CALIBRATION_INTERVAL_NS = 100_000_000
# Calibration polls the probe for its whole window, even when a simulated
# probe replays it on its virtual clock; an hour is 36,000 polls at 100 ms.
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


def _calibration_interval_ns(descriptor: ProbeDescriptor) -> int:
    """100 ms, or the longest interval the wrap check accepts when that is
    shorter, in whole refresh intervals so that a simulated probe is read
    on its refresh grid."""
    update_ns = descriptor.update_interval_ns
    horizon_ns = min((_wrap_horizon_ns(descriptor, d) for d in descriptor.domains), default=math.inf)
    interval_ns = max(1, math.ceil(min(horizon_ns, _CALIBRATION_INTERVAL_NS + update_ns + 1)) - update_ns - 1)
    # Below one refresh interval no grid point is left.
    return interval_ns // update_ns * update_ns or interval_ns


def calibrate_baseline(probe: Probe, duration_s: float) -> BaselineProfile:
    """Measure mean idle power per domain over a quiescent window.

    The window is timed on ``probe.scheduler``, so a simulated probe
    replays it at once. The system is expected to be otherwise idle for
    the whole window; that is the operator's responsibility.

    Raises:
        InvalidConfig: Window not finite, shorter than 1 s or longer
            than MAX_CALIBRATION_S.
        ProbeLost: The probe failed during calibration.
    """
    check_calibration_window(duration_s)
    now = probe.scheduler.now
    stop = DeadlineStop(now, now() + round(duration_s * _NS_PER_S))
    rate_hz = _NS_PER_S / _calibration_interval_ns(probe.describe())
    samples = sample_stream(probe, SamplerConfig(rate_hz), stop)
    if not samples:
        raise ProbeLost("calibration produced no samples")

    window_ns = samples.ends_ns[-1] - samples.starts_ns[0]
    # One rounding: nJ / ns = W.
    powers_w = {d: sum(uj) * _NJ_PER_UJ / window_ns for d, uj in samples.energy_uj.items()}
    return BaselineProfile(
        powers_w=powers_w,
        duration_s=window_ns / _NS_PER_S,
        calibrated_at=datetime.now(timezone.utc).isoformat(timespec="microseconds"),
    )
