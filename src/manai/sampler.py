"""Turn cumulative counter readings into wrap-corrected interval samples.

A run and a baseline calibration read their probe only at the edges of
their window, plus once per wrap guard (:func:`_wrap_guard_ns`) while it
is open; a simulated probe is read so on its virtual clock. The replay
grid :func:`sample_stream` reads a :class:`~manai.probe.SimulatedProbe`
at a fixed rate instead; no run uses it, and the tests hold the edge
readings to it. Either way a reading is kept as it is: its timestamp and its counters in
``probe.describe().domains`` order. Afterwards, one pass per column
(:func:`_columns`) turns the kept readings into :class:`SampleColumns`:
the edge times, and per domain the wrap-corrected counter delta between
adjacent readings. A sample knows no idle baseline; attribution takes it
off once per window. No per-sample object is built on the way.

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

from manai.errors import InvalidConfig, ProbeLost, ReadFailed
from manai.probe import EnergyDomain, Probe, ProbeDescriptor, ProbeReading, SimulatedProbe

_NS_PER_S = 1_000_000_000
_NJ_PER_UJ = 1_000


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
    """The rate of the replay grid :func:`sample_stream`."""

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
        # Counters are modular and read() keeps them in range, so a counter
        # that wrapped once between two readings closes over the top.
        energy_uj[domain] = [(after - before) % max_range_uj for before, after in zip(counters, counters[1:])]
    return SampleColumns(starts_ns, ends_ns, energy_uj)


def _wrap_horizon_ns(descriptor: ProbeDescriptor, domain: EnergyDomain) -> float:
    """How long ``domain`` at its peak power takes to fill its counter range
    less 1 uJ (nJ / W = ns); infinite at 0 W. The counter moves only on its
    refresh grid, so two readings one interval apart can span up to
    ``interval + update_interval`` of energy, and a full range reads as 0 J.
    Flooring to whole microjoules can add 1 uJ to a pair."""
    peak_w = descriptor.peak_power_w[domain]
    return (descriptor.max_range_uj[domain] - 1) * _NJ_PER_UJ / peak_w if peak_w else math.inf


def _format_ns(duration_ns: float) -> str:
    """A duration in the largest unit it fills, e.g. ``10 us`` or ``1.5 s``."""
    for unit, scale in (("s", _NS_PER_S), ("ms", 1_000_000), ("us", 1_000)):
        if duration_ns >= scale:
            return f"{duration_ns / scale:g} {unit}"
    return f"{duration_ns:g} ns"


def _check_single_wrap(descriptor: ProbeDescriptor, interval_ns: int) -> None:
    """Refuse an interval whose reading pairs could reach a domain's wrap horizon."""
    for domain in descriptor.domains:
        horizon_ns = _wrap_horizon_ns(descriptor, domain)
        if interval_ns + descriptor.update_interval_ns < horizon_ns:
            continue
        # The shortest interval, 1 ns, fails as well: no rate can help.
        advice = (
            "the counter range is too small for the refresh interval"
            if 1 + descriptor.update_interval_ns >= horizon_ns
            else "increase the sampling rate"
        )
        raise InvalidConfig(
            f"sampling interval {_format_ns(interval_ns)} plus one counter refresh "
            f"({_format_ns(descriptor.update_interval_ns)}) could span a full wrap for {domain} "
            f"(range {descriptor.max_range_uj[domain]} uJ at up to "
            f"{descriptor.peak_power_w[domain]:g} W); {advice}"
        )


def _wrap_guard_ns(descriptor: ProbeDescriptor) -> int | None:
    """Longest gap between two readings taken only at window edges: half
    the longest interval the wrap check accepts, so a reading may come late
    by as much again. ``None`` when no counter can wrap.

    Raises:
        InvalidConfig: The wrap check accepts no interval.
    """
    horizon_ns = min((_wrap_horizon_ns(descriptor, d) for d in descriptor.domains), default=math.inf)
    if horizon_ns == math.inf:
        return None
    guard_ns = max(1, (math.ceil(horizon_ns) - descriptor.update_interval_ns - 1) // 2)
    _check_single_wrap(descriptor, guard_ns)
    return guard_ns


def sample_stream(probe: SimulatedProbe, config: SamplerConfig, end_ns: int) -> SampleColumns:
    """Replay ``probe`` on the grid ``probe.now_ns + k * interval`` of its
    virtual clock, up to the first deadline at or past ``end_ns``: wait for
    each deadline, read and keep the reading, then build the samples. They
    are empty if ``end_ns`` is not past the first reading.

    Raises:
        InvalidConfig: Two readings could span a full counter wrap.
    """
    interval_ns = config.interval_ns
    descriptor = probe.describe()
    _check_single_wrap(descriptor, interval_ns)
    readings = [probe.read()]
    for deadline_ns in range(probe.now_ns + interval_ns, end_ns + interval_ns, interval_ns):
        probe.wait_until(deadline_ns)
        readings.append(probe.read())
    return _columns(readings, descriptor)


# Calibration reads its probe once per wrap guard, also when a simulated
# probe replays the window on its virtual clock: an hour at 10 W on a 1 J
# range is about 73,000 guard readings.
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


def calibrate_baseline(probe: Probe, duration_s: float) -> BaselineProfile:
    """Measure mean idle power per domain over a quiescent window.

    The probe is read as a live run reads a test window: at both edges,
    and once per wrap guard in between, waiting on the probe's own clock,
    so a simulated probe replays the window at once. The window is
    ``duration_s`` rounded up to whole counter refresh intervals, so a
    simulated probe ends it on its refresh grid. The system is expected
    to be otherwise idle for the whole window; that is the operator's
    responsibility.

    Raises:
        InvalidConfig: Window not finite, shorter than 1 s or longer
            than MAX_CALIBRATION_S, or two readings one guard apart could
            span a full counter wrap.
        ProbeLost: The probe failed during calibration.
    """
    check_calibration_window(duration_s)
    descriptor = probe.describe()
    guard_ns = _wrap_guard_ns(descriptor)
    update_ns = descriptor.update_interval_ns
    window_ns = -(-round(duration_s * _NS_PER_S) // update_ns) * update_ns
    ranges_uj = [descriptor.max_range_uj[d] for d in descriptor.domains]
    # Wrap-corrected totals as _columns sums them, kept as they grow: a
    # short guard makes millions of readings, so none is kept.
    energy_uj = [0] * len(ranges_uj)
    try:
        first = last = probe.read()
        end_ns = first.timestamp_ns + window_ns
        while last.timestamp_ns < end_ns:
            probe.wait_until(end_ns if guard_ns is None else min(end_ns, last.timestamp_ns + guard_ns))
            reading = probe.read()
            energy_uj = [e + (a - b) % r for e, b, a, r in zip(energy_uj, last.counters, reading.counters, ranges_uj)]
            last = reading
    except ReadFailed as exc:
        raise ProbeLost(f"probe lost during calibration: {exc}") from exc

    window_ns = last.timestamp_ns - first.timestamp_ns
    # One rounding: nJ / ns = W.
    powers_w = {d: uj * _NJ_PER_UJ / window_ns for d, uj in zip(descriptor.domains, energy_uj)}
    return BaselineProfile(
        powers_w=powers_w,
        duration_s=window_ns / _NS_PER_S,
        calibrated_at=datetime.now(timezone.utc).isoformat(timespec="microseconds"),
    )
