"""Turn cumulative counter readings into wrap-corrected interval samples.

The sampling loop polls a probe at a configured rate against absolute
deadlines, converts adjacent readings into per-domain energy deltas with
wrap correction against the counter ranges of ``probe.describe()``, and
optionally subtracts a calibrated idle baseline.

Sample energy is carried in integer microjoules so that the telescoping
identity holds exactly: the sum of sample energies over a run equals the
wrap-corrected delta between the first and last reading, as long as the
run consumes less than one full counter range.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Mapping

from manai.clock import DeadlineStop, RealScheduler, Scheduler
from manai.errors import InvalidConfig, ProbeLost, ReadFailed
from manai.probe import EnergyDomain, Probe, ProbeReading

# Upper bound on plausible sustained domain power, used only to reject
# sampling rates so slow that a counter could wrap more than once per
# interval (multi-wrap is undetectable from interval endpoints).
MAX_PLAUSIBLE_POWER_W = 1000.0

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
class BaselineProfile:
    """Idle power measured over a quiescent window.

    Subtracting it approximates the marginal energy of a workload; it is
    an approximation and results record whether it was applied.
    """

    powers_w: Mapping[EnergyDomain, float]
    duration_s: float
    calibrated_at: str

    def __post_init__(self):
        if self.duration_s < 1.0:
            raise ValueError("baseline windows shorter than 1 s are too noisy")
        if any(p < 0 for p in self.powers_w.values()):
            raise ValueError("baseline power must be non-negative")


@dataclass(frozen=True)
class SamplerConfig:
    rate_hz: float
    baseline_w: Mapping[EnergyDomain, float] | None = None

    def __post_init__(self):
        if self.rate_hz <= 0:
            raise ValueError("sampling rate must be positive")
        if self.baseline_w and any(p < 0 for p in self.baseline_w.values()):
            raise ValueError("baseline power must be non-negative")

    @property
    def interval_ns(self) -> int:
        return round(_NS_PER_S / self.rate_hz)


def _baseline_uj(power_w: float, duration_ns: int) -> int:
    # W * ns = nJ; divide by 1000 for uJ.
    return round(power_w * duration_ns / 1000.0)


def _make_sample(
    previous: ProbeReading,
    current: ProbeReading,
    max_range_uj: Mapping[EnergyDomain, int],
    baseline_w: Mapping[EnergyDomain, float] | None,
) -> EnergySample | None:
    duration_ns = current.timestamp_ns - previous.timestamp_ns
    if duration_ns <= 0:
        return None
    energy_uj: dict[EnergyDomain, int] = {}
    for domain, before in previous.counters.items():
        delta = wrap_delta(before, current.counters[domain], max_range_uj[domain])
        if baseline_w is not None:
            delta = max(0, delta - _baseline_uj(baseline_w.get(domain, 0.0), duration_ns))
        energy_uj[domain] = delta
    return EnergySample(previous.timestamp_ns, current.timestamp_ns, energy_uj)


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
) -> list[EnergySample]:
    """Poll ``probe`` every ``1/rate`` seconds until ``stop`` is set.

    Deadlines are absolute (``origin + k * interval``) so timer drift does
    not accumulate; sample boundaries use the actual reading timestamps.
    After the stop signal a final closing reading is taken so the stream
    covers the full window.

    Args:
        probe: Counter source; its descriptor supplies the counter ranges.
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
    max_range_uj = probe.describe().max_range_uj
    _check_single_wrap(max_range_uj, interval_ns)

    samples: list[EnergySample] = []
    try:
        previous = probe.read()
    except ReadFailed as exc:
        raise ProbeLost(f"probe failed at session start: {exc}") from exc

    origin_ns = previous.timestamp_ns
    tick = 1
    try:
        while not stop.is_set():
            deadline_ns = origin_ns + tick * interval_ns
            sched.sleep_until(deadline_ns, stop)
            if sched.now() < deadline_ns:
                # Woken early by the stop signal.
                break
            current = probe.read()
            sample = _make_sample(previous, current, max_range_uj, config.baseline_w)
            if sample is not None:
                samples.append(sample)
                previous = current
            tick += 1

        if tick > 1:
            # Closing reading so energy up to the stop instant is captured.
            final = probe.read()
            sample = _make_sample(previous, final, max_range_uj, config.baseline_w)
            if sample is not None:
                samples.append(sample)
    except ReadFailed as exc:
        raise ProbeLost(f"probe lost mid-stream: {exc}") from exc
    return samples


# Polling rate used while averaging idle power; accuracy comes from the
# window length, not the rate.
_CALIBRATION_RATE_HZ = 10.0


def calibrate_baseline(
    probe: Probe,
    duration_s: float,
    scheduler: Scheduler | None = None,
) -> BaselineProfile:
    """Measure mean idle power per domain over a quiescent window.

    The system is expected to be otherwise idle for the whole window;
    that is the operator's responsibility.

    Raises:
        InvalidConfig: Window shorter than 1 s.
        ProbeLost: The probe failed during calibration.
    """
    if duration_s < 1.0:
        raise InvalidConfig("baseline calibration needs a window of at least 1 s")
    sched = scheduler or RealScheduler()
    stop = DeadlineStop(sched.now, sched.now() + round(duration_s * _NS_PER_S))
    samples = sample_stream(probe, SamplerConfig(rate_hz=_CALIBRATION_RATE_HZ), stop, sched)
    if not samples:
        raise ProbeLost("calibration produced no samples")

    totals_uj: dict[EnergyDomain, int] = {}
    for sample in samples:
        for domain, uj in sample.energy_uj.items():
            totals_uj[domain] = totals_uj.get(domain, 0) + uj
    window_ns = samples[-1].end_ns - samples[0].start_ns
    window_s = window_ns / _NS_PER_S
    powers_w = {d: (uj / _UJ_PER_J) / window_s for d, uj in totals_uj.items()}
    return BaselineProfile(
        powers_w=powers_w,
        duration_s=window_s,
        calibrated_at=datetime.now(timezone.utc).isoformat(timespec="microseconds"),
    )
