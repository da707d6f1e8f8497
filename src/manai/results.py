"""Per-test attribution results and cross-iteration statistics.

Attribution distributes sample energy over a test's execution window
pro-rata: a sample half inside the window contributes half its energy.
It works on :class:`~manai.sampler.SampleColumns`: two ``bisect`` calls
find the samples wholly inside the window, whose integer microjoules
each domain's column sums in one slice; only the at most two boundary
samples a window cuts become exact rationals,
``Fraction(energy * overlap, length)``. Each total is one exact rational
in joules, so attributing over any partition of a window telescopes to
the whole-window result exactly; values become floats only when a result
is materialized.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from manai.errors import EmptyInput
from manai.protocol import TestId, TestStatus
from manai.probe import EnergyDomain, domain_sort_key
from manai.sampler import EnergySample, SampleColumns

_UJ_PER_J = 1_000_000
_NS_PER_S = 1_000_000_000


def attribute(
    samples: SampleColumns | Sequence[EnergySample],
    begin_ns: int,
    end_ns: int,
) -> dict[EnergyDomain, Fraction]:
    """Energy attributable to the window ``[begin_ns, end_ns]``.

    Each sample contributes ``energy * overlap / sample_length``. Samples
    wholly inside the window contribute their whole integer microjoules;
    partial boundary samples contribute pro-rata as exact rationals;
    samples outside the window contribute nothing. The values are exact
    rationals in joules.

    Args:
        samples: Ordered, non-overlapping samples; a sequence of
            :class:`EnergySample` is converted to columns first.
        begin_ns: Window start (inclusive), on the samples' clock.
        end_ns: Window end, strictly greater than ``begin_ns``.

    Returns:
        Joules per domain of any sample (0 for a domain no sample in the
        window covers); an empty map when ``samples`` is empty (callers
        warn about the missing coverage).
    """
    if end_ns <= begin_ns:
        raise ValueError("attribution window must have positive length")
    samples = SampleColumns.of(samples)
    starts, ends = samples.starts_ns, samples.ends_ns
    # Samples first..stop-1 lie wholly inside the window. Only the sample
    # before them can reach in across begin_ns, and only the sample at
    # stop across end_ns; they may be one sample.
    first = bisect_left(starts, begin_ns)
    stop = bisect_right(ends, end_ns)
    cuts = []
    for index in sorted({first - 1, stop}):
        if 0 <= index < len(starts):
            overlap_ns = min(end_ns, ends[index]) - max(begin_ns, starts[index])
            if overlap_ns > 0:
                cuts.append((index, overlap_ns, ends[index] - starts[index]))
    energy = {}
    for domain, column in samples.energy_uj.items():
        total_uj = sum(filter(None, column[first:stop]))
        for index, overlap_ns, length_ns in cuts:
            if column[index] is not None:
                total_uj += Fraction(column[index] * overlap_ns, length_ns)
        energy[domain] = Fraction(total_uj, _UJ_PER_J)
    return energy


@dataclass(frozen=True)
class TestExecutionResult:
    """Attributed outcome of one iteration of one test."""

    test: TestId
    iteration: int
    duration_ns: int
    energy_j: Mapping[EnergyDomain, float]
    mean_power_w: Mapping[EnergyDomain, float]
    samples: SampleColumns
    status: TestStatus
    low_confidence: bool
    baseline_applied: bool
    crashed: bool = False
    error: str | None = None

    def __post_init__(self):
        # A sequence of EnergySample becomes columns here, once.
        object.__setattr__(self, "samples", SampleColumns.of(self.samples))

    @classmethod
    def build(
        cls,
        test: TestId,
        iteration: int,
        samples: SampleColumns | Sequence[EnergySample],
        begin_ns: int,
        end_ns: int,
        status: TestStatus,
        update_interval_ns: int,
        baseline_w: Mapping[EnergyDomain, float] | None = None,
        crashed: bool = False,
        error: str | None = None,
        domains: Sequence[EnergyDomain] = (),
    ) -> "TestExecutionResult":
        """Attribute ``samples`` over the window and derive the fields.

        ``low_confidence`` is set exactly when the window is shorter than
        the probe's counter refresh interval. ``domains`` zero-fills
        entries for domains the samples never covered. ``baseline_w``
        takes idle power times the window off each domain it holds, once,
        clamped at 0; ``baseline_applied`` records whether it was given.
        """
        duration_ns = end_ns - begin_ns
        samples = SampleColumns.of(samples)
        energy = attribute(samples, begin_ns, end_ns)
        for domain in domains:
            energy.setdefault(domain, Fraction(0))
        duration_s = Fraction(duration_ns, _NS_PER_S)
        for domain, power_w in (baseline_w or {}).items():
            if domain in energy:
                energy[domain] = max(Fraction(0), energy[domain] - Fraction(power_w) * duration_s)
        energy = dict(sorted(energy.items(), key=lambda kv: domain_sort_key(kv[0])))
        return cls(
            test=test,
            iteration=iteration,
            duration_ns=duration_ns,
            energy_j={d: float(e) for d, e in energy.items()},
            mean_power_w={d: float(e / duration_s) for d, e in energy.items()},
            samples=samples,
            status=status,
            low_confidence=duration_ns < update_interval_ns,
            baseline_applied=baseline_w is not None,
            crashed=crashed,
            error=error,
        )


@dataclass(frozen=True)
class Stats:
    """Five-number description of one metric across iterations."""

    mean: float
    median: float
    min: float
    max: float
    stddev: float


def compute_stats(values: Sequence[float]) -> Stats:
    """Iteration statistics of finite values, as Python 3.11's ``statistics``.

    Median is the lower-middle element for even counts; stddev is the
    sample standard deviation (n-1 denominator), zero for one value.
    """
    if not values:
        raise EmptyInput("no values to summarize")
    # Each value is an integer over a power of two, so over the largest one.
    ratios = [value.as_integer_ratio() for value in values]
    scale = max(d for _, d in ratios)
    exact = [n * (scale // d) for n, d in ratios]
    count, total = len(exact), sum(exact)
    ordered = sorted(values)
    # The sum of squared deviations, times count * scale**2.
    squares = count * sum(x * x for x in exact) - total * total
    return Stats(
        mean=total / (count * scale),
        median=ordered[(count - 1) // 2],
        min=ordered[0],
        max=max(values),  # not ordered[-1]: of equal maxima, as 0.0 and -0.0, the first
        stddev=_sqrt_of_ratio(squares, count * (count - 1) * scale * scale) if count > 1 else 0.0,
    )


def _sqrt_of_ratio(n: int, m: int) -> float:
    """The float nearest sqrt(n / m), rounded as ``statistics`` rounds it."""
    # A root of 2 * 53 + 3 bits, rounded to odd, rounds correctly to a float.
    shift = (n.bit_length() - m.bit_length() - (2 * 53 + 3)) // 2
    n, m = (n, m << 2 * shift) if shift >= 0 else (n << -2 * shift, m)
    root = math.isqrt(n // m)
    root |= root * root * m != n  # round to odd
    return float(root << shift) if shift >= 0 else root / (1 << -shift)


@dataclass(frozen=True)
class TestSummary:
    """Cross-iteration statistics for one test."""

    test: TestId
    iterations: int
    energy_stats: Mapping[EnergyDomain, Stats]
    power_stats: Mapping[EnergyDomain, Stats]
    mean_duration_s: float
    any_low_confidence: bool
    pass_count: int
    fail_count: int
    skip_count: int


def summarize(results: Sequence[TestExecutionResult]) -> TestSummary:
    """Aggregate the iterations of one test.

    Raises:
        EmptyInput: ``results`` is empty.
        ValueError: Results belong to more than one test.
    """
    if not results:
        raise EmptyInput("cannot summarize zero results")
    test = results[0].test
    if any(r.test != test for r in results):
        raise ValueError("summarize expects results for exactly one test")

    domains = sorted({d for r in results for d in r.energy_j}, key=domain_sort_key)
    energy_stats = {d: compute_stats([r.energy_j.get(d, 0.0) for r in results]) for d in domains}
    power_stats = {d: compute_stats([r.mean_power_w.get(d, 0.0) for r in results]) for d in domains}
    statuses = [r.status for r in results]
    total_ns, count = sum(r.duration_ns for r in results), len(results)
    # An int when the count divides the total, as statistics.mean gives it.
    mean_ns = total_ns / count if total_ns % count else total_ns // count
    return TestSummary(
        test=test,
        iterations=count,
        energy_stats=energy_stats,
        power_stats=power_stats,
        mean_duration_s=mean_ns / _NS_PER_S,
        any_low_confidence=any(r.low_confidence for r in results),
        pass_count=statuses.count(TestStatus.PASS),
        fail_count=statuses.count(TestStatus.FAIL),
        skip_count=statuses.count(TestStatus.SKIP),
    )
