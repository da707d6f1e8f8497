"""Energy measurement backends.

Two probe implementations sit behind one interface: a live reader for the
Linux powercap tree (``/sys/class/powercap/intel-rapl*``) and a simulated
probe driven by a scenario file, used for tests and for machines without
readable energy counters.

Counters are cumulative microjoule values that wrap at a per-domain maximum,
exactly like the kernel interface reports them.

The live reader opens every zone's ``energy_uj`` once, when it discovers
the zones, and holds the file descriptors for its whole lifetime. A read
is one ``os.pread`` at offset 0 per held descriptor: sysfs regenerates an
attribute's text on every read at offset 0, so no reopen or seek is
needed. The descriptors are non-inheritable (Python's default), so a
harness child never receives them.
"""

from __future__ import annotations

import abc
import logging
import os
import re
import time
import weakref
from bisect import bisect_right
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from enum import Enum
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Mapping

from manai.errors import (
    MalformedScenario,
    NoProbeAvailable,
    PermissionDenied,
    ReadFailed,
)

logger = logging.getLogger(__name__)

DEFAULT_POWERCAP_ROOT = Path("/sys/class/powercap")

# The powercap counters refresh at roughly millisecond granularity; the
# kernel does not report the exact figure, so it is a documented default
# that config may override.
DEFAULT_RAPL_UPDATE_INTERVAL_NS = 1_000_000

# Fallback when a zone has no readable max_energy_range_uj. Large enough
# that wrap correction degenerates to plain subtraction.
_FALLBACK_MAX_RANGE_UJ = 2**60

_FEMTOJOULE_PER_MICROJOULE = 1_000_000_000
_MICROWATT_PER_WATT = 1_000_000


class DomainKind(Enum):
    """The five power domains exposed by the powercap interface."""

    PACKAGE = "package"
    CORE = "core"
    UNCORE = "uncore"
    DRAM = "dram"
    PSYS = "psys"


# Fixed read order: package first, platform-wide last.
_KIND_ORDER = {
    DomainKind.PACKAGE: 0,
    DomainKind.CORE: 1,
    DomainKind.UNCORE: 2,
    DomainKind.DRAM: 3,
    DomainKind.PSYS: 4,
}


class ProbeBackend(Enum):
    RAPL = "rapl"
    SIMULATED = "simulated"


@dataclass(frozen=True)
class EnergyDomain:
    """Identity of one measurement scope: a domain kind on one socket."""

    kind: DomainKind
    socket_index: int = 0

    def __post_init__(self):
        if self.socket_index < 0:
            raise ValueError("socket_index must be non-negative")

    def __str__(self) -> str:
        return f"{self.kind.value}:{self.socket_index}"

    @classmethod
    def parse(cls, text: str) -> "EnergyDomain":
        kind_name, _, index = text.partition(":")
        try:
            kind = DomainKind(kind_name)
            return cls(kind, int(index))
        except (ValueError, KeyError) as exc:
            raise ValueError(f"not an energy domain: {text!r}") from exc


def domain_sort_key(domain: EnergyDomain) -> tuple[int, int]:
    """Fixed ordering used everywhere domains are iterated or rendered."""
    return (_KIND_ORDER[domain.kind], domain.socket_index)


@dataclass(frozen=True)
class ProbeReading:
    """One back-to-back snapshot of all domain counters.

    ``counters`` and ``max_range`` are in microjoules and share key sets;
    every counter lies in ``[0, max_range)``.
    """

    timestamp_ns: int
    counters: Mapping[EnergyDomain, int]
    max_range: Mapping[EnergyDomain, int]

    def __post_init__(self):
        if set(self.counters) != set(self.max_range):
            raise ValueError("counters and max_range must have identical key sets")
        for domain, value in self.counters.items():
            limit = self.max_range[domain]
            if not 0 <= value < limit:
                raise ValueError(f"counter {value} out of [0, {limit}) for {domain}")


@dataclass(frozen=True)
class ProbeDescriptor:
    backend: ProbeBackend
    domains: tuple[EnergyDomain, ...]
    update_interval_ns: int

    def __post_init__(self):
        if not self.domains:
            raise ValueError("a probe must expose at least one domain")
        if self.update_interval_ns <= 0:
            raise ValueError("update_interval_ns must be positive")


class Probe(abc.ABC):
    """A source of cumulative energy counter snapshots.

    One probe instance is owned by a single sampling task at a time;
    create independent instances for independent tasks.
    """

    @abc.abstractmethod
    def describe(self) -> ProbeDescriptor:
        """Enumerate available domains and the counter refresh interval."""

    @abc.abstractmethod
    def read(self) -> ProbeReading:
        """Take one snapshot of all domains, with a monotonic timestamp."""

    def begin_session(self) -> None:
        """Hook called when a sampling session starts. Default: no-op."""


# --------------------------------------------------------------------------
# RAPL over powercap sysfs
# --------------------------------------------------------------------------

_PACKAGE_NAME_RE = re.compile(r"^package-(\d+)$")

_ZONE_NAME_KINDS = {
    "core": DomainKind.CORE,
    "uncore": DomainKind.UNCORE,
    "dram": DomainKind.DRAM,
    "psys": DomainKind.PSYS,
}


# Bytes read per counter: room for a u64 in decimal (20 digits) and a newline.
_COUNTER_READ_BYTES = 32


@dataclass(frozen=True)
class _RaplZone:
    domain: EnergyDomain
    fd: int
    max_range_uj: int


def _close_fds(fds: list[int]) -> None:
    for fd in fds:
        os.close(fd)


class RaplProbe(Probe):
    """Reads cumulative energy counters from the powercap sysfs tree.

    Zones are discovered once at construction, and each zone's
    ``energy_uj`` is opened then and held until the probe is garbage
    collected (a ``weakref.finalize`` closes the descriptors). A read is
    one ``os.pread(fd, 32, 0)`` per zone, sequential in a fixed order
    (package, core, uncore, dram, psys); the interface offers no
    multi-domain snapshot, so the skew of one pass is accepted and bounded
    by read latency.

    Args:
        powercap_root: Root of the powercap class directory. Overridable
            for tests and via the ``MANAI_POWERCAP_ROOT`` environment
            variable at the factory level.
        update_interval_ns: Counter refresh granularity to report.

    Raises:
        NoProbeAvailable: No ``intel-rapl:*`` zones exist under the root.
        PermissionDenied: Zones exist but no counter is readable.
    """

    def __init__(
        self,
        powercap_root: Path | str = DEFAULT_POWERCAP_ROOT,
        update_interval_ns: int = DEFAULT_RAPL_UPDATE_INTERVAL_NS,
    ):
        self._root = Path(powercap_root)
        self._update_interval_ns = update_interval_ns
        # Registered before discovery opens anything, so descriptors opened
        # by a constructor that then raises are closed as well.
        self._fds: list[int] = []
        weakref.finalize(self, _close_fds, self._fds)
        self._zones = self._discover()
        self._max_range = MappingProxyType(
            {zone.domain: zone.max_range_uj for zone in self._zones}
        )

    def _discover(self) -> list[_RaplZone]:
        zone_dirs: list[Path] = []
        if self._root.is_dir():
            for entry in sorted(self._root.iterdir()):
                # Excludes intel-rapl-mmio:* mirrors of the same counters.
                if entry.is_dir() and re.match(r"^intel-rapl:\d+$", entry.name):
                    zone_dirs.append(entry)
                    zone_dirs.extend(
                        sub
                        for sub in sorted(entry.iterdir())
                        if sub.is_dir() and sub.name.startswith("intel-rapl:")
                    )
        if not zone_dirs:
            raise NoProbeAvailable(f"no powercap zones under {self._root}")

        zones: list[_RaplZone] = []
        unreadable = 0
        psys_count = 0
        socket_by_top: dict[Path, int] = {}
        for zone_dir in zone_dirs:
            name = self._read_name(zone_dir)
            if name is None:
                continue
            package_match = _PACKAGE_NAME_RE.match(name)
            if package_match:
                kind = DomainKind.PACKAGE
                socket = int(package_match.group(1))
                socket_by_top[zone_dir] = socket
            elif name in _ZONE_NAME_KINDS:
                kind = _ZONE_NAME_KINDS[name]
                if zone_dir.parent in socket_by_top:
                    socket = socket_by_top[zone_dir.parent]
                elif kind is DomainKind.PSYS:
                    socket = psys_count
                    psys_count += 1
                else:
                    socket = 0
            else:
                logger.info("ignoring powercap zone %s with unknown name %r", zone_dir, name)
                continue

            energy_path = zone_dir / "energy_uj"
            try:
                fd = os.open(energy_path, os.O_RDONLY)
            except PermissionError:
                logger.warning("no read permission for %s", energy_path)
                unreadable += 1
                continue
            except OSError:
                continue
            self._fds.append(fd)

            zones.append(
                _RaplZone(
                    domain=EnergyDomain(kind, socket),
                    fd=fd,
                    max_range_uj=self._read_max_range(zone_dir),
                )
            )

        if not zones:
            if unreadable:
                raise PermissionDenied(
                    f"{unreadable} powercap zone(s) under {self._root} exist but are "
                    "unreadable; grant read access to energy_uj files"
                )
            raise NoProbeAvailable(f"no usable powercap zones under {self._root}")

        zones.sort(key=lambda z: domain_sort_key(z.domain))
        return zones

    @staticmethod
    def _read_name(zone_dir: Path) -> str | None:
        try:
            return (zone_dir / "name").read_text().strip()
        except OSError:
            return None

    @staticmethod
    def _read_max_range(zone_dir: Path) -> int:
        try:
            return int((zone_dir / "max_energy_range_uj").read_text().strip())
        except (OSError, ValueError):
            return _FALLBACK_MAX_RANGE_UJ

    def describe(self) -> ProbeDescriptor:
        return ProbeDescriptor(
            backend=ProbeBackend.RAPL,
            domains=tuple(zone.domain for zone in self._zones),
            update_interval_ns=self._update_interval_ns,
        )

    def read(self) -> ProbeReading:
        timestamp_ns = time.monotonic_ns()
        counters: dict[EnergyDomain, int] = {}
        for zone in self._zones:
            try:
                counters[zone.domain] = int(os.pread(zone.fd, _COUNTER_READ_BYTES, 0))
            except (OSError, ValueError) as exc:
                raise ReadFailed(zone.domain, str(exc)) from exc
        return ProbeReading(timestamp_ns, counters, self._max_range)


# --------------------------------------------------------------------------
# Simulated probe
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioSegment:
    """A stretch of constant per-domain power."""

    duration_ns: int
    powers_uw: Mapping[EnergyDomain, int]

    def __post_init__(self):
        if self.duration_ns <= 0:
            raise ValueError("segment duration must be positive")
        if any(p < 0 for p in self.powers_uw.values()):
            raise ValueError("segment power must be non-negative")


@dataclass(frozen=True)
class SimulationScenario:
    """A piecewise-constant power profile the simulated probe integrates.

    The counter value at elapsed time ``t`` is the energy integral over
    ``[0, floor(t / update_interval) * update_interval]``, in microjoules,
    reduced modulo ``max_range_uj``. Past the last segment the final
    segment's power level holds, so constant scenarios run forever.
    """

    segments: tuple[ScenarioSegment, ...]
    max_range_uj: int
    update_interval_ns: int

    def __post_init__(self):
        if not self.segments:
            raise ValueError("scenario needs at least one segment")
        if self.max_range_uj <= 0:
            raise ValueError("max_range_uj must be positive")
        if self.update_interval_ns <= 0:
            raise ValueError("update_interval_ns must be positive")
        # Segment i spans [starts[i], starts[i + 1]); the extra last entry
        # opens the unbounded tail that holds the final power level.
        starts = [0]
        for segment in self.segments:
            starts.append(starts[-1] + segment.duration_ns)
        seen = {domain for segment in self.segments for domain in segment.powers_uw}
        integrals: dict[EnergyDomain, tuple[list[int], list[int]]] = {}
        for domain in sorted(seen, key=domain_sort_key):
            powers_uw = [segment.powers_uw.get(domain, 0) for segment in self.segments]
            powers_uw.append(powers_uw[-1])
            cumulative_fj = [0]
            for segment, power_uw in zip(self.segments, powers_uw):
                cumulative_fj.append(cumulative_fj[-1] + power_uw * segment.duration_ns)
            integrals[domain] = (cumulative_fj, powers_uw)
        object.__setattr__(self, "_starts_ns", starts)
        object.__setattr__(self, "_integrals", integrals)

    @property
    def domains(self) -> tuple[EnergyDomain, ...]:
        return tuple(self._integrals)

    @property
    def total_duration_ns(self) -> int:
        return self._starts_ns[-1]

    def energy_fj(self, domain: EnergyDomain, until_ns: int) -> int:
        """Exact integral of ``domain`` power over ``[0, until_ns]``.

        Returned in femtojoules (microwatt-nanoseconds) so the arithmetic
        stays in integers; a step-by-step accumulation over counter ticks
        produces the identical value. The scenario keeps each domain's
        integral up to every segment start (0 W where a segment omits the
        domain), so a read is one ``bisect`` for the segment holding
        ``until_ns`` plus that segment's power times the time into it.
        """
        integral = self._integrals.get(domain)
        if until_ns <= 0 or integral is None:
            return 0
        cumulative_fj, powers_uw = integral
        index = bisect_right(self._starts_ns, until_ns) - 1
        return cumulative_fj[index] + powers_uw[index] * (until_ns - self._starts_ns[index])

    def counter_uj(self, domain: EnergyDomain, elapsed_ns: int) -> int:
        """Counter value after ``elapsed_ns``, quantized and wrapped."""
        ticks = elapsed_ns // self.update_interval_ns
        boundary_ns = ticks * self.update_interval_ns
        energy_uj = self.energy_fj(domain, boundary_ns) // _FEMTOJOULE_PER_MICROJOULE
        return energy_uj % self.max_range_uj


class SimulatedProbe(Probe):
    """Deterministic probe that replays a :class:`SimulationScenario`.

    Elapsed time is measured on an injected clock from the moment a
    session begins (or the first read, if no session was opened), so a
    virtual clock makes reads bit-reproducible and a monotonic clock lets
    the same scenario track real test executions.
    """

    def __init__(
        self,
        scenario: SimulationScenario,
        clock: Callable[[], int] = time.monotonic_ns,
    ):
        self._scenario = scenario
        self._clock = clock
        self._epoch_ns: int | None = None
        self._domains = scenario.domains

    @property
    def scenario(self) -> SimulationScenario:
        return self._scenario

    def begin_session(self) -> None:
        """Re-anchor the scenario timeline at the current clock value."""
        self._epoch_ns = self._clock()

    def describe(self) -> ProbeDescriptor:
        return ProbeDescriptor(
            backend=ProbeBackend.SIMULATED,
            domains=self._domains,
            update_interval_ns=self._scenario.update_interval_ns,
        )

    def read(self) -> ProbeReading:
        now_ns = self._clock()
        if self._epoch_ns is None:
            self._epoch_ns = now_ns
        elapsed_ns = now_ns - self._epoch_ns
        counters = {
            domain: self._scenario.counter_uj(domain, elapsed_ns)
            for domain in self._domains
        }
        max_range = {domain: self._scenario.max_range_uj for domain in self._domains}
        return ProbeReading(now_ns, counters, max_range)


# --------------------------------------------------------------------------
# Scenario file parsing
# --------------------------------------------------------------------------

_HEADER_KEYS = {"update_interval_ns", "max_range_uj"}

_SCENARIO_DOMAIN_KEYS = {kind.value: EnergyDomain(kind, 0) for kind in DomainKind}


def _parse_watts_uw(text: str, line_no: int) -> int:
    try:
        watts = Decimal(text)
    except InvalidOperation:
        raise MalformedScenario(f"bad power value {text!r}", line_no) from None
    if watts < 0:
        raise MalformedScenario(f"negative power {text!r}", line_no)
    return int(watts * _MICROWATT_PER_WATT)


def _parse_int(text: str, key: str, line_no: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise MalformedScenario(f"bad integer for {key}: {text!r}", line_no) from None


def load_scenario(path: Path | str) -> SimulationScenario:
    """Parse and validate a scenario file.

    Format: header assignments ``update_interval_ns=<int>`` and
    ``max_range_uj=<int>`` (one or both per line), then one line per
    segment: ``duration_ns=<int> package=<watts> [core=<watts>] ...``.
    Blank lines and ``#`` comments are ignored; unknown keys are errors.

    Raises:
        MalformedScenario: On syntax errors or invariant violations, with
            the offending line number.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise MalformedScenario(f"cannot read {path}: {exc}") from exc

    header: dict[str, int] = {}
    segments: list[ScenarioSegment] = []
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        pairs = []
        for token in line.split():
            key, sep, value = token.partition("=")
            if not sep or not key or not value:
                raise MalformedScenario(f"expected key=value, got {token!r}", line_no)
            pairs.append((key, value))

        if pairs[0][0] == "duration_ns":
            duration_ns = _parse_int(pairs[0][1], "duration_ns", line_no)
            if duration_ns <= 0:
                raise MalformedScenario("segment duration must be positive", line_no)
            powers: dict[EnergyDomain, int] = {}
            for key, value in pairs[1:]:
                domain = _SCENARIO_DOMAIN_KEYS.get(key)
                if domain is None:
                    raise MalformedScenario(f"unknown key {key!r}", line_no)
                if domain in powers:
                    raise MalformedScenario(f"duplicate domain {key!r}", line_no)
                powers[domain] = _parse_watts_uw(value, line_no)
            if not powers:
                raise MalformedScenario("segment defines no domain power", line_no)
            segments.append(ScenarioSegment(duration_ns, powers))
        else:
            if segments:
                raise MalformedScenario("header line after first segment", line_no)
            for key, value in pairs:
                if key not in _HEADER_KEYS:
                    raise MalformedScenario(f"unknown key {key!r}", line_no)
                if key in header:
                    raise MalformedScenario(f"duplicate header key {key!r}", line_no)
                header[key] = _parse_int(value, key, line_no)

    missing = _HEADER_KEYS - set(header)
    if missing:
        raise MalformedScenario(f"missing header key(s): {', '.join(sorted(missing))}")
    if not segments:
        raise MalformedScenario("scenario has no segments")
    if header["update_interval_ns"] <= 0:
        raise MalformedScenario("update_interval_ns must be positive")
    if header["max_range_uj"] <= 0:
        raise MalformedScenario("max_range_uj must be positive")

    return SimulationScenario(
        segments=tuple(segments),
        max_range_uj=header["max_range_uj"],
        update_interval_ns=header["update_interval_ns"],
    )


def create_probe(
    backend: ProbeBackend,
    scenario_path: Path | str | None = None,
    powercap_root: Path | str | None = None,
    update_interval_ns: int | None = None,
    clock: Callable[[], int] = time.monotonic_ns,
) -> Probe:
    """Build the configured probe.

    Raises:
        NoProbeAvailable: RAPL requested without a powercap tree, or
            simulated requested without a scenario.
        PermissionDenied: RAPL zones exist but cannot be read.
    """
    if backend is ProbeBackend.SIMULATED:
        if scenario_path is None:
            raise NoProbeAvailable("simulated probe requires a scenario file")
        return SimulatedProbe(load_scenario(scenario_path), clock=clock)

    root = powercap_root or os.environ.get("MANAI_POWERCAP_ROOT") or DEFAULT_POWERCAP_ROOT
    return RaplProbe(
        powercap_root=root,
        update_interval_ns=update_interval_ns or DEFAULT_RAPL_UPDATE_INTERVAL_NS,
    )
