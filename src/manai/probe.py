"""Energy measurement backends.

Two probe implementations sit behind one interface: a live reader for the
Linux powercap tree (``/sys/class/powercap/intel-rapl*``) and a simulated
probe driven by a scenario file, used for tests and for machines without
readable energy counters.

Counters are cumulative microjoule values that wrap at a per-domain maximum,
exactly like the kernel interface reports them.

Each probe stamps its readings on its own clock and waits on it with
``wait_until``: the live reader on the monotonic clock, a simulated probe
on a virtual clock that starts at the scenario origin and moves only when
someone waits on it.

The live reader opens every zone's ``energy_uj`` once, when it discovers
the zones, and holds the file descriptors for its whole lifetime. A read
is one ``os.pread`` at offset 0 per held descriptor: sysfs regenerates an
attribute's text on every read at offset 0, so no reopen or seek is
needed. The descriptors are non-inheritable (Python's default), so a
harness child never receives them. A live counter outside its range
fails the read; simulated counters are in range by construction.

A scenario file whose segment lines all list the same domains, each with
one decimal width, is loaded a column at a time; any other goes through a
token loop, which also names every error. Both give the same scenario.
"""

from __future__ import annotations

import abc
import functools
import logging
import os
import re
import time
import weakref
from bisect import bisect_right
from dataclasses import dataclass
from decimal import Decimal
from enum import Enum
from itertools import accumulate
from operator import mul
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, NamedTuple

from manai.errors import (
    InvalidConfig,
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

_FEMTOJOULE_PER_MICROJOULE = 1_000_000_000
_MICROWATT_PER_WATT = 1_000_000

# Upper bound on plausible sustained power of a live domain: the peak a
# RAPL descriptor reports, since the hardware states none.
MAX_PLAUSIBLE_POWER_W = 1000.0

# Upper bound on a scenario segment's power: far above the plausible bound,
# which a synthetic trace such as a random walk may pass, but low enough
# to refuse a huge value before its quadratic conversion to an integer.
MAX_SCENARIO_POWER_W = 1_000_000


class DomainKind(Enum):
    """The five power domains exposed by the powercap interface."""

    PACKAGE = "package"
    CORE = "core"
    UNCORE = "uncore"
    DRAM = "dram"
    PSYS = "psys"


# Fixed read order, the declaration order: package first, platform-wide last.
_KIND_ORDER = {kind: index for index, kind in enumerate(DomainKind)}


class ProbeBackend(Enum):
    RAPL = "rapl"
    SIMULATED = "simulated"


@dataclass(frozen=True)
class EnergyDomain:
    """Identity of one measurement scope: a domain kind on one socket.

    Domains key every per-domain map, so the hash is computed once, from
    the ints of :func:`domain_sort_key`: ``Enum.__hash__`` runs in Python
    on every call, and a ``str`` hash is salted per process. A copied or
    unpickled domain carries the same hash and stays a valid key.
    """

    kind: DomainKind
    socket_index: int = 0

    def __post_init__(self):
        if self.socket_index < 0:
            raise ValueError("socket_index must be non-negative")
        object.__setattr__(self, "_hash", hash(domain_sort_key(self)))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return f"{self.kind.value}:{self.socket_index}"

    @classmethod
    @functools.lru_cache(maxsize=128)
    def parse(cls, text: str) -> "EnergyDomain":
        """The domain ``text`` spells, e.g. ``package:0``. Domains are
        immutable, so one instance per text is shared: a store decode
        parses the same few keys thousands of times. Bad text raises on
        every call."""
        kind_name, _, index = text.partition(":")
        try:
            kind = DomainKind(kind_name)
            return cls(kind, int(index))
        except (ValueError, KeyError) as exc:
            raise ValueError(f"not an energy domain: {text!r}") from exc


def domain_sort_key(domain: EnergyDomain) -> tuple[int, int]:
    """Fixed ordering used everywhere domains are iterated or rendered."""
    return (_KIND_ORDER[domain.kind], domain.socket_index)


class ProbeReading(NamedTuple):
    """One back-to-back snapshot of all domain counters, in microjoules.

    ``counters`` holds one value per domain, in the order of the probe's
    ``describe().domains``. Every counter lies in ``[0, max_range_uj)`` of
    its domain's :class:`ProbeDescriptor`; the probe checks that when it
    reads.
    """

    timestamp_ns: int
    counters: tuple[int, ...]


@dataclass(frozen=True)
class ProbeDescriptor:
    """What a probe measures: its domains, refresh interval, counter ranges
    and the peak power of each domain, at which a counter must not fill
    its whole range between two readings (that reads as 0 J)."""

    backend: ProbeBackend
    domains: tuple[EnergyDomain, ...]
    update_interval_ns: int
    max_range_uj: Mapping[EnergyDomain, int]
    peak_power_w: Mapping[EnergyDomain, float]

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
        """Enumerate available domains, the counter refresh interval, ranges and peak powers."""

    @abc.abstractmethod
    def read(self) -> ProbeReading:
        """Take one snapshot of all domains, with a monotonic timestamp."""

    @abc.abstractmethod
    def wait_until(self, deadline_ns: int) -> None:
        """Return once the clock that stamps :meth:`read` has reached ``deadline_ns``."""


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
        ReadFailed: From :meth:`read`, naming the zone whose counter could
            not be read or lies outside ``[0, max_energy_range_uj)``.
    """

    def __init__(
        self,
        powercap_root: Path | str = DEFAULT_POWERCAP_ROOT,
        update_interval_ns: int = DEFAULT_RAPL_UPDATE_INTERVAL_NS,
    ):
        self._root = Path(powercap_root)
        # Registered before discovery opens anything, so descriptors opened
        # by a constructor that then raises are closed as well.
        self._fds: list[int] = []
        weakref.finalize(self, _close_fds, self._fds)
        self._zones = self._discover()
        self._descriptor = ProbeDescriptor(
            backend=ProbeBackend.RAPL,
            domains=tuple(zone.domain for zone in self._zones),
            update_interval_ns=update_interval_ns,
            max_range_uj=MappingProxyType({zone.domain: zone.max_range_uj for zone in self._zones}),
            peak_power_w=MappingProxyType({zone.domain: MAX_PLAUSIBLE_POWER_W for zone in self._zones}),
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
        unreadable = no_range = 0
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

            # Without its range a wrap cannot be corrected; the zone is
            # skipped before its counter is opened, so it holds no fd.
            max_range_uj = self._read_max_range(zone_dir)
            if max_range_uj is None:
                logger.warning("skipping powercap zone %s: no readable positive "
                               "max_energy_range_uj", zone_dir)
                no_range += 1
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

            zones.append(_RaplZone(domain=EnergyDomain(kind, socket), fd=fd, max_range_uj=max_range_uj))

        if not zones:
            if unreadable:
                raise PermissionDenied(
                    f"{unreadable} powercap zone(s) under {self._root} exist but are "
                    "unreadable; grant read access to energy_uj files"
                )
            why = f" ({no_range} without a readable positive max_energy_range_uj)" if no_range else ""
            raise NoProbeAvailable(f"no usable powercap zones under {self._root}{why}")

        zones.sort(key=lambda z: domain_sort_key(z.domain))
        return zones

    @staticmethod
    def _read_name(zone_dir: Path) -> str | None:
        try:
            return (zone_dir / "name").read_text().strip()
        except OSError:
            return None

    @staticmethod
    def _read_max_range(zone_dir: Path) -> int | None:
        """The zone's counter range; None when it is missing, unreadable,
        unparsable or not positive."""
        try:
            max_range_uj = int((zone_dir / "max_energy_range_uj").read_text().strip())
        except (OSError, ValueError):
            return None
        return max_range_uj if max_range_uj > 0 else None

    def describe(self) -> ProbeDescriptor:
        return self._descriptor

    def read(self) -> ProbeReading:
        timestamp_ns = time.monotonic_ns()
        counters = []
        for zone in self._zones:
            try:
                value = int(os.pread(zone.fd, _COUNTER_READ_BYTES, 0))
            except (OSError, ValueError) as exc:
                raise ReadFailed(zone.domain, str(exc)) from exc
            if not 0 <= value < zone.max_range_uj:
                raise ReadFailed(zone.domain, f"counter {value} outside [0, {zone.max_range_uj})")
            counters.append(value)
        return ProbeReading(timestamp_ns, tuple(counters))

    def wait_until(self, deadline_ns: int) -> None:
        # One sleep on the monotonic clock, its timeout rounded up, so a
        # read that follows is stamped at or past the deadline.
        time.sleep(max(0, deadline_ns - time.monotonic_ns()) / 1e9)


# --------------------------------------------------------------------------
# Simulated probe
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SimulationScenario:
    """A piecewise-constant power profile the simulated probe integrates.

    Segment ``i`` lasts ``durations_ns[i]``, and in it each domain draws
    ``powers_uw[domain][i]`` microwatts. The counter value at elapsed time
    ``t`` is the energy integral over
    ``[0, floor(t / update_interval) * update_interval]``, in microjoules,
    reduced modulo ``max_range_uj``. Past the last segment the final
    segment's power level holds, so constant scenarios run forever.
    ``descriptor`` describes every probe that replays the scenario; each
    domain's peak power is its highest segment power.
    """

    durations_ns: tuple[int, ...]
    powers_uw: Mapping[EnergyDomain, tuple[int, ...]]
    max_range_uj: int
    update_interval_ns: int

    def __post_init__(self):
        if not self.durations_ns:
            raise ValueError("scenario needs at least one segment")
        if self.max_range_uj <= 0:
            raise ValueError("max_range_uj must be positive")
        if self.update_interval_ns <= 0:
            raise ValueError("update_interval_ns must be positive")
        if min(self.durations_ns) <= 0:
            raise ValueError("segment duration must be positive")
        # Segment i spans [starts[i], starts[i + 1]); the extra last entry
        # opens the unbounded tail that holds the final power level.
        starts = list(accumulate(self.durations_ns, initial=0))
        domains = tuple(sorted(self.powers_uw, key=domain_sort_key))
        # One column pair per domain, in ``domains`` order: the power of
        # every segment plus the tail, and the integral up to every
        # segment start.
        integrals = []
        for domain in domains:
            powers_uw = list(self.powers_uw[domain])
            if len(powers_uw) != len(self.durations_ns):
                raise ValueError(f"{domain} needs one power per segment")
            if min(powers_uw) < 0:
                raise ValueError("segment power must be non-negative")
            powers_uw.append(powers_uw[-1])
            cumulative_fj = list(accumulate(map(mul, powers_uw, self.durations_ns), initial=0))
            integrals.append((cumulative_fj, powers_uw))
        object.__setattr__(self, "_starts_ns", starts)
        object.__setattr__(self, "_domains", domains)
        object.__setattr__(self, "_positions", {d: i for i, d in enumerate(domains)})
        object.__setattr__(self, "_integrals", integrals)
        object.__setattr__(self, "descriptor", ProbeDescriptor(
            backend=ProbeBackend.SIMULATED,
            domains=domains,
            update_interval_ns=self.update_interval_ns,
            max_range_uj=MappingProxyType({d: self.max_range_uj for d in domains}),
            peak_power_w=MappingProxyType({
                d: max(powers_uw) / _MICROWATT_PER_WATT for d, (_, powers_uw) in zip(domains, integrals)
            }),
        ))

    @property
    def domains(self) -> tuple[EnergyDomain, ...]:
        return self._domains

    def _energies_fj(self, until_ns: int) -> list[int]:
        """Every domain's integral over ``[0, until_ns]``, in ``domains`` order."""
        if until_ns <= 0:
            return [0] * len(self._integrals)
        index = bisect_right(self._starts_ns, until_ns) - 1
        into_ns = until_ns - self._starts_ns[index]
        return [cumulative_fj[index] + powers_uw[index] * into_ns
                for cumulative_fj, powers_uw in self._integrals]

    def counters_uj(self, elapsed_ns: int) -> list[int]:
        """Every domain's counter after ``elapsed_ns``, in ``domains`` order,
        from a single ``bisect`` however many domains the scenario defines.
        A simulated probe's reads and a run's replay both come from here."""
        boundary_ns = elapsed_ns // self.update_interval_ns * self.update_interval_ns
        return [energy_fj // _FEMTOJOULE_PER_MICROJOULE % self.max_range_uj
                for energy_fj in self._energies_fj(boundary_ns)]

    def energy_fj(self, domain: EnergyDomain, until_ns: int) -> int:
        """Exact integral of ``domain`` power over ``[0, until_ns]``.

        Returned in femtojoules (microwatt-nanoseconds) so the arithmetic
        stays in integers; a step-by-step accumulation over counter ticks
        produces the identical value. The scenario keeps every domain's
        integral up to every segment start, so one ``bisect`` finds the
        segment holding ``until_ns`` for all domains at once; each integral
        is then its prefix sum plus that segment's power times the time
        into it. :meth:`counters_uj` uses this same computation. A domain
        the scenario does not define reads 0.
        """
        position = self._positions.get(domain)
        return 0 if position is None else self._energies_fj(until_ns)[position]

    def counter_uj(self, domain: EnergyDomain, elapsed_ns: int) -> int:
        """Counter value after ``elapsed_ns``, quantized and wrapped."""
        position = self._positions.get(domain)
        return 0 if position is None else self.counters_uj(elapsed_ns)[position]


class SimulatedProbe(Probe):
    """Deterministic probe that replays a :class:`SimulationScenario`.

    Its clock is virtual: ``now_ns`` starts at the scenario origin and
    moves only forward, to each deadline :meth:`wait_until` is given, so
    reads are bit-reproducible and take no wall time. A fresh probe over
    the same scenario replays it from the origin again.
    """

    def __init__(self, scenario: SimulationScenario):
        self.scenario = scenario
        self.now_ns = 0

    def describe(self) -> ProbeDescriptor:
        return self.scenario.descriptor

    def read(self) -> ProbeReading:
        """The scenario's :meth:`~SimulationScenario.counters_uj` at the clock's time."""
        now_ns = self.now_ns
        return ProbeReading(now_ns, tuple(self.scenario.counters_uj(now_ns)))

    def wait_until(self, deadline_ns: int) -> None:
        if deadline_ns > self.now_ns:
            self.now_ns = deadline_ns


# --------------------------------------------------------------------------
# Scenario file parsing
# --------------------------------------------------------------------------

_HEADER_KEYS = {"update_interval_ns", "max_range_uj"}

_SCENARIO_DOMAIN_KEYS = {kind.value: EnergyDomain(kind, 0) for kind in DomainKind}


def _parse_watts_uw(text: str, line_no: int) -> int:
    """Watts text to microwatts, truncated like ``int(Decimal(text) * 10**6)``.

    Raises:
        MalformedScenario: A negative value, one above
            ``MAX_SCENARIO_POWER_W``, or one that is not a finite number
            within the default decimal context's exponent range.
    """
    try:
        watts = Decimal(text)
        # A NaN fails the comparison, infinity the conversion to int and a
        # huge exponent the multiplication, each with an ArithmeticError.
        if watts < 0:
            raise MalformedScenario(f"negative power {text!r}", line_no)
        microwatts = watts * _MICROWATT_PER_WATT
        if watts.is_finite() and watts > MAX_SCENARIO_POWER_W:
            raise MalformedScenario(f"power above {MAX_SCENARIO_POWER_W} W: {text!r}", line_no)
        return int(microwatts)
    except ArithmeticError:
        raise MalformedScenario(f"bad power value {text!r}", line_no) from None


def _parse_int(text: str, key: str, line_no: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise MalformedScenario(f"bad integer for {key}: {text!r}", line_no) from None


def _read_tokens(rows: list[list[str]]) -> tuple[dict[str, int], list[int], dict[str, list[int]]]:
    """The header, durations and powers per domain key of token ``rows``,
    one per line. Each line is split into ``key=value`` pairs before any
    is read, so a token that is not a pair is its line's first error;
    every power is converted by :func:`_parse_watts_uw`."""
    header: dict[str, int] = {}
    durations_ns: list[int] = []
    # Power of every segment so far, per domain key; 0 W before a domain's
    # first segment and in segments that leave it out.
    powers_uw: dict[str, list[int]] = {}
    for line_no, tokens in enumerate(rows, start=1):
        pairs = [token.partition("=") for token in tokens]
        for token, (key, sep, value) in zip(tokens, pairs):
            if not (key and sep and value):
                raise MalformedScenario(f"expected key=value, got {token!r}", line_no)
        if not pairs:
            continue
        (first, _, value), *domain_pairs = pairs
        if first == "duration_ns":
            duration_ns = _parse_int(value, first, line_no)
            if duration_ns <= 0:
                raise MalformedScenario("segment duration must be positive", line_no)
            if not domain_pairs:
                raise MalformedScenario("segment defines no domain power", line_no)
            segment = len(durations_ns)
            for key, _, value in domain_pairs:
                column = powers_uw.get(key)
                if column is None:
                    if key not in _SCENARIO_DOMAIN_KEYS:
                        raise MalformedScenario(f"unknown key {key!r}", line_no)
                    column = powers_uw[key] = [0] * segment
                elif len(column) > segment:
                    raise MalformedScenario(f"duplicate domain {key!r}", line_no)
                column.append(_parse_watts_uw(value, line_no))
            durations_ns.append(duration_ns)
            for column in powers_uw.values():
                if len(column) == segment:
                    column.append(0)
        elif durations_ns:
            raise MalformedScenario("header line after first segment", line_no)
        else:
            for key, _, value in pairs:
                if key not in _HEADER_KEYS:
                    raise MalformedScenario(f"unknown key {key!r}", line_no)
                if key in header:
                    raise MalformedScenario(f"duplicate header key {key!r}", line_no)
                header[key] = _parse_int(value, key, line_no)
    return header, durations_ns, powers_uw


def _uniform_columns(rows: list[list[str]]) -> tuple[dict, list[int], dict[str, tuple[str, int]]] | None:
    """What :func:`_read_tokens` reads, the powers as their digits without
    the point and their decimal width, of rows whose segment rows are all
    ``duration_ns=<digits>`` and then one known domain key a column, each
    column with up to six whole digits and one width of at most 22
    decimals; None for any other rows, and for rows with an error."""
    for start, tokens in enumerate(rows):
        if tokens and tokens[0].startswith("duration_ns="):
            break
    else:
        return None
    try:
        header = _read_tokens(rows[:start])[0]
    except MalformedScenario:
        return None
    segments = [tokens for tokens in rows[start:] if tokens]
    if len(segments[0]) < 2 or {len(tokens) for tokens in segments} != {len(segments[0])}:
        return None
    durations, *columns = zip(*segments)
    joined = " ".join(durations)
    try:
        durations_ns = list(map(int, joined.replace("duration_ns=", "").split()))
    except ValueError:  # not all digits, or more than int() converts
        return None
    if not all(durations_ns) or not re.fullmatch(r"duration_ns=[0-9]+(?: duration_ns=[0-9]+)*", joined):
        return None
    digits: dict[str, tuple[str, int]] = {}
    for column in columns:
        key, _, value = column[0].partition("=")
        point, fraction = value.partition(".")[1:]
        if key not in _SCENARIO_DOMAIN_KEYS or key in digits or len(fraction) > 22:
            return None
        token = rf"{key}=[0-9]{{1,6}}" + (rf"\.[0-9]{{{len(fraction)}}}" if point else "")
        joined = " ".join(column)
        if not re.fullmatch(rf"{token}(?: {token})*", joined):
            return None
        digits[key] = (joined.replace(f"{key}=", "").replace(".", ""), len(fraction))
    return header, durations_ns, digits


def load_scenario(path: Path | str) -> SimulationScenario:
    """Parse and validate a scenario file.

    Format: header assignments ``update_interval_ns=<int>`` and
    ``max_range_uj=<int>`` (one or both per line), then one line per
    segment: ``duration_ns=<int> package=<watts> [core=<watts>] ...``.
    Blank lines and ``#`` comments are ignored; unknown keys are errors.
    Every power comes out as ``int(Decimal(text) * 10**6)``.

    The text is split into token rows once. A file whose segment rows all
    list the same domains, each in plain digits of one decimal width, is
    read a column at a time; any other, and any with an error, goes
    through the token loop, which names the first error.

    Raises:
        MalformedScenario: On text that is not UTF-8, syntax errors or
            invariant violations, with the offending line number.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise MalformedScenario(f"cannot read {path}: {exc}") from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = len((data[: exc.start].decode("utf-8") + ".").splitlines())
        raise MalformedScenario(f"not UTF-8 text: {exc.reason} at byte {exc.start}", line_no) from None

    rows = [(line.partition("#")[0] if "#" in line else line).split() for line in text.splitlines()]
    columns = _uniform_columns(rows)
    if columns is None:
        header, durations_ns, powers_uw = _read_tokens(rows)
    else:
        del rows  # the tokens, before the values are converted
        header, durations_ns, digits = columns
        powers_uw = {}
        for key, (joined, width) in digits.items():
            scale, values = 10 ** abs(width - 6), map(int, joined.split())
            powers_uw[key] = [value // scale for value in values] if width > 6 else [value * scale for value in values]

    missing = _HEADER_KEYS - set(header)
    if missing:
        raise MalformedScenario(f"missing header key(s): {', '.join(sorted(missing))}")
    try:
        return SimulationScenario(
            durations_ns=tuple(durations_ns),
            powers_uw={_SCENARIO_DOMAIN_KEYS[key]: tuple(column) for key, column in powers_uw.items()},
            max_range_uj=header["max_range_uj"],
            update_interval_ns=header["update_interval_ns"],
        )
    except ValueError as exc:
        raise MalformedScenario(str(exc)) from exc


def create_probe(
    backend: ProbeBackend,
    scenario_path: Path | str | None = None,
    powercap_root: Path | str | None = None,
    update_interval_ns: int | None = None,
) -> Probe:
    """Build the configured probe.

    Raises:
        InvalidConfig: Simulated requested without a scenario or with an update interval.
        NoProbeAvailable: RAPL requested without a powercap tree.
        PermissionDenied: RAPL zones exist but cannot be read.
    """
    if backend is ProbeBackend.SIMULATED:
        if scenario_path is None:
            raise InvalidConfig("simulated probe requires a scenario file")
        if update_interval_ns is not None:
            raise InvalidConfig(
                "the update interval of a simulated probe is the update_interval_ns of its scenario "
                "header; drop --update-interval-ns and [probe] update_interval_ns"
            )
        return SimulatedProbe(load_scenario(scenario_path))

    root = powercap_root or os.environ.get("MANAI_POWERCAP_ROOT") or DEFAULT_POWERCAP_ROOT
    return RaplProbe(
        powercap_root=root,
        update_interval_ns=update_interval_ns or DEFAULT_RAPL_UPDATE_INTERVAL_NS,
    )
