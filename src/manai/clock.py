"""Time sources and deadline schedulers for the sampling loop.

The sampler never calls ``time`` directly; it talks to a :class:`Scheduler`.
``RealScheduler`` wraps the monotonic clock and sleeps toward absolute
deadlines (``origin + k * interval``) so scheduling error never accumulates.
``VirtualScheduler`` keeps a manual clock that jumps to each deadline
instantly, which makes simulated-probe runs deterministic and wall-clock
independent.
"""

from __future__ import annotations

import abc
import time

# Granularity of the interruptible real sleep. Coarse enough to be cheap,
# fine enough that a stop signal is honored promptly.
_SLEEP_SLICE_S = 0.02


class DeadlineStop:
    """Stop signal that trips once a clock reaches a fixed deadline."""

    def __init__(self, now_fn, deadline_ns: int):
        self._now = now_fn
        self._deadline_ns = deadline_ns

    def is_set(self) -> bool:
        return self._now() >= self._deadline_ns


class Scheduler(abc.ABC):
    """Clock plus the ability to wait for an absolute instant on it."""

    @abc.abstractmethod
    def now(self) -> int:
        """Current time on this scheduler's clock, in nanoseconds."""

    @abc.abstractmethod
    def sleep_until(self, deadline_ns: int, stop=None) -> None:
        """Block until the clock reaches ``deadline_ns``.

        May return early if ``stop`` becomes set; callers re-check the
        signal after waking.
        """


class RealScheduler(Scheduler):
    """Absolute-deadline scheduling on the OS monotonic clock."""

    def now(self) -> int:
        return time.monotonic_ns()

    def sleep_until(self, deadline_ns: int, stop=None) -> None:
        while True:
            remaining_s = (deadline_ns - time.monotonic_ns()) / 1e9
            if remaining_s <= 0:
                return
            if stop is not None and stop.is_set():
                return
            time.sleep(min(remaining_s, _SLEEP_SLICE_S))


class VirtualScheduler(Scheduler):
    """Manual clock for deterministic tests and simulated experiment runs.

    ``sleep_until`` advances the clock to the deadline without real waiting.
    The clock never moves backwards.
    """

    def __init__(self, start_ns: int = 0):
        self._now_ns = start_ns

    def now(self) -> int:
        return self._now_ns

    def advance(self, delta_ns: int) -> None:
        if delta_ns < 0:
            raise ValueError("virtual clock cannot move backwards")
        self._now_ns += delta_ns

    def sleep_until(self, deadline_ns: int, stop=None) -> None:
        if deadline_ns > self._now_ns:
            self._now_ns = deadline_ns
