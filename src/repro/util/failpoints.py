"""Deterministic fault injection: named, seedable failpoints.

Every fragile operation in the tree — a WAL append, an fsync, a
checkpoint rename, a shard reduction — carries a *failpoint*: a named
call to :func:`fail` that does nothing in production (one ``is None``
check) but can be armed by tests to raise, return an error value, or
delay at exactly that line.
This is how the robustness suites (``tests/test_fault_injection.py``,
``tests/test_chaos.py``) turn "what if the disk fails here?" into a
reproducible assertion instead of a hope.

Usage at an injection site (zero-cost when disabled)::

    from repro.util import failpoints
    ...
    failpoints.fail("wal.append")        # may raise / sleep / no-op

Arming sites in a test::

    with failpoints.activated(
        {"wal.append": failpoints.Raise(OSError(28, "No space left"),
                                        probability=0.2, times=3)},
        seed=7,
    ):
        ...

Semantics:

* **Zero cost when disabled.**  :func:`fail` reads one module global;
  no registry lookups, no locks, no allocation.
* **Seedable.**  ``probability`` draws come from one ``random.Random``
  per activation, so a chaos schedule is a pure function of its seed.
* **Bounded.**  ``times=N`` caps how often an action fires (evaluations
  past the budget are no-ops), so "fail the first append, then heal" is
  one line.
* **In-process.**  An activation is module state: every thread of the
  arming process sees it (the sharded engine's reducer threads among
  them), and no other process does.

Only one activation may be live at a time; nesting raises, because
overlapping chaos schedules have no well-defined seed.
"""

from __future__ import annotations

import random
import threading
import time
from contextlib import contextmanager
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    Mapping,
    Optional,
    Union,
)


class FailpointError(RuntimeError):
    """Default exception injected by a :class:`Raise` with no payload."""


class Action:
    """Base class of everything a failpoint site can be armed with.

    ``probability`` is the chance one evaluation fires (drawn from the
    activation's seeded RNG); ``times`` caps the number of firings per
    activation (``None`` = unbounded).
    """

    def __init__(
        self, probability: float = 1.0, times: Optional[int] = None
    ) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ValueError(
                f"probability must be within [0, 1], got {probability}"
            )
        if times is not None and times < 0:
            raise ValueError(f"times must be non-negative, got {times}")
        self.probability = probability
        self.times = times

    def fire(self, site: str) -> Any:  # pragma: no cover - overridden
        raise NotImplementedError


class Raise(Action):
    """Raise an exception at the site.

    ``exception`` is an instance (re-raised as-is each firing) or a
    zero-argument factory.  Defaults to :class:`FailpointError`.
    """

    def __init__(
        self,
        exception: Union[BaseException, Callable[[], BaseException], None] = None,
        probability: float = 1.0,
        times: Optional[int] = None,
    ) -> None:
        super().__init__(probability, times)
        self.exception = exception

    def fire(self, site: str) -> Any:
        source = self.exception
        if source is None:
            raise FailpointError(f"injected failure at failpoint {site!r}")
        raise source() if callable(source) else source


class Return(Action):
    """Make :func:`fail` return ``value`` — the *return-error* mode.

    Sites that support it check the return value::

        injected = failpoints.fail("engine.reduce")
        if injected is not None:
            return injected
    """

    def __init__(
        self,
        value: Any,
        probability: float = 1.0,
        times: Optional[int] = None,
    ) -> None:
        super().__init__(probability, times)
        self.value = value

    def fire(self, site: str) -> Any:
        return self.value


class Delay(Action):
    """Sleep ``seconds`` at the site (overload / slow-disk simulation)."""

    def __init__(
        self,
        seconds: float,
        probability: float = 1.0,
        times: Optional[int] = None,
    ) -> None:
        super().__init__(probability, times)
        if seconds < 0:
            raise ValueError(f"seconds must be non-negative, got {seconds}")
        self.seconds = seconds

    def fire(self, site: str) -> Any:
        time.sleep(self.seconds)
        return None


class _Activation:
    """One armed configuration: sites, seeded RNG, counters."""

    def __init__(
        self, sites: Mapping[str, Action], seed: Optional[int]
    ) -> None:
        self.sites: Dict[str, Action] = dict(sites)
        self.rng = random.Random(seed)
        self.lock = threading.Lock()
        self.evaluations: Dict[str, int] = {}
        self.firings: Dict[str, int] = {}
        self._spent: Dict[str, int] = {}

    def evaluate(self, site: str) -> Any:
        with self.lock:
            self.evaluations[site] = self.evaluations.get(site, 0) + 1
            action = self.sites.get(site)
            if action is None:
                return None
            spent = self._spent.get(site, 0)
            if action.times is not None and spent >= action.times:
                return None
            if (
                action.probability < 1.0
                and self.rng.random() >= action.probability
            ):
                return None
            self._spent[site] = spent + 1
            self.firings[site] = self.firings.get(site, 0) + 1
        return action.fire(site)


#: The live activation, or ``None`` (the common case — :func:`fail`
#: reads exactly this).
_active: Optional[_Activation] = None
_arm_lock = threading.Lock()


def fail(site: str) -> Any:
    """Evaluate the failpoint ``site``.

    No-op returning ``None`` unless an activation arms the site, in
    which case the armed action may raise, sleep, or return an injected
    value.
    """
    state = _active
    if state is None:
        return None
    return state.evaluate(site)


def is_active() -> bool:
    """Whether any failpoint configuration is currently armed."""
    return _active is not None


def evaluations(site: str) -> int:
    """How often ``site`` was evaluated under the current activation."""
    state = _active
    return 0 if state is None else state.evaluations.get(site, 0)


def firings(site: str) -> int:
    """How often ``site`` actually fired under the current activation."""
    state = _active
    return 0 if state is None else state.firings.get(site, 0)


@contextmanager
def activated(
    sites: Mapping[str, Action], seed: Optional[int] = None
) -> Iterator[None]:
    """Arm ``sites`` for the duration of the ``with`` block.

    ``seed`` fixes the probability draws.
    """
    global _active
    with _arm_lock:
        if _active is not None:
            raise RuntimeError(
                "failpoints are already active; nested activations have "
                "no well-defined seed"
            )
        _active = _Activation(sites, seed)
    try:
        yield
    finally:
        with _arm_lock:
            _active = None


def deactivate() -> None:
    """Force-disarm (crash-recovery hatch for tests; normally unused)."""
    global _active
    with _arm_lock:
        _active = None


__all__ = [
    "Action",
    "Delay",
    "FailpointError",
    "Raise",
    "Return",
    "activated",
    "deactivate",
    "evaluations",
    "fail",
    "firings",
    "is_active",
]
