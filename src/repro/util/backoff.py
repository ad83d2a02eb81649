"""Exponential backoff with decorrelated jitter — the one retry ladder.

Every retry loop in the tree used to roll its own linear ladder
(``n * base`` before round ``n``): the socket transport's
:func:`repro.cluster.transport.request_with_retries` and (new in the
self-healing tier) the replication link's reconnect loop.  Linear ladders synchronise:
every client that observed the same fault retries on the same schedule,
so a recovering peer is hit by the whole herd at once.  This module
replaces them with one shared policy — *decorrelated jitter*::

    delay_0 = base
    delay_n = min(cap, uniform(base, 3 * delay_{n-1}))

which keeps the expected delay growing geometrically (so a dead peer is
probed ever more rarely) while decorrelating concurrent retriers (so a
revived peer is not thundering-herded).

Determinism: the jitter draws from an injectable :class:`random.Random`
instance, never the global RNG — tests pass a seeded generator and get
a reproducible delay schedule; production call sites construct a fresh
unseeded instance per ladder.  ``base=0`` degenerates to "no backoff"
(every delay is exactly ``0.0``), preserving the ``backoff=0.0`` fast
path the fault-injection suites rely on.
"""

from __future__ import annotations

import random
from typing import Iterator, Optional

__all__ = ["Backoff", "DEFAULT_CAP_S"]

#: Default ceiling on a single delay, in seconds.  High enough that a
#: struggling peer sees geometric growth for ~5 rounds, low enough that
#: a reconnect loop notices a revived peer within a couple of seconds.
DEFAULT_CAP_S = 2.0


class Backoff:
    """A decorrelated-jitter delay ladder.

    ``next()`` returns the next delay in seconds; the caller sleeps.
    The first delay is exactly ``base`` (deterministic — the first
    retry after a transient fault should be prompt and testable), every
    later delay is ``min(cap, uniform(base, 3 * previous))``.

    >>> ladder = Backoff(base=0.05, cap=2.0, rng=random.Random(7))
    >>> ladder.next()
    0.05
    >>> 0.05 <= ladder.next() <= 0.15
    True
    """

    def __init__(
        self,
        base: float,
        cap: float = DEFAULT_CAP_S,
        rng: Optional[random.Random] = None,
    ) -> None:
        if base < 0:
            raise ValueError(f"backoff base must be non-negative, got {base}")
        if cap < base:
            raise ValueError(
                f"backoff cap ({cap}) must be at least the base ({base})"
            )
        self.base = base
        self.cap = cap
        self._rng = rng if rng is not None else random.Random()
        self._previous: Optional[float] = None

    def next(self) -> float:
        """The next delay in seconds (call once per retry round)."""
        if self._previous is None or self.base == 0.0:
            delay = min(self.base, self.cap)
        else:
            delay = min(
                self.cap, self._rng.uniform(self.base, 3.0 * self._previous)
            )
        self._previous = delay
        return delay

    def reset(self) -> None:
        """Restart the ladder (after a success, before the next fault)."""
        self._previous = None

    def delays(self, count: int) -> Iterator[float]:
        """The next ``count`` delays, as an iterator (test convenience)."""
        for _ in range(count):
            yield self.next()
