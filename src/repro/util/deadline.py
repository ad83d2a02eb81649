"""End-to-end request deadlines, carried across threads and machines.

A caller that gives up after two seconds is not helped by a worker that
keeps grinding for thirty: without a propagated deadline every timeout
in the chain is local, so budgets silently *add up* across retries,
shards and replication waits.  This module is the single deadline
currency the serving and cluster tiers share:

* :class:`Deadline` — an absolute expiry on the monotonic clock, built
  from a relative budget (``Deadline.after(0.5)``).  ``remaining()``
  is the only arithmetic anybody needs; ``clamp(timeout)`` bounds a
  socket timeout by it, so no blocking call outlives the request.
* A :class:`~contextvars.ContextVar` scope — :func:`deadline_scope`
  installs a deadline for the current task, :func:`current_deadline`
  reads it.  The HTTP front end opens a scope from the
  ``X-Repro-Deadline`` request header (a relative budget in seconds —
  relative, because wall clocks across machines disagree but budgets
  survive the hop); the store's quorum wait and the cluster
  coordinator read it.  Plain worker threads do not inherit context
  vars, so the shard dispatch
  (:func:`repro.parallel._reduce_shards_pooled`) runs each task in a
  copy of the caller's context — trace ids travel the same way
  (:mod:`repro.obs.tracing`).  :func:`attach` re-enters a captured
  deadline by hand.
* Crossing a machine boundary, the deadline rides the PTAF envelope
  meta (key ``"deadline"``, next to ``"trace_id"``) as the *remaining*
  budget at send time; the receiver rebuilds an absolute expiry on its
  own clock.  Skew costs at most the network latency, and always in
  the lenient direction.
* :class:`DeadlineExceeded` subclasses :class:`TimeoutError`, so the
  HTTP error ladder's existing ``deadline_exceeded`` arm (400) answers
  expired requests with no new plumbing.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Iterator, Optional, Union

__all__ = [
    "DEADLINE_HEADER",
    "Deadline",
    "DeadlineExceeded",
    "attach",
    "current_deadline",
    "deadline_scope",
]

#: HTTP request header carrying the remaining budget in seconds.
DEADLINE_HEADER = "X-Repro-Deadline"


class DeadlineExceeded(TimeoutError):
    """The request's end-to-end deadline expired (HTTP 400
    ``deadline_exceeded``; PTAF error frames use the same slug)."""


class Deadline:
    """An absolute expiry on an injectable monotonic clock."""

    __slots__ = ("expires_at", "_clock")

    def __init__(
        self,
        expires_at: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.expires_at = expires_at
        self._clock = clock

    @classmethod
    def after(
        cls,
        budget: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> "Deadline":
        """A deadline ``budget`` seconds from now."""
        return cls(clock() + budget, clock)

    def remaining(self) -> float:
        """Seconds until expiry; negative once expired."""
        return self.expires_at - self._clock()

    @property
    def expired(self) -> bool:
        return self.remaining() <= 0.0

    def check(self, what: str) -> None:
        """Raise :class:`DeadlineExceeded` if the deadline has passed."""
        if self.expired:
            raise DeadlineExceeded(f"deadline exceeded before {what}")

    def clamp(self, timeout: Optional[float]) -> float:
        """Bound a socket/wait timeout by the remaining budget.

        Never returns a non-positive value (a zero socket timeout means
        non-blocking, not expired): callers :meth:`check` first, then
        clamp.  ``timeout=None`` (wait forever) becomes the remaining
        budget itself.
        """
        remaining = max(self.remaining(), 0.001)
        return remaining if timeout is None else min(timeout, remaining)

    def __repr__(self) -> str:
        return f"Deadline(remaining={self.remaining():.3f}s)"


_current: ContextVar[Optional[Deadline]] = ContextVar(
    "repro-deadline", default=None
)


def current_deadline() -> Optional[Deadline]:
    """The deadline governing the current task, if any."""
    return _current.get()


@contextmanager
def deadline_scope(
    budget: Union[None, float, Deadline]
) -> Iterator[Optional[Deadline]]:
    """Install a deadline for the duration of the block.

    ``budget`` may be a relative number of seconds, an existing
    :class:`Deadline` (adopted as-is), or ``None`` — a no-op that
    leaves any ambient deadline in place.
    """
    if budget is None:
        yield current_deadline()
        return
    deadline = budget if isinstance(budget, Deadline) else Deadline.after(budget)
    token = _current.set(deadline)
    try:
        yield deadline
    finally:
        _current.reset(token)


@contextmanager
def attach(deadline: Optional[Deadline]) -> Iterator[None]:
    """Re-enter a captured deadline on a plain worker thread.

    ``None`` is a no-op, so call sites need no branching — mirror of
    :func:`repro.obs.tracing.attach`.
    """
    if deadline is None:
        yield
        return
    token = _current.set(deadline)
    try:
        yield
    finally:
        _current.reset(token)
