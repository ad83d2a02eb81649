"""Closed time intervals over a discrete chronon domain.

The paper models time as a discrete, totally ordered domain of *chronons*
(time instants).  A timestamp is a convex set of chronons represented by its
inclusive start and end points ``[tb, te]`` (Section 3 of the paper).  This
module provides the :class:`Interval` value type used throughout the library
for validity intervals of temporal tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional


@dataclass(frozen=True, order=True, slots=True)
class Interval:
    """A closed interval ``[start, end]`` of integer chronons.

    Both endpoints are inclusive, matching the paper's ``[tb, te]`` notation.
    Intervals compare lexicographically by ``(start, end)`` which is the
    chronological order used when sorting sequential relations.

    Parameters
    ----------
    start:
        Inclusive starting chronon ``tb``.
    end:
        Inclusive ending chronon ``te``; must satisfy ``end >= start``.
    """

    start: int
    end: int

    def __post_init__(self) -> None:
        if not isinstance(self.start, int) or not isinstance(self.end, int):
            raise TypeError(
                f"interval endpoints must be integers, got "
                f"({self.start!r}, {self.end!r})"
            )
        if self.end < self.start:
            raise ValueError(
                f"interval end {self.end} precedes start {self.start}"
            )

    # ------------------------------------------------------------------
    # Basic geometry
    # ------------------------------------------------------------------
    @property
    def length(self) -> int:
        """Number of chronons covered, ``|T| = te - tb + 1``."""
        return self.end - self.start + 1

    def __len__(self) -> int:
        return self.length

    def __contains__(self, chronon: int) -> bool:
        return self.start <= chronon <= self.end

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.start, self.end + 1))

    # ------------------------------------------------------------------
    # Relationships between intervals
    # ------------------------------------------------------------------
    def overlaps(self, other: "Interval") -> bool:
        """Return ``True`` if the two intervals share at least one chronon."""
        return self.start <= other.end and other.start <= self.end

    def intersect(self, other: "Interval") -> Optional["Interval"]:
        """Return the intersection interval, or ``None`` if disjoint."""
        lo = max(self.start, other.start)
        hi = min(self.end, other.end)
        if lo > hi:
            return None
        return Interval(lo, hi)

    def meets(self, other: "Interval") -> bool:
        """Return ``True`` if ``other`` starts immediately after ``self``.

        This is Allen's *meets* relation on closed integer intervals:
        ``self.end + 1 == other.start``.  Two tuples whose intervals meet and
        whose grouping attributes agree are *adjacent* in the sense of
        Definition 2 and may be merged by the PTA operator.
        """
        return self.end + 1 == other.start

    def adjacent_or_overlapping(self, other: "Interval") -> bool:
        """Return ``True`` if the union of the two intervals is convex."""
        return self.overlaps(other) or self.meets(other) or other.meets(self)

    def union(self, other: "Interval") -> "Interval":
        """Return the covering interval of two adjacent/overlapping intervals.

        Raises
        ------
        ValueError
            If the two intervals are separated by a gap, in which case their
            union would not be convex.
        """
        if not self.adjacent_or_overlapping(other):
            raise ValueError(
                f"cannot union {self} and {other}: separated by a gap"
            )
        return Interval(min(self.start, other.start), max(self.end, other.end))

    def precedes(self, other: "Interval") -> bool:
        """Return ``True`` if ``self`` ends strictly before ``other`` starts."""
        return self.end < other.start

    def contains_interval(self, other: "Interval") -> bool:
        """Return ``True`` if ``other`` is fully contained in ``self``."""
        return self.start <= other.start and other.end <= self.end

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def instant(cls, chronon: int) -> "Interval":
        """Return the degenerate interval ``[t, t]`` for a single chronon."""
        return cls(chronon, chronon)

    def split_at(self, chronon: int) -> tuple["Interval", "Interval"]:
        """Split into ``[start, chronon]`` and ``[chronon + 1, end]``.

        ``chronon`` must lie strictly inside the interval (it may not equal
        ``end``), otherwise the right part would be empty.
        """
        if not (self.start <= chronon < self.end):
            raise ValueError(
                f"split point {chronon} not strictly inside {self}"
            )
        return Interval(self.start, chronon), Interval(chronon + 1, self.end)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.start}, {self.end}]"


def span(intervals: "list[Interval] | tuple[Interval, ...]") -> Interval:
    """Return the smallest interval covering all the given intervals."""
    if not intervals:
        raise ValueError("span() of an empty interval collection")
    return Interval(
        min(iv.start for iv in intervals),
        max(iv.end for iv in intervals),
    )
