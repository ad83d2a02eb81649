"""The unified result of every PTA evaluation door.

Whatever engine a plan dispatches to — exact DP, single-process online
greedy, the sharded engine, or an incremental
:class:`~repro.api.session.Compressor` session — the caller gets one
:class:`Result`: the reduced segments, the evaluation statistics, and sink
helpers (``to_relation`` / ``to_csv`` / iteration) to move the summary
wherever it needs to go.

:class:`repro.pipeline.CompressionResult` is an alias of this class, kept
for backwards compatibility.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from ..core.merge import AggregateSegment, segments_to_relation
from ..temporal import TemporalRelation


@dataclass
class Result:
    """Result of a PTA evaluation, uniform across methods and engines.

    Attributes
    ----------
    segments:
        The reduced relation in group-then-time order.
    error:
        Total SSE introduced with respect to the (conceptual) ITA input.
    size:
        Number of output segments.
    input_size:
        Number of ITA tuples consumed from the source.
    method / backend:
        The evaluation strategy and kernel backend that produced the result
        (the sharded engine always reports ``"numpy"``).
    max_heap_size:
        Largest number of tuples simultaneously buffered by the greedy
        merge heap (0 for the DP method and the sharded engine, which
        materialise the input instead).
    merges:
        Number of merge steps performed (greedy engines only).
    group_columns / value_columns / timestamp_name:
        Schema metadata carried over from the plan when known; used as the
        defaults by :meth:`to_relation` and :meth:`to_csv`.
    """

    segments: List[AggregateSegment] = field(default_factory=list)
    error: float = 0.0
    size: int = 0
    input_size: int = 0
    method: str = "greedy"
    backend: str = "python"
    max_heap_size: int = 0
    merges: int = 0
    group_columns: Tuple[str, ...] = ()
    value_columns: Tuple[str, ...] = ()
    timestamp_name: str = "T"

    def __iter__(self) -> Iterator[AggregateSegment]:
        return iter(self.segments)

    def __len__(self) -> int:
        return self.size

    # ------------------------------------------------------------------
    # Sinks
    # ------------------------------------------------------------------
    def to_relation(
        self,
        group_columns: Optional[Sequence[str]] = None,
        value_columns: Optional[Sequence[str]] = None,
        timestamp_name: Optional[str] = None,
    ) -> TemporalRelation:
        """Materialise the summary as a :class:`TemporalRelation`.

        Column names default to the plan's schema metadata; sources without
        names (raw segment streams) fall back to ``g1..gk`` / ``v1..vp``.
        """
        groups = tuple(group_columns) if group_columns is not None else None
        values = tuple(value_columns) if value_columns is not None else None
        if groups is None:
            groups = self.group_columns or self._default_names("g", "group")
        if values is None:
            values = self.value_columns or self._default_names("v", "values")
        return segments_to_relation(
            self.segments,
            groups,
            values,
            timestamp_name or self.timestamp_name,
        )

    def to_csv(
        self,
        path: Union[str, Path],
        group_columns: Optional[Sequence[str]] = None,
        value_columns: Optional[Sequence[str]] = None,
        timestamp_name: Optional[str] = None,
    ) -> Path:
        """Write the summary to ``path`` as CSV; returns the path written."""
        from ..storage import write_relation

        relation = self.to_relation(group_columns, value_columns, timestamp_name)
        target = Path(path)
        write_relation(relation, target)
        return target

    def _default_names(self, prefix: str, attribute: str) -> Tuple[str, ...]:
        if not self.segments:
            return ()
        width = len(getattr(self.segments[0], attribute))
        return tuple(f"{prefix}{i}" for i in range(1, width + 1))


__all__ = ["Result"]
