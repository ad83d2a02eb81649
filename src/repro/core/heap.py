"""Merge heap used by the greedy PTA algorithms (Section 6.2.2).

Every node of the heap represents one tuple of the intermediate relation and
is doubly linked to its chronological predecessor and successor.  A node's
*key* is the error that merging it into its predecessor would introduce
(``∞`` for the first tuple of a run or when the predecessor belongs to a
different group / is separated by a gap).  ``peek`` returns the node with the
smallest key and ``merge_top`` performs the merge, relinking neighbours and
recomputing the affected keys.

The priority queue is a binary heap (:mod:`heapq`) with lazy invalidation:
when a node's key changes a fresh entry is pushed and stale entries are
skipped during ``peek``.  This keeps all operations ``O(log h)`` for heap
size ``h`` without implementing decrease-key.

:func:`make_merge_heap` selects between this reference implementation and
the array-backed :class:`~repro.core.kernels.NumpyMergeHeap`, which stores
the intermediate relation in parallel columns and merges in place; the
greedy algorithms expose the choice as their ``backend`` parameter.  Both
merge through :func:`~repro.core.errors.merge_key` and
:func:`~repro.core.merge.merged_row` with the same tie-breaking counters.
"""

from __future__ import annotations

import heapq
import math
from typing import (
    TYPE_CHECKING, Any, Iterator, List, Optional, Protocol, Sequence, Tuple,
)

from .errors import Weights, pairwise_merge_error
from .merge import AggregateSegment, adjacent, merge

if TYPE_CHECKING:
    from .kernels import EncodedSegments


class HeapNodeView(Protocol):
    """What the greedy algorithms read off a heap node, backend-agnostic.

    Satisfied structurally by the linked :class:`HeapNode` and by the
    array-slot view :class:`~repro.core.kernels.NumpyHeapNode`.
    """

    @property
    def id(self) -> int: ...

    @property
    def key(self) -> float: ...

    @property
    def segment(self) -> AggregateSegment: ...


class Heap(Protocol):
    """The merge-heap surface shared by the two backends (Section 6.2.2).

    :class:`MergeHeap` (linked nodes, the reference) and
    :class:`~repro.core.kernels.NumpyMergeHeap` (parallel array columns)
    both satisfy this protocol structurally; the greedy state machine
    (:class:`repro.core.greedy.OnlineReducer`) and the serving layer are
    written against it, so a third backend only needs to match this
    surface.  The staged-chunk fast path (``stage_chunk`` /
    ``activate_staged_all``, staging from flat columns) is deliberately
    *not* part of the protocol — it is an optional optimisation
    :meth:`~repro.core.greedy.OnlineReducer.push_chunk` probes for.

    ``peek_entry`` returns ``(handle, node_id, key)`` where ``handle`` is
    whatever the backend accepts back in ``adjacent_successor_count`` (a
    node object for the linked heap, a row index for the array heap).
    """

    max_size: int

    def __len__(self) -> int: ...

    def __bool__(self) -> bool: ...

    def insert(self, segment: AggregateSegment) -> HeapNodeView: ...

    def peek(self) -> Optional[HeapNodeView]: ...

    def peek_entry(self) -> Optional[Tuple[Any, int, float]]: ...

    def merge_top(self) -> HeapNodeView: ...

    def adjacent_successor_count(self, node: Any, limit: int) -> int: ...

    def successor_entry(self, node: Any) -> Optional[Tuple[int, float]]: ...

    def values_entry(self, node: Any) -> Sequence[float]: ...

    def segments(self) -> List[AggregateSegment]: ...

    def columns(self) -> "EncodedSegments": ...

    def clone(self) -> "Heap": ...


class HeapNode:
    """One intermediate tuple inside the merge heap."""

    __slots__ = ("id", "segment", "prev", "next", "key", "_version", "alive")

    def __init__(self, node_id: int, segment: AggregateSegment) -> None:
        self.id = node_id
        self.segment = segment
        self.prev: Optional["HeapNode"] = None
        self.next: Optional["HeapNode"] = None
        self.key = math.inf
        self._version = 0
        self.alive = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HeapNode(id={self.id}, key={self.key:.2f}, {self.segment})"


class MergeHeap:
    """Doubly linked list of tuples with a min-heap over pairwise merge errors."""

    def __init__(self, weights: Weights | None = None) -> None:
        self._weights = weights
        self._entries: List[tuple] = []
        self._entry_counter = 0
        self._head: Optional[HeapNode] = None
        self._tail: Optional[HeapNode] = None
        self._size = 0
        self._next_id = 1
        self.max_size = 0

    # ------------------------------------------------------------------
    # Basic state
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    @property
    def tail(self) -> Optional[HeapNode]:
        """The most recently inserted (chronologically last) node."""
        return self._tail

    @property
    def head(self) -> Optional[HeapNode]:
        """The chronologically first node."""
        return self._head

    # ------------------------------------------------------------------
    # Operations of the paper: INSERT, PEEK, MERGE
    # ------------------------------------------------------------------
    def insert(self, segment: AggregateSegment) -> HeapNode:
        """Append a new tuple at the end of the list and index it in the heap.

        The node's key is the error of merging it with its predecessor, or
        ``∞`` when there is no predecessor or the pair is not adjacent.
        """
        node = HeapNode(self._next_id, segment)
        self._next_id += 1
        if self._tail is None:
            self._head = node
        else:
            node.prev = self._tail
            self._tail.next = node
        self._tail = node
        self._size += 1
        self.max_size = max(self.max_size, self._size)
        self._refresh_key(node)
        return node

    def peek(self) -> Optional[HeapNode]:
        """Return the node with the smallest key without removing it.

        Returns ``None`` when the heap is empty.  A returned node with an
        infinite key means no merge is currently possible.
        """
        while self._entries:
            key, _, node, version = self._entries[0]
            if node.alive and node._version == version and node.key == key:
                return node
            heapq.heappop(self._entries)
        return None

    def peek_entry(self) -> Optional[Tuple["HeapNode", int, float]]:
        """Scalar view of the top: ``(handle, node_id, key)`` or ``None``.

        Mirrors :meth:`NumpyMergeHeap.peek_entry
        <repro.core.kernels.NumpyMergeHeap.peek_entry>` so the greedy inner
        loops can treat both heap backends uniformly; ``handle`` is accepted
        by :meth:`adjacent_successor_count`.
        """
        node = self.peek()
        if node is None:
            return None
        return node, node.id, node.key

    def merge_top(self) -> HeapNode:
        """Merge the minimum-key node into its predecessor.

        Returns the surviving predecessor node (which keeps its ``id``, as in
        the paper).  Raises :class:`ValueError` if no merge is possible.
        """
        node = self.peek()
        if node is None or math.isinf(node.key):
            raise ValueError("no adjacent pair available for merging")
        predecessor = node.prev
        assert predecessor is not None
        predecessor.segment = merge(predecessor.segment, node.segment)

        predecessor.next = node.next
        if node.next is not None:
            node.next.prev = predecessor
        else:
            self._tail = predecessor
        node.alive = False
        self._size -= 1

        self._refresh_key(predecessor)
        if predecessor.next is not None:
            self._refresh_key(predecessor.next)
        return predecessor

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _refresh_key(self, node: HeapNode) -> None:
        if node.prev is None or not adjacent(node.prev.segment, node.segment):
            node.key = math.inf
        else:
            node.key = pairwise_merge_error(
                node.prev.segment, node.segment, self._weights
            )
        node._version += 1
        if not math.isinf(node.key):
            self._entry_counter += 1
            heapq.heappush(
                self._entries,
                (node.key, self._entry_counter, node, node._version),
            )

    def clone(self) -> "MergeHeap":
        """Return an independent copy with identical observable behaviour.

        The copy preserves node ids, keys, versions and — crucially — the
        priority-queue entry counters, so a sequence of ``peek`` /
        ``merge_top`` / ``insert`` calls on the clone produces exactly the
        same results (including equal-key tie-breaking) as on the original.
        Stale lazy-deletion entries are dropped during the copy; they can
        never win a ``peek`` so their absence is unobservable.  This is what
        lets an incremental compression session take a non-destructive
        snapshot of its online state (:class:`repro.api.Compressor`).
        """
        other = MergeHeap(self._weights)
        other._entry_counter = self._entry_counter
        other._size = self._size
        other._next_id = self._next_id
        other.max_size = self.max_size
        twins: dict[int, HeapNode] = {}
        previous: Optional[HeapNode] = None
        node = self._head
        while node is not None:
            twin = HeapNode(node.id, node.segment)
            twin.key = node.key
            twin._version = node._version
            twin.prev = previous
            if previous is None:
                other._head = twin
            else:
                previous.next = twin
            twins[id(node)] = twin
            previous = twin
            node = node.next
        other._tail = previous
        entries = [
            (key, counter, twins[id(entry_node)], version)
            for key, counter, entry_node, version in self._entries
            if entry_node.alive
            and entry_node._version == version
            and entry_node.key == key
        ]
        # Filtering a binary heap does not preserve the heap invariant.
        heapq.heapify(entries)
        other._entries = entries
        return other

    def adjacent_successor_count(self, node: HeapNode, limit: int) -> int:
        """Number of successors chained to ``node`` by adjacency, up to ``limit``.

        Walks ``next`` pointers while each consecutive pair is adjacent.  The
        greedy algorithms use this to implement the read-ahead heuristic: a
        merge candidate is only merged once at least ``δ`` adjacent tuples
        follow it (Section 6.2.1).
        """
        count = 0
        current = node
        while count < limit and current.next is not None:
            if not adjacent(current.segment, current.next.segment):
                break
            count += 1
            current = current.next
        return count

    def successor_entry(
        self, node: HeapNode
    ) -> Optional[Tuple[int, float]]:
        """``(id, key)`` of the chronological successor, or ``None``.

        Used by the merge delta log to record the successor's refreshed
        key right after a merge, without materialising a node view.
        """
        successor = node.next
        if successor is None:
            return None
        return successor.id, successor.key

    def values_entry(self, node: HeapNode) -> Tuple[float, ...]:
        """The node's aggregate value row (immutable, by reference)."""
        return node.segment.values

    def __iter__(self) -> Iterator[HeapNode]:
        """Iterate over live nodes in chronological (list) order."""
        node = self._head
        while node is not None:
            yield node
            node = node.next

    def segments(self) -> List[AggregateSegment]:
        """Return the current intermediate relation in list order."""
        return [node.segment for node in self]

    def columns(self) -> "EncodedSegments":
        """The current intermediate relation as columns, in list order."""
        from .kernels import encode_segments

        return encode_segments(self.segments())


def make_merge_heap(
    weights: Weights | None = None, backend: str = "python"
) -> Heap:
    """Construct a merge heap for the requested ``backend``.

    ``"python"`` returns the linked-node reference :class:`MergeHeap`;
    ``"numpy"`` returns the array-backed
    :class:`~repro.core.kernels.NumpyMergeHeap`.  Both satisfy the
    :class:`Heap` protocol.
    """
    if backend == "python":
        return MergeHeap(weights)
    if backend == "numpy":
        from .kernels import NumpyMergeHeap

        return NumpyMergeHeap(weights)
    raise ValueError(f"backend must be 'python' or 'numpy', got {backend!r}")
