"""Keyed registry of live compression sessions with freezing eviction.

A serving deployment holds one :class:`~repro.api.session.Compressor` per
stream key (a sensor id, a tenant, a metric name) and feeds each key's
segments as they arrive.  :class:`SessionStore` is that registry:

* ``store.push(key, segment_or_chunk)`` creates the key's session on first
  touch and feeds it (chunks go through the session's staged bulk-insert
  fast path);
* an :class:`LRUTTLEviction` policy bounds the number of live sessions and
  their idle time — but eviction **finalizes** a session into a *frozen
  summary* instead of dropping it, so every tuple ever pushed stays
  queryable.  A key whose session was frozen simply starts a new session
  epoch on its next push; snapshots concatenate the frozen epochs with the
  live summary in arrival order;
* per-store counters (:class:`StoreStats`) expose live sessions, frozen
  summaries, pushed tuples and evictions for monitoring;
* with ``data_dir=`` the store is **durable**
  (:mod:`repro.service.durability`): every acknowledged push is appended
  to a per-key write-ahead log, frozen epochs are *demoted* to
  mmap-backed checkpoint files instead of staying resident, and
  construction recovers whatever a previous process left on disk —
  serving snapshots bit-identical to the uncrashed process.

The store tracks a *generation* per key — bumped by every push and every
eviction — which the :class:`~repro.service.query.QueryEngine` uses to
cache query-ready snapshot indexes: repeated queries between pushes cost
zero re-finalization.

Thread safety: all mutating operations take an internal lock, so the store
can sit directly behind the threaded HTTP front end
(:mod:`repro.service.http`).
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Protocol,
    Set,
    Tuple,
    Union,
)

from ..core.kernels import EncodedSegments, ValueWidthError
from ..core.merge import AggregateSegment
from ..api.plan import Budget, ExecutionPolicy
from ..api.result import Result
from ..api.session import Compressor
from ..obs import metrics as _metrics
from ..obs.tracing import span
from ..storage.wal import iter_wal_frames
from ..util.deadline import current_deadline
from .durability import Durability, DurabilityError, FrozenEpoch, PushToken
from .wire import checked_segments, encode_result, encode_segments

#: Stream keys are ordinary hashable identifiers (strings in the HTTP
#: front end, but any hashable works in process).
Key = Any

#: Checkpoint-size floor used by the ``wal_compact_factor`` trigger for
#: keys that have never checkpointed (so tiny fresh keys do not compact
#: on their first few pushes).
WAL_COMPACT_FLOOR_BYTES = 4096

#: Default byte budget of the in-memory resync journal — the window of
#: recent replicated events a briefly-disconnected standby can replay
#: instead of being re-seeded from scratch (:meth:`SessionStore.resync`).
DEFAULT_RESYNC_JOURNAL_BYTES = 16 * 1024 * 1024

#: Fixed per-entry bookkeeping charge in the journal's byte accounting
#: (tuple + deque slot + small metadata), on top of the payload bytes.
_JOURNAL_ENTRY_OVERHEAD = 64


class ServiceError(ValueError):
    """An invalid serving-layer request (unknown key, bad query, ...)."""


class ReplicationError(ServiceError):
    """A push could not reach its replication quorum.

    Raised (and mapped to HTTP 503 ``replication_quorum``) when a store
    built with ``sync_replicas=k`` cannot collect ``k`` standby
    acknowledgements for a push.  The write is **fully rolled back** —
    memory untouched, the WAL frame truncated back off the log — so the
    push is safe to retry verbatim once enough standbys are reachable.
    The consumed sequence number is recorded as *aborted*: a standby
    that applied it before the abort has diverged and is refused at
    :meth:`SessionStore.resync` instead of silently rejoining.
    """


#: Sentinel sequence number on catch-up frames: the standby applies the
#: frame but must **not** advance its resume cursor — only the explicit
#: end-of-catch-up marker (:meth:`ReplicationSink.on_catch_up`) carries
#: the real frontier.  A catch-up severed mid-stream therefore leaves
#: the standby reporting no progress (and a seeding taint), never a
#: frontier it does not actually hold.
CATCH_UP_SEQ = -1


class ReplicationSink(Protocol):
    """What the store needs from a replication target (duck-typed).

    The cluster tier's :class:`repro.cluster.replica.ReplicationLink`
    implements this over a socket; tests implement it in-process.  The
    contract: the ``on_*`` hooks are called under the store's lock
    in apply order and **must not raise** — a sink that loses its peer
    sets ``connected = False`` and returns (replication lag then grows
    until the operator re-attaches); ``acked_seq`` is the highest
    replication sequence number the peer has acknowledged applying.
    """

    connected: bool
    acked_seq: int

    def on_push(self, key: "Key", payload: bytes, seq: int) -> None:
        """One acknowledged push: ``payload`` is the chunk's ``PTAS``
        bytes — byte-identical to the primary's WAL frame."""

    def on_freeze(self, key: "Key", seq: int) -> None:
        """The key's live session froze; the standby finalizes its own
        live session at the same point (finalize is deterministic)."""

    def on_frozen(self, key: "Key", payload: bytes, seq: int) -> None:
        """Catch-up only: a pre-existing frozen epoch as ``PTAR`` bytes,
        installed verbatim on the standby without replaying its pushes."""

    def on_catch_up(self, seq: int) -> None:
        """Catch-up only: the end-of-stream marker.  Every preceding
        catch-up frame carried :data:`CATCH_UP_SEQ`; only now may the
        standby advance its resume cursor to ``seq`` (the frontier)."""


@dataclass(frozen=True)
class StoreStats:
    """Point-in-time counters of a :class:`SessionStore`.

    ``durable`` says whether the store was built with a ``data_dir``;
    ``degraded`` whether it is currently in memory-only degraded mode
    (disk faults exceeded the ``degrade_after`` streak and the periodic
    re-probe has not yet re-attached the WAL); ``disk_errors`` counts
    every durability-tier fault ever observed, monotonically.

    The replication fields describe the cluster tier
    (:mod:`repro.cluster.replica`): ``role`` is ``"primary"`` or
    ``"standby"``, ``replicas`` counts currently connected sinks,
    ``last_acked_generation`` is the replication frontier — the highest
    sequence number every connected sink has acknowledged (``-1`` before
    anything was acked) — and ``replication_lag`` is how many replicated
    events (pushes and freezes) the slowest connected sink still trails
    by.  With no connected replicas the lag is reported as 0.
    ``sinks`` breaks the same picture down per registered sink
    (connected or not): address, connection state, acknowledged
    sequence number and individual lag.
    """

    live_sessions: int
    frozen_summaries: int
    pushed_segments: int
    evictions: int
    durable: bool = False
    degraded: bool = False
    disk_errors: int = 0
    role: str = "primary"
    replicas: int = 0
    replication_lag: int = 0
    last_acked_generation: int = -1
    sinks: Tuple[Dict[str, Any], ...] = ()

    def as_dict(self) -> Dict[str, Any]:
        """The stats as a plain mapping (the HTTP ``/stats`` shape)."""
        return {
            "live_sessions": self.live_sessions,
            "frozen_summaries": self.frozen_summaries,
            "pushed_segments": self.pushed_segments,
            "evictions": self.evictions,
            "durable": int(self.durable),
            "degraded": int(self.degraded),
            "disk_errors": self.disk_errors,
            "role": self.role,
            "replicas": self.replicas,
            "replication_lag": self.replication_lag,
            "last_acked_generation": self.last_acked_generation,
            "sinks": [dict(entry) for entry in self.sinks],
        }


class LRUTTLEviction:
    """Least-recently-used + time-to-live eviction policy.

    ``max_sessions`` bounds the number of *live* sessions (frozen summaries
    are cheap — just the reduced segments — and are not counted);
    ``ttl`` ages out sessions idle for longer than that many seconds.
    Either knob may be ``None`` to disable it.  The policy only *selects*
    keys; the store performs the freezing, so a custom policy is just an
    object with this ``select`` signature.
    """

    def __init__(
        self,
        max_sessions: Optional[int] = None,
        ttl: Optional[float] = None,
    ) -> None:
        if max_sessions is not None and max_sessions < 1:
            raise ServiceError(
                f"max_sessions must be at least 1, got {max_sessions}"
            )
        if ttl is not None and ttl <= 0:
            raise ServiceError(f"ttl must be positive, got {ttl}")
        self.max_sessions = max_sessions
        self.ttl = ttl

    def select(
        self, now: float, last_access: "Mapping[Key, float]"
    ) -> List[Key]:
        """Keys to evict, given live keys in least-recently-used order."""
        victims: List[Key] = []
        if self.ttl is not None:
            victims.extend(
                key
                for key, touched in last_access.items()
                if now - touched > self.ttl
            )
        if self.max_sessions is not None:
            over = len(last_access) - len(victims) - self.max_sessions
            if over > 0:
                chosen = set(victims)
                for key in last_access:  # oldest first
                    if over <= 0:
                        break
                    if key not in chosen:
                        victims.append(key)
                        chosen.add(key)
                        over -= 1
        return victims


@dataclass
class _KeyState:
    """Everything the store holds for one stream key."""

    session: Optional[Compressor] = None
    frozen: List[FrozenEpoch] = field(default_factory=list)
    #: Index of the current (or next) live epoch; bumped on every freeze.
    #: In durable mode this names the key's WAL / checkpoint files.
    epoch: int = 0
    generation: int = 0
    pushed: int = 0
    last_access: float = 0.0
    #: Concatenated column form of the frozen epochs, built lazily and
    #: invalidated whenever a new epoch freezes.  Frozen summaries never
    #: change, so this is computed once per eviction, not per query.
    frozen_columns: Optional[EncodedSegments] = None
    #: Consecutive durable-write failures for this key alone; at the
    #: ``degrade_after`` threshold (or immediately on a torn WAL tail)
    #: the store rotates the key's epoch so a single poisoned segment
    #: file cannot wedge the key forever.
    disk_streak: int = 0
    #: Set when a push was acknowledged without reaching the WAL
    #: (degraded mode); re-attach demotes dirty keys so disk catches
    #: back up with memory.
    dirty: bool = False
    #: Aggregate values per tuple, pinned by the key's first tuples
    #: (``None`` until known); a push of another width is refused.
    width: Optional[int] = None


#: Distinguishes store instances in the shared metrics registry.
_STORE_IDS = itertools.count()


class SessionStore:
    """A keyed registry of live :class:`Compressor` sessions.

    Parameters
    ----------
    budget:
        Default reduction budget for new sessions; alternatively pass one
        of ``size`` / ``max_error``.  Ignored for keys handled by
        ``session_factory``.
    policy:
        Execution knobs shared by every session (backend, delta, weights);
        ``workers`` must stay ``None`` as for any :class:`Compressor`.
    eviction:
        An eviction policy object (``select(now, last_access) -> keys``);
        defaults to :class:`LRUTTLEviction` built from ``max_sessions`` /
        ``ttl``.  Eviction runs after every push.
    session_factory:
        Optional ``key -> Compressor`` hook for per-key budgets or
        policies; when given, ``budget``/``size``/``max_error`` become the
        fallback and may be omitted entirely.
    clock:
        Monotonic time source (injectable for tests).
    data_dir:
        Enables the durability tier (:mod:`repro.service.durability`):
        every acknowledged push is appended to a per-key write-ahead log
        under this directory, frozen epochs are *demoted* to mmap-backed
        checkpoint files instead of staying in RAM, and construction
        **recovers** whatever a previous process left there — the
        recovered store serves snapshots bit-identical to the uncrashed
        one.  Durable stores require non-empty string keys (the key names
        a directory).
    fsync_every:
        WAL fsync cadence in pushes (durable mode only).  ``1`` (default)
        makes every acknowledged push durable; ``n`` batches fsyncs and
        risks the last ``< n`` pushes on power loss; ``0`` leaves
        flushing to the OS.
    checkpoint_every:
        Freeze-and-demote the live epoch after this many pushed tuples
        (durable mode only).  Deterministic in the input, so crash and
        no-crash runs place epoch boundaries identically; bounds WAL
        replay length at recovery.  ``None`` disables the trigger.
    degrade_after:
        Consecutive durability faults before the store gives up on the
        disk and enters **degraded** (memory-only) mode: pushes keep
        being acknowledged but are no longer logged, ``/healthz`` and
        :meth:`stats` report ``degraded``, and the store periodically
        re-probes the data directory.  The same threshold applies
        per-key: a key whose own writes keep failing has its epoch
        rotated onto a fresh segment file.
    reprobe_every:
        While degraded, re-probe the data directory every this many
        acknowledged pushes and re-attach (demoting every key that
        accumulated memory-only state) as soon as a probe succeeds.
        ``0`` disables automatic re-probing; :meth:`reprobe` always
        works manually.
    wal_compact_factor:
        WAL compaction for long-lived live epochs (durable mode only):
        after a durable push, if the key's live WAL has grown past this
        factor times the key's newest checkpoint size (with a small
        floor for keys that have never checkpointed), the live epoch is
        frozen-and-demoted — checkpoint-then-truncate — so WAL replay at
        recovery *and standby catch-up* stay bounded even for keys that
        never hit ``checkpoint_every`` or the eviction policy.  ``None``
        (default) disables the trigger.
    sync_replicas:
        Replication quorum (cluster tier).  ``0`` (default) keeps
        replication asynchronous: pushes are acknowledged locally and
        the lag metric shows how far standbys trail.  ``k > 0`` makes a
        push **hold its acknowledgement** until ``k`` of the registered
        sinks acked the push's sequence number; a push that cannot
        reach quorum is fully rolled back and raises
        :class:`ReplicationError` (HTTP 503 ``replication_quorum``) —
        memory, WAL and standby-visible history never diverge.
    resync_journal_bytes:
        Byte budget of the in-memory journal of recent replicated
        events (default 16 MiB).  A sink that disconnects and returns
        within the window is caught up by replaying only the gap
        (:meth:`resync`); once trimmed past a sink's last-acked
        sequence number, that sink must be re-seeded from scratch.
    """

    def __init__(
        self,
        budget: Optional[Budget] = None,
        *,
        size: Optional[int] = None,
        max_error: Optional[float] = None,
        policy: Optional[ExecutionPolicy] = None,
        eviction: Optional[LRUTTLEviction] = None,
        max_sessions: Optional[int] = None,
        ttl: Optional[float] = None,
        session_factory: Optional[Callable[[Key], Compressor]] = None,
        clock: Callable[[], float] = time.monotonic,
        data_dir: Optional[Union[str, Path]] = None,
        fsync_every: int = 1,
        checkpoint_every: Optional[int] = None,
        degrade_after: int = 3,
        reprobe_every: int = 8,
        wal_compact_factor: Optional[float] = None,
        sync_replicas: int = 0,
        resync_journal_bytes: int = DEFAULT_RESYNC_JOURNAL_BYTES,
    ) -> None:
        if eviction is not None and (
            max_sessions is not None or ttl is not None
        ):
            raise ServiceError(
                "pass either an eviction policy object or the "
                "max_sessions/ttl shorthands, not both"
            )
        self._policy = policy
        self._factory: Optional[Callable[[Key], Compressor]] = session_factory
        # With a factory, a default budget is optional (pure fallback);
        # without one it is required and validated eagerly — a bad store
        # config should fail at construction, not on the first push.
        self._default: Optional[Tuple[Any, Any, Any]] = (
            (budget, size, max_error)
            if (budget, size, max_error) != (None, None, None)
            or session_factory is None
            else None
        )
        if session_factory is None:
            self._make_session()
        self._eviction = (
            eviction
            if eviction is not None
            else LRUTTLEviction(max_sessions=max_sessions, ttl=ttl)
        )
        self._clock = clock
        self._states: "OrderedDict[Key, _KeyState]" = OrderedDict()
        self._lock = threading.RLock()
        # Store-wide counters live in the process-global metrics registry
        # (label ``store=<n>`` distinguishes instances) — the single
        # source of truth that both ``GET /metrics`` and
        # :meth:`stats` / ``/stats`` read.
        store = str(next(_STORE_IDS))
        self._c_pushed = _metrics.counter(
            "repro_store_pushed_segments_total",
            "Segments acknowledged into live sessions, across keys.",
            store=store,
        )
        self._c_evictions = _metrics.counter(
            "repro_store_evictions_total",
            "Live sessions frozen (eviction, manual freeze, checkpoint).",
            store=store,
        )
        self._c_disk_errors = _metrics.counter(
            "repro_store_disk_errors_total",
            "Durability-tier faults observed (WAL, checkpoint, probe).",
            store=store,
        )
        self._g_degraded = _metrics.gauge(
            "repro_store_degraded",
            "1 while the store serves memory-only after disk faults.",
            store=store,
        )
        self._g_replicas = _metrics.gauge(
            "repro_store_replicas",
            "Currently connected replication sinks.",
            store=store,
        )
        self._g_replication_lag = _metrics.gauge(
            "repro_store_replication_lag",
            "Replicated events the slowest connected sink trails by.",
            store=store,
        )
        self._h_push = _metrics.histogram(
            "repro_store_push_seconds",
            "Store push wall time (WAL append through eviction sweep).",
            store=store,
        )
        self._h_quorum = _metrics.histogram(
            "repro_quorum_wait_seconds",
            "Time a push spent collecting its replication quorum.",
            store=store,
        )
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ServiceError(
                f"checkpoint_every must be at least 1, got {checkpoint_every}"
            )
        if checkpoint_every is not None and data_dir is None:
            raise ServiceError(
                "checkpoint_every requires durable mode (pass data_dir=)"
            )
        self._checkpoint_every = checkpoint_every
        if degrade_after < 1:
            raise ServiceError(
                f"degrade_after must be at least 1, got {degrade_after}"
            )
        if reprobe_every < 0:
            raise ServiceError(
                f"reprobe_every must be non-negative, got {reprobe_every}"
            )
        if wal_compact_factor is not None and wal_compact_factor <= 0:
            raise ServiceError(
                f"wal_compact_factor must be positive, got "
                f"{wal_compact_factor}"
            )
        if wal_compact_factor is not None and data_dir is None:
            raise ServiceError(
                "wal_compact_factor requires durable mode (pass data_dir=)"
            )
        self._wal_compact_factor = wal_compact_factor
        self._degrade_after = degrade_after
        self._reprobe_every = reprobe_every
        self._degraded = False
        self._error_streak = 0
        self._since_probe = 0
        #: Resident frozen epochs awaiting a checkpoint write that failed
        #: or was skipped while degraded: (key, epoch index, position in
        #: the key's frozen list).  Retried after every fully-durable
        #: push and at re-attach.
        self._pending_demote: List[Tuple[Key, int, int]] = []
        if sync_replicas < 0:
            raise ServiceError(
                f"sync_replicas must be non-negative, got {sync_replicas}"
            )
        if resync_journal_bytes < 1:
            raise ServiceError(
                f"resync_journal_bytes must be positive, got "
                f"{resync_journal_bytes}"
            )
        #: Replication (cluster tier): the store's serving role, the
        #: registered sinks, and the monotone sequence number stamped on
        #: every replicated event (push or freeze) in apply order.
        self.role: str = "primary"
        self.sync_replicas = sync_replicas
        self._sinks: List[ReplicationSink] = []
        self._replication_seq = 0
        #: Journal of recent committed replicated events,
        #: ``(seq, hook, key, payload)`` oldest first — what
        #: :meth:`resync` replays to a returning sink.  Trimmed to what
        #: every registered sink has acked, then to the byte budget.
        self._journal: Deque[Tuple[int, str, Key, Optional[bytes]]] = deque()
        self._journal_bytes = 0
        self._journal_cap = resync_journal_bytes
        #: Highest sequence number trimmed out of the journal: a sink
        #: whose ack frontier is below this can no longer resync
        #: incrementally.  Also the prune line for ``_aborted_seqs``.
        self._journal_floor = -1
        #: Sequence numbers consumed by pushes that were rolled back
        #: (quorum failures): a standby that applied one has diverged.
        self._aborted_seqs: Set[int] = set()
        self._durability: Optional[Durability] = None
        if data_dir is not None:
            self._durability = Durability(data_dir, fsync_every=fsync_every)
            self._recover()

    # ------------------------------------------------------------------
    # Feeding
    # ------------------------------------------------------------------
    def push(
        self,
        key: Key,
        segments: Union[AggregateSegment, Iterable[AggregateSegment]],
    ) -> int:
        """Feed one segment or a chunk into ``key``'s live session.

        Creates the session on first touch (or a fresh epoch if the key's
        previous session was frozen), then runs the eviction policy over
        the live sessions.  Returns the number of segments consumed.

        The chunk is validated as columns first (the checks of a decoded
        wire payload, plus the key's value width), so a malformed push
        changes nothing.  In durable mode the push is **atomic with
        respect to disk faults**: the chunk is appended to the key's
        write-ahead log as one frame *first*, and only then
        applied in memory — a disk fault raises
        :class:`~repro.service.durability.DurabilityError` with the
        in-memory state untouched (safe to retry), and a failed
        in-memory application truncates the frame back off the log, so
        memory and log never diverge.  After ``degrade_after``
        consecutive disk faults the store drops to **degraded**
        memory-only mode: pushes are acknowledged without logging until
        a periodic re-probe (every ``reprobe_every`` pushes, or a manual
        :meth:`reprobe`) re-attaches the data directory.
        """
        if not _metrics.enabled():  # one global read on the hot path
            return self._push(key, segments)
        t0 = perf_counter()
        try:
            return self._push(key, segments)
        finally:
            self._h_push.observe(perf_counter() - t0)

    def _push(
        self,
        key: Key,
        segments: Union[AggregateSegment, Iterable[AggregateSegment]],
    ) -> int:
        with self._lock:
            if self._durability is not None and (
                not isinstance(key, str) or not key
            ):
                raise ServiceError(
                    f"durable stores require non-empty string keys, "
                    f"got {key!r}"
                )
            chunk = checked_segments(segments)
            state = self._states.get(key)
            if state is not None and len(chunk):
                self._check_width(key, state, chunk)
            created = state is None
            opened = created or state.session is None
            if opened:
                # Open the session *before* registering any state: a
                # failing session_factory must not leave a phantom key
                # behind (its snapshot would have nothing to serve).
                session = self._open_session(key)
                if state is None:
                    state = _KeyState()
                    self._states[key] = state
                state.session = session
            assert state.session is not None
            logging = self._durability is not None and not self._degraded
            replicating = bool(self._sinks)
            quorum = self.sync_replicas if replicating else 0
            token: Optional[PushToken] = None
            payload: Optional[bytes] = None
            if logging or replicating:
                payload = encode_segments(chunk)  # a plain pack
            if logging:
                assert self._durability is not None
                assert payload is not None
                try:
                    token = self._durability.log_push(
                        key, state.epoch, payload
                    )
                except DurabilityError:
                    # Not acknowledged, memory untouched — unregister a
                    # session this very call opened so the failed push
                    # leaves no phantom key behind.
                    self._note_disk_error(key, state)
                    if opened:
                        state.session = None
                        if created:
                            del self._states[key]
                    raise
            seq = 0
            if quorum > 0:
                # Quorum mode ships *before* the in-memory apply: if the
                # standbys cannot ack, everything rolls back — WAL frame
                # truncated, no session state, no journal entry — and
                # the client's 503 really means "nothing happened".
                assert payload is not None
                seq = self._next_seq()
                try:
                    self._await_quorum(key, payload, seq, quorum)
                except Exception:
                    self._mark_aborted(seq)
                    if token is not None:
                        assert self._durability is not None
                        try:
                            self._durability.rollback(token)
                        except DurabilityError:
                            self._note_disk_error(key, state)
                    if opened:
                        state.session = None
                        if created:
                            del self._states[key]
                    raise
            before = state.session.pushed
            try:
                state.session.push(chunk)
            except Exception:
                if quorum > 0:
                    # Standbys already applied this sequence number; the
                    # primary could not.  Record the divergence.
                    self._mark_aborted(seq)
                if token is not None:
                    assert self._durability is not None
                    try:
                        self._durability.rollback(token)
                    except DurabilityError:
                        # The writer marked itself broken; the next push
                        # for this key rotates its epoch.
                        self._note_disk_error(key, state)
                raise
            consumed = state.session.pushed - before
            if consumed:
                state.width = chunk.dimensions
            state.pushed += consumed
            state.generation += 1
            state.last_access = self._clock()
            self._states.move_to_end(key)
            self._c_pushed.inc(consumed)
            if replicating:
                # The standby must see exactly the acknowledged pushes,
                # in order, before any freeze this same call might
                # trigger below.  Quorum mode shipped above and only
                # journals here; async mode stamps, fans out to the
                # connected sinks and journals in one step — sequence
                # numbers advance even while every sink is disconnected,
                # so a returning sink can replay the gap.
                assert payload is not None
                if quorum > 0:
                    self._journal_event("on_push", key, payload, seq)
                else:
                    self._replicate("on_push", key, payload)
            if token is not None:
                assert self._durability is not None
                try:
                    self._durability.commit()
                except DurabilityError:
                    # Appended and applied, so the push stays acked; the
                    # fsync fault only widens the power-loss window,
                    # which is what the error streak tracks.
                    self._note_disk_error(key, state)
                else:
                    self._error_streak = 0
                    state.disk_streak = 0
                    if self._pending_demote:
                        self._retry_pending_demotes()
            elif self._durability is not None:
                state.dirty = True  # acknowledged memory-only (degraded)
                self._since_probe += 1
                if (
                    self._reprobe_every
                    and self._since_probe >= self._reprobe_every
                ):
                    self._try_reattach()
            if (
                self._checkpoint_every is not None
                and state.session is not None
                and state.session.pushed >= self._checkpoint_every
            ):
                self._freeze_state(key, state)
            if (
                self._wal_compact_factor is not None
                and token is not None
                and state.session is not None
                and state.session.pushed > 0
                and not self._degraded
            ):
                self._maybe_compact(key, state)
            self._run_eviction()
            return consumed

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def snapshot(self, key: Key) -> Result:
        """Summary of everything ever pushed for ``key``, frozen + live.

        Frozen epochs come first in push order, followed by the live
        session's non-destructive :meth:`~Compressor.summary` snapshot;
        the statistics (error, sizes, merges) are summed across parts.
        Raises :class:`ServiceError` for an unknown key.
        """
        with self._lock:
            state = self._require(key)
            parts = [epoch.result() for epoch in state.frozen]
            if state.session is not None:
                parts.append(state.session.summary())
                state.last_access = self._clock()
                self._states.move_to_end(key)
            if len(parts) == 1:
                return parts[0]
            combined = Result(method=parts[0].method, backend=parts[0].backend)
            for part in parts:
                combined.segments.extend(part.segments)
                combined.error += part.error
                combined.size += part.size
                combined.input_size += part.input_size
                combined.max_heap_size = max(
                    combined.max_heap_size, part.max_heap_size
                )
                combined.merges += part.merges
            return combined

    def segments(self, key: Key) -> List[AggregateSegment]:
        """The combined snapshot's segments (materialised form)."""
        return self.snapshot(key).segments

    def snapshot_columns(self, key: Key) -> EncodedSegments:
        """The combined snapshot in flat column form (the query fast path).

        Frozen epochs contribute a column image cached per eviction; the
        live part rides the session's delta-based, generation-cached
        :meth:`~repro.api.Compressor.summary_columns`.  Between pushes this
        is O(1); after ``k`` pushes it costs O(k + tail merges) Python
        work — the serving-layer face of the delta snapshot path.
        """
        with self._lock, span("snapshot_delta"):
            state = self._require(key)
            parts: List[EncodedSegments] = []
            if state.frozen:
                if state.frozen_columns is None:
                    # Demoted epochs contribute zero-copy views over their
                    # mmap'd checkpoints here; resident epochs a one-time
                    # column image of their segments.
                    state.frozen_columns = EncodedSegments.concatenate(
                        [epoch.columns() for epoch in state.frozen]
                    )
                parts.append(state.frozen_columns)
            if state.session is not None:
                parts.append(state.session.summary_columns())
                state.last_access = self._clock()
                self._states.move_to_end(key)
            return EncodedSegments.concatenate(parts)

    def generation(self, key: Key) -> int:
        """Cache-invalidation token: bumped by every push and eviction."""
        with self._lock:
            return self._require(key).generation

    def frozen(self, key: Key) -> List[Result]:
        """The frozen summaries of ``key``'s evicted epochs (oldest first).

        Materialises demoted epochs into full :class:`Result` objects —
        an introspection path; serving reads go through
        :meth:`snapshot_columns`, which keeps demoted epochs mmap-backed.
        """
        with self._lock:
            return [epoch.result() for epoch in self._require(key).frozen]

    def frozen_epochs(self, key: Key) -> List[FrozenEpoch]:
        """The frozen epochs themselves (resident or demoted), oldest first."""
        with self._lock:
            return list(self._require(key).frozen)

    def pushed(self, key: Key) -> int:
        """Total segments ever pushed for ``key`` (across epochs)."""
        with self._lock:
            return self._require(key).pushed

    def keys(self) -> List[Key]:
        """Every known key (live or frozen), least recently used first."""
        with self._lock:
            return list(self._states)

    def is_live(self, key: Key) -> bool:
        """Whether ``key`` currently holds a live (unfrozen) session."""
        with self._lock:
            state = self._states.get(key)
            return state is not None and state.session is not None

    def __contains__(self, key: Key) -> bool:
        with self._lock:
            return key in self._states

    def __len__(self) -> int:
        """Number of *live* sessions (what the LRU bound applies to)."""
        with self._lock:
            return sum(
                1 for state in self._states.values()
                if state.session is not None
            )

    def stats(self) -> StoreStats:
        """Current store-wide counters.

        The counters are read back from the metrics registry — the same
        children ``GET /metrics`` renders — so ``/stats`` and the
        Prometheus exposition can never disagree; the replication and
        degraded gauges are refreshed here on the way out.
        """
        with self._lock:
            connected = [sink for sink in self._sinks if sink.connected]
            acked = min(
                (sink.acked_seq for sink in connected), default=-1
            )
            lag = self._replication_seq - acked if connected else 0
            self._g_replicas.set(len(connected))
            self._g_replication_lag.set(lag)
            self._g_degraded.set(int(self._degraded))
            sinks = tuple(
                {
                    "address": str(
                        getattr(sink, "address", f"sink-{index}")
                    ),
                    "connected": int(sink.connected),
                    "acked_seq": sink.acked_seq,
                    "lag": self._replication_seq - sink.acked_seq,
                }
                for index, sink in enumerate(self._sinks)
            )
            return StoreStats(
                live_sessions=len(self),
                frozen_summaries=sum(
                    len(state.frozen) for state in self._states.values()
                ),
                pushed_segments=int(self._c_pushed.value),
                evictions=int(self._c_evictions.value),
                durable=self._durability is not None,
                degraded=self._degraded,
                disk_errors=int(self._c_disk_errors.value),
                role=self.role,
                replicas=len(connected),
                replication_lag=lag,
                last_acked_generation=acked,
                sinks=sinks,
            )

    @property
    def degraded(self) -> bool:
        """Whether the store is in memory-only degraded mode."""
        with self._lock:
            return self._degraded

    # ------------------------------------------------------------------
    # Eviction
    # ------------------------------------------------------------------
    def freeze(self, key: Key) -> Result:
        """Manually finalize ``key``'s live session into a frozen summary.

        The frozen-summary handoff: the session's end-of-input phase runs
        once, the result is retained for querying, and the key's next push
        opens a fresh epoch.  Returns the frozen summary.
        """
        with self._lock:
            state = self._require(key)
            if state.session is None:
                raise ServiceError(f"key {key!r} has no live session")
            return self._freeze_state(key, state)

    def evict_idle(self) -> List[Key]:
        """Run the eviction policy now (it also runs after every push)."""
        with self._lock:
            return self._run_eviction()

    def _run_eviction(self) -> List[Key]:
        live: "OrderedDict[Key, float]" = OrderedDict(
            (key, state.last_access)
            for key, state in self._states.items()
            if state.session is not None
        )
        victims = self._eviction.select(self._clock(), live)
        for key in victims:
            state = self._states.get(key)
            if state is not None and state.session is not None:
                self._freeze_state(key, state)
        return victims

    def _freeze_state(self, key: Key, state: _KeyState) -> Result:
        """Finalize the live session into a frozen epoch.

        In durable mode this is *demotion*: the finalized summary is
        written as an atomic checkpoint, the epoch's WAL is deleted, and
        only an mmap-backed :class:`FrozenEpoch` stays behind — the RAM
        copy is dropped, so eviction now bounds memory without bounding
        the number of queryable keys.  If the checkpoint write fails —
        or the store is degraded — the epoch stays resident and is
        queued for demotion (:attr:`_pending_demote`); freezing never
        loses state to a disk fault.
        """
        assert state.session is not None
        with span("freeze"):
            frozen = state.session.finalize()
        epoch: FrozenEpoch
        if self._durability is not None and not self._degraded:
            try:
                epoch = self._durability.demote(key, state.epoch, frozen)
            except DurabilityError:
                epoch = FrozenEpoch.from_result(frozen)
                self._pending_demote.append(
                    (key, state.epoch, len(state.frozen))
                )
                self._note_demote_error()
        elif self._durability is not None:
            epoch = FrozenEpoch.from_result(frozen)
            self._pending_demote.append((key, state.epoch, len(state.frozen)))
        else:
            epoch = FrozenEpoch.from_result(frozen)
        state.frozen.append(epoch)
        state.frozen_columns = None  # rebuilt lazily on the next read
        state.session = None
        state.epoch += 1
        state.generation += 1
        self._c_evictions.inc()
        # Freezes are replicated events: a primary that froze at push g
        # serves frozen-summary + fresh-session answers, which differ
        # from one uninterrupted session's — the standby must finalize
        # at exactly the same points to stay bit-identical.  Stamped and
        # journaled even while every sink is disconnected, so a
        # returning sink replays the freeze in order.
        if self._sinks:
            self._replicate("on_freeze", key)
        return frozen

    def _maybe_compact(self, key: Key, state: _KeyState) -> None:
        """Checkpoint-then-truncate a live epoch whose WAL outgrew its
        newest checkpoint by ``wal_compact_factor`` (bounding recovery
        replay and standby catch-up for long-lived keys)."""
        assert self._durability is not None
        assert self._wal_compact_factor is not None
        wal_bytes = self._durability.wal_size(key, state.epoch)
        reference = max(
            self._durability.latest_checkpoint_size(key),
            WAL_COMPACT_FLOOR_BYTES,
        )
        if wal_bytes > self._wal_compact_factor * reference:
            self._freeze_state(key, state)

    # ------------------------------------------------------------------
    # Replication (cluster tier)
    # ------------------------------------------------------------------
    def add_replication_sink(self, sink: ReplicationSink) -> None:
        """Register a sink without catch-up (it must already be in sync
        — an empty store, or a sink fed by :meth:`replicate_to`)."""
        with self._lock:
            if sink not in self._sinks:
                self._sinks.append(sink)

    def remove_replication_sink(self, sink: ReplicationSink) -> None:
        """Detach a sink; missing sinks are ignored."""
        with self._lock:
            try:
                self._sinks.remove(sink)
            except ValueError:
                pass

    def replicate_to(self, sink: ReplicationSink) -> None:
        """Atomically catch a sink up on the full history, then register.

        Under the store lock — so no push can interleave — every key's
        frozen epochs stream first (``on_frozen`` with the epoch's
        ``PTAR`` bytes, installed verbatim on the standby), then the
        live epoch's acknowledged pushes replay from its WAL frames
        (``on_push`` — the standby applies them through its own
        sessions, reproducing the live state bit-identically by the
        replay invariant).  A memory-only primary has no WAL to tail,
        so it must attach its standby before any live pushes exist;
        likewise a degraded durable primary holds acknowledged pushes
        the WAL never saw (``dirty`` keys) and cannot guarantee a
        faithful copy.  Both raise :class:`ServiceError`.
        """
        with self._lock:
            try:
                self._catch_up(sink)
            except ConnectionError as error:
                raise ServiceError(str(error)) from error
            sink.acked_seq = max(sink.acked_seq, self._replication_seq)
            if sink not in self._sinks:
                self._sinks.append(sink)

    def _catch_up(self, sink: ReplicationSink) -> None:
        """Stream the full history to ``sink`` (caller holds the lock).

        Every history frame carries :data:`CATCH_UP_SEQ` — the standby
        applies it without advancing its resume cursor — and the stream
        closes with an explicit :meth:`ReplicationSink.on_catch_up`
        marker carrying the real frontier.  Only that marker commits
        the cursor, so a catch-up severed mid-stream leaves the standby
        half-seeded *and saying so* (it reports no progress plus a
        seeding taint), never claiming a frontier it does not hold.
        Raises :class:`ConnectionError` if the sink drops mid-stream
        (retryable) and :class:`ServiceError` when the history itself
        cannot be streamed faithfully (memory-only or degraded primary
        with live pushes — permanent until fixed).
        """
        for key, state in self._states.items():
            for epoch in state.frozen:
                sink.on_frozen(
                    key, encode_result(epoch.result()), CATCH_UP_SEQ
                )
                if not sink.connected:
                    raise ConnectionError(
                        "replication sink disconnected during catch-up"
                    )
            if state.session is not None and state.session.pushed > 0:
                if self._durability is None or state.dirty:
                    raise ServiceError(
                        f"cannot catch a standby up on key {key!r}: "
                        f"its live pushes are not on a write-ahead "
                        f"log (memory-only or degraded primary); "
                        f"attach the standby before the first push "
                        f"or use a healthy durable primary"
                    )
                wal = self._durability.wal_path(key, state.epoch)
                for _, payload in iter_wal_frames(wal):
                    sink.on_push(key, payload, CATCH_UP_SEQ)
                    if not sink.connected:
                        raise ConnectionError(
                            "replication sink disconnected during "
                            "catch-up"
                        )
        sink.on_catch_up(self._replication_seq)
        if not sink.connected:
            raise ConnectionError(
                "replication sink disconnected before acknowledging "
                "the end of catch-up"
            )

    def resync(
        self,
        sink: ReplicationSink,
        applied_seq: int,
        adopt: Optional[Callable[[], None]] = None,
    ) -> None:
        """Catch a *returning* sink up from the resync journal.

        ``applied_seq`` is the standby's self-reported frontier (from
        its ``HELLO`` answer): every journaled event above it replays
        with its **original** sequence number, then the sink is
        registered — all under the store lock, so no concurrent push
        can interleave a newer event before the gap is closed.  The
        optional ``adopt`` callback runs under that same lock *after*
        the viability checks and is where a
        :class:`~repro.cluster.replica.ReplicationLink` installs its
        freshly-dialed connection.

        ``applied_seq == -1`` means the standby is empty (e.g. it was
        restarted): the full history streams via catch-up instead.

        Raises :class:`ServiceError` — permanently, the standby must be
        re-seeded from scratch — when the standby is ahead of this
        primary, applied a sequence number this primary aborted
        (quorum-failure divergence), or fell behind the journal's
        trimmed window.  Raises :class:`ConnectionError` (retryable)
        when the sink drops mid-replay.
        """
        with self._lock:
            if applied_seq > self._replication_seq:
                raise ServiceError(
                    f"standby reports applied sequence {applied_seq}, "
                    f"ahead of this primary's frontier "
                    f"{self._replication_seq}: it was fed by a "
                    f"different primary and cannot rejoin"
                )
            if applied_seq in self._aborted_seqs:
                raise ServiceError(
                    f"standby applied sequence {applied_seq}, which "
                    f"this primary aborted after a quorum failure: the "
                    f"replica has diverged and must be re-seeded from "
                    f"scratch"
                )
            if applied_seq >= 0 and applied_seq < self._journal_floor:
                raise ServiceError(
                    f"resync window exhausted: the journal was trimmed "
                    f"through sequence {self._journal_floor} but the "
                    f"standby only applied {applied_seq}; re-seed it "
                    f"from scratch"
                )
            if adopt is not None:
                adopt()
            if applied_seq < 0:
                self._catch_up(sink)
            else:
                for seq, hook, key, payload in list(self._journal):
                    if seq <= applied_seq:
                        continue
                    try:
                        if hook == "on_push":
                            assert payload is not None
                            sink.on_push(key, payload, seq)
                        else:
                            sink.on_freeze(key, seq)
                    except Exception:  # noqa: BLE001 — sink contract
                        sink.connected = False
                    if not sink.connected:
                        raise ConnectionError(
                            "replication sink disconnected during resync"
                        )
            sink.acked_seq = max(sink.acked_seq, self._replication_seq)
            if sink not in self._sinks:
                self._sinks.append(sink)

    def install_frozen(self, key: Key, result: Result) -> None:
        """Install a finalized summary as the key's next frozen epoch.

        The standby-side counterpart of catch-up ``on_frozen`` frames:
        the epoch is installed verbatim — the merge policy is **not**
        re-run — exactly as if this store had frozen it itself (durable
        stores demote it to a checkpoint).  Only valid while the key has
        no live session; pushes for the key must arrive after every
        frozen epoch is installed, mirroring the primary's history.
        """
        with self._lock:
            if self._durability is not None and (
                not isinstance(key, str) or not key
            ):
                raise ServiceError(
                    f"durable stores require non-empty string keys, "
                    f"got {key!r}"
                )
            state = self._states.get(key)
            if state is None:
                state = _KeyState()
                self._states[key] = state
            if state.session is not None:
                raise ServiceError(
                    f"key {key!r} already has a live session; frozen "
                    f"epochs must be installed before live pushes"
                )
            epoch: FrozenEpoch
            if self._durability is not None and not self._degraded:
                try:
                    epoch = self._durability.demote(
                        key, state.epoch, result
                    )
                except DurabilityError:
                    epoch = FrozenEpoch.from_result(result)
                    self._pending_demote.append(
                        (key, state.epoch, len(state.frozen))
                    )
                    self._note_demote_error()
            elif self._durability is not None:
                epoch = FrozenEpoch.from_result(result)
                self._pending_demote.append(
                    (key, state.epoch, len(state.frozen))
                )
            else:
                epoch = FrozenEpoch.from_result(result)
            state.frozen.append(epoch)
            state.frozen_columns = None
            state.epoch += 1
            state.generation += 1
            state.pushed += result.input_size
            state.last_access = self._clock()
            self._states.move_to_end(key)
            self._c_pushed.inc(result.input_size)
            self._c_evictions.inc()

    def _replicate(
        self, hook: str, key: Key, payload: Optional[bytes] = None
    ) -> None:
        """Stamp the next sequence number, fan one event out, journal it.

        Sinks must not raise (the :class:`ReplicationSink` contract); one
        that does anyway is disconnected rather than failing the push.
        """
        seq = self._next_seq()
        self._fan_out(hook, key, payload, seq)
        self._journal_event(hook, key, payload, seq)

    def _next_seq(self) -> int:
        self._replication_seq += 1
        return self._replication_seq

    def _fan_out(
        self, hook: str, key: Key, payload: Optional[bytes], seq: int
    ) -> None:
        """Ship one event to every connected sink (never raises)."""
        with span("replicate_ack"):
            for sink in self._sinks:
                if not sink.connected:
                    continue
                try:
                    if hook == "on_push":
                        assert payload is not None
                        sink.on_push(key, payload, seq)
                    else:
                        sink.on_freeze(key, seq)
                except Exception:  # noqa: BLE001 — protect the push path
                    sink.connected = False

    def _await_quorum(
        self, key: Key, payload: bytes, seq: int, quorum: int
    ) -> None:
        """Ship a push and demand ``quorum`` acknowledgements of it.

        The link sinks are synchronous (their ``on_push`` returns only
        after the standby's ack, bounded by the transport read timeout
        — which the links themselves clamp to the ambient deadline's
        remaining budget), so "waiting" is just fanning out and
        counting.  The ambient request deadline
        (:func:`~repro.util.deadline.current_deadline`) is re-checked
        between sinks: once it expires, no further standby sees the
        sequence number and the push fails over to the rollback path
        instead of serially eating a full read timeout per stalled
        sink while every other store operation waits on the lock.
        """
        if len(self._sinks) < quorum:
            raise ReplicationError(
                f"sync_replicas={quorum} but only {len(self._sinks)} "
                f"replication sinks are attached; the push was not "
                f"applied"
            )
        deadline = current_deadline()
        t0 = perf_counter()
        try:
            with span("replicate_ack"):
                for sink in self._sinks:
                    if deadline is not None:
                        deadline.check("replication quorum")
                    if not sink.connected:
                        continue
                    try:
                        sink.on_push(key, payload, seq)
                    except Exception:  # noqa: BLE001 — sink contract
                        sink.connected = False
        finally:
            self._h_quorum.observe(perf_counter() - t0)
        acked = sum(
            1
            for sink in self._sinks
            if sink.connected and sink.acked_seq >= seq
        )
        if acked < quorum:
            raise ReplicationError(
                f"push to key {key!r} collected {acked} of the "
                f"{quorum} synchronous replica acknowledgements it "
                f"needs (sequence {seq}); the write was rolled back "
                f"and is safe to retry"
            )

    def _mark_aborted(self, seq: int) -> None:
        """Record a rolled-back sequence number and cut off any sink
        that already applied it (it has diverged; :meth:`resync` will
        refuse it by this very record)."""
        self._aborted_seqs.add(seq)
        for sink in self._sinks:
            if sink.connected and sink.acked_seq >= seq:
                sink.connected = False

    def _journal_event(
        self, hook: str, key: Key, payload: Optional[bytes], seq: int
    ) -> None:
        """Append one committed event to the resync journal and trim."""
        self._journal.append((seq, hook, key, payload))
        self._journal_bytes += (
            len(payload) if payload is not None else 0
        ) + _JOURNAL_ENTRY_OVERHEAD
        # Drop what every registered sink has already acknowledged.
        horizon = min(
            (sink.acked_seq for sink in self._sinks),
            default=self._replication_seq,
        )
        while self._journal and self._journal[0][0] <= horizon:
            self._drop_oldest()
        # Byte budget: sacrifice the slowest sinks' resync window (they
        # fall back to a full re-seed) rather than growing unboundedly.
        # The newest entry always survives, even oversized.
        while self._journal_bytes > self._journal_cap and len(self._journal) > 1:
            self._drop_oldest()

    def _drop_oldest(self) -> None:
        seq, _, _, payload = self._journal.popleft()
        self._journal_bytes -= (
            len(payload) if payload is not None else 0
        ) + _JOURNAL_ENTRY_OVERHEAD
        self._journal_floor = seq
        if self._aborted_seqs:
            self._aborted_seqs = {
                aborted for aborted in self._aborted_seqs if aborted > seq
            }

    # ------------------------------------------------------------------
    # Degraded mode
    # ------------------------------------------------------------------
    def reprobe(self) -> bool:
        """Probe the data directory now; re-attach if it accepts writes.

        While degraded the store also calls this automatically every
        ``reprobe_every`` acknowledged pushes.  Re-attaching demotes
        every key that accumulated memory-only state (so disk is again
        consistent with memory) and retries pending demotions.  Returns
        ``True`` when the store is durable and attached after the call;
        always ``False`` for a memory-only store.
        """
        with self._lock:
            if self._durability is None:
                return False
            if not self._degraded:
                return True
            return self._try_reattach()

    def _note_disk_error(self, key: Key, state: _KeyState) -> None:
        """Record a failed durable write for ``key`` and react.

        A store-wide streak of ``degrade_after`` consecutive faults
        enters degraded mode; a per-key streak (or a torn WAL tail,
        immediately) rotates just that key's epoch so one poisoned
        segment file cannot wedge the key while the rest of the store
        stays healthy.
        """
        assert self._durability is not None
        self._c_disk_errors.inc()
        self._error_streak += 1
        state.disk_streak += 1
        if self._error_streak >= self._degrade_after:
            self._enter_degraded()
            return
        if state.disk_streak >= self._degrade_after or (
            isinstance(key, str)
            and self._durability.writer_broken(key, state.epoch)
        ):
            state.disk_streak = 0
            self._rotate_epoch(key, state)

    def _note_demote_error(self) -> None:
        """A checkpoint write failed (no key rotation — the freeze that
        triggered it already rotated the epoch)."""
        self._c_disk_errors.inc()
        self._error_streak += 1
        if self._error_streak >= self._degrade_after:
            self._enter_degraded()

    def _rotate_epoch(self, key: Key, state: _KeyState) -> None:
        """Abandon the key's current WAL epoch for a fresh segment file.

        A session with data is frozen (falling back to a resident epoch
        if its checkpoint fails too); an empty one just skips to the
        next epoch index.
        """
        if state.session is not None and state.session.pushed > 0:
            self._freeze_state(key, state)
        else:
            state.epoch += 1
            state.generation += 1

    def _enter_degraded(self) -> None:
        """Give up on the disk: close writers, serve from memory only."""
        if self._degraded:
            return
        assert self._durability is not None
        self._degraded = True
        self._g_degraded.set(1)
        self._error_streak = 0
        self._since_probe = 0
        self._durability.suspend()

    def _try_reattach(self) -> bool:
        """One degraded-mode probe; on success, resynchronise the disk.

        Every dirty key (acknowledged memory-only pushes) is demoted —
        its full state checkpointed — so recovery from the re-attached
        directory is again bit-identical to memory; then pending
        demotions are retried.  A fault anywhere along the way re-enters
        degraded mode and the remaining work stays queued.
        """
        assert self._durability is not None
        self._since_probe = 0
        try:
            self._durability.probe()
        except DurabilityError:
            self._c_disk_errors.inc()
            return False
        self._degraded = False
        self._g_degraded.set(0)
        self._error_streak = 0
        for key, state in list(self._states.items()):
            if self._degraded:
                return False  # a demotion fault sent us straight back
            if not state.dirty:
                continue
            if state.session is not None and state.session.pushed > 0:
                self._freeze_state(key, state)
            state.dirty = False
        self._retry_pending_demotes()
        return not self._degraded

    def _retry_pending_demotes(self) -> None:
        """Checkpoint resident frozen epochs that are still queued."""
        assert self._durability is not None
        pending, self._pending_demote = self._pending_demote, []
        kept: List[Tuple[Key, int, int]] = []
        for index, entry in enumerate(pending):
            if self._degraded:
                kept.extend(pending[index:])
                break
            key, epoch_index, position = entry
            state = self._states.get(key)
            if state is None or position >= len(state.frozen):
                continue
            epoch = state.frozen[position]
            if not epoch.resident:
                continue
            try:
                demoted = self._durability.demote(
                    key, epoch_index, epoch.result()
                )
            except DurabilityError:
                kept.append(entry)
                self._note_demote_error()
            else:
                state.frozen[position] = demoted
                state.frozen_columns = None
        self._pending_demote = kept + self._pending_demote

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Flush and close the durability tier's open WAL files.

        Safe on a non-durable store (no-op).  The store stays usable for
        reads; the next durable push reopens its key's WAL.
        """
        with self._lock:
            if self._durability is not None:
                self._durability.close()

    def _recover(self) -> None:
        """Rebuild every key a previous process left under ``data_dir``.

        For each key: checkpointed epochs come back as mmap-backed
        :class:`FrozenEpoch` objects; epochs whose demotion was
        interrupted (WAL without checkpoint, not the newest) are replayed
        and re-finalized, completing the demotion; the newest epoch's WAL
        tail — torn final frame already truncated — is replayed through a
        fresh session (:meth:`Compressor.replay`), which by the replay
        invariant reproduces the crashed session's state bit-identically.
        Store-wide counters resume from what disk proves was pushed.
        """
        assert self._durability is not None
        for record in self._durability.recover():
            state = _KeyState()
            self._states[record.key] = state
            entries = list(record.frozen)
            for epoch_index, chunks in record.orphans:
                session = self._open_session(record.key)
                session.replay(chunks)
                entries.append(
                    (
                        epoch_index,
                        self._durability.demote(
                            record.key, epoch_index, session.finalize()
                        ),
                    )
                )
            entries.sort(key=lambda pair: pair[0])
            state.frozen = [epoch for _, epoch in entries]
            state.epoch = record.live_epoch
            live_tuples = 0
            if record.live is not None:
                session = self._open_session(record.key)
                session.replay(record.live[1])
                state.session = session
                live_tuples = session.pushed
            state.pushed = (
                sum(epoch.input_size for epoch in state.frozen) + live_tuples
            )
            state.generation = len(state.frozen) + (
                len(record.live[1]) if record.live is not None else 0
            )
            state.last_access = self._clock()
            self._c_pushed.inc(state.pushed)
            self._c_evictions.inc(len(state.frozen))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _open_session(self, key: Key) -> Compressor:
        if self._factory is not None:
            session = self._factory(key)
            if not isinstance(session, Compressor):
                raise ServiceError(
                    f"session_factory must return a Compressor, got "
                    f"{session!r}"
                )
            return session
        return self._make_session()

    def _make_session(self) -> Compressor:
        if self._default is None:
            raise ServiceError(
                "the store has no default budget; construct it with "
                "budget=/size=/max_error= or a session_factory"
            )
        budget, size, max_error = self._default
        return Compressor(
            budget, size=size, max_error=max_error, policy=self._policy
        )

    def _check_width(
        self, key: Key, state: _KeyState, chunk: EncodedSegments
    ) -> None:
        """Refuse a chunk whose value width differs from the key's."""
        if state.width is None:  # recovered or installed: read the data
            parts = [epoch.columns() for epoch in state.frozen]
            if state.session is not None:
                parts.append(state.session.summary_columns())
            widths = [part.values.shape[1] for part in parts if len(part)]
            state.width = widths[0] if widths else None
        if state.width not in (None, chunk.dimensions):
            raise ValueWidthError(
                f"key {key!r} holds {state.width} aggregate values per "
                f"tuple; the pushed chunk has {chunk.dimensions}"
            )

    def _require(self, key: Key) -> _KeyState:
        state = self._states.get(key)
        if state is None:
            raise ServiceError(f"unknown stream key {key!r}")
        return state


__all__ = [
    "DEFAULT_RESYNC_JOURNAL_BYTES",
    "Key",
    "LRUTTLEviction",
    "ReplicationError",
    "ReplicationSink",
    "ServiceError",
    "SessionStore",
    "StoreStats",
    "WAL_COMPACT_FLOOR_BYTES",
]
