"""SessionStore: keyed sessions, LRU+TTL eviction, freezing semantics.

The acceptance criterion exercised here: eviction never loses pushed
tuples — an evicted session is finalized into a frozen summary that stays
queryable, and the key keeps accepting pushes in a fresh epoch whose
combined snapshot covers everything ever pushed.
"""

from __future__ import annotations

import datetime
import random

import pytest

from repro import Interval, compress
from repro.api import Compressor, ExecutionPolicy, SizeBudget
from repro.core import AggregateSegment
from repro.service import (
    LRUTTLEviction,
    ServiceError,
    SessionStore,
    StoreStats,
    WireError,
)

BACKENDS = ["python", "numpy"]


def stream_for(key: str, count: int, start: int = 0) -> list[AggregateSegment]:
    rng = random.Random(hash(key) % 2**32)
    time = start
    out = []
    for _ in range(count):
        length = rng.randrange(1, 4)
        out.append(
            AggregateSegment(
                (), (rng.uniform(0.0, 50.0),), Interval(time, time + length - 1)
            )
        )
        time += length
        if rng.random() < 0.15:
            time += rng.randrange(1, 3)
    return out


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# Basic store mechanics
# ----------------------------------------------------------------------
class TestStoreBasics:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_push_and_snapshot_match_batch(self, backend):
        store = SessionStore(
            size=8, policy=ExecutionPolicy(backend=backend)
        )
        stream = stream_for("a", 60)
        for segment in stream:
            store.push("a", segment)
        snapshot = store.snapshot("a")
        reference = compress(stream, size=8, backend=backend)
        assert snapshot.segments == reference.segments
        assert snapshot.error == reference.error

    def test_chunk_push_counts(self):
        store = SessionStore(size=5)
        stream = stream_for("k", 30)
        assert store.push("k", stream[:20]) == 20
        assert store.push("k", stream[20]) == 1
        assert store.pushed("k") == 21
        assert store.stats().pushed_segments == 21

    def test_separate_keys_are_independent(self):
        store = SessionStore(size=6)
        a, b = stream_for("a", 40), stream_for("b", 40)
        store.push("a", a)
        store.push("b", b)
        assert store.snapshot("a").segments == compress(a, size=6).segments
        assert store.snapshot("b").segments == compress(b, size=6).segments
        assert sorted(store.keys()) == ["a", "b"]
        assert len(store) == 2

    def test_generation_bumps_on_push_only(self):
        store = SessionStore(size=5)
        store.push("k", stream_for("k", 10))
        first = store.generation("k")
        store.snapshot("k")
        assert store.generation("k") == first  # reads do not invalidate
        store.push("k", stream_for("k", 5, start=1000))
        assert store.generation("k") > first

    def test_unknown_key_raises(self):
        store = SessionStore(size=5)
        with pytest.raises(ServiceError, match="unknown stream key"):
            store.snapshot("nope")
        with pytest.raises(ServiceError, match="unknown stream key"):
            store.generation("nope")

    def test_budget_validation_is_eager(self):
        with pytest.raises(ValueError, match="exactly one"):
            SessionStore()
        with pytest.raises(ValueError, match="exactly one"):
            SessionStore(size=3, max_error=0.5)

    def test_failing_session_factory_leaves_no_phantom_key(self):
        def boom(key: str) -> Compressor:
            raise RuntimeError("factory down")

        store = SessionStore(session_factory=boom)
        with pytest.raises(RuntimeError, match="factory down"):
            store.push("k", stream_for("k", 3))
        assert "k" not in store  # no phantom state to crash later reads
        with pytest.raises(ServiceError, match="unknown stream key"):
            store.snapshot("k")

        bad = SessionStore(session_factory=lambda key: object())  # type: ignore[arg-type,return-value]
        with pytest.raises(ServiceError, match="must return a Compressor"):
            bad.push("k", stream_for("k", 3))
        assert "k" not in bad

    def test_failing_apply_leaves_no_phantom_key(self):
        def finalized(key: str) -> Compressor:
            session = Compressor(SizeBudget(4))
            session.finalize()  # every push into it raises
            return session

        store = SessionStore(session_factory=finalized)
        with pytest.raises(RuntimeError):
            store.push("k", stream_for("k", 3))
        assert store.keys() == []
        assert not store.is_live("k")
        assert store.stats().live_sessions == 0
        with pytest.raises(ServiceError, match="unknown stream key"):
            store.snapshot("k")

    @pytest.mark.parametrize("durable", [False, True])
    @pytest.mark.parametrize(
        "group", [(datetime.date(2020, 1, 1),), (float("nan"),)]
    )
    def test_unencodable_group_key_leaves_no_phantom_key(
        self, tmp_path, durable, group
    ):
        # Every store refuses a group key the wire encoders refuse before
        # any state exists (a durable store used to register the session
        # and only then fail to encode its WAL frame).
        store = SessionStore(size=5, data_dir=tmp_path if durable else None)
        segment = AggregateSegment(group, (1.0,), Interval(0, 0))
        with pytest.raises(WireError, match="JSON"):
            store.push("k", segment)
        assert store.keys() == []
        assert not store.is_live("k")
        assert store.stats().live_sessions == 0
        store.close()

    def test_session_factory_per_key_budgets(self):
        def factory(key: str) -> Compressor:
            return Compressor(SizeBudget(4 if key == "small" else 16))

        store = SessionStore(session_factory=factory)
        small, large = stream_for("small", 50), stream_for("large", 50)
        store.push("small", small)
        store.push("large", large)
        # Each key got its own budget (gaps may keep size above the bound,
        # exactly as batch compression would).
        assert (
            store.snapshot("small").segments
            == compress(small, size=4).segments
        )
        assert (
            store.snapshot("large").segments
            == compress(large, size=16).segments
        )


# ----------------------------------------------------------------------
# Eviction
# ----------------------------------------------------------------------
class TestEviction:
    def test_lru_evicts_oldest_first_and_freezes(self):
        store = SessionStore(size=5, max_sessions=2)
        store.push("a", stream_for("a", 20))
        store.push("b", stream_for("b", 20))
        store.push("c", stream_for("c", 20))  # evicts "a"
        assert len(store) == 2
        assert not store.is_live("a")
        assert store.is_live("b") and store.is_live("c")
        stats = store.stats()
        assert stats == StoreStats(
            live_sessions=2, frozen_summaries=1,
            pushed_segments=60, evictions=1,
        )
        # The frozen summary is still queryable and loses nothing.
        frozen = store.frozen("a")
        assert len(frozen) == 1
        assert frozen[0].input_size == 20
        assert store.snapshot("a").segments == frozen[0].segments

    def test_lru_order_updated_by_push(self):
        store = SessionStore(size=5, max_sessions=2)
        store.push("a", stream_for("a", 10))
        store.push("b", stream_for("b", 10))
        store.push("a", stream_for("a", 10, start=1000))  # refresh "a"
        store.push("c", stream_for("c", 10))  # evicts "b", not "a"
        assert store.is_live("a") and store.is_live("c")
        assert not store.is_live("b")

    def test_ttl_eviction_with_injected_clock(self):
        clock = FakeClock()
        store = SessionStore(size=5, ttl=10.0, clock=clock)
        store.push("a", stream_for("a", 15))
        clock.advance(5.0)
        store.push("b", stream_for("b", 15))
        clock.advance(6.0)  # "a" idle 11s, "b" idle 6s
        assert store.evict_idle() == ["a"]
        assert not store.is_live("a") and store.is_live("b")
        assert store.stats().evictions == 1

    def test_ttl_runs_on_push_too(self):
        clock = FakeClock()
        store = SessionStore(size=5, ttl=10.0, clock=clock)
        store.push("a", stream_for("a", 15))
        clock.advance(11.0)
        store.push("b", stream_for("b", 15))  # triggers the sweep
        assert not store.is_live("a")

    def test_eviction_never_loses_pushed_tuples(self):
        store = SessionStore(size=6, max_sessions=1)
        stream = stream_for("k", 60)
        store.push("k", stream[:30])
        store.freeze("k")  # manual epoch boundary
        store.push("k", stream[30:])  # new epoch on the same key
        snapshot = store.snapshot("k")
        # Every pushed tuple is accounted for across frozen + live parts.
        assert snapshot.input_size == 60
        assert store.pushed("k") == 60
        covered = sum(segment.length for segment in snapshot.segments)
        assert covered == sum(segment.length for segment in stream)
        # The two epochs individually match batch compression of their part.
        frozen = store.frozen("k")[0]
        assert frozen.segments == compress(stream[:30], size=6).segments
        live_part = snapshot.segments[len(frozen.segments):]
        assert live_part == compress(stream[30:], size=6).segments

    def test_freeze_requires_live_session(self):
        store = SessionStore(size=5)
        store.push("k", stream_for("k", 10))
        store.freeze("k")
        with pytest.raises(ServiceError, match="no live session"):
            store.freeze("k")

    def test_generation_bumps_on_eviction(self):
        store = SessionStore(size=5)
        store.push("k", stream_for("k", 10))
        before = store.generation("k")
        store.freeze("k")
        assert store.generation("k") > before


# ----------------------------------------------------------------------
# The policy object in isolation
# ----------------------------------------------------------------------
class TestLRUTTLPolicy:
    def test_validation(self):
        with pytest.raises(ServiceError, match="max_sessions"):
            LRUTTLEviction(max_sessions=0)
        with pytest.raises(ServiceError, match="ttl"):
            LRUTTLEviction(ttl=0.0)

    def test_ttl_and_lru_compose(self):
        policy = LRUTTLEviction(max_sessions=2, ttl=10.0)
        from collections import OrderedDict

        last_access = OrderedDict(
            [("old", 0.0), ("mid", 50.0), ("new1", 95.0), ("new2", 99.0)]
        )
        # "old" exceeds the TTL at t=100; of the remaining three, the
        # least recently used ("mid") goes to satisfy max_sessions=2.
        assert policy.select(100.0, last_access) == ["old", "mid"]

    def test_disabled_knobs_select_nothing(self):
        from collections import OrderedDict

        policy = LRUTTLEviction()
        assert policy.select(1e9, OrderedDict([("a", 0.0)])) == []
