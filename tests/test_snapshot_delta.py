"""Delta-based snapshots versus the clone-and-finalize oracle.

The PR 5 contract: ``Compressor.summary()`` (and the serving layer built on
top of it) is computed by patching a materialised mirror of the live
intermediate relation with the merge delta log and finalizing the mirror —
and the result must be **bit-identical** to the clone-and-finalize oracle
path (``Compressor.summary_oracle()`` / ``OnlineReducer.clone().finalize()``)
on every prefix of randomized streams, on both heap backends, across chunked
and per-tuple pushes, and across the serving layer's eviction/freeze
boundaries.

The randomized prefix sweeps are marked ``slow`` so the CI matrix runs them
on one Python leg only; the edge-case tests and the hypothesis property
(``TestDeltaSnapshotProperty``, capped at a few seconds) stay in the default
selection.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Interval
from repro.api import Compressor, ErrorBudget, ExecutionPolicy, Result, SizeBudget
from repro.core import AggregateSegment, max_error
from repro.core.greedy import OnlineReducer
from repro.core.kernels import _TAIL_WINDOW, EncodedSegments, finalize_mirror
from repro.obs import metrics
from repro.service import QueryEngine, SessionStore

BACKENDS = ["python", "numpy"]


def random_stream(
    count: int,
    seed: int,
    gap_probability: float = 0.15,
    groups: int = 1,
    dimensions: int = 2,
) -> list[AggregateSegment]:
    """Randomized segments with gaps and groups (same shape as test_session)."""
    rng = random.Random(seed)
    stream: list[AggregateSegment] = []
    per_group = count // groups
    for g in range(groups):
        group = (f"g{g}",) if groups > 1 else ()
        time = rng.randrange(0, 5)
        for _ in range(per_group):
            length = rng.randrange(1, 4)
            values = tuple(rng.uniform(0.0, 100.0) for _ in range(dimensions))
            stream.append(
                AggregateSegment(group, values, Interval(time, time + length - 1))
            )
            time += length
            if rng.random() < gap_probability:
                time += rng.randrange(1, 4)
    return stream


def assert_bit_identical(snapshot: Result, reference: Result) -> None:
    assert snapshot.size == reference.size
    assert snapshot.input_size == reference.input_size
    assert snapshot.merges == reference.merges
    assert snapshot.max_heap_size == reference.max_heap_size
    assert snapshot.error == reference.error  # exact float equality
    for left, right in zip(snapshot.segments, reference.segments):
        assert left.group == right.group
        assert left.interval == right.interval
        assert left.values == right.values  # exact float equality


def assert_columns_match(columns: EncodedSegments, reference: Result) -> None:
    """The column form must carry exactly the reference segments."""
    materialised = list(columns)
    assert len(materialised) == reference.size
    for left, right in zip(materialised, reference.segments):
        assert left.group == right.group
        assert left.interval == right.interval
        assert left.values == right.values


# ----------------------------------------------------------------------
# Randomized prefix parity (the property suite — one CI leg)
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestRandomizedPrefixParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", range(4))
    def test_size_bounded_every_prefix(self, backend, seed):
        stream = random_stream(90, seed=seed)
        session = Compressor(
            SizeBudget(12), policy=ExecutionPolicy(backend=backend)
        )
        for segment in stream:
            session.push(segment)
            assert_bit_identical(session.summary(), session.summary_oracle())

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", range(4))
    def test_chunked_grouped_stream(self, backend, seed):
        stream = random_stream(120, seed=seed, groups=3, dimensions=3)
        session = Compressor(
            size=15, policy=ExecutionPolicy(backend=backend)
        )
        for start in range(0, len(stream), 13):
            session.push(stream[start : start + 13])
            snapshot = session.summary()
            assert_bit_identical(snapshot, session.summary_oracle())
            assert_columns_match(session.summary_columns(), snapshot)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", range(4))
    def test_error_bounded_with_estimates(self, backend, seed):
        stream = random_stream(80, seed=seed)
        session = Compressor(
            ErrorBudget(0.3),
            policy=ExecutionPolicy(
                backend=backend,
                input_size_estimate=len(stream),
                max_error_estimate=max_error(stream),
            ),
        )
        for start in range(0, len(stream), 11):
            session.push(stream[start : start + 11])
            assert_bit_identical(session.summary(), session.summary_oracle())

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_error_bounded_without_estimates(self, backend):
        # No estimates: the online phase never merges (step threshold 0),
        # so the snapshot tail does all the work — the mirror runs the
        # whole end-of-input reduction.
        stream = random_stream(60, seed=9)
        session = Compressor(
            max_error=0.5, policy=ExecutionPolicy(backend=backend)
        )
        for start in range(0, len(stream), 10):
            session.push(stream[start : start + 10])
            assert_bit_identical(session.summary(), session.summary_oracle())

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("delta", [0, 3, math.inf])
    def test_read_ahead_variants(self, backend, delta):
        stream = random_stream(70, seed=11)
        session = Compressor(
            size=9, policy=ExecutionPolicy(backend=backend, delta=delta)
        )
        for start in range(0, len(stream), 7):
            session.push(stream[start : start + 7])
            assert_bit_identical(session.summary(), session.summary_oracle())

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_weighted_session(self, backend):
        stream = random_stream(60, seed=13, dimensions=2)
        session = Compressor(
            size=8,
            policy=ExecutionPolicy(backend=backend, weights=(1.0, 3.0)),
        )
        for start in range(0, len(stream), 9):
            session.push(stream[start : start + 9])
            assert_bit_identical(session.summary(), session.summary_oracle())


# ----------------------------------------------------------------------
# Hypothesis property: delta summary() == summary_oracle(), bit for bit
# ----------------------------------------------------------------------
@st.composite
def delta_scenarios(draw):
    """A stream, a budget and a push plan with random snapshot points.

    Integer-valued streams produce exact merge-key ties (the oracle
    fallback); an error budget without estimates leaves every merge to
    the snapshot tail, so its window widens repeatedly; and a stretch of
    several hundred tuples without a snapshot overflows the delta log.
    """
    backend = draw(st.sampled_from(BACKENDS))
    integer = draw(st.booleans())
    budget = draw(st.sampled_from(["size", "error", "error_estimates"]))
    long_stretch = draw(st.booleans())
    count = draw(st.integers(600, 900) if long_stretch else st.integers(1, 160))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    groups = draw(st.integers(1, 2))
    stream = []
    for g in range(groups):
        time = 0
        for _ in range(count // groups or 1):
            length = rng.randrange(1, 3)
            values = tuple(
                float(rng.randrange(4)) if integer else rng.uniform(0.0, 50.0)
                for _ in range(2)
            )
            stream.append(AggregateSegment(
                (f"g{g}",), values, Interval(time, time + length - 1)
            ))
            time += length + (rng.random() < 0.1)
    policy = {"backend": backend, "delta": draw(st.sampled_from([0, 1, 3, math.inf]))}
    if budget == "size":
        kwargs = {"size": draw(st.integers(1, 24))}
    else:
        kwargs = {"max_error": draw(st.sampled_from([0.05, 0.3, 0.8]))}
        if budget == "error_estimates":
            policy["input_size_estimate"] = len(stream)
            policy["max_error_estimate"] = max_error(stream)
    plan = []
    if long_stretch:
        # Snapshot once so a mirror exists and the log records, then push
        # a stretch long enough to overflow the log before the next read.
        plan = [(20, True), (len(stream) - 60, draw(st.booleans()))]
    position = sum(width for width, _ in plan)
    while position < len(stream):
        width = draw(st.integers(1, 40))
        plan.append((width, draw(st.booleans())))
        position += width
    return stream, kwargs, ExecutionPolicy(**policy), plan


class TestDeltaSnapshotProperty:
    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(delta_scenarios())
    def test_delta_summary_is_the_oracle(self, scenario):
        stream, kwargs, policy, plan = scenario
        session = Compressor(policy=policy, **kwargs)
        position = 0
        for width, read in plan:
            chunk = stream[position : position + width]
            position += width
            session.push(chunk if len(chunk) > 1 else chunk[0])
            if read or position >= len(stream):
                snapshot = session.summary()
                assert_bit_identical(snapshot, session.summary_oracle())
                assert_columns_match(session.summary_columns(), snapshot)


class TestTailWindow:
    """The end-of-input tail heapifies only the smallest keys first."""

    @staticmethod
    def paired_session(backend, gaps):
        # Pairs (1000 i, 1000 i + gaps[i]) of unit tuples: each pair's
        # merge key is gaps[i] ** 2 / 2 and stays valid until that pair
        # merges, since merging it only refreshes the large keys across
        # pairs.  With no gap in time and delta = inf, the online phase
        # merges nothing, so the snapshot tail performs every merge.
        stream = []
        for i, gap in enumerate(gaps):
            for offset, value in enumerate((1000.0 * i, 1000.0 * i + gap)):
                time = 2 * i + offset
                stream.append(
                    AggregateSegment((), (value,), Interval(time, time))
                )
        session = Compressor(
            size=len(gaps),
            policy=ExecutionPolicy(backend=backend, delta=math.inf),
        )
        session.push(stream)
        return session

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_top_key_equal_to_window_bound(self, backend):
        """Regression: the top reaches the first key left outside the
        window with an equal key.  Widening brings that key in, the tie
        guard sees it, and the snapshot is served by the oracle."""
        gaps = [float(i + 1) for i in range(_TAIL_WINDOW + 8)]
        gaps[_TAIL_WINDOW] = gaps[_TAIL_WINDOW - 1]
        session = self.paired_session(backend, gaps)
        before = metrics.value("repro_snapshot_oracle_fallbacks_total")
        snapshot = session.summary()
        assert metrics.value("repro_snapshot_oracle_fallbacks_total") == before + 1
        assert_bit_identical(snapshot, session.summary_oracle())
        reducer = session._reducer
        assert finalize_mirror(reducer._mirror, size=len(gaps)) is None

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_window_widens_without_a_tie(self, backend):
        gaps = [float(i + 1) for i in range(3 * _TAIL_WINDOW)]
        session = self.paired_session(backend, gaps)
        before = metrics.value("repro_snapshot_oracle_fallbacks_total")
        snapshot = session.summary()
        assert metrics.value("repro_snapshot_oracle_fallbacks_total") == before
        assert snapshot.merges == len(gaps)
        assert_bit_identical(snapshot, session.summary_oracle())

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_error_bounded_tail_of_thousands_of_merges(self, backend):
        # No estimates: the step threshold is 0, so the heap holds every
        # tuple and the tail merges down to the error budget on its own.
        stream = random_stream(3000, seed=41, gap_probability=0.01)
        session = Compressor(
            max_error=0.5, policy=ExecutionPolicy(backend=backend)
        )
        session.push(stream[:2000])
        session.summary()
        session.push(stream[2000:])
        snapshot = session.summary()
        assert snapshot.merges > 1000
        assert_bit_identical(snapshot, session.summary_oracle())


# ----------------------------------------------------------------------
# Delta-log edge cases (always run)
# ----------------------------------------------------------------------
class TestDeltaLogEdgeCases:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_delta_snapshot_twice(self, backend):
        """Two snapshots with no pushes in between: the log replay is empty."""
        stream = random_stream(40, seed=2)
        session = Compressor(size=6, policy=ExecutionPolicy(backend=backend))
        session.push(stream)
        first = session.summary()
        second = session.summary()  # same generation: cached
        assert second is first
        # Force the delta machinery through an empty log explicitly.
        result, _ = session._reducer.snapshot()
        assert_bit_identical(first, session.summary_oracle())
        assert result.error == first.error

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_snapshot_before_any_push(self, backend):
        session = Compressor(size=5, policy=ExecutionPolicy(backend=backend))
        empty = session.summary()
        assert empty.size == 0 and empty.segments == []
        assert len(session.summary_columns()) == 0
        stream = random_stream(20, seed=3)
        session.push(stream)
        assert_bit_identical(session.summary(), session.summary_oracle())

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_clone_mid_log(self, backend):
        """A reducer clone taken mid-log must not alias the delta state."""
        stream = random_stream(60, seed=5)
        session = Compressor(size=8, policy=ExecutionPolicy(backend=backend))
        session.push(stream[:30])
        session.summary()  # mirror exists, log starts accumulating
        session.push(stream[30:45])  # mid-log
        clone = session._reducer.clone()
        # The clone finalizes independently (the oracle), the original
        # keeps snapshotting through the delta path; both see every push.
        oracle = clone.finalize()
        assert_bit_identical(session.summary(), Result(
            segments=oracle.segments,
            error=oracle.error,
            size=oracle.size,
            input_size=oracle.input_size,
            method="greedy",
            backend=backend,
            max_heap_size=oracle.max_heap_size,
            merges=oracle.merges,
        ))
        session.push(stream[45:])
        assert_bit_identical(session.summary(), session.summary_oracle())

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_log_overflow_rebuilds_mirror(self, backend):
        """A long snapshot-free stretch discards the log and rebuilds."""
        stream = random_stream(400, seed=6)
        session = Compressor(size=10, policy=ExecutionPolicy(backend=backend))
        session.push(stream[:20])
        session.summary()
        reducer = session._reducer
        first_mirror = reducer._mirror
        assert first_mirror is not None
        session.push(stream[20:])
        # The snapshot-free stretch logged far more operations than the
        # live heap holds: the reducer drops the log and mirror mid-push
        # (bounding delta memory), and the next snapshot rebuilds from
        # the heap — still matching the oracle bit for bit.
        assert reducer._log is None and reducer._mirror is None
        assert_bit_identical(session.summary(), session.summary_oracle())
        assert reducer._mirror is not None
        assert reducer._mirror is not first_mirror

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_mixed_single_and_chunk_pushes(self, backend):
        stream = random_stream(90, seed=7, groups=2)
        session = Compressor(size=11, policy=ExecutionPolicy(backend=backend))
        rng = random.Random(17)
        position = 0
        while position < len(stream):
            if rng.random() < 0.5:
                session.push(stream[position])
                position += 1
            else:
                width = rng.randrange(2, 9)
                session.push(stream[position : position + width])
                position += width
            if rng.random() < 0.4:
                assert_bit_identical(
                    session.summary(), session.summary_oracle()
                )
        assert_bit_identical(session.summary(), session.summary_oracle())

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_finalize_matches_last_delta_snapshot(self, backend):
        stream = random_stream(50, seed=8)
        session = Compressor(size=7, policy=ExecutionPolicy(backend=backend))
        session.push(stream)
        snapshot = session.summary()
        final = session.finalize()
        assert_bit_identical(final, snapshot)
        # Columns stay available (rebuilt from the final result) and match.
        assert_columns_match(session.summary_columns(), final)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_exact_key_ties_fall_back_to_oracle(self, backend):
        """Integer-valued streams tie merge keys exactly; the mirror tail
        must not silently pick a different (equal-error) merge order than
        the oracle — it detects the tie and re-runs via clone+finalize."""
        def unit(values, start):
            return [
                AggregateSegment((), (float(v),), Interval(start + i, start + i))
                for i, v in enumerate(values)
            ]

        session = Compressor(size=2, policy=ExecutionPolicy(backend=backend))
        session.push(unit([1, 1, 2, 2, 1, 1, 0, 0], 0))
        session.summary_columns()  # prime the mirror mid-stream
        session.push(unit([2.0], 8))
        assert_bit_identical(session.summary(), session.summary_oracle())
        # And keep agreeing on further tied pushes.
        session.push(unit([0, 0, 2, 2], 9))
        assert_bit_identical(session.summary(), session.summary_oracle())

    def test_snapshot_requires_tracking(self):
        reducer = OnlineReducer(size=5)  # track_deltas defaults to False
        with pytest.raises(RuntimeError, match="track_deltas"):
            reducer.snapshot()


# ----------------------------------------------------------------------
# Serving layer: eviction / freeze boundaries
# ----------------------------------------------------------------------
class TestStoreFreezeBoundaries:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_delta_spanning_freeze_boundary(self, backend):
        """Snapshot columns stay identical to the segment path across epochs."""
        store = SessionStore(
            size=8, policy=ExecutionPolicy(backend=backend)
        )
        three = random_stream(90, seed=24, groups=3)
        streams = {
            "k": random_stream(90, seed=21, groups=2),
            # Groups g2, g0, g1 in that order: the three epochs intern the
            # tables (g2, g0), (g0, g1) and (g1,), so concatenation has to
            # re-map every part's group ids.
            "reinterned": three[60:] + three[:60],
        }
        for key, stream in streams.items():
            store.push(key, stream[:40])
            first = store.snapshot(key)
            assert_columns_match(store.snapshot_columns(key), first)
            store.freeze(key)  # epoch boundary: live session -> frozen summary
            store.push(key, stream[40:70])
            mid = store.snapshot(key)
            assert_columns_match(store.snapshot_columns(key), mid)
            store.freeze(key)
            store.push(key, stream[70:])
            combined = store.snapshot(key)
            assert_columns_match(store.snapshot_columns(key), combined)
            # Three epochs contributed.
            assert len(store.frozen(key)) == 2

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_query_engine_across_freeze_is_oracle_identical(self, backend):
        stream = random_stream(80, seed=22)
        store = SessionStore(size=9, policy=ExecutionPolicy(backend=backend))
        engine = QueryEngine(store)
        store.push("k", stream[:50])
        engine.range_agg("k", 0, 10_000, "avg")  # prime the cache
        store.freeze("k")
        store.push("k", stream[50:])
        # Cold read after the freeze boundary: served from columns.
        lo = min(s.interval.start for s in stream)
        hi = max(s.interval.end for s in stream)
        served = engine.range_agg("k", lo, hi, "avg")
        # Reference: the same query over the segment-path snapshot index.
        from repro.service import SnapshotIndex

        reference = SnapshotIndex(store.segments("k")).resolve(None).range_agg(
            lo, hi, "avg"
        )
        assert served == reference

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_lru_eviction_mid_stream_keeps_snapshots_exact(self, backend):
        streams = {
            f"key{i}": random_stream(50, seed=30 + i) for i in range(3)
        }
        store = SessionStore(
            size=6,
            policy=ExecutionPolicy(backend=backend),
            max_sessions=1,  # every push evicts the other keys
        )
        for offset in (0, 25):
            for key, stream in streams.items():
                store.push(key, stream[offset : offset + 25])
        for key, stream in streams.items():
            snapshot = store.snapshot(key)
            assert snapshot.input_size == len(stream)
            assert_columns_match(store.snapshot_columns(key), snapshot)
