"""Tests for the durability tier (repro.storage.wal + repro.service.durability).

The central contract (ISSUE 6 acceptance criterion): a ``SessionStore``
recovered from checkpoints + the WAL tail serves ``summary()`` and
``QueryEngine`` answers **bit-identical** to the uncrashed process, on
both heap backends and at randomized crash points — and a torn final WAL
frame is truncated, never propagated and never a crash.  "Crashing" a
durable store here simply means abandoning it without ``close()``: every
acknowledged push is already fsynced, so the files are exactly what a
killed process leaves behind.
"""

from __future__ import annotations

import json
import os
import random
import re
import struct
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import Interval
from repro.api import Compressor, ExecutionPolicy, SizeBudget
from repro.core import AggregateSegment
from repro.service import (
    Durability,
    DurabilityError,
    FrozenEpoch,
    QueryEngine,
    Service,
    ServiceError,
    SessionStore,
    encode_result,
    start_in_background,
)
from repro.service.durability import decode_key, encode_key
from repro.service.wire import result_columns
from repro.storage.wal import (
    CHECKPOINT_MAGIC,
    WAL_MAGIC,
    WAL_VERSION,
    WalError,
    WalWriter,
    load_checkpoint,
    read_wal,
    write_checkpoint,
)

BACKENDS = ["python", "numpy"]


def stream(count: int, seed: int, groups: int = 1) -> list[AggregateSegment]:
    rng = random.Random(seed)
    segments: list[AggregateSegment] = []
    for g in range(groups):
        t = 1
        for _ in range(count):
            end = t + rng.randint(0, 3)
            segments.append(
                AggregateSegment(
                    (f"g{g}",),
                    (float(rng.randint(0, 50)), rng.random() * 10.0),
                    Interval(t, end),
                )
            )
            t = end + 1 + (rng.randint(1, 4) if rng.random() < 0.2 else 0)
    return segments


def chunked(segments, size):
    return [segments[i: i + size] for i in range(0, len(segments), size)]


# ----------------------------------------------------------------------
# WAL files
# ----------------------------------------------------------------------
class TestWalFile:
    def test_roundtrip_preserves_frames_in_order(self, tmp_path):
        path = tmp_path / "a.wal"
        frames = [b"first", b"", b"x" * 1000, b"\x00\xff"]
        with WalWriter(path) as wal:
            for frame in frames:
                wal.append(frame)
        assert read_wal(path) == frames

    def test_reopen_appends_without_second_header(self, tmp_path):
        path = tmp_path / "a.wal"
        with WalWriter(path) as wal:
            wal.append(b"one")
        with WalWriter(path) as wal:
            wal.append(b"two")
        assert read_wal(path) == [b"one", b"two"]

    def test_wrong_magic_rejected_even_in_recovery(self, tmp_path):
        path = tmp_path / "a.wal"
        path.write_bytes(struct.pack("<4sH", b"NOPE", WAL_VERSION))
        with pytest.raises(WalError, match="magic"):
            read_wal(path, recover=True)

    def test_cross_version_rejected_even_in_recovery(self, tmp_path):
        path = tmp_path / "a.wal"
        path.write_bytes(struct.pack("<4sH", WAL_MAGIC, WAL_VERSION + 1))
        with pytest.raises(WalError, match="version"):
            read_wal(path, recover=True)

    def test_short_header_rejected(self, tmp_path):
        path = tmp_path / "a.wal"
        path.write_bytes(b"PT")
        with pytest.raises(WalError, match="too short"):
            read_wal(path, recover=True)

    @pytest.mark.parametrize(
        "tail",
        [
            b"\x99",                          # torn frame header
            struct.pack("<II", 50, 123),       # header promises absent bytes
            struct.pack("<II", 4, 0) + b"abcd",  # wrong CRC
        ],
    )
    def test_torn_tail_raises_without_recover(self, tmp_path, tail):
        path = tmp_path / "a.wal"
        with WalWriter(path) as wal:
            wal.append(b"good")
        with open(path, "ab") as file:
            file.write(tail)
        with pytest.raises(WalError):
            read_wal(path)

    @pytest.mark.parametrize(
        "tail",
        [
            b"\x99",
            struct.pack("<II", 50, 123),
            struct.pack("<II", 4, 0) + b"abcd",
        ],
    )
    def test_recover_truncates_torn_tail(self, tmp_path, tail):
        path = tmp_path / "a.wal"
        with WalWriter(path) as wal:
            wal.append(b"good")
            wal.append(b"also good")
        intact_size = path.stat().st_size
        with open(path, "ab") as file:
            file.write(tail)
        assert read_wal(path, recover=True) == [b"good", b"also good"]
        assert path.stat().st_size == intact_size
        # The truncated file is clean: strict reading succeeds now.
        assert read_wal(path) == [b"good", b"also good"]

    def test_recovery_of_mid_file_corruption_drops_the_suffix(self, tmp_path):
        path = tmp_path / "a.wal"
        with WalWriter(path) as wal:
            wal.append(b"keep")
        offset = path.stat().st_size
        with WalWriter(path) as wal:
            wal.append(b"corrupt me")
            wal.append(b"casualty")
        data = bytearray(path.read_bytes())
        data[offset + 8] ^= 0xFF  # flip a payload byte -> CRC mismatch
        path.write_bytes(bytes(data))
        assert read_wal(path, recover=True) == [b"keep"]

    def test_negative_fsync_cadence_rejected(self, tmp_path):
        with pytest.raises(WalError, match="fsync_every"):
            WalWriter(tmp_path / "a.wal", fsync_every=-1)


# ----------------------------------------------------------------------
# Checkpoint files
# ----------------------------------------------------------------------
class TestCheckpointFile:
    def test_roundtrip_mmap_and_copy(self, tmp_path):
        path = tmp_path / "e.ckpt"
        columns = {
            "starts": np.arange(5, dtype=np.int64),
            "values": np.linspace(0.0, 1.0, 10).reshape(5, 2),
        }
        write_checkpoint(path, columns)
        for use_mmap in (True, False):
            loaded = load_checkpoint(path, use_mmap=use_mmap)
            assert (loaded["starts"] == columns["starts"]).all()
            assert (loaded["values"] == columns["values"]).all()

    def test_mmap_load_returns_readonly_views(self, tmp_path):
        path = tmp_path / "e.ckpt"
        write_checkpoint(path, {"a": np.arange(4, dtype=np.int64)})
        loaded = load_checkpoint(path)
        assert not loaded["a"].flags.writeable
        with pytest.raises(ValueError):
            loaded["a"][0] = 99

    def test_no_tmp_file_survives_a_completed_write(self, tmp_path):
        path = tmp_path / "e.ckpt"
        write_checkpoint(path, {"a": np.arange(4, dtype=np.int64)})
        assert os.listdir(tmp_path) == ["e.ckpt"]

    def test_wrong_magic_and_truncation_raise_wal_error(self, tmp_path):
        path = tmp_path / "e.ckpt"
        write_checkpoint(path, {"a": np.arange(4, dtype=np.int64)})
        with pytest.raises(WalError):
            load_checkpoint(path, magic=b"XXXX")
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(WalError):
            load_checkpoint(path)

    def test_empty_file_raises_wal_error(self, tmp_path):
        path = tmp_path / "e.ckpt"
        path.write_bytes(b"")
        with pytest.raises(WalError):
            load_checkpoint(path)


# ----------------------------------------------------------------------
# Key encoding and FrozenEpoch
# ----------------------------------------------------------------------
class TestKeysAndEpochs:
    @pytest.mark.parametrize(
        "key", ["plain", "with/slash", "with space", "pct%2Ftrick", "日本語"]
    )
    def test_key_encoding_roundtrips_and_is_path_safe(self, key):
        name = encode_key(key)
        assert "/" not in name and decode_key(name) == key

    def test_distinct_keys_stay_distinct(self):
        assert encode_key("a/b") != encode_key("a%2Fb")

    @pytest.mark.parametrize("key", ["", 7, ("t",), None])
    def test_non_string_keys_rejected(self, key):
        with pytest.raises(DurabilityError):
            encode_key(key)

    def test_demoted_epoch_matches_resident_epoch(self, tmp_path):
        session = Compressor(SizeBudget(10))
        session.push(stream(60, seed=1))
        result = session.finalize()
        path = tmp_path / "epoch-00000000.ckpt"
        write_checkpoint(path, result_columns(result))
        resident = FrozenEpoch(result_columns(result))
        demoted = FrozenEpoch.from_checkpoint(path)
        assert resident.resident and not demoted.resident
        assert demoted.error == resident.error == result.error
        assert demoted.input_size == result.input_size
        assert demoted.result() == result
        for attr in ("starts", "ends", "values", "groups"):
            assert (
                getattr(demoted.columns(), attr)
                == getattr(resident.columns(), attr)
            ).all()

    def test_epoch_requires_exactly_one_source(self, tmp_path):
        with pytest.raises(DurabilityError):
            FrozenEpoch()


def corrupt_checkpoint(path, kind: str) -> None:
    """Write a ``PTAC`` file whose segment rows break one row check."""
    session = Compressor(SizeBudget(10))
    session.push(stream(60, seed=3))
    columns = result_columns(session.finalize())
    if kind == "group_out_of_range":
        columns["groups"] = columns["groups"] + 5
    elif kind == "one_dimensional_values":
        columns["values"] = columns["values"][:, 0]
    elif kind == "row_counts_disagree":
        columns["ends"] = columns["ends"][:-1]
    elif kind == "missing_meta_field":
        meta = json.loads(columns["meta"].tobytes())
        del meta["input_size"]
        columns["meta"] = _json_bytes(meta)
    elif kind == "groups_not_interned":
        # An unused key first: every id is in range, but the first row's
        # id is 1, not 0.
        keys = json.loads(columns["group_keys"].tobytes())
        columns["group_keys"] = _json_bytes([["unused"], *keys])
        columns["groups"] = columns["groups"] + 1
    else:
        assert kind == "nan_values"
        columns["values"] = np.full_like(columns["values"], np.nan)
    write_checkpoint(path, columns)


def _json_bytes(value) -> np.ndarray:
    return np.frombuffer(json.dumps(value).encode("utf-8"), np.uint8)


CORRUPTIONS = [
    "group_out_of_range",
    "one_dimensional_values",
    "row_counts_disagree",
    "nan_values",
    "missing_meta_field",
    "groups_not_interned",
]


class TestCorruptCheckpointReads:
    """A demoted epoch's columns get the ``PTAS`` row checks on the
    serving path: garbage is a :class:`DurabilityError`, never an
    IndexError or a NaN answer."""

    @pytest.mark.parametrize("kind", CORRUPTIONS)
    def test_columns_raise_durability_error(self, tmp_path, kind):
        path = tmp_path / "epoch-00000000.ckpt"
        corrupt_checkpoint(path, kind)
        with pytest.raises(DurabilityError, match="cannot be served"):
            FrozenEpoch.from_checkpoint(path).columns()

    @pytest.mark.parametrize("kind", CORRUPTIONS)
    def test_every_read_raises_durability_error(self, tmp_path, kind):
        path = tmp_path / "epoch-00000000.ckpt"
        corrupt_checkpoint(path, kind)
        epoch = FrozenEpoch.from_checkpoint(path)
        for read in (
            lambda: epoch.input_size, epoch.image, epoch.result,
        ):
            with pytest.raises(DurabilityError, match="cannot be served"):
                read()

    @pytest.mark.parametrize("kind", ["missing_meta_field", "groups_not_interned"])
    def test_recovery_raises_durability_error_naming_the_file(
        self, tmp_path, kind
    ):
        store = SessionStore(size=10, data_dir=tmp_path)
        store.push("k", stream(60, seed=4))
        store.freeze("k")
        (epoch,) = store.frozen_epochs("k")
        store.close()
        corrupt_checkpoint(epoch.path, kind)
        with pytest.raises(DurabilityError, match=re.escape(str(epoch.path))):
            SessionStore(size=10, data_dir=tmp_path)

    @pytest.mark.parametrize("kind", CORRUPTIONS)
    def test_range_agg_answers_503_durability(self, tmp_path, kind):
        service = Service(size=10, data_dir=tmp_path)
        service.push("k", stream(60, seed=4))
        service.store.freeze("k")
        (epoch,) = service.store.frozen_epochs("k")
        corrupt_checkpoint(epoch.path, kind)
        server, _ = start_in_background(service)
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    f"http://127.0.0.1:{server.port}"
                    f"/range_agg?key=k&t1=0&t2=100&fn=avg"
                )
            assert excinfo.value.code == 503
            assert json.load(excinfo.value)["code"] == "durability"
        finally:
            server.shutdown()
            server.server_close()
            service.close()


# ----------------------------------------------------------------------
# Crash injection on the store
# ----------------------------------------------------------------------
def feed(store, key, segments, chunk_size):
    for chunk in chunked(segments, chunk_size):
        store.push(key, chunk)


class TestStoreRecovery:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_recovered_store_is_bit_identical(self, tmp_path, backend):
        policy = ExecutionPolicy(backend=backend)
        segments = stream(120, seed=2, groups=2)
        live = SessionStore(size=25, policy=policy, data_dir=tmp_path)
        feed(live, "k", segments, 9)
        recovered = SessionStore(size=25, policy=policy, data_dir=tmp_path)
        assert encode_result(live.snapshot("k")) == encode_result(
            recovered.snapshot("k")
        )
        assert live.pushed("k") == recovered.pushed("k")
        ours, theirs = QueryEngine(live), QueryEngine(recovered)
        for t1, t2 in [(1, 50), (10, 400), (0, 1000)]:
            for fn in ("avg", "sum", "min", "max"):
                assert ours.range_agg("k", t1, t2, fn, group=("g1",)) == \
                    theirs.range_agg("k", t1, t2, fn, group=("g1",))

    def test_empty_data_dir_boots_empty(self, tmp_path):
        store = SessionStore(size=10, data_dir=tmp_path / "fresh")
        assert store.keys() == [] and store.stats().pushed_segments == 0

    def test_empty_wal_boot(self, tmp_path):
        """A WAL holding only its header recovers to an empty live session."""
        store = SessionStore(size=10, data_dir=tmp_path)
        store.push("k", stream(5, seed=3))
        # Manufacture the moment just after epoch creation: header, no frames.
        wal = tmp_path / encode_key("k") / "epoch-00000000.wal"
        wal.write_bytes(struct.pack("<4sH", WAL_MAGIC, WAL_VERSION))
        recovered = SessionStore(size=10, data_dir=tmp_path)
        assert recovered.pushed("k") == 0
        assert recovered.is_live("k")
        recovered.push("k", stream(5, seed=3))
        assert recovered.pushed("k") == 5

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_torn_final_frame_is_truncated_and_replayed(
        self, tmp_path, backend
    ):
        policy = ExecutionPolicy(backend=backend)
        segments = stream(80, seed=4)
        live = SessionStore(size=20, policy=policy, data_dir=tmp_path)
        feed(live, "k", segments[:72], 8)
        expected = encode_result(live.snapshot("k"))
        # The crash: a push was being appended when the process died.
        wal = tmp_path / encode_key("k") / "epoch-00000000.wal"
        with open(wal, "ab") as file:
            file.write(struct.pack("<II", 4096, 1234) + b"partial payload")
        recovered = SessionStore(size=20, policy=policy, data_dir=tmp_path)
        assert encode_result(recovered.snapshot("k")) == expected
        # And the store keeps accepting pushes afterwards.
        recovered.push("k", segments[72:])
        assert recovered.pushed("k") == 80

    def test_crash_between_checkpoint_and_wal_delete(self, tmp_path):
        """Both files exist for one epoch: the checkpoint wins."""
        store = SessionStore(size=15, data_dir=tmp_path)
        feed(store, "k", stream(50, seed=5), 10)
        expected = encode_result(store.snapshot("k"))
        key_dir = tmp_path / encode_key("k")
        wal_bytes = (key_dir / "epoch-00000000.wal").read_bytes()
        store.freeze("k")  # demotes: writes ckpt, deletes wal
        frozen_expected = encode_result(store.snapshot("k"))
        # Resurrect the WAL next to its checkpoint — the crash window.
        (key_dir / "epoch-00000000.wal").write_bytes(wal_bytes)
        recovered = SessionStore(size=15, data_dir=tmp_path)
        assert encode_result(recovered.snapshot("k")) == frozen_expected
        assert not (key_dir / "epoch-00000000.wal").exists()
        assert expected  # sanity: the pre-freeze snapshot existed

    def test_crash_between_finalize_and_checkpoint(self, tmp_path):
        """An old epoch with WAL but no checkpoint: demotion is finished."""
        store = SessionStore(size=15, data_dir=tmp_path)
        segments = stream(60, seed=6)
        feed(store, "k", segments[:30], 10)
        key_dir = tmp_path / encode_key("k")
        old_wal = (key_dir / "epoch-00000000.wal").read_bytes()
        store.freeze("k")
        feed(store, "k", segments[30:], 10)
        expected = encode_result(store.snapshot("k"))
        # The crash window: epoch 0's checkpoint never landed, its WAL
        # still exists, and epoch 1 is already live.
        (key_dir / "epoch-00000000.ckpt").unlink()
        (key_dir / "epoch-00000000.wal").write_bytes(old_wal)
        recovered = SessionStore(size=15, data_dir=tmp_path)
        assert encode_result(recovered.snapshot("k")) == expected
        assert (key_dir / "epoch-00000000.ckpt").exists()
        assert not (key_dir / "epoch-00000000.wal").exists()

    def test_stale_tmp_checkpoint_is_discarded(self, tmp_path):
        store = SessionStore(size=15, data_dir=tmp_path)
        feed(store, "k", stream(40, seed=7), 10)
        expected = encode_result(store.snapshot("k"))
        key_dir = tmp_path / encode_key("k")
        (key_dir / "epoch-00000000.ckpt.tmp").write_bytes(b"half a write")
        recovered = SessionStore(size=15, data_dir=tmp_path)
        assert encode_result(recovered.snapshot("k")) == expected
        assert not (key_dir / "epoch-00000000.ckpt.tmp").exists()

    def test_demoted_key_recovers_from_checkpoints_alone(self, tmp_path):
        store = SessionStore(size=12, data_dir=tmp_path, max_sessions=1)
        a, b = stream(40, seed=8), stream(40, seed=9)
        feed(store, "a", a, 8)
        feed(store, "b", b, 8)   # LRU bound demotes "a" to disk
        assert not store.is_live("a") and store.is_live("b")
        expected_a = encode_result(store.snapshot("a"))
        recovered = SessionStore(size=12, data_dir=tmp_path, max_sessions=1)
        assert not recovered.is_live("a")
        assert [e.resident for e in recovered.frozen_epochs("a")] == [False]
        assert encode_result(recovered.snapshot("a")) == expected_a
        # A demoted key reopens as a fresh epoch on its next push.
        recovered.push("a", a[:5])
        assert recovered.is_live("a")
        assert recovered.pushed("a") == 45

    def test_checkpoint_every_bounds_the_wal(self, tmp_path):
        store = SessionStore(
            size=10, data_dir=tmp_path, checkpoint_every=25
        )
        feed(store, "k", stream(100, seed=10), 10)
        key_dir = tmp_path / encode_key("k")
        checkpoints = sorted(
            f for f in os.listdir(key_dir) if f.endswith(".ckpt")
        )
        # Chunks of 10 cross the 25-tuple threshold at 30 pushed tuples,
        # so epochs demote at 30/60/90 and 10 tuples stay live.
        assert len(checkpoints) == 3
        assert len(store.frozen_epochs("k")) == 3
        assert store.pushed("k") == 100
        recovered = SessionStore(
            size=10, data_dir=tmp_path, checkpoint_every=25
        )
        assert encode_result(recovered.snapshot("k")) == encode_result(
            store.snapshot("k")
        )

    def test_durable_store_rejects_non_string_keys(self, tmp_path):
        store = SessionStore(size=10, data_dir=tmp_path)
        with pytest.raises(ServiceError, match="string keys"):
            store.push(("tuple", "key"), stream(3, seed=11))

    def test_checkpoint_every_requires_data_dir(self):
        with pytest.raises(ServiceError, match="data_dir"):
            SessionStore(size=10, checkpoint_every=5)

    def test_service_facade_passthrough(self, tmp_path):
        service = Service(size=20, data_dir=tmp_path, checkpoint_every=30)
        segments = stream(45, seed=12)
        service.push("k", segments)
        expected = encode_result(service.summary("k"))
        service.close()
        reopened = Service(size=20, data_dir=tmp_path, checkpoint_every=30)
        assert encode_result(reopened.summary("k")) == expected
        assert reopened.range_agg("k", 1, 60) == service.range_agg("k", 1, 60)

    def test_prebuilt_store_excludes_durability_keywords(self, tmp_path):
        store = SessionStore(size=10)
        with pytest.raises(ServiceError, match="prebuilt"):
            Service(store=store, data_dir=tmp_path)


# ----------------------------------------------------------------------
# Randomized crash points
# ----------------------------------------------------------------------
class TestRandomizedCrashPoints:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_crash_after_any_push_recovers_bit_identical(
        self, tmp_path, backend
    ):
        policy = ExecutionPolicy(backend=backend)
        segments = stream(60, seed=13)
        chunks = chunked(segments, 6)
        rng = random.Random(14)
        for crash_after in rng.sample(range(1, len(chunks) + 1), 4):
            data_dir = tmp_path / f"{backend}-{crash_after}"
            live = SessionStore(
                size=14, policy=policy, data_dir=data_dir,
                checkpoint_every=20,
            )
            for chunk in chunks[:crash_after]:
                live.push("k", chunk)
            recovered = SessionStore(
                size=14, policy=policy, data_dir=data_dir,
                checkpoint_every=20,
            )
            assert encode_result(recovered.snapshot("k")) == encode_result(
                live.snapshot("k")
            ), f"divergence at crash point {crash_after}"

    @pytest.mark.slow
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_exhaustive_crash_sweep(self, tmp_path, backend):
        policy = ExecutionPolicy(backend=backend)
        segments = stream(90, seed=15, groups=2)
        chunks = chunked(segments, 5)
        for crash_after in range(1, len(chunks) + 1):
            data_dir = tmp_path / f"{backend}-{crash_after}"
            live = SessionStore(
                size=18, policy=policy, data_dir=data_dir,
                checkpoint_every=35,
            )
            for chunk in chunks[:crash_after]:
                live.push("k", chunk)
            recovered = SessionStore(
                size=18, policy=policy, data_dir=data_dir,
                checkpoint_every=35,
            )
            assert encode_result(recovered.snapshot("k")) == encode_result(
                live.snapshot("k")
            ), f"divergence at crash point {crash_after}"
            ours, theirs = QueryEngine(live), QueryEngine(recovered)
            assert ours.window("k", 1, 200, 25, group=("g0",)) == \
                theirs.window("k", 1, 200, 25, group=("g0",))


# ----------------------------------------------------------------------
# Replay entry points
# ----------------------------------------------------------------------
class TestReplay:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_compressor_replay_matches_live_pushes(self, backend):
        policy = ExecutionPolicy(backend=backend)
        chunks = chunked(stream(70, seed=16), 7)
        live = Compressor(SizeBudget(16), policy=policy)
        for chunk in chunks:
            live.push(chunk)
        replayed = Compressor(SizeBudget(16), policy=policy)
        replayed.replay(chunks)
        assert replayed.generation == live.generation
        assert encode_result(replayed.summary()) == encode_result(
            live.summary()
        )
        assert encode_result(replayed.finalize()) == encode_result(
            live.finalize()
        )

    def test_replay_on_finalized_session_raises(self):
        session = Compressor(SizeBudget(8))
        session.finalize()
        with pytest.raises(RuntimeError, match="replay"):
            session.replay([stream(3, seed=17)])


# ----------------------------------------------------------------------
# Durability manager internals
# ----------------------------------------------------------------------
class TestDurabilityManager:
    def test_recover_skips_foreign_files(self, tmp_path):
        (tmp_path / "README").write_text("not a key dir")
        key_dir = tmp_path / encode_key("k")
        key_dir.mkdir()
        (key_dir / "notes.txt").write_text("ignored")
        assert Durability(tmp_path).recover() == []

    def test_negative_fsync_cadence_rejected(self, tmp_path):
        with pytest.raises(DurabilityError, match="fsync_every"):
            Durability(tmp_path, fsync_every=-2)

    def test_checkpoint_magic_is_distinct_from_wire(self):
        assert CHECKPOINT_MAGIC == b"PTAC"
        assert WAL_MAGIC == b"PTAW"
