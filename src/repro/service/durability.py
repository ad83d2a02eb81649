"""Durability tier: per-key WAL, demoted frozen epochs, crash recovery.

Everything the serving layer holds is otherwise process memory; this
module makes a :class:`~repro.service.store.SessionStore` survive a
crash.  It composes two byte formats that already exist — the ``PTAS``
segment payload of :mod:`repro.service.wire` and the column container of
:mod:`repro.storage.columns` — into an on-disk layout under ``data_dir``::

    data_dir/
      <percent-encoded key>/
        epoch-00000000.ckpt     frozen epoch 0 (PTAC checkpoint, mmap'd)
        epoch-00000001.ckpt     frozen epoch 1
        epoch-00000002.wal      the live epoch's write-ahead log (PTAW)

Per acknowledged push the store appends **one WAL frame** — the pushed
chunk as ``PTAS`` bytes — to the live epoch's segment file
(:class:`repro.storage.wal.WalWriter`; length-prefixed, CRC-checked,
fsynced per the ``fsync_every`` cadence).  When an epoch freezes —
eviction, a manual ``freeze()``, or the deterministic
``checkpoint_every`` push-count trigger — the epoch's column image is
written as an atomic ``PTAC`` checkpoint and the epoch's WAL is deleted:
*demotion*, memory → disk.  A demoted :class:`FrozenEpoch` holds the
same image as zero-copy views over an ``mmap`` of the checkpoint
(:func:`repro.storage.wal.load_checkpoint`), validated on first use, so
resident memory per key is bounded by the live session alone.

**The replay invariant.**  Recovery (:meth:`Durability.recover`) loads
every checkpointed epoch and replays the live epoch's WAL tail through
:meth:`repro.core.greedy.OnlineReducer.replay` — one ``push_chunk`` per
frame, exactly the chunks that were acknowledged live.  Because a
replayed chunk is bit-identical to its original push (the staged-insert
contract), **WAL replay composed over the checkpoints reproduces the
live reducer state bit-identically**: the recovered store serves
``summary()`` and :class:`~repro.service.query.QueryEngine` answers with
the same bytes the uncrashed process would have served
(``tests/test_durability.py`` asserts this at randomized crash points on
both backends).

Crash windows and their outcomes:

* **mid-append** — the final WAL frame is torn; ``read_wal(recover=True)``
  truncates it.  Only the unacknowledged push is lost.
* **between checkpoint write and WAL delete** — both files exist for one
  epoch; the checkpoint wins and the stale WAL is deleted (the
  checkpoint already contains the finalized form of every frame).
* **between finalize and checkpoint write** — the epoch has a WAL but no
  checkpoint and is not the newest epoch; recovery finishes the
  interrupted demotion by replaying and re-finalizing it (bit-identical
  to the finalize that was lost, by the same invariant).

File formats are specified normatively in ``docs/FORMATS.md``.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple, Union
from urllib.parse import quote, unquote

import numpy as np

from ..api.result import Result
from ..core.kernels import EncodedSegments
from ..obs.tracing import span
from ..util import failpoints
from ..storage.wal import (
    WalError,
    WalWriter,
    load_checkpoint,
    read_wal,
    write_checkpoint,
)
from .wire import (
    Image,
    WireError,
    checked_image,
    decode_segments,
    result_from_columns,
)

_EPOCH_FILE = re.compile(r"^epoch-(\d{8})\.(wal|ckpt)$")


class DurabilityError(ValueError):
    """A durability-tier failure: a disk fault on the WAL or checkpoint
    path (wrapped ``OSError``), an invalid configuration, or an
    unrecoverable on-disk layout.

    The serving layer maps this to HTTP 503 — a push that raises it was
    **not acknowledged** and did not mutate the in-memory state (the
    store appends WAL-first), so the client may safely retry.
    """


def encode_key(key: str) -> str:
    """Map a stream key to a safe directory name (percent-encoding).

    Reversible (:func:`decode_key`), injective, and filesystem-safe for
    any non-empty string key: every byte outside ``[A-Za-z0-9_.~-]`` is
    percent-escaped, so ``a/b`` and ``a%2Fb`` map to distinct names.

    >>> encode_key("sensor/1")
    'sensor%2F1'
    >>> encode_key("a%2Fb")            # not confusable with "a/b"
    'a%252Fb'
    >>> decode_key(encode_key("météo du jour")) == "météo du jour"
    True
    """
    if not isinstance(key, str) or not key:
        raise DurabilityError(
            f"durable stores require non-empty string keys, got {key!r}"
        )
    return quote(key, safe="")


def decode_key(name: str) -> str:
    """Invert :func:`encode_key`."""
    return unquote(name)


class FrozenEpoch:
    """One finalized epoch of a key, held as its column image.

    The image is the dict of :func:`~repro.service.wire.result_columns`:
    the segment columns plus the ``meta`` column, byte for byte what a
    ``PTAC`` checkpoint and a ``PTAR`` payload pack.  A resident epoch
    holds it in memory; a demoted one maps it from its checkpoint on
    first use (:func:`~repro.storage.wal.load_checkpoint`), so a demoted
    key costs file-system pages, not process memory.  Either way the
    image passes :func:`~repro.service.wire.checked_image` once before
    anything is read from it, and a failure of the file or of that check
    raises :class:`DurabilityError` naming the file.
    """

    __slots__ = ("path", "_image", "_columns", "_meta")

    def __init__(
        self, image: Optional[Image] = None, path: Optional[Path] = None
    ) -> None:
        if (image is None) == (path is None):
            raise DurabilityError(
                "a FrozenEpoch holds its image (image=) or names its "
                "checkpoint (path=), exactly one"
            )
        #: The checkpoint file of a demoted epoch (``None`` if resident).
        self.path = path
        self._image = image
        self._columns: Optional[EncodedSegments] = None
        self._meta: Dict[str, Any] = {}

    @classmethod
    def from_checkpoint(cls, path: Union[str, Path]) -> "FrozenEpoch":
        """An epoch demoted to a checkpoint file, loaded lazily via mmap."""
        return cls(path=Path(path))

    @property
    def resident(self) -> bool:
        """Whether the epoch's image is held in process memory."""
        return self.path is None

    @property
    def error(self) -> float:
        return self._checked()[1]["error"]

    @property
    def size(self) -> int:
        return self._checked()[1]["size"]

    @property
    def input_size(self) -> int:
        return self._checked()[1]["input_size"]

    def image(self) -> Image:
        """The validated column image (mmap views for a demoted epoch)."""
        self._checked()
        assert self._image is not None
        return self._image

    def columns(self) -> EncodedSegments:
        """The epoch's summary as flat snapshot columns, built once.

        A demoted epoch's are read-only zero-copy views over the
        checkpoint's memory map, which the OS pages in on demand.
        """
        return self._checked()[0]

    def result(self) -> Result:
        """The epoch as a full :class:`Result` (materialised segments).

        Built on every call (deliberately uncached — this is the slow
        introspection path; serving reads :meth:`columns`).
        """
        return result_from_columns(self.image())

    def _checked(self) -> Tuple[EncodedSegments, Dict[str, Any]]:
        if self._columns is None:
            try:
                if self._image is None:
                    assert self.path is not None
                    self._image = load_checkpoint(self.path)
                self._columns, self._meta = checked_image(self._image)
            except (WalError, WireError) as error:
                where = "resident" if self.path is None else self.path
                raise DurabilityError(
                    f"frozen epoch {where} cannot be served: {error}"
                ) from error
        return self._columns, self._meta


@dataclass
class RecoveredKey:
    """Everything recovery found on disk for one stream key.

    ``frozen`` holds checkpointed epochs; ``orphans`` are epochs whose
    demotion was interrupted (WAL present, checkpoint missing, not the
    newest epoch) — the store replays and re-finalizes them; ``live`` is
    the newest epoch's replayable WAL chunks, ``None`` when every epoch
    is checkpointed.  ``live_epoch`` is the epoch index the key's live
    session uses next.
    """

    key: str
    frozen: List[Tuple[int, FrozenEpoch]] = field(default_factory=list)
    orphans: List[Tuple[int, List[EncodedSegments]]] = field(
        default_factory=list
    )
    live: Optional[Tuple[int, List[EncodedSegments]]] = None
    live_epoch: int = 0


@dataclass(frozen=True)
class PushToken:
    """Handle for one WAL-appended push, used to roll it back.

    :meth:`Durability.log_push` appends the frame *before* the store
    mutates memory; if the in-memory application then fails, the store
    hands the token back to :meth:`Durability.rollback`, which truncates
    the frame off the log — the two sides never diverge.
    """

    key: str
    writer: WalWriter
    offset: int


class Durability:
    """Filesystem manager for one store's WAL segments and checkpoints.

    One instance per :class:`~repro.service.store.SessionStore`; the
    store calls :meth:`log_push` *before* each in-memory push (WAL
    first), :meth:`commit` after the push is applied (which advances
    the **group-commit clock** — ``fsync_every`` is counted in
    acknowledged pushes across every key, and on each cadence boundary
    all dirty writers are fsynced in one sweep), :meth:`demote` when an
    epoch freezes, and :meth:`recover` once at boot.  Every disk fault
    surfaces as :class:`DurabilityError`.  All methods are called under
    the store's lock.
    """

    def __init__(
        self, data_dir: Union[str, Path], fsync_every: int = 1
    ) -> None:
        if fsync_every < 0:
            raise DurabilityError(
                f"fsync_every must be non-negative, got {fsync_every}"
            )
        self.root = Path(data_dir)
        self.root.mkdir(parents=True, exist_ok=True)
        self.fsync_every = fsync_every
        #: One open writer per key — the live epoch's WAL.
        self._writers: Dict[str, Tuple[int, WalWriter]] = {}
        #: Keys with appended-but-not-yet-fsynced frames (group commit).
        self._dirty: Set[str] = set()
        #: Acknowledged pushes since the last group fsync.
        self._since_sync = 0

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def key_dir(self, key: str) -> Path:
        return self.root / encode_key(key)

    def wal_path(self, key: str, epoch: int) -> Path:
        return self.key_dir(key) / f"epoch-{epoch:08d}.wal"

    def checkpoint_path(self, key: str, epoch: int) -> Path:
        return self.key_dir(key) / f"epoch-{epoch:08d}.ckpt"

    def wal_size(self, key: str, epoch: int) -> int:
        """Current byte size of the epoch's WAL file (0 when absent)."""
        try:
            return self.wal_path(key, epoch).stat().st_size
        except OSError:
            return 0

    def latest_checkpoint_size(self, key: str) -> int:
        """Byte size of the key's newest checkpoint (0 when none exist).

        The reference value of the store's ``wal_compact_factor``
        trigger: a live WAL that outgrows the newest checkpoint by that
        factor is worth compacting into a checkpoint of its own.
        """
        directory = self.key_dir(key)
        newest: Optional[Path] = None
        newest_epoch = -1
        try:
            entries = list(directory.iterdir())
        except OSError:
            return 0
        for file in entries:
            match = _EPOCH_FILE.match(file.name)
            if match is None or match.group(2) != "ckpt":
                continue
            epoch = int(match.group(1))
            if epoch > newest_epoch:
                newest_epoch = epoch
                newest = file
        if newest is None:
            return 0
        try:
            return newest.stat().st_size
        except OSError:
            return 0

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def log_push(self, key: str, epoch: int, payload: bytes) -> PushToken:
        """Append one push (``PTAS`` bytes) to the live WAL — *before*
        the in-memory application.

        Returns a :class:`PushToken` the store can hand to
        :meth:`rollback` if applying the chunk in memory fails.  Any
        disk fault raises :class:`DurabilityError` and leaves the log
        byte-clean (a failed append truncates itself back, see
        :class:`repro.storage.wal.WalWriter`); a writer whose rollback
        failed earlier is refused until the epoch rotates, because
        appending after a torn tail would hide every later frame from
        recovery.
        """
        cached = self._writers.get(key)
        if cached is not None and cached[0] == epoch and cached[1].broken:
            raise DurabilityError(
                f"WAL for key {key!r} epoch {epoch} is unusable after a "
                f"failed rollback; awaiting epoch rotation"
            )
        try:
            with span("wal_append"):
                if cached is None or cached[0] != epoch:
                    if cached is not None:
                        self._close_quietly(cached[1])
                        del self._writers[key]
                    directory = self.key_dir(key)
                    directory.mkdir(parents=True, exist_ok=True)
                    writer = WalWriter(
                        self.wal_path(key, epoch), fsync_every=0
                    )
                    self._writers[key] = (epoch, writer)
                else:
                    writer = cached[1]
                offset = writer.tell()
                writer.append(payload)
        except OSError as error:
            raise DurabilityError(
                f"WAL append failed for key {key!r}: {error}"
            ) from error
        self._dirty.add(key)
        return PushToken(key, writer, offset)

    def writer_broken(self, key: str, epoch: int) -> bool:
        """Whether the key's live writer refuses appends (torn tail).

        ``True`` only after a rollback failed — the store reacts by
        rotating the key's epoch, which gets a fresh segment file.
        """
        cached = self._writers.get(key)
        return cached is not None and cached[0] == epoch and cached[1].broken

    def rollback(self, token: PushToken) -> None:
        """Truncate the frame appended by :meth:`log_push` off the log.

        Raises :class:`DurabilityError` if the truncation fails — in
        which case the writer has marked itself broken and the epoch
        must rotate before the key can log again.
        """
        try:
            token.writer.truncate_to(token.offset)
        except OSError as error:
            raise DurabilityError(
                f"WAL rollback failed for key {token.key!r}: {error}"
            ) from error

    def commit(self) -> None:
        """Advance the group-commit clock by one acknowledged push.

        With ``fsync_every=n`` every ``n``-th acknowledged push — counted
        across all keys, *not* per WAL file — fsyncs every dirty writer
        in one sweep, so the acked-but-unsynced window is bounded by
        ``n`` pushes store-wide however the keys interleave.
        ``fsync_every=0`` leaves flushing to the OS entirely.
        """
        if not self.fsync_every:
            return
        self._since_sync += 1
        if self._since_sync >= self.fsync_every:
            self.sync()

    def sync(self) -> None:
        """Fsync every dirty writer now, regardless of the cadence.

        Writers that sync cleanly leave the dirty set even if a later
        one fails, so a retry only re-syncs what still needs it; the
        first failure is wrapped and raised after the sweep stops.
        """
        self._since_sync = 0
        if not self._dirty:
            return
        with span("fsync"):
            for key in sorted(self._dirty):
                cached = self._writers.get(key)
                if cached is None:
                    self._dirty.discard(key)
                    continue
                try:
                    cached[1].sync()
                except OSError as error:
                    raise DurabilityError(
                        f"WAL fsync failed for key {key!r}: {error}"
                    ) from error
                self._dirty.discard(key)

    def probe(self) -> None:
        """Verify ``data_dir`` accepts durable writes (degraded re-probe).

        Writes, fsyncs and unlinks a scratch file; any fault raises
        :class:`DurabilityError`.  The store calls this while degraded
        to decide whether the disk came back.
        """
        path = self.root / ".probe"
        try:
            failpoints.fail("durability.probe")
            with open(path, "wb") as file:
                file.write(b"pta-probe")
                file.flush()
                os.fsync(file.fileno())
            path.unlink()
        except OSError as error:
            raise DurabilityError(
                f"durability probe failed under {self.root}: {error}"
            ) from error

    def suspend(self) -> None:
        """Drop every writer without raising (degraded-mode entry).

        Close errors are swallowed — the store is abandoning the disk,
        not depending on it; :meth:`log_push` lazily reopens writers
        after a successful re-attach.
        """
        for _, writer in list(self._writers.values()):
            self._close_quietly(writer)
        self._writers.clear()
        self._dirty.clear()
        self._since_sync = 0

    def demote(self, key: str, epoch: int, image: Image) -> FrozenEpoch:
        """Persist a frozen epoch's image and drop its WAL (memory → disk).

        Writes the ``PTAC`` checkpoint atomically *before* deleting the
        WAL, so a crash anywhere in between leaves a recoverable state
        (checkpoint wins; see the module docstring's crash windows).  A
        checkpoint-write fault raises :class:`DurabilityError` with the
        WAL intact — the epoch is still fully recoverable from its
        frames; a WAL-unlink fault after the checkpoint is durable is
        swallowed (recovery resolves it: checkpoint wins).
        """
        directory = self.key_dir(key)
        try:
            directory.mkdir(parents=True, exist_ok=True)
            target = self.checkpoint_path(key, epoch)
            write_checkpoint(target, image)
        except OSError as error:
            raise DurabilityError(
                f"checkpoint write failed for key {key!r} epoch "
                f"{epoch}: {error}"
            ) from error
        cached = self._writers.get(key)
        if cached is not None and cached[0] == epoch:
            self._close_quietly(cached[1])
            del self._writers[key]
            self._dirty.discard(key)
        try:
            wal = self.wal_path(key, epoch)
            if wal.exists():
                wal.unlink()
        except OSError:
            pass  # the checkpoint is durable; recovery deletes the WAL
        return FrozenEpoch.from_checkpoint(target)

    def close(self) -> None:
        """Flush and close every open WAL writer.

        The first close/fsync fault is wrapped in
        :class:`DurabilityError` and raised after every writer has been
        attempted — no writer is left open because an earlier one
        failed.
        """
        first_error: Optional[OSError] = None
        for _, writer in self._writers.values():
            try:
                writer.close()
            except OSError as error:
                if first_error is None:
                    first_error = error
        self._writers.clear()
        self._dirty.clear()
        self._since_sync = 0
        if first_error is not None:
            raise DurabilityError(
                f"closing WAL writers failed: {first_error}"
            ) from first_error

    @staticmethod
    def _close_quietly(writer: WalWriter) -> None:
        try:
            writer.close()
        except OSError:
            pass

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def recover(self) -> List[RecoveredKey]:
        """Scan ``data_dir`` and classify every key's on-disk epochs.

        Torn WAL tails are truncated here (``read_wal(recover=True)``);
        stale ``.tmp`` checkpoint leftovers are deleted; a WAL alongside
        its epoch's checkpoint loses to the checkpoint.  The returned
        records are ordered by key directory name.
        """
        recovered: List[RecoveredKey] = []
        if not self.root.exists():
            return recovered
        for child in sorted(self.root.iterdir()):
            if not child.is_dir():
                continue
            record = self._recover_key(child)
            if record is not None:
                recovered.append(record)
        return recovered

    def _recover_key(self, directory: Path) -> Optional[RecoveredKey]:
        checkpoints: Dict[int, Path] = {}
        wals: Dict[int, Path] = {}
        for file in sorted(directory.iterdir()):
            if file.name.endswith(".tmp"):
                file.unlink()  # a checkpoint write that never completed
                continue
            match = _EPOCH_FILE.match(file.name)
            if match is None:
                continue
            epoch = int(match.group(1))
            (wals if match.group(2) == "wal" else checkpoints)[epoch] = file
        epochs = sorted(set(checkpoints) | set(wals))
        if not epochs:
            return None
        record = RecoveredKey(key=decode_key(directory.name))
        newest = epochs[-1]
        for epoch in epochs:
            if epoch in checkpoints:
                record.frozen.append(
                    (epoch, FrozenEpoch.from_checkpoint(checkpoints[epoch]))
                )
                if epoch in wals:
                    wals[epoch].unlink()  # checkpoint wins the crash window
            else:
                frames = read_wal(wals[epoch], recover=True)
                chunks = [decode_segments(frame) for frame in frames]
                if epoch == newest:
                    record.live = (epoch, chunks)
                else:
                    record.orphans.append((epoch, chunks))
        record.live_epoch = newest if record.live is not None else newest + 1
        return record


__all__ = [
    "Durability",
    "DurabilityError",
    "FrozenEpoch",
    "PushToken",
    "RecoveredKey",
    "decode_key",
    "encode_key",
]
