"""Write-ahead log and checkpointing (record format v2).

Durable databases append one record per committed transaction to
``<dir>/wal.jsonl``.  A checkpoint serialises the whole database into
``<dir>/checkpoint.json`` and truncates the log.  Recovery loads the most
recent checkpoint (if any) and replays the log's committed transactions —
an uncommitted (never appended) transaction is simply absent, giving
atomicity across crashes.

Record format v2
----------------

Every appended line is::

    2|<crc32 hex, 8 digits>|{"lsn": N, "txn": T, "ops": [...]}

* The CRC32 covers the JSON payload bytes, so a torn or bit-rotted record
  is *detected* rather than inferred from JSON well-formedness.
* The **LSN** (log sequence number) increases monotonically across the
  database's whole life — it is never reset, not even when a checkpoint
  truncates the log.
* A v2 checkpoint document records the **watermark**: the highest LSN
  captured in the snapshot, plus a checkpoint **epoch** (generation
  counter).  Replay skips any record with ``lsn <= watermark``, which makes
  recovery *idempotent*: a crash between ``os.replace(checkpoint)`` and the
  WAL truncation leaves stale records behind, and the watermark ensures
  they are recognised and skipped instead of double-applied.

Lines starting with ``{`` are legacy v1 records (plain JSON, no checksum,
no LSN) and are still replayed; a checkpoint document without a
``"format"`` key is a v1 snapshot with watermark 0.  See
``docs/DURABILITY.md`` for the full contract, including fsync discipline
and what ``sync=False`` does and does not promise.

Values travel through :func:`repro.sqldb.types.value_to_json`, so BLOBs,
CLOBs, DATALINKs and temporal values round-trip exactly.
"""

from __future__ import annotations

import errno
import json
import os
import threading
import zlib
from typing import Any, Iterator

from repro import faultinject
from repro.errors import RecoveryError
from repro.obs import get_observability
from repro.sqldb.types import value_from_json, value_to_json

__all__ = ["WriteAheadLog", "CHECKPOINT_NAME", "WAL_NAME", "WAL_FORMAT_VERSION"]

WAL_NAME = "wal.jsonl"
CHECKPOINT_NAME = "checkpoint.json"
WAL_FORMAT_VERSION = 2

_V2_PREFIX = b"2|"


def _encode_row(row: tuple) -> list:
    return [value_to_json(v) for v in row]


def _decode_row(row: list) -> tuple:
    return tuple(value_from_json(v) for v in row)


def _fsync_dir(directory: str) -> None:
    """Flush a directory entry change (rename/create) to stable storage.

    POSIX only; on platforms where directories cannot be opened for fsync
    the call silently degrades — matching the platform's actual guarantee.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - non-POSIX platforms
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - e.g. fsync unsupported on dirs
        pass
    finally:
        os.close(fd)


class WriteAheadLog:
    """Append-only logical log of committed transactions."""

    def __init__(self, directory: str, sync: bool = False) -> None:
        self.directory = directory
        self.sync = sync
        os.makedirs(directory, exist_ok=True)
        self.path = os.path.join(directory, WAL_NAME)
        self.checkpoint_path = os.path.join(directory, CHECKPOINT_NAME)
        #: highest LSN known to exist (in the log or under the checkpoint
        #: watermark); the next append uses ``last_lsn + 1``
        self.last_lsn = 0
        #: watermark of the live checkpoint: records at or below it are
        #: already captured in the snapshot and must not be replayed
        self.checkpoint_lsn = 0
        #: checkpoint generation counter (bumped by every checkpoint)
        self.epoch = 0
        #: byte offset where a torn final record starts (set by a scan);
        #: :meth:`repair_torn_tail` truncates it away
        self._torn_tail_offset: int | None = None
        #: True once the existing log/checkpoint have been scanned so that
        #: ``last_lsn`` is authoritative
        self._positioned = not os.path.exists(self.path) and not os.path.exists(
            self.checkpoint_path
        )
        #: serialises appends and checkpoints: LSN allocation and the file
        #: write must be one atomic step so LSNs stay monotonic *in file
        #: order* even when multiple connections commit concurrently
        self._append_lock = threading.Lock()
        #: the log opened for appending, kept across commits; closed (and
        #: reopened by the next append) whenever the file is rewritten
        #: outside it: checkpoint truncation, torn-tail repair, a scan
        self._handle = None

    # -- appending ---------------------------------------------------------------

    def append_transaction(self, txn_id: int, records: list[dict]) -> int:
        """Append one committed transaction; returns its LSN.

        Thread-safe: one internal lock covers LSN allocation and the file
        write.  With ``sync=True`` the record is fsynced before returning
        (and the directory is fsynced when the append creates the log
        file), so a committed transaction survives power loss.  With
        ``sync=False`` the write is buffered by the OS — see
        docs/DURABILITY.md.
        """
        with self._append_lock:
            return self._append_locked(txn_id, records)

    def _append_locked(self, txn_id: int, records: list[dict]) -> int:
        self._ensure_positioned()
        encoded = []
        for record in records:
            entry = dict(record)
            if "row" in entry:
                entry["row"] = _encode_row(entry["row"])
            encoded.append(entry)
        lsn = self.last_lsn + 1
        payload = json.dumps(
            {"lsn": lsn, "txn": txn_id, "ops": encoded}, separators=(",", ":")
        )
        data = payload.encode("utf-8")
        crc = zlib.crc32(data) & 0xFFFFFFFF
        line = b"2|%08x|" % crc + data + b"\n"
        # unbuffered: every byte is handed to the OS by the write call, so
        # nothing of a failed commit can linger to reach the log later
        handle = self._append_handle()
        if faultinject.should_crash("wal.append.torn"):
            # Simulated power loss mid-write: an unchecksummable prefix of
            # the record reaches the disk and no newline terminates it.
            handle.write(line[: max(1, len(line) // 2)])
            raise faultinject.InjectedCrash("wal.append.torn")
        start = handle.tell()
        try:
            if handle.write(line) != len(line):
                raise OSError(errno.EIO, "short write to the write-ahead log")
            if self.sync:
                os.fsync(handle.fileno())
        except BaseException:
            # the commit fails: cut off whatever part of the record was
            # written, so recovery cannot replay it
            self.close()
            try:
                os.truncate(self.path, start)
            except OSError:
                pass
            raise
        if self.sync:
            obs = get_observability()
            if obs.enabled:
                obs.metrics.counter("wal.append.fsync").inc()
        faultinject.crash_point("wal.append.full_write")
        self.last_lsn = lsn
        return lsn

    def _append_handle(self):
        """The open append handle, opening (or creating) the log first."""
        if self._handle is None:
            creating = not os.path.exists(self.path)
            self._handle = open(self.path, "ab", buffering=0)
            if creating and self.sync:
                _fsync_dir(self.directory)
        return self._handle

    def close(self) -> None:
        """Close the append handle; the next append reopens the log."""
        handle, self._handle = self._handle, None
        if handle is not None:
            handle.close()

    # -- replay --------------------------------------------------------------------

    def iter_transactions(self) -> Iterator[tuple[int | None, int, list[dict]]]:
        """Yield ``(lsn, txn_id, ops)`` for every committed transaction.

        ``lsn`` is None for legacy v1 records.  A torn *final* record
        (crash mid-append) is skipped — that transaction never committed —
        and remembered so :meth:`repair_torn_tail` can truncate it; any
        earlier unreadable record is corruption and raises
        :class:`~repro.errors.RecoveryError`.
        """
        return iter(self._scan())

    def _scan(self) -> list[tuple[int | None, int, list[dict]]]:
        """Read and verify the whole log in one pass.

        The file is read fully *before* any verification so the torn-tail
        test cannot be confused by stream read-ahead: only the genuinely
        last non-blank record may be unreadable.
        """
        self.close()
        self._torn_tail_offset = None
        self._positioned = True
        if not os.path.exists(self.path):
            return []
        with open(self.path, "rb") as fh:
            raw = fh.read()
        pieces = raw.split(b"\n")
        offsets = []
        start = 0
        for piece in pieces:
            offsets.append(start)
            start += len(piece) + 1
        nonblank = [i for i, piece in enumerate(pieces) if piece.strip()]
        records: list[tuple[int | None, int, list[dict]]] = []
        prev_lsn: int | None = None
        for i in nonblank:
            record = self._parse_record(pieces[i].strip())
            if record is None:
                if i == nonblank[-1]:
                    # Torn final record: the transaction never committed.
                    self._torn_tail_offset = offsets[i]
                    break
                raise RecoveryError(f"corrupt WAL record at line {i + 1}")
            lsn = record[0]
            if lsn is not None:
                if prev_lsn is not None and lsn <= prev_lsn:
                    raise RecoveryError(
                        f"WAL LSN {lsn} at line {i + 1} is not monotonic "
                        f"(previous record has LSN {prev_lsn})"
                    )
                prev_lsn = lsn
                self.last_lsn = max(self.last_lsn, lsn)
            records.append(record)
        return records

    @staticmethod
    def _parse_record(piece: bytes) -> tuple[int | None, int, list[dict]] | None:
        """Decode one line; None means unreadable (torn or corrupt)."""
        if piece.startswith(_V2_PREFIX):
            parts = piece.split(b"|", 2)
            if len(parts) != 3:
                return None
            _tag, crc_hex, payload = parts
            try:
                crc = int(crc_hex, 16)
            except ValueError:
                return None
            if zlib.crc32(payload) & 0xFFFFFFFF != crc:
                return None
            try:
                doc = json.loads(payload)
            except (ValueError, UnicodeDecodeError):  # pragma: no cover
                return None  # CRC passed but JSON did not: treat as corrupt
            lsn = doc.get("lsn")
        else:
            # Legacy v1 record: bare JSON, no checksum, no LSN.
            try:
                doc = json.loads(piece)
            except (ValueError, UnicodeDecodeError):
                return None
            if not isinstance(doc, dict) or "ops" not in doc:
                return None
            lsn = None
        ops = []
        for entry in doc["ops"]:
            decoded = dict(entry)
            if "row" in decoded:
                decoded["row"] = _decode_row(decoded["row"])
            ops.append(decoded)
        return lsn, doc.get("txn"), ops

    def repair_torn_tail(self) -> int:
        """Truncate the torn final record found by the last scan.

        Without this, the next append would concatenate onto the torn
        bytes and corrupt an otherwise-valid record.  Returns the number
        of bytes removed (0 when the tail was clean).
        """
        if self._torn_tail_offset is None:
            return 0
        self.close()
        removed = os.path.getsize(self.path) - self._torn_tail_offset
        with open(self.path, "r+b") as fh:
            fh.truncate(self._torn_tail_offset)
            if self.sync:
                os.fsync(fh.fileno())
        self._torn_tail_offset = None
        return removed

    def _ensure_positioned(self) -> None:
        """Make ``last_lsn`` authoritative before the first append.

        ``Database`` recovery always scans first; this protects standalone
        users of the class from restarting LSNs at 1 over an existing log.
        """
        if self._positioned:
            return
        self.read_checkpoint()
        self._scan()

    # -- checkpointing ---------------------------------------------------------------

    def write_checkpoint(self, snapshot: dict[str, Any]) -> None:
        """Atomically persist ``snapshot`` and truncate the log.

        Order of operations (each step leaves a recoverable state):

        1. write ``checkpoint.json.tmp`` and **fsync it** — a crash can
           only ever promote a fully-written snapshot;
        2. ``os.replace`` onto ``checkpoint.json`` and fsync the directory
           so the rename itself is durable;
        3. truncate the WAL.  A crash between 2 and 3 leaves stale records
           in the log, but they carry LSNs at or below the new snapshot's
           watermark and replay skips them.

        Takes the append lock, so no commit can slip its record into the
        log between computing the watermark and the truncation (such a
        record would be silently dropped).  An :class:`InjectedCrash`
        (BaseException) still releases the lock via ``with``.
        """
        with self._append_lock:
            self._write_checkpoint_locked(snapshot)

    def _write_checkpoint_locked(self, snapshot: dict[str, Any]) -> None:
        self._ensure_positioned()
        epoch = self.epoch + 1
        watermark = self.last_lsn
        doc = {
            "format": WAL_FORMAT_VERSION,
            "epoch": epoch,
            "lsn": watermark,
            "data": snapshot,
        }
        tmp_path = self.checkpoint_path + ".tmp"
        with open(tmp_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
            fh.flush()
            os.fsync(fh.fileno())
        faultinject.crash_point("wal.checkpoint.tmp_written")
        os.replace(tmp_path, self.checkpoint_path)
        _fsync_dir(self.directory)
        faultinject.crash_point("wal.checkpoint.after_replace")
        # The checkpoint captures everything up to `watermark`; start fresh.
        self.close()
        with open(self.path, "w", encoding="utf-8") as fh:
            if self.sync:
                fh.flush()
                os.fsync(fh.fileno())
        faultinject.crash_point("wal.checkpoint.after_truncate")
        self.epoch = epoch
        self.checkpoint_lsn = watermark

    def read_checkpoint(self) -> dict[str, Any] | None:
        """Return the checkpoint snapshot (or None), v1 and v2 formats.

        Reading a v2 checkpoint installs its watermark and epoch on this
        log, so a subsequent :meth:`iter_transactions` caller can skip
        stale records and appends continue the LSN sequence.
        """
        if not os.path.exists(self.checkpoint_path):
            return None
        try:
            with open(self.checkpoint_path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (json.JSONDecodeError, OSError) as exc:
            raise RecoveryError(f"corrupt checkpoint: {exc}") from exc
        if isinstance(doc, dict) and doc.get("format") == WAL_FORMAT_VERSION:
            self.epoch = int(doc.get("epoch", 0))
            self.checkpoint_lsn = int(doc.get("lsn", 0))
            self.last_lsn = max(self.last_lsn, self.checkpoint_lsn)
            return doc["data"]
        # Legacy v1 checkpoint: the document *is* the snapshot; there is
        # no watermark, so every surviving WAL record replays (pre-v2
        # behaviour — see docs/DURABILITY.md on upgrading).
        self.checkpoint_lsn = 0
        return doc

    @staticmethod
    def encode_table_rows(rows: Iterator[tuple[int, tuple]]) -> list:
        return [[rowid, _encode_row(row)] for rowid, row in rows]

    @staticmethod
    def decode_table_rows(entries: list) -> list[tuple[int, tuple]]:
        return [(rowid, _decode_row(row)) for rowid, row in entries]
