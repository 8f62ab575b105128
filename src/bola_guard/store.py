"""Durable, crash-consistent journal stores.

The journal is newline-delimited JSON, one record per line: either a value
upsert or a tombstone ``{"op": "del", "id": ..., "path": ...}``. Opening a
store replays the journal; a partial trailing record (torn write) is dropped
with a warning and the file is repaired, while damage before the final record
or an ill-typed record anywhere raises :class:`CorruptJournalError`. Appends
are flushed and fsynced before they are applied in memory, so an
acknowledged write survives a crash.

Live entries sit in per-path buckets, ``{path: {id: value}}``. One reader,
:meth:`JournalStore._read`, takes a key (a string path and a non-negative int
id) and a value from a record; one writer, :meth:`JournalStore._set`, changes
memory. Replay runs ``_set(*_read(record))``. ``put`` and ``delete`` run
``_read`` on the line they append, before they lock, so they refuse
(``ValueError``, file untouched) whatever replay refuses. So:

* a bucket holds exactly the live entries of its path;
* :class:`AclStore` lists ``id`` under ``(path, user)`` in its reader index
  exactly when the live entry of ``(path, id)`` names ``user`` as owner, in
  ``users_rw`` or in ``users_ro``; a key whose set becomes empty is removed;
* both are what a fresh replay of the journal would build, which is why
  ``compact`` rewrites only the file and no reader misses an entry during it.

Single writer, any number of readers: mutations take the store lock and
replace an entry with one store of a fully-built immutable value. Readers take
no lock. They copy a bucket or a reader set in one C-level call
(``dict.copy``, ``sorted`` of a set of ints), which the GIL makes atomic with
respect to writers, and then work on the copy. So a reader never observes a
torn value, never misses an entry, and never iterates a container that a
writer is changing.

:class:`ObjectStore` holds each object as a :class:`StoredObject`, which
encodes the object's reply on first use, never at replay, and keeps it.
That slot is the one write to a held value: two readers racing to fill it
store equal bytes, each in one slot store, atomic under the GIL.
"""

from __future__ import annotations

import json
import logging
import os
import threading
from pathlib import Path
from typing import Generic, TypeVar

from .acl import AccessControlEntry
from .errors import CorruptJournalError, NoSuchObjectError, StorageError
from .model import decode

logger = logging.getLogger(__name__)

T = TypeVar("T")
S = TypeVar("S", bound="JournalStore")


class JournalStore(Generic[T]):
    """Append-only NDJSON store keyed by (path, id). Subclasses fix the value type."""

    def __init__(self, location: str | Path):
        self.location = Path(location)
        self._lock = threading.Lock()
        self._buckets: dict[str, dict[int, T]] = {}
        self._max_ids: dict[str, int] = {}
        self.journal_position = 0
        self._fh = None
        with self._lock:
            self._replay()
        self._fh = open(self.location, "a", encoding="utf-8")

    @classmethod
    def open(cls: type[S], location: str | Path) -> S:
        return cls(location)

    # Subclass surface -----------------------------------------------------

    def _encode(self, value: T) -> dict:
        raise NotImplementedError

    def _decode(self, record: dict) -> T:
        raise NotImplementedError

    def _reindex(self, path: str, object_id: int, old: T | None,
                 new: T | None) -> None:
        """Called by :meth:`_set` with the entry of (path, id) before and
        after the record it applies; ``None`` means absent."""

    # The one reader and the one writer of memory ---------------------------

    def _read(self, record: dict) -> tuple[str, int, T | None]:
        """The key a record names and its value, None for a tombstone;
        ``ValueError`` or ``KeyError`` for what the journal format never holds."""
        path, object_id = record["path"], record["id"]
        if not isinstance(path, str) or type(object_id) is not int or object_id < 0:
            raise ValueError("path must be a string and id a non-negative int")
        if record.get("op") == "del":
            return path, object_id, None
        return path, object_id, self._decode(record)

    def _set(self, path: str, object_id: int, value: T | None) -> None:
        """Make ``value`` (None: absent) the entry of (path, id), as one more
        journal record. Called under the lock, once the record is durable."""
        bucket = self._buckets.get(path, {})
        old = bucket.get(object_id)
        if value is not None:
            bucket[object_id] = value
            self._buckets.setdefault(path, bucket)
            self._max_ids[path] = max(object_id, self._max_ids.get(path, 0))
        elif old is not None:
            del bucket[object_id]
        self._reindex(path, object_id, old, value)
        self.journal_position += 1

    def _line(self, record: dict) -> tuple[str, tuple[str, int, T | None]]:
        """The journal line of ``record`` and what replay reads back from it."""
        line = json.dumps(record)
        return line, self._read(decode(line, "json"))

    # Replay ---------------------------------------------------------------

    def _replay(self) -> None:
        if not self.location.exists():
            self.location.parent.mkdir(parents=True, exist_ok=True)
            self.location.touch()
            return
        lines = self.location.read_bytes().splitlines(keepends=True)
        offset = 0
        for i, raw in enumerate(lines):
            last = i == len(lines) - 1
            terminated = raw.endswith(b"\n")
            if not raw.strip():
                offset += len(raw)
                continue
            try:
                record = decode(raw, "json")
            except ValueError:      # DocumentSyntaxError is one
                record = None
            if not isinstance(record, dict) or not terminated:
                # A record is committed only once newline-terminated; an
                # unparseable or unterminated tail is a torn write.
                if last:
                    logger.warning("discarding partial trailing record in %s",
                                   self.location)
                    with open(self.location, "r+b") as fh:
                        fh.truncate(offset)
                    return
                raise CorruptJournalError(
                    f"{self.location}: damaged record at line {i + 1}")
            try:
                self._set(*self._read(record))
            except (KeyError, TypeError, ValueError) as exc:
                raise CorruptJournalError(
                    f"{self.location}: malformed record at line {i + 1}: {exc}"
                ) from exc
            offset += len(raw)

    # Mutation -------------------------------------------------------------

    def _append(self, line: str) -> None:
        try:
            self._fh.write(line + "\n")
            self._fh.flush()
            os.fsync(self._fh.fileno())
        except OSError as exc:
            raise StorageError(f"append to {self.location} failed: {exc}") from exc

    def put(self, value: T) -> T:
        """Upsert; durable before return; returns the value held, which is
        what replay reads back. ``ValueError``, and nothing written, for a
        value whose record replay would refuse."""
        line, entry = self._line(self._encode(value))
        with self._lock:
            self._append(line)
            self._set(*entry)
        return entry[2]

    def delete(self, path: str, object_id: int) -> None:
        """Append a tombstone; raises if the key is absent."""
        line, entry = self._line({"op": "del", "id": object_id, "path": path})
        with self._lock:
            if self.get(path, object_id) is None:
                raise NoSuchObjectError(f"no entry for id={object_id} path={path!r}")
            self._append(line)
            self._set(*entry)

    # Reads ----------------------------------------------------------------

    def get(self, path: str, object_id: int) -> T | None:
        bucket = self._buckets.get(path)
        return bucket.get(object_id) if bucket is not None else None

    def in_path(self, path: str) -> list[T]:
        """Snapshot of the live entries of one path, ordered by id."""
        snapshot = self._buckets.get(path, {}).copy()
        return [snapshot[object_id] for object_id in sorted(snapshot)]

    def entries(self) -> list[T]:
        """Snapshot of live entries, ordered by (path, id)."""
        return [value for path in sorted(self._buckets.copy())
                for value in self.in_path(path)]

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.copy().values())

    def next_id(self, path: str) -> int:
        """Next monotonic object id for a path (1-based; replay-derived)."""
        return self._max_ids.get(path, 0) + 1

    # Maintenance ----------------------------------------------------------

    def compact(self) -> int:
        """Rewrite the journal with live entries only; returns records written.

        Only the file changes: memory already holds what replaying the new
        file builds, so readers see every entry throughout. Drops history, so
        ids of deleted objects may be handed out again by :meth:`next_id`
        after a reopen.
        """
        with self._lock:
            live = self.entries()
            tmp = self.location.with_suffix(self.location.suffix + ".compact")
            with open(tmp, "w", encoding="utf-8") as fh:
                for value in live:
                    fh.write(json.dumps(self._encode(value)) + "\n")
                fh.flush()
                os.fsync(fh.fileno())
            self._fh.close()
            os.replace(tmp, self.location)
            self._fh = open(self.location, "a", encoding="utf-8")
            self.journal_position = len(live)
            return len(live)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False


class AclStore(JournalStore[AccessControlEntry]):
    """ACL persistence; each upsert line is exactly the wire-format entry.

    Keeps a reader index ``(path, user) -> ids`` so that the objects a user
    may read on a path are found without scanning the path.
    """

    def __init__(self, location: str | Path):
        self._readers: dict[tuple[str, str], set[int]] = {}
        super().__init__(location)

    def _encode(self, value: AccessControlEntry) -> dict:
        return value.to_record()

    def _decode(self, record: dict) -> AccessControlEntry:
        return AccessControlEntry.from_record(record)

    def _reindex(self, path: str, object_id: int, old: AccessControlEntry | None,
                 new: AccessControlEntry | None) -> None:
        before = old.readers() if old is not None else ()
        after = new.readers() if new is not None else ()
        for user in before:
            if user not in after:
                ids = self._readers.get((path, user))
                if ids is not None:     # None if ``before`` names a user twice
                    ids.discard(object_id)
                    if not ids:
                        del self._readers[(path, user)]
        for user in after:
            if user not in before:
                ids = self._readers.get((path, user))
                if ids is None:
                    self._readers[(path, user)] = {object_id}
                else:
                    ids.add(object_id)

    def readable_ids(self, path: str, user_id: str) -> list[int]:
        """Ids of the live entries of ``path`` that ``user_id`` may read, sorted."""
        ids = self._readers.get((path, user_id))
        # sorted() copies the set of ints in one C call, so no writer tears it.
        return sorted(ids) if ids else []


class StoredObject(dict):
    """A held ``{"id", "path", "body"}`` record that keeps its reply."""

    __slots__ = ("_reply",)

    @property
    def reply(self) -> bytes:
        """``{"id": id, **body}`` as JSON, the server's id over the body's."""
        try:
            return self._reply
        except AttributeError:  # first use; a racing reader stores equal bytes
            view = {"id": self["id"], **self["body"]}
            view["id"] = self["id"]
            self._reply = json.dumps(view).encode()
            return self._reply


class ObjectStore(JournalStore[StoredObject]):
    """Journal of stored object bodies: ``{"id", "path", "body"}`` records,
    held as :class:`StoredObject`."""

    def _encode(self, value: dict) -> dict:
        return {"id": value["id"], "path": value["path"], "body": value["body"]}

    def _decode(self, record: dict) -> StoredObject:
        if not isinstance(record["body"], dict):
            raise ValueError("body must be an object")
        return StoredObject(id=record["id"], path=record["path"], body=record["body"])
