"""Row storage: heaps, indexes, and per-table constraint enforcement.

A :class:`Table` owns a heap of row tuples keyed by rowid plus any number of
indexes.  The primary key and every UNIQUE set automatically get a unique
hash index; ``CREATE INDEX`` adds further hash or sorted indexes.  Type and
NOT NULL validation happen in the schema layer; uniqueness is enforced
here; referential integrity spans tables and is enforced by the database
facade.

Concurrency (MVCC-lite)
-----------------------

The heap keeps enough version history for readers to scan a *stable
snapshot* while a single serialized writer mutates the live rows:

* a :class:`VersionClock` ticks once per committed writing transaction;
  ``clock.pending`` is the sequence number the open transaction's changes
  will become visible at,
* every live row remembers the sequence it was created at,
* deleting or rewriting a *committed* row first pushes the old version —
  ``(created, deleted, row)`` — onto that rowid's history list.

A version is visible at snapshot ``S`` iff ``created <= S < deleted``
(live rows have ``deleted = infinity``).  Because there is at most one
writer, a rowid never has more than one version visible at any snapshot.
History entries whose ``deleted`` is at or below the oldest snapshot still
registered are pruned at commit (see ``TransactionManager``).

Indexes describe the live heap only.  Snapshot reads (``TableSnapshot``)
take no lock, relying on the GIL's atomic dict and list copies, so
mutation orders its bookkeeping to keep them exact: ``Table.version_seq``
rises first, history is recorded before the live row vanishes or its
index entries move, and a row's created-sequence advances before its new
image lands.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import Any, Sequence

from repro.errors import CatalogError, TypeMismatchError, UniqueViolation

__all__ = ["Heap", "HashIndex", "SortedIndex", "Table", "VersionClock"]


class VersionClock:
    """Monotonic commit counter shared by every table of one database.

    ``committed`` is the sequence of the most recent committed writing
    transaction; ``pending`` is the sequence the currently open writer's
    changes will carry.  Bumped only under the writer lock, so plain int
    assignment is safe.
    """

    __slots__ = ("committed",)

    def __init__(self) -> None:
        self.committed = 0

    @property
    def pending(self) -> int:
        return self.committed + 1

    def commit(self) -> int:
        """Make the pending generation visible; returns the new sequence."""
        self.committed += 1
        return self.committed


class Heap:
    """Append-mostly row store addressed by integer rowids."""

    def __init__(self, clock: VersionClock | None = None) -> None:
        self._rows: dict[int, tuple] = {}
        self._next_rowid = 1
        self.clock = clock if clock is not None else VersionClock()
        #: rowid -> sequence the live row became (or will become) visible at
        self._created: dict[int, int] = {}
        #: rowid -> [(created, deleted, row), ...] superseded versions
        self._history: dict[int, list[tuple[int, int, tuple]]] = {}

    def insert(self, row: tuple, rowid: int | None = None) -> int:
        """Store ``row``; returns its rowid.

        An explicit ``rowid`` is used by rollback/recovery to reinstate a
        row under its original identity.
        """
        if rowid is None:
            rowid = self._next_rowid
            self._next_rowid += 1
        else:
            if rowid in self._rows:
                raise CatalogError(f"rowid {rowid} already present")
            self._next_rowid = max(self._next_rowid, rowid + 1)
        # created must land before the row so a concurrent snapshot scan
        # that sees the row also sees that it is not yet committed
        self._created[rowid] = self.clock.pending
        self._rows[rowid] = row
        return rowid

    def delete(self, rowid: int) -> tuple:
        try:
            row = self._rows[rowid]
        except KeyError:
            raise CatalogError(f"no row with rowid {rowid}") from None
        created = self._created.get(rowid, 0)
        if created <= self.clock.committed:
            # committed version: keep it readable for older snapshots
            self._history.setdefault(rowid, []).append(
                (created, self.clock.pending, row)
            )
        del self._rows[rowid]
        self._created.pop(rowid, None)
        return row

    def update(self, rowid: int, row: tuple) -> tuple:
        try:
            old = self._rows[rowid]
        except KeyError:
            raise CatalogError(f"no row with rowid {rowid}") from None
        created = self._created.get(rowid, 0)
        if created <= self.clock.committed:
            self._history.setdefault(rowid, []).append(
                (created, self.clock.pending, old)
            )
            # advance created before the new image lands: a scan that sees
            # the new row must classify it as uncommitted
            self._created[rowid] = self.clock.pending
        self._rows[rowid] = row
        return old

    def rewrite(self, rowid: int, row: tuple) -> None:
        """Replace a row in place with *no* version bookkeeping.

        Used by schema evolution (ALTER TABLE backfills), where every
        stored row changes arity and historical versions become
        meaningless; callers clear the history afterwards.
        """
        if rowid not in self._rows:
            raise CatalogError(f"no row with rowid {rowid}")
        self._rows[rowid] = row

    def get(self, rowid: int) -> tuple:
        try:
            return self._rows[rowid]
        except KeyError:
            raise CatalogError(f"no row with rowid {rowid}") from None

    def scan(self) -> list[tuple[int, tuple]]:
        """The live ``(rowid, row)`` pairs in insertion order (a copy)."""
        return list(self._rows.items())

    # -- snapshot reads ---------------------------------------------------------

    def scan_at(self, snapshot: int) -> list[tuple[int, tuple]]:
        """``(rowid, row)`` pairs visible at ``snapshot``, lock-free.

        Safe against one concurrent writer: ``list(dict.items())`` is
        atomic under the GIL, mutation records history before removing
        live rows, and a live row whose created-sequence vanished mid-scan
        is deferred to the history pass (which then has the authoritative
        version interval).
        """
        out: list[tuple[int, tuple]] = []
        live_seen: set[int] = set()
        for rowid, row in list(self._rows.items()):
            created = self._created.get(rowid)
            if created is None:
                continue  # deleted under us; the history pass decides
            if created <= snapshot:
                out.append((rowid, row))
                live_seen.add(rowid)
        for rowid, versions in list(self._history.items()):
            if rowid in live_seen:
                continue
            for created, deleted, row in list(versions):
                if created <= snapshot < deleted:
                    out.append((rowid, row))
                    break
        return out

    def version_at(self, rowid: int, snapshot: int) -> tuple | None:
        """The version of ``rowid`` visible at ``snapshot``, or None."""
        row = self._rows.get(rowid)
        if row is not None:
            created = self._created.get(rowid)
            if created is not None and created <= snapshot:
                return row
        for created, deleted, old in list(self._history.get(rowid, ())):
            if created <= snapshot < deleted:
                return old
        return None

    def get_at(self, rowid: int, snapshot: int) -> tuple:
        """The version of ``rowid`` visible at ``snapshot``."""
        row = self.version_at(rowid, snapshot)
        if row is None:
            raise CatalogError(f"rowid {rowid} has no version at {snapshot}")
        return row

    def history_rowids(self) -> list[int]:
        """Rowids with retained superseded versions, copied atomically."""
        return list(self._history)

    def prune_history(self, floor: int) -> int:
        """Drop versions invisible to every snapshot at or above ``floor``.

        Returns the number of versions removed.  Called at commit with the
        oldest registered snapshot (or the new committed sequence when no
        snapshot is active).
        """
        removed = 0
        for rowid in list(self._history):
            versions = self._history.get(rowid)
            if versions is None:
                continue
            keep = [v for v in versions if v[1] > floor]
            removed += len(versions) - len(keep)
            if keep:
                self._history[rowid] = keep
            else:
                self._history.pop(rowid, None)
        return removed

    def clear_history(self) -> None:
        self._history.clear()

    @property
    def history_versions(self) -> int:
        """Total retained superseded versions (observability)."""
        return sum(len(v) for v in list(self._history.values()))

    def __len__(self) -> int:
        return len(self._rows)


class _NullsFirstKey:
    """Total order over heterogeneous index keys: NULLs sort first, then by
    value.  Only comparable values land in the same index, so the fallback
    to type-name ordering is defensive."""

    __slots__ = ("key",)

    def __init__(self, key: tuple) -> None:
        self.key = key

    def _rank(self) -> tuple:
        out = []
        for part in self.key:
            if part is None:
                out.append((0, 0))
            elif isinstance(part, bool):
                out.append((1, int(part)))
            elif isinstance(part, (int, float)):
                out.append((2, part))
            else:
                out.append((3, part))
        return tuple(out)

    def __lt__(self, other: "_NullsFirstKey") -> bool:
        try:
            return self._rank() < other._rank()
        except TypeError:
            return str(self.key) < str(other.key)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _NullsFirstKey) and self.key == other.key

    def __hash__(self) -> int:
        try:
            return hash(self.key)
        except TypeError:
            return hash(repr(self.key))


class HashIndex:
    """Equality index over one or more columns."""

    def __init__(self, name: str, columns: Sequence[str], unique: bool = False) -> None:
        self.name = name
        self.columns = tuple(c.upper() for c in columns)
        self.unique = unique
        self._entries: dict[tuple, set[int]] = {}

    @staticmethod
    def _hashable(key: tuple) -> tuple:
        out = []
        for part in key:
            try:
                hash(part)
            except TypeError:
                part = repr(part)
            out.append(part)
        return tuple(out)

    def add(self, key: tuple, rowid: int) -> None:
        if any(part is None for part in key):
            # SQL unique semantics: NULLs never collide and are not indexed.
            return
        key = self._hashable(key)
        bucket = self._entries.setdefault(key, set())
        if self.unique and bucket:
            raise UniqueViolation(
                f"duplicate key {key!r} for unique index {self.name}"
            )
        bucket.add(rowid)

    def remove(self, key: tuple, rowid: int) -> None:
        if any(part is None for part in key):
            return
        key = self._hashable(key)
        bucket = self._entries.get(key)
        if bucket:
            bucket.discard(rowid)
            if not bucket:
                del self._entries[key]

    def find(self, key: tuple) -> set[int]:
        if any(part is None for part in key):
            return set()
        return set(self._entries.get(self._hashable(key), ()))

    def contains(self, key: tuple) -> bool:
        if any(part is None for part in key):
            return False
        return self._hashable(key) in self._entries

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._entries.values())


class SortedIndex:
    """Ordered index supporting range scans (used for BETWEEN / inequality
    lookups on indexed columns)."""

    def __init__(self, name: str, columns: Sequence[str], unique: bool = False) -> None:
        self.name = name
        self.columns = tuple(c.upper() for c in columns)
        self.unique = unique
        self._entries: list[tuple[_NullsFirstKey, int]] = []

    def add(self, key: tuple, rowid: int) -> None:
        if any(part is None for part in key):
            return
        wrapped = _NullsFirstKey(key)
        if self.unique:
            i = bisect_left(self._entries, (wrapped, -1))
            if i < len(self._entries) and self._entries[i][0] == wrapped:
                raise UniqueViolation(
                    f"duplicate key {key!r} for unique index {self.name}"
                )
        insort(self._entries, (wrapped, rowid))

    def remove(self, key: tuple, rowid: int) -> None:
        if any(part is None for part in key):
            return
        wrapped = _NullsFirstKey(key)
        i = bisect_left(self._entries, (wrapped, rowid))
        if i < len(self._entries) and self._entries[i] == (wrapped, rowid):
            del self._entries[i]

    def find(self, key: tuple) -> set[int]:
        wrapped = _NullsFirstKey(key)
        lo = bisect_left(self._entries, (wrapped, -1))
        hi = bisect_right(self._entries, (wrapped, float("inf")), lo)
        return {rowid for _key, rowid in self._entries[lo:hi]}

    def contains(self, key: tuple) -> bool:
        return bool(self.find(key))

    def copy(self) -> "SortedIndex":
        """A private copy of the entries.  Binary search calls back into
        Python for every comparison, so it is not atomic against a writer's
        ``insort``; lock-free readers search a copy instead."""
        clone = SortedIndex(self.name, self.columns, self.unique)
        clone._entries = list(self._entries)
        return clone

    def range_scan(
        self,
        low: tuple | None = None,
        high: tuple | None = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> list[int]:
        """Rowids whose keys fall within ``[low, high]`` (None = unbounded)."""
        entries = self._entries
        lo = 0
        hi = len(entries)
        if low is not None:
            wrapped = _NullsFirstKey(low)
            lo = (
                bisect_left(entries, (wrapped, -1))
                if include_low
                else bisect_right(entries, (wrapped, float("inf")))
            )
        if high is not None:
            wrapped = _NullsFirstKey(high)
            hi = (
                bisect_right(entries, (wrapped, float("inf")))
                if include_high
                else bisect_left(entries, (wrapped, -1))
            )
        return [rowid for _, rowid in entries[lo:hi]]

    def __len__(self) -> int:
        return len(self._entries)


class Table:
    """Schema + heap + indexes, with uniqueness enforcement.

    All mutation goes through :meth:`insert` / :meth:`delete` /
    :meth:`update` so that every index stays consistent with the heap.
    """

    def __init__(self, schema, clock: VersionClock | None = None) -> None:
        self.schema = schema
        self.heap = Heap(clock)
        #: sequence of the youngest (possibly uncommitted) mutation; a
        #: snapshot ``S`` sees the table unchanged iff ``version_seq <= S``
        self.version_seq = 0
        self.indexes: dict[str, HashIndex | SortedIndex] = {}
        if schema.primary_key:
            self.add_index(
                HashIndex(f"PK_{schema.name}", schema.primary_key, unique=True)
            )
        for i, uniq in enumerate(schema.unique_sets):
            name = f"UQ_{schema.name}_{i}"
            if not self._covering_unique_index(uniq):
                self.add_index(HashIndex(name, uniq, unique=True))
        # Non-unique index on each FK column set speeds both joins and
        # the reverse (parent-delete) referential checks.
        for fk in schema.foreign_keys:
            name = f"IX_{schema.name}_{fk.name}"
            if name not in self.indexes:
                self.add_index(HashIndex(name, fk.columns, unique=False))

    def _covering_unique_index(self, columns: Sequence[str]) -> bool:
        wanted = tuple(c.upper() for c in columns)
        return any(
            index.unique and index.columns == wanted
            for index in self.indexes.values()
        )

    # -- index management ------------------------------------------------------

    def add_index(self, index: HashIndex | SortedIndex) -> None:
        if index.name in self.indexes:
            raise CatalogError(f"index {index.name} already exists")
        for column in index.columns:
            self.schema.column(column)  # raises on unknown column
        for rowid, row in self.heap.scan():
            index.add(self.schema.key_of(row, index.columns), rowid)
        self.indexes[index.name] = index

    def drop_index(self, name: str) -> None:
        try:
            del self.indexes[name]
        except KeyError:
            raise CatalogError(f"no index named {name}") from None

    def index_on(self, columns: Sequence[str], require_unique: bool = False):
        """Find an index whose key is exactly ``columns`` (any order not
        supported — QBE and FK lookups always use schema order)."""
        wanted = tuple(c.upper() for c in columns)
        for index in self.indexes.values():
            if index.columns == wanted and (index.unique or not require_unique):
                return index
        return None

    def index_leading_on(self, column: str):
        """An index whose first key column is ``column`` (single-column
        equality lookups can use any such index)."""
        column = column.upper()
        for index in self.indexes.values():
            if index.columns and index.columns[0] == column and len(index.columns) == 1:
                return index
        return None

    # -- mutation ---------------------------------------------------------------

    def insert(self, row: Sequence[Any], rowid: int | None = None) -> tuple[int, tuple]:
        """Validate and store ``row``; returns ``(rowid, stored_row)``."""
        validated = self.schema.validate_row(row)
        return self.insert_valid(validated, rowid), validated

    def insert_valid(self, row: tuple, rowid: int | None = None) -> int:
        """Store a row that :meth:`TableSchema.validate_row` returned (the
        SQL layer validates before its constraint checks, once); returns
        its rowid."""
        self._check_unique(row)
        self.version_seq = self.heap.clock.pending
        rowid = self.heap.insert(row, rowid)
        for index in self.indexes.values():
            index.add(self.schema.key_of(row, index.columns), rowid)
        return rowid

    def delete(self, rowid: int) -> tuple:
        self.version_seq = self.heap.clock.pending
        row = self.heap.delete(rowid)
        for index in self.indexes.values():
            index.remove(self.schema.key_of(row, index.columns), rowid)
        return row

    def update(self, rowid: int, new_row: Sequence[Any]) -> tuple[tuple, tuple]:
        """Validate and store ``new_row`` at ``rowid``; returns
        ``(old_row, new_row)``."""
        validated = self.schema.validate_row(new_row)
        return self.update_valid(rowid, validated), validated

    def update_valid(self, rowid: int, row: tuple) -> tuple:
        """Replace the row at ``rowid`` with an already validated ``row``;
        returns the old row."""
        old = self.heap.get(rowid)
        self._check_unique(row, ignore_rowid=rowid)
        self.version_seq = self.heap.clock.pending
        self.heap.update(rowid, row)
        for index in self.indexes.values():
            old_key = self.schema.key_of(old, index.columns)
            new_key = self.schema.key_of(row, index.columns)
            if old_key != new_key:
                index.remove(old_key, rowid)
                index.add(new_key, rowid)
        return old

    def _check_unique(self, row: tuple, ignore_rowid: int | None = None) -> None:
        for index in self.indexes.values():
            if not index.unique:
                continue
            key = self.schema.key_of(row, index.columns)
            hits = index.find(key)
            if ignore_rowid is not None:
                hits.discard(ignore_rowid)
            if hits:
                label = "primary key" if index.name.startswith("PK_") else "unique"
                raise UniqueViolation(
                    f"{label} violation on {self.schema.name}"
                    f"({', '.join(index.columns)}) = {key!r}"
                )

    # -- schema evolution ---------------------------------------------------------

    def add_column(self, column) -> None:
        """ALTER TABLE ADD COLUMN: append the column and backfill every
        stored row with its (validated) default."""
        if self.schema.has_column(column.name):
            raise CatalogError(
                f"column {column.name} already exists in {self.schema.name}"
            )
        default = column.type.validate(column.default)
        if default is None and not column.nullable and len(self.heap):
            raise CatalogError(
                f"cannot add NOT NULL column {column.name} without a "
                f"DEFAULT to a populated table"
            )
        self.schema.columns.append(column)
        self.schema._by_name[column.name] = len(self.schema.columns) - 1
        # Schema evolution rewrites rows in place (no per-row versions:
        # old-arity images would not match the mutated schema anyway).
        self.version_seq = self.heap.clock.pending
        for rowid, row in self.heap.scan():
            self.heap.rewrite(rowid, row + (default,))
        self.heap.clear_history()

    def drop_column(self, name: str) -> list:
        """ALTER TABLE DROP COLUMN: remove the column and its stored
        values.  Returns the dropped values (the database layer unlinks
        DATALINKs from them).  Key/indexed/checked columns are protected.
        """
        name = name.upper()
        index_position = self.schema.column_index(name)
        if name in self.schema.primary_key:
            raise CatalogError(f"cannot drop primary key column {name}")
        for uniq in self.schema.unique_sets:
            if name in uniq:
                raise CatalogError(f"cannot drop unique column {name}")
        for fk in self.schema.foreign_keys:
            if name in fk.columns:
                raise CatalogError(f"cannot drop foreign key column {name}")
        for index in self.indexes.values():
            if name in index.columns:
                raise CatalogError(
                    f"cannot drop column {name}: used by index {index.name}"
                )
        for check in self.schema.checks:
            if any(ref.column == name for ref in check.column_refs()):
                raise CatalogError(
                    f"cannot drop column {name}: used by a CHECK constraint"
                )
        dropped = []
        self.version_seq = self.heap.clock.pending
        for rowid, row in self.heap.scan():
            dropped.append(row[index_position])
            self.heap.rewrite(
                rowid, row[:index_position] + row[index_position + 1:]
            )
        self.heap.clear_history()
        del self.schema.columns[index_position]
        self.schema._by_name = {
            c.name: i for i, c in enumerate(self.schema.columns)
        }
        return dropped

    # -- access -------------------------------------------------------------------

    def scan(self) -> list[tuple[int, tuple]]:
        return self.heap.scan()

    def row(self, rowid: int) -> tuple:
        return self.heap.get(rowid)

    def lookup(self, index, key: tuple) -> list[tuple[int, tuple]]:
        """``(rowid, row)`` pairs whose ``index`` key equals ``key``, in
        rowid order (stable across runs, unlike set iteration)."""
        get = self.heap.get
        return [(rowid, get(rowid)) for rowid in sorted(index.find(key))]

    def range_lookup(self, index: SortedIndex, low, high,
                     include_low: bool = True,
                     include_high: bool = True) -> list[tuple[int, tuple]]:
        """``(rowid, row)`` pairs whose ``index`` key falls in the range,
        in (key, rowid) order."""
        get = self.heap.get
        return [
            (rowid, get(rowid))
            for rowid in index.range_scan(low, high, include_low, include_high)
        ]

    def __len__(self) -> int:
        return len(self.heap)
