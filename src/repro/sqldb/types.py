"""SQL type system for the relational engine.

Each column carries an instance of a :class:`SqlType` subclass.  Types know
how to validate and coerce Python values, how to render SQL literals, and
how to serialise values to and from JSON for the write-ahead log.

Large-object and external-data values get dedicated wrapper classes:

* :class:`Blob` — binary large object stored *inside* the database,
* :class:`Clob` — character large object stored *inside* the database,
* :class:`DatalinkValue` — a reference to a file stored *outside* the
  database, per SQL/MED (ISO/IEC 9075-9).  The value is inserted as a plain
  URL ``http://host/fs/dir/name`` and, when the column is declared with
  ``READ PERMISSION DB``, selected back as a token-prefixed URL
  ``http://host/fs/dir/token;name`` (the token is attached by the datalink
  manager at SELECT time, not stored).
"""

from __future__ import annotations

import base64
import datetime as _dt
from typing import Any
from urllib.parse import urlsplit

from repro.errors import InvalidDatalinkValue, TypeMismatchError

__all__ = [
    "SqlType",
    "IntegerType",
    "DoubleType",
    "BooleanType",
    "VarcharType",
    "CharType",
    "DateType",
    "TimestampType",
    "BlobType",
    "ClobType",
    "DatalinkType",
    "Blob",
    "Clob",
    "DatalinkValue",
    "type_from_name",
    "value_to_json",
    "value_from_json",
]


class Blob:
    """A binary large object stored inside the database.

    The web layer renders BLOB cells as hyperlinks showing the object size;
    following the link *rematerialises* the bytes with an appropriate MIME
    type (paper: "BLOB and CLOB types also contain hypertext links that
    rematerialise the underlying objects").
    """

    __slots__ = ("data", "mime_type")

    def __init__(self, data: bytes, mime_type: str = "application/octet-stream") -> None:
        if not isinstance(data, (bytes, bytearray)):
            raise TypeMismatchError(f"Blob requires bytes, got {type(data).__name__}")
        self.data = bytes(data)
        self.mime_type = mime_type

    def __len__(self) -> int:
        return len(self.data)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Blob) and self.data == other.data

    def __hash__(self) -> int:
        return hash(self.data)

    def __repr__(self) -> str:
        return f"Blob({len(self.data)} bytes, {self.mime_type!r})"


class Clob:
    """A character large object stored inside the database."""

    __slots__ = ("text", "mime_type")

    def __init__(self, text: str, mime_type: str = "text/plain") -> None:
        if not isinstance(text, str):
            raise TypeMismatchError(f"Clob requires str, got {type(text).__name__}")
        self.text = text
        self.mime_type = mime_type

    def __len__(self) -> int:
        return len(self.text)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Clob) and self.text == other.text

    def __hash__(self) -> int:
        return hash(self.text)

    def __repr__(self) -> str:
        return f"Clob({len(self.text)} chars, {self.mime_type!r})"


class DatalinkValue:
    """A DATALINK value: a URL naming a file that lives outside the database.

    Per SQL/MED, the value entered via INSERT/UPDATE has the form::

        http://host/filesystem/directory/filename

    and a SELECT against a ``READ PERMISSION DB`` column yields::

        http://host/filesystem/directory/access_token;filename

    ``token`` is ``None`` for stored values; the datalink manager attaches a
    fresh token when producing result sets.
    """

    __slots__ = ("scheme", "host", "directory", "filename", "token", "size")

    def __init__(
        self,
        url: str,
        token: str | None = None,
        size: int | None = None,
    ) -> None:
        parsed = urlsplit(url)
        if parsed.scheme not in ("http", "https", "file", "ftp"):
            raise InvalidDatalinkValue(
                f"DATALINK URL must use http/https/file/ftp scheme: {url!r}"
            )
        if parsed.scheme != "file" and not parsed.netloc:
            raise InvalidDatalinkValue(f"DATALINK URL has no host: {url!r}")
        path = parsed.path
        if not path or path.endswith("/"):
            raise InvalidDatalinkValue(f"DATALINK URL has no filename: {url!r}")
        directory, _, filename = path.rpartition("/")
        if not filename:
            raise InvalidDatalinkValue(f"DATALINK URL has no filename: {url!r}")
        self.scheme = parsed.scheme
        self.host = parsed.netloc
        self.directory = directory or "/"
        self.filename = filename
        self.token = token
        self.size = size

    @property
    def url(self) -> str:
        """The plain URL (no access token), as stored in the database."""
        directory = self.directory.rstrip("/")
        return f"{self.scheme}://{self.host}{directory}/{self.filename}"

    @property
    def tokenized_url(self) -> str:
        """The SELECT-form URL ``.../access_token;filename``.

        Falls back to the plain URL when no token is attached (columns
        declared with ``READ PERMISSION FS``).
        """
        if self.token is None:
            return self.url
        directory = self.directory.rstrip("/")
        return f"{self.scheme}://{self.host}{directory}/{self.token};{self.filename}"

    @property
    def server_path(self) -> str:
        """The path component used to address the file on its file server."""
        directory = self.directory.rstrip("/")
        return f"{directory}/{self.filename}"

    def with_token(self, token: str) -> "DatalinkValue":
        """Return a copy of this value carrying ``token``."""
        return DatalinkValue(self.url, token=token, size=self.size)

    def with_size(self, size: int) -> "DatalinkValue":
        """Return a copy of this value annotated with the linked file size."""
        return DatalinkValue(self.url, token=self.token, size=size)

    @classmethod
    def parse_tokenized(cls, url: str) -> "DatalinkValue":
        """Parse a SELECT-form URL, splitting ``token;filename`` if present."""
        parsed = urlsplit(url)
        directory, _, last = parsed.path.rpartition("/")
        if ";" in last:
            token, _, filename = last.partition(";")
            plain = f"{parsed.scheme}://{parsed.netloc}{directory}/{filename}"
            return cls(plain, token=token)
        return cls(url)

    def __eq__(self, other: object) -> bool:
        # Token and size are presentation attributes: equality (and hence
        # uniqueness/index behaviour) is defined over the plain URL.
        return isinstance(other, DatalinkValue) and self.url == other.url

    def __hash__(self) -> int:
        return hash(self.url)

    def __repr__(self) -> str:
        return f"DatalinkValue({self.tokenized_url!r})"


class SqlType:
    """Base class for SQL column types."""

    #: keyword used in DDL, e.g. ``VARCHAR``
    name: str = "?"

    def validate(self, value: Any) -> Any:
        """Coerce ``value`` to this type, raising :class:`TypeMismatchError`.

        ``None`` (SQL NULL) is always accepted here; NOT NULL enforcement
        belongs to the constraint layer.
        """
        if value is None:
            return None
        return self._coerce(value)

    def _coerce(self, value: Any) -> Any:
        raise NotImplementedError

    def to_literal(self, value: Any) -> str:
        """Render ``value`` as an SQL literal (used by dump/backup tools)."""
        if value is None:
            return "NULL"
        return self._literal(value)

    def _literal(self, value: Any) -> str:
        return str(value)

    def ddl(self) -> str:
        """The DDL spelling of this type."""
        return self.name

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self.__dict__ == other.__dict__

    def __hash__(self) -> int:
        return hash(self.ddl())

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class AnyType(SqlType):
    """Permissive type used for view columns, whose values were already
    validated by the underlying tables when they were stored."""

    name = "ANY"

    def _coerce(self, value: Any) -> Any:
        return value


class IntegerType(SqlType):
    """64-bit style integer column."""

    name = "INTEGER"

    def _coerce(self, value: Any) -> int:
        if isinstance(value, bool):
            raise TypeMismatchError("INTEGER column cannot store a boolean")
        if isinstance(value, int):
            return value
        if isinstance(value, float) and value.is_integer():
            return int(value)
        if isinstance(value, str):
            try:
                return int(value, 10)
            except ValueError:
                pass
        raise TypeMismatchError(f"not an INTEGER: {value!r}")


class DoubleType(SqlType):
    """Double-precision floating point column (DOUBLE / FLOAT / REAL)."""

    name = "DOUBLE"

    def _coerce(self, value: Any) -> float:
        if isinstance(value, bool):
            raise TypeMismatchError("DOUBLE column cannot store a boolean")
        if isinstance(value, (int, float)):
            return float(value)
        if isinstance(value, str):
            try:
                return float(value)
            except ValueError:
                pass
        raise TypeMismatchError(f"not a DOUBLE: {value!r}")


class BooleanType(SqlType):
    """Boolean column."""

    name = "BOOLEAN"

    def _coerce(self, value: Any) -> bool:
        if isinstance(value, bool):
            return value
        if isinstance(value, int) and value in (0, 1):
            return bool(value)
        if isinstance(value, str) and value.upper() in ("TRUE", "FALSE"):
            return value.upper() == "TRUE"
        raise TypeMismatchError(f"not a BOOLEAN: {value!r}")

    def _literal(self, value: Any) -> str:
        return "TRUE" if value else "FALSE"


def _escape_sql_string(text: str) -> str:
    return "'" + text.replace("'", "''") + "'"


class VarcharType(SqlType):
    """Variable-length string with a maximum size."""

    name = "VARCHAR"

    def __init__(self, size: int = 255) -> None:
        if size <= 0:
            raise TypeMismatchError("VARCHAR size must be positive")
        self.size = size

    def _coerce(self, value: Any) -> str:
        if isinstance(value, (bytes, Blob, Clob, DatalinkValue, bool)):
            raise TypeMismatchError(f"not a VARCHAR: {value!r}")
        text = value if isinstance(value, str) else str(value)
        if len(text) > self.size:
            raise TypeMismatchError(
                f"value of length {len(text)} exceeds VARCHAR({self.size})"
            )
        return text

    def _literal(self, value: Any) -> str:
        return _escape_sql_string(value)

    def ddl(self) -> str:
        return f"VARCHAR({self.size})"

    def __repr__(self) -> str:
        return f"VarcharType({self.size})"


class CharType(VarcharType):
    """Fixed-length string; values are space-padded on storage."""

    name = "CHAR"

    def _coerce(self, value: Any) -> str:
        text = super()._coerce(value)
        return text.ljust(self.size)

    def ddl(self) -> str:
        return f"CHAR({self.size})"

    def __repr__(self) -> str:
        return f"CharType({self.size})"


class DateType(SqlType):
    """Calendar date column; accepts ``datetime.date`` or ISO strings."""

    name = "DATE"

    def _coerce(self, value: Any) -> _dt.date:
        if isinstance(value, _dt.datetime):
            return value.date()
        if isinstance(value, _dt.date):
            return value
        if isinstance(value, str):
            try:
                return _dt.date.fromisoformat(value)
            except ValueError:
                pass
        raise TypeMismatchError(f"not a DATE: {value!r}")

    def _literal(self, value: Any) -> str:
        return f"DATE '{value.isoformat()}'"


class TimestampType(SqlType):
    """Timestamp column; accepts ``datetime.datetime`` or ISO strings."""

    name = "TIMESTAMP"

    def _coerce(self, value: Any) -> _dt.datetime:
        if isinstance(value, _dt.datetime):
            return value
        if isinstance(value, _dt.date):
            return _dt.datetime(value.year, value.month, value.day)
        if isinstance(value, str):
            try:
                return _dt.datetime.fromisoformat(value)
            except ValueError:
                pass
        raise TypeMismatchError(f"not a TIMESTAMP: {value!r}")

    def _literal(self, value: Any) -> str:
        return f"TIMESTAMP '{value.isoformat(sep=' ')}'"


class BlobType(SqlType):
    """Binary large object stored inside the database."""

    name = "BLOB"

    def _coerce(self, value: Any) -> Blob:
        if isinstance(value, Blob):
            return value
        if isinstance(value, (bytes, bytearray)):
            return Blob(bytes(value))
        raise TypeMismatchError(f"not a BLOB: {value!r}")

    def _literal(self, value: Any) -> str:
        return "X'" + value.data.hex() + "'"


class ClobType(SqlType):
    """Character large object stored inside the database."""

    name = "CLOB"

    def _coerce(self, value: Any) -> Clob:
        if isinstance(value, Clob):
            return value
        if isinstance(value, str):
            return Clob(value)
        raise TypeMismatchError(f"not a CLOB: {value!r}")

    def _literal(self, value: Any) -> str:
        return _escape_sql_string(value.text)


class DatalinkType(SqlType):
    """SQL/MED DATALINK column type.

    The column options (``LINKTYPE URL``, ``FILE LINK CONTROL``,
    ``READ PERMISSION DB`` ...) are carried by a
    :class:`repro.datalink.spec.DatalinkSpec` attached by the DDL parser.
    The type itself only validates values; enforcement of link control is
    performed by the datalink manager registered with the database.
    """

    name = "DATALINK"

    def __init__(self, spec: Any = None) -> None:
        #: parsed column options; ``None`` means NO LINK CONTROL defaults
        self.spec = spec

    def _coerce(self, value: Any) -> DatalinkValue:
        if isinstance(value, DatalinkValue):
            return value
        if isinstance(value, str):
            return DatalinkValue(value)
        raise TypeMismatchError(f"not a DATALINK: {value!r}")

    def _literal(self, value: Any) -> str:
        return f"DLVALUE({_escape_sql_string(value.url)})"

    def ddl(self) -> str:
        if self.spec is None:
            return self.name
        return f"{self.name} {self.spec.ddl()}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DatalinkType)

    def __hash__(self) -> int:
        return hash(self.name)


_SIMPLE_TYPES = {
    "INTEGER": IntegerType,
    "INT": IntegerType,
    "BIGINT": IntegerType,
    "SMALLINT": IntegerType,
    "DOUBLE": DoubleType,
    "FLOAT": DoubleType,
    "REAL": DoubleType,
    "BOOLEAN": BooleanType,
    "DATE": DateType,
    "TIMESTAMP": TimestampType,
    "BLOB": BlobType,
    "CLOB": ClobType,
    "DATALINK": DatalinkType,
}

_SIZED_TYPES = {
    "VARCHAR": VarcharType,
    "CHAR": CharType,
}


def type_from_name(name: str, size: int | None = None) -> SqlType:
    """Construct a type instance from its DDL keyword.

    >>> type_from_name("VARCHAR", 30).ddl()
    'VARCHAR(30)'
    >>> type_from_name("INT").name
    'INTEGER'
    """
    keyword = name.upper()
    if keyword in _SIZED_TYPES:
        if size is None:
            size = 255
        return _SIZED_TYPES[keyword](size)
    if keyword in _SIMPLE_TYPES:
        return _SIMPLE_TYPES[keyword]()
    raise TypeMismatchError(f"unknown SQL type: {name!r}")


# ---------------------------------------------------------------------------
# JSON serialisation for the write-ahead log and backup images
# ---------------------------------------------------------------------------


def value_to_json(value: Any) -> Any:
    """Encode a column value as a JSON-compatible object.

    Plain scalars pass through; richer values become tagged 2-lists so that
    :func:`value_from_json` can reverse the encoding exactly.
    """
    if value is None or isinstance(value, (int, float, str, bool)):
        return value
    if isinstance(value, Blob):
        return ["blob", base64.b64encode(value.data).decode("ascii"), value.mime_type]
    if isinstance(value, Clob):
        return ["clob", value.text, value.mime_type]
    if isinstance(value, DatalinkValue):
        return ["datalink", value.url]
    if isinstance(value, _dt.datetime):
        return ["timestamp", value.isoformat()]
    if isinstance(value, _dt.date):
        return ["date", value.isoformat()]
    raise TypeMismatchError(f"cannot serialise value for WAL: {value!r}")


def value_from_json(obj: Any) -> Any:
    """Reverse :func:`value_to_json`."""
    if not isinstance(obj, list):
        return obj
    tag = obj[0]
    if tag == "blob":
        return Blob(base64.b64decode(obj[1]), obj[2])
    if tag == "clob":
        return Clob(obj[1], obj[2])
    if tag == "datalink":
        return DatalinkValue(obj[1])
    if tag == "timestamp":
        return _dt.datetime.fromisoformat(obj[1])
    if tag == "date":
        return _dt.date.fromisoformat(obj[1])
    raise TypeMismatchError(f"unknown WAL value tag: {tag!r}")
