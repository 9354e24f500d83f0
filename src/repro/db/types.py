"""Schemas, column types, and the binary row codec.

Rows are plain Python tuples in memory.  When a row is stored in a heap page
it is encoded to bytes with a compact, self-describing format so that pages
hold real serialized records (and page-level space accounting is honest).

Supported column types:

- ``STR``: UTF-8 string with a varint length prefix.  ``None`` is encoded as
  a distinct marker so nullable text columns round-trip exactly.
- ``INT``: signed 64-bit integer (zig-zag varint).
- ``INT_LIST``: a list of integers in ``[0, 2**63)`` — used for the ETI's
  ``Tid-list`` column.  ``None`` (the paper's stop-q-gram marker) is encoded
  distinctly from the empty list.  A list is a varint header ``count·4 +
  code``, its first element as a varint, then ``count − 1`` signed
  little-endian deltas, all at the one width ``code`` names (1, 2, 4 or 8
  bytes: the fewest that hold every delta).  Decoding is a slice into an
  :class:`array.array` and a running sum, both in C, so a tid costs no
  Python bytecode on the read path.
- ``FLOAT``: IEEE-754 double.
"""

from __future__ import annotations

import enum
import struct
import sys
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate
from operator import sub
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.db.errors import SchemaError

Row = tuple

_NULL_MARKER = 0xFFFFFFFF
_NULL_BYTES = b"\xff\xff\xff\xff\x0f"  # varint(_NULL_MARKER)
_DOUBLE = struct.Struct("<d")

# An int list's delta width by the code in its header: the array typecode
# of 1, 2, 4 and 8 signed bytes.  Deltas are stored little-endian.
_DELTA_TYPES = ("b", "h", "i", "q")
assert [array(t).itemsize for t in _DELTA_TYPES] == [1, 2, 4, 8]
_BIG_ENDIAN = sys.byteorder == "big"
# The delta-width code by the bit length of a delta's magnitude (``d``, or
# ``~d`` for a negative one): two's complement takes one bit more.
_CODE_BY_BITS = (0,) * 8 + (1,) * 8 + (2,) * 16 + (3,) * 32
# Elements are tids: the range of a signed 64-bit INT column.
_ELEMENT_LIMIT = 1 << 63
# The longest list whose header stays below _NULL_MARKER.
_MAX_LIST_LENGTH = _NULL_MARKER >> 2

_Checker = Callable[[Any], None]
_Encoder = Callable[[Any, bytearray], None]
_Decoder = Callable[[bytes, int], tuple[Any, int]]


class ColumnType(enum.Enum):
    """Storage type of a relation column."""

    STR = "str"
    INT = "int"
    INT_LIST = "int_list"
    FLOAT = "float"


@dataclass(frozen=True)
class Column:
    """A named, typed column.

    ``nullable`` columns accept ``None``; the ETI's Tid-list column is
    nullable because stop q-grams store NULL tid-lists (Section 4.2).
    """

    name: str
    type: ColumnType
    nullable: bool = False


def _derived() -> Any:
    """A field ``Schema.__init__`` computes: no argument, not part of equality."""
    return field(init=False, repr=False, compare=False, hash=False)


@dataclass(frozen=True)
class Schema:
    """An ordered list of columns; validates and encodes rows.

    The per-column checkers, encoders and decoders are picked once, at
    construction, so the row loop never dispatches on a column type.
    """

    columns: tuple[Column, ...]
    _index: dict[str, int] = _derived()
    _checkers: tuple[_Checker, ...] = _derived()
    _encoders: tuple[_Encoder, ...] = _derived()
    _decoders: tuple[_Decoder, ...] = _derived()

    def __init__(self, columns: Iterable[Column]) -> None:
        object.__setattr__(self, "columns", tuple(columns))
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in {names}")
        object.__setattr__(
            self, "_index", {c.name: i for i, c in enumerate(self.columns)}
        )
        object.__setattr__(self, "_checkers", tuple(_checker(c) for c in self.columns))
        object.__setattr__(
            self, "_encoders", tuple(_ENCODERS[c.type] for c in self.columns)
        )
        object.__setattr__(
            self, "_decoders", tuple(_DECODERS[c.type] for c in self.columns)
        )

    def __len__(self) -> int:
        return len(self.columns)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    def position(self, name: str) -> int:
        """Return the ordinal position of column ``name``."""
        try:
            return self._index[name]
        except KeyError:
            raise SchemaError(f"no column named {name!r}") from None

    def validate(self, row: Sequence[Any]) -> Row:
        """Check ``row`` against the schema and return it as a tuple."""
        if len(row) != len(self.columns):
            raise SchemaError(
                f"row has {len(row)} values, schema has {len(self.columns)} columns"
            )
        for value, check in zip(row, self._checkers):
            check(value)
        return tuple(row)

    def encode(self, row: Sequence[Any]) -> bytes:
        """Validate ``row`` and serialize it to bytes."""
        out = bytearray()
        for value, encoder in zip(self.validate(row), self._encoders):
            if value is None:
                out += _NULL_BYTES
            else:
                encoder(value, out)
        return bytes(out)

    def decode(self, data: bytes, leading: int | None = None) -> Row:
        """Deserialize bytes produced by :meth:`encode` back to a row.

        With ``leading`` given, only that many leading columns are decoded
        — exactly the prefix of the full decode.  Index builds read keys
        this way without paying for the tid-list behind them; the rest of
        the record is not parsed, so trailing bytes go unchecked.
        """
        decoders = self._decoders if leading is None else self._decoders[:leading]
        values: list[Any] = []
        offset = 0
        try:
            for decoder in decoders:
                value, offset = decoder(data, offset)
                values.append(value)
        except IndexError:
            raise SchemaError("truncated varint") from None
        if leading is None and offset != len(data):
            raise SchemaError(
                f"trailing bytes while decoding row ({len(data) - offset} left)"
            )
        return tuple(values)

    def prefix_size(self, data: bytes, leading: int) -> int:
        """Bytes the first ``leading`` columns of the encoded ``data`` take.

        Each column's encoding delimits itself, so two records whose first
        ``prefix_size`` bytes are equal decode to equal leading columns.
        """
        offset = 0
        try:
            for decoder in self._decoders[:leading]:
                _, offset = decoder(data, offset)
        except IndexError:
            raise SchemaError("truncated varint") from None
        return offset

    def splice(
        self,
        data: bytes,
        value: int,
        add: bool,
        ints: Mapping[str, int | None] | None = None,
    ) -> bytes | None:
        """The encoded row ``data`` with one value added to or removed from its list.

        The schema's last column must be an ``INT_LIST`` whose stored list
        is sorted without repeats, as the ETI keeps its tid-lists; ``ints``
        gives new values for named ``INT`` columns.  Only what changes is
        re-encoded: those columns and the list; the other columns are
        copied as bytes.  A value past the list's last element whose delta
        fits the list's width is appended as one delta behind the copied
        list (the last element is the first plus the sum of the deltas,
        summed in C); any other edit decodes the list, bisects, edits and
        encodes it, all without a Python loop over its elements.  The
        result equals :meth:`encode` of the edited row byte for byte.

        Returns None, leaving the caller to decode, edit and encode, when
        the list is NULL, when the edit is a no-op (adding a value already
        present, removing one absent), and when a remove would leave the
        list empty.  ``value`` and ``ints`` are validated like
        :meth:`validate` checks a row.
        """
        last = len(self.columns) - 1
        column = self.columns[last]
        if column.type is not ColumnType.INT_LIST:
            raise SchemaError(f"splice needs a trailing int list, not {column.name!r}")
        if not (isinstance(value, int) and 0 <= value < _ELEMENT_LIMIT):
            raise SchemaError(
                f"column {column.name!r} expects {_EXPECTS[column.type]}, "
                f"got element {value!r}"
            )
        replaced: dict[int, int | None] = {}
        for name, new in (ints or {}).items():
            position = self.position(name)
            if self.columns[position].type is not ColumnType.INT:
                raise SchemaError(f"splice replaces int columns only, not {name!r}")
            self._checkers[position](new)
            replaced[position] = new
        out = bytearray()
        offset = kept = 0
        try:
            for position, decoder in enumerate(self._decoders[:last]):
                start = offset
                _, offset = decoder(data, offset)
                if position in replaced:
                    out += data[kept:start]
                    new = replaced[position]
                    if new is None:
                        out += _NULL_BYTES
                    else:
                        _encode_int(new, out)
                    kept = offset
            header, start = _decode_varint(data, offset)
            if header == _NULL_MARKER or (not add and header < 8):
                return None  # NULL, or a remove that is a no-op or empties the list
            out += data[kept:offset]
            if header < 4:  # count 0
                _encode_int_list([value], out)
                return bytes(out)
            first, deltas, end = _decode_deltas(data, start, header)
        except IndexError:
            raise SchemaError("truncated varint") from None
        if add:
            code = header & 3
            step = value - first - sum(deltas)
            if 0 < step < _ELEMENT_LIMIT and _CODE_BY_BITS[step.bit_length()] <= code:
                _append_varint(out, header + 4)
                out += data[start:end]
                _append_deltas(out, array(_DELTA_TYPES[code], (step,)))
                return bytes(out)
        tids = list(accumulate(deltas, initial=first))
        at = bisect_left(tids, value)
        if (at < len(tids) and tids[at] == value) == add:
            return None
        if add:
            tids.insert(at, value)
        else:
            del tids[at]
        _encode_int_list(tids, out)
        return bytes(out)


# ----------------------------------------------------------------------
# Per-column checkers (picked once per schema)
# ----------------------------------------------------------------------


_ACCEPTED: dict[ColumnType, tuple[type, ...]] = {
    ColumnType.STR: (str,),
    ColumnType.INT: (int,),
    ColumnType.FLOAT: (int, float),
    ColumnType.INT_LIST: (list, tuple),
}

_EXPECTS = {
    ColumnType.STR: "str",
    ColumnType.INT: "int",
    ColumnType.FLOAT: "float",
    ColumnType.INT_LIST: "a list of non-negative ints below 2**63",
}


def _checker(column: Column) -> _Checker:
    """The function validating one value of ``column``."""
    name, nullable = column.name, column.nullable
    accepted = _ACCEPTED[column.type]
    expects = _EXPECTS[column.type]
    elements = column.type is ColumnType.INT_LIST

    def check(value: Any) -> None:
        if value is None:
            if not nullable:
                raise SchemaError(f"column {name!r} is not nullable")
        elif not isinstance(value, accepted) or (
            elements and not _valid_elements(value)
        ):
            raise SchemaError(f"column {name!r} expects {expects}, got {value!r}")

    return check


def _valid_elements(value: Sequence[Any]) -> bool:
    """Whether every element is an int in ``[0, 2**63)``, checked in C.

    ``array('q')`` admits exactly the ints below ``2**63``.
    """
    try:
        array("q", value)
    except (TypeError, OverflowError):
        return False
    return not value or min(value) >= 0


# ----------------------------------------------------------------------
# Varints
# ----------------------------------------------------------------------


def _append_varint(out: bytearray, value: int) -> None:
    """Append ``value`` as an unsigned LEB128 varint."""
    if value < 0:
        raise SchemaError("varint encodes non-negative integers only")
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _decode_varint(data: bytes, offset: int) -> tuple[int, int]:
    """``(value, next offset)``; running off the end raises IndexError."""
    byte = data[offset]
    offset += 1
    if byte < 0x80:
        return byte, offset
    result = byte & 0x7F
    shift = 7
    while True:
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if byte < 0x80:
            return result, offset
        shift += 7


def _zigzag(value: int) -> int:
    return (value << 1) ^ (value >> 63) if value < 0 else value << 1


def _unzigzag(value: int) -> int:
    return (value >> 1) ^ -(value & 1)


# ----------------------------------------------------------------------
# Per-type encoders: append one validated, non-NULL value to the buffer.
# Every value starts with a varint prefix; _NULL_MARKER there flags NULL.
# ----------------------------------------------------------------------


def _encode_str(value: str, out: bytearray) -> None:
    raw = value.encode("utf-8")
    _append_varint(out, len(raw))
    out += raw


def _encode_int(value: int, out: bytearray) -> None:
    out.append(0)
    _append_varint(out, _zigzag(value))


def _encode_float(value: float, out: bytearray) -> None:
    out.append(0)
    out += _DOUBLE.pack(float(value))


def _encode_int_list(value: Sequence[int], out: bytearray) -> None:
    count = len(value)
    if count >= _MAX_LIST_LENGTH:
        raise SchemaError("int list too long to encode")
    if count < 2:  # no deltas: width code 0
        _append_varint(out, count << 2)
        if count:
            _append_varint(out, value[0])
        return
    deltas = list(map(sub, value[1:], value))
    # The narrowest width holding every delta: ~low is a negative low's
    # magnitude less one, which is what its two's complement needs.
    code = _CODE_BY_BITS[max(max(deltas), ~min(deltas)).bit_length()]
    _append_varint(out, count << 2 | code)
    _append_varint(out, value[0])
    _append_deltas(out, array(_DELTA_TYPES[code], deltas))


def _append_deltas(out: bytearray, deltas: array[int]) -> None:
    """Append ``deltas`` little-endian (swapping them in place on big-endian hosts)."""
    if _BIG_ENDIAN:
        deltas.byteswap()
    out += deltas


# ----------------------------------------------------------------------
# Per-type decoders: ``(value, next offset)`` from ``data`` at ``offset``.
# ----------------------------------------------------------------------


def _decode_str(data: bytes, offset: int) -> tuple[str | None, int]:
    length, offset = _decode_varint(data, offset)
    if length == _NULL_MARKER:
        return None, offset
    end = offset + length
    if end > len(data):
        raise SchemaError("truncated string value")
    try:
        return data[offset:end].decode("utf-8"), end
    except UnicodeDecodeError as exc:
        raise SchemaError(f"string value is not UTF-8: {exc}") from None


def _decode_int(data: bytes, offset: int) -> tuple[int | None, int]:
    prefix, offset = _decode_varint(data, offset)
    if prefix == _NULL_MARKER:
        return None, offset
    raw, offset = _decode_varint(data, offset)
    return _unzigzag(raw), offset


def _decode_float(data: bytes, offset: int) -> tuple[float | None, int]:
    prefix, offset = _decode_varint(data, offset)
    if prefix == _NULL_MARKER:
        return None, offset
    end = offset + 8
    if end > len(data):
        raise SchemaError("truncated float value")
    return _DOUBLE.unpack_from(data, offset)[0], end


def _decode_int_list(data: bytes, offset: int) -> tuple[list[int] | None, int]:
    header, offset = _decode_varint(data, offset)
    if header == _NULL_MARKER:
        return None, offset
    if header < 4:  # count 0
        return [], offset
    first, deltas, end = _decode_deltas(data, offset, header)
    return list(accumulate(deltas, initial=first)), end


def _decode_deltas(
    data: bytes, offset: int, header: int
) -> tuple[int, array[int], int]:
    """A non-empty list's first element, its deltas and its end offset.

    ``offset`` is just past the list's ``header``; a first element running
    off the end raises IndexError, deltas running off it SchemaError.
    """
    first, offset = _decode_varint(data, offset)
    end = offset + (((header >> 2) - 1) << (header & 3))
    if end > len(data):
        raise SchemaError("truncated int list")
    deltas = array(_DELTA_TYPES[header & 3], data[offset:end])
    if _BIG_ENDIAN:
        deltas.byteswap()
    return first, deltas, end


_ENCODERS: dict[ColumnType, _Encoder] = {
    ColumnType.STR: _encode_str,
    ColumnType.INT: _encode_int,
    ColumnType.FLOAT: _encode_float,
    ColumnType.INT_LIST: _encode_int_list,
}

_DECODERS: dict[ColumnType, _Decoder] = {
    ColumnType.STR: _decode_str,
    ColumnType.INT: _decode_int,
    ColumnType.FLOAT: _decode_float,
    ColumnType.INT_LIST: _decode_int_list,
}
