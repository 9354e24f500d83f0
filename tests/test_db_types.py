"""Schema validation and the binary row codec."""

import pytest
from hypothesis import given, strategies as st

from repro.db import types
from repro.db.errors import SchemaError
from repro.db.types import Column, ColumnType, Schema
from repro.eti.schema import eti_columns

# Values on both sides of a delta-width boundary: from 0 (and from each
# other) they make deltas at ±2**7, ±2**15 and ±2**31, where a list's
# deltas go from 1 to 2, 2 to 4 and 4 to 8 bytes; 2**63 - 1 is the largest
# element.  Frequencies' zig-zag varints are 1/2 and 2/3 bytes wide.
TID_EDGES = (0, 1, 126, 127, 128, 129, 255, 256, 32766, 32767, 32768, 32769,
             65535, 65536, 2**31 - 1, 2**31, 2**31 + 1, 2**32, 2**32 + 1,
             2**63 - 2, 2**63 - 1)
FREQUENCY_EDGES = (0, 1, 62, 63, 64, 65, 8190, 8191, 8192, 8193, -64, -65)
TIDS = st.one_of(st.sampled_from(TID_EDGES), st.integers(0, 2**63 - 1))
FREQUENCIES = st.one_of(st.sampled_from(FREQUENCY_EDGES), st.integers(-(2**40), 2**40))


def make_schema():
    return Schema(
        [
            Column("tid", ColumnType.INT),
            Column("name", ColumnType.STR, nullable=True),
            Column("score", ColumnType.FLOAT),
            Column("tids", ColumnType.INT_LIST, nullable=True),
        ]
    )


class TestSchema:
    def test_names(self):
        assert make_schema().names == ("tid", "name", "score", "tids")

    def test_len(self):
        assert len(make_schema()) == 4

    def test_position(self):
        schema = make_schema()
        assert schema.position("tid") == 0
        assert schema.position("tids") == 3

    def test_position_unknown_column(self):
        with pytest.raises(SchemaError, match="no column"):
            make_schema().position("nope")

    def test_duplicate_column_names_rejected(self):
        with pytest.raises(SchemaError, match="duplicate"):
            Schema([Column("a", ColumnType.INT), Column("a", ColumnType.STR)])

    def test_validate_returns_tuple(self):
        row = make_schema().validate([1, "x", 2.0, [1, 2]])
        assert isinstance(row, tuple)

    def test_validate_wrong_arity(self):
        with pytest.raises(SchemaError, match="values"):
            make_schema().validate((1, "x", 2.0))

    def test_validate_null_in_non_nullable(self):
        with pytest.raises(SchemaError, match="not nullable"):
            make_schema().validate((None, "x", 2.0, []))

    def test_validate_null_in_nullable(self):
        assert make_schema().validate((1, None, 2.0, None)) == (1, None, 2.0, None)

    def test_validate_type_mismatch_str(self):
        with pytest.raises(SchemaError, match="expects str"):
            make_schema().validate((1, 5, 2.0, []))

    def test_validate_type_mismatch_int(self):
        with pytest.raises(SchemaError, match="expects int"):
            make_schema().validate(("1", "x", 2.0, []))

    def test_validate_int_accepted_for_float(self):
        assert make_schema().validate((1, "x", 2, []))[2] == 2

    def test_validate_bad_int_list(self):
        with pytest.raises(SchemaError, match="list of non-negative"):
            make_schema().validate((1, "x", 2.0, [-1]))

    def test_int_list_elements_stop_below_2_to_the_63(self):
        schema = make_schema()
        assert schema.validate((1, "x", 2.0, [2**63 - 1]))[3] == [2**63 - 1]
        for bad in ([2**63], [0, 2**64], [1, -(2**63)], [True, 1.0]):
            with pytest.raises(SchemaError, match="list of non-negative"):
                schema.validate((1, "x", 2.0, bad))
            with pytest.raises(SchemaError, match="list of non-negative"):
                schema.encode((1, "x", 2.0, bad))

    def test_validate_int_list_not_a_list(self):
        with pytest.raises(SchemaError, match="list of non-negative"):
            make_schema().validate((1, "x", 2.0, "nope"))


class TestCodec:
    def test_round_trip_basic(self):
        schema = make_schema()
        row = (42, "boeing company", 0.806, [1, 2, 3])
        assert schema.decode(schema.encode(row)) == row

    def test_round_trip_nulls(self):
        schema = make_schema()
        row = (42, None, -1.5, None)
        assert schema.decode(schema.encode(row)) == row

    def test_round_trip_empty_containers(self):
        schema = make_schema()
        row = (0, "", 0.0, [])
        assert schema.decode(schema.encode(row)) == row

    def test_round_trip_negative_int(self):
        schema = Schema([Column("v", ColumnType.INT)])
        for value in (-1, -(2**40), 2**40, 0):
            assert schema.decode(schema.encode((value,))) == (value,)

    def test_round_trip_unicode(self):
        schema = Schema([Column("s", ColumnType.STR)])
        row = ("zürich — 北京",)
        assert schema.decode(schema.encode(row)) == row

    def test_null_distinct_from_empty_list(self):
        schema = Schema([Column("l", ColumnType.INT_LIST, nullable=True)])
        assert schema.decode(schema.encode((None,))) == (None,)
        assert schema.decode(schema.encode(([],))) == ([],)

    def test_null_distinct_from_empty_string(self):
        schema = Schema([Column("s", ColumnType.STR, nullable=True)])
        assert schema.decode(schema.encode((None,))) == (None,)
        assert schema.decode(schema.encode(("",))) == ("",)

    def test_trailing_bytes_rejected(self):
        schema = Schema([Column("v", ColumnType.INT)])
        data = schema.encode((1,)) + b"\x00"
        with pytest.raises(SchemaError, match="trailing"):
            schema.decode(data)

    def test_truncated_data_rejected(self):
        schema = Schema([Column("s", ColumnType.STR)])
        data = schema.encode(("hello world",))
        with pytest.raises(SchemaError):
            schema.decode(data[:3])

    @given(
        st.tuples(
            st.integers(min_value=-(2**62), max_value=2**62),
            st.one_of(st.none(), st.text(max_size=50)),
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            # Unsorted, with repeats: deltas of either sign.
            st.one_of(st.none(), st.lists(TIDS, max_size=20)),
        )
    )
    def test_round_trip_property(self, row):
        schema = make_schema()
        assert schema.decode(schema.encode(row)) == row


def wide_schema():
    return Schema(
        [
            Column("tid", ColumnType.INT, nullable=True),
            Column("name", ColumnType.STR, nullable=True),
            Column("score", ColumnType.FLOAT, nullable=True),
            Column("tids", ColumnType.INT_LIST, nullable=True),
        ]
    )


# Hex captured when int lists became delta-coded (snapshot version 4):
# stored snapshots, WAL images and the fuzz corpora hold these bytes, so
# the encoding may never drift.  Only the int-list bytes changed from the
# varint layout before it; every other column's bytes are as they were.
GOLDEN = [
    ((0, "", 0.0, []), "00000000000000000000000000"),
    ((None, None, None, None), "ffffffff0f" * 4),
    (
        (-1, "boeing company", -1.5,
         [0, 1, 127, 128, 129, 16383, 16384, 2**32 - 1, 2**40]),
        "00010e626f65696e6720636f6d70616e7900000000000000f8bf"
        "2700"
        "0100000000000000" "7e00000000000000" "0100000000000000"
        "0100000000000000" "7e3f000000000000" "0100000000000000"
        "ffbfffff00000000" "01000000ff000000",
    ),
    (
        (2**40, "zürich — 北京", 0.806, [300]),
        "00808080808040127ac3bc7269636820e2809420e58c97e4baac"
        "00986e1283c0cae93f04ac02",
    ),
    ((-(2**40), "a" * 200, 2, (5, 4, 3)),
     "00ffffffffff3fc801" + "61" * 200 + "0000000000000000400c05ffff"),
    ((63, "x", 1e300, [127]), "007e0178009c7500883ce4377e047f"),
    ((64, "y", -0.0, [128]), "0080010179000000000000000080048001"),
    ((True, "z", True, [True]), "0002017a00000000000000f03f0401"),
]


class TestGoldenBytes:
    @pytest.mark.parametrize("row,expected", GOLDEN)
    def test_encoding_is_frozen(self, row, expected):
        schema = wide_schema()
        assert schema.encode(row).hex() == expected
        decoded = schema.decode(bytes.fromhex(expected))
        assert decoded == tuple(list(v) if isinstance(v, tuple) else v for v in row)

    def test_long_int_list(self):
        import hashlib

        tids = list(range(0, 5000 * 37, 37))
        data = wide_schema().encode((7, "big", 1.0, tids))
        assert len(data) == 5018  # 4 999 one-byte deltas of 37
        assert hashlib.sha256(data).hexdigest() == (
            "bba63e404ee20bb7980da944e5dcc5e09d2f1c7257fbd60fdf8948a4c1d60de5"
        )
        assert wide_schema().decode(data)[3] == tids

    def test_every_truncation_is_a_schema_error(self):
        schema = wide_schema()
        data = schema.encode((-(2**40), "zürich", 0.5, [1, 200, 70000]))
        for cut in range(len(data)):
            with pytest.raises((SchemaError, UnicodeDecodeError)):
                schema.decode(data[:cut])

    def test_the_big_endian_branch_swaps_every_delta(self, monkeypatch):
        # A big-endian host's arrays hold native big-endian deltas, which
        # the codec swaps on the way out and back.  Flipping the flag here
        # swaps native little-endian ones instead, so each delta's bytes
        # come out reversed, and decode swaps them back.
        schema = wide_schema()
        row = GOLDEN[2][0]
        little = schema.encode(row)
        monkeypatch.setattr(types, "_BIG_ENDIAN", True)
        swapped = schema.encode(row)
        deltas = len(little) - 8 * 8
        assert swapped[:deltas] == little[:deltas]
        for at in range(deltas, len(little), 8):
            assert swapped[at:at + 8] == little[at:at + 8][::-1]
        for row, _ in GOLDEN:
            assert schema.decode(schema.encode(row)) == tuple(
                list(v) if isinstance(v, tuple) else v for v in row
            )
        lists = list_schema()
        record = lists.encode(("g", 0, 2, [1, 300]))
        for value in (600, 70_000, 5):  # appended, widened, re-encoded
            assert lists.splice(record, value, True) == lists.encode(
                ("g", 0, 2, sorted([1, 300, value]))
            )

    @pytest.mark.parametrize(
        "tid_list",
        [None, [], [7], [1, 2, 3], [0, 300, 70_000],
         [5, 2**31 + 5, 2**40], [2**63 - 1, 0]],
    )
    def test_every_cut_and_byte_flip_of_an_eti_row_is_typed(self, tid_list):
        schema = Schema(eti_columns())
        data = schema.encode(("züg", 2, 1, 3, tid_list))
        for cut in range(len(data)):
            with pytest.raises(SchemaError):
                schema.decode(data[:cut])
        for at in range(len(data)):
            for flip in range(1, 256):
                damaged = bytearray(data)
                damaged[at] ^= flip
                try:
                    schema.decode(bytes(damaged))
                except SchemaError:
                    pass

    def test_truncated_int_list_rejected(self):
        schema = Schema([Column("l", ColumnType.INT_LIST)])
        data = schema.encode(([1, 2, 300],))
        with pytest.raises(SchemaError, match="truncated"):
            schema.decode(data[:-1])

    def test_non_canonical_varint_still_decodes(self):
        # A padded varint (0x80 0x00 == 0) never comes out of encode, but
        # the decoder has always accepted it.
        schema = Schema([Column("s", ColumnType.STR)])
        assert schema.decode(b"\x81\x00a") == ("a",)


class TestLeadingDecode:
    def test_prefix_of_full_decode(self):
        schema = wide_schema()
        rows = [row for row, _ in GOLDEN]
        for row in rows:
            data = schema.encode(row)
            full = schema.decode(data)
            for leading in range(len(schema) + 1):
                assert schema.decode(data, leading) == full[:leading]

    def test_rest_of_record_is_not_parsed(self):
        schema = Schema(
            [Column("k", ColumnType.STR), Column("l", ColumnType.INT_LIST)]
        )
        data = schema.encode(("key", [1, 2, 3]))
        assert schema.decode(data[:-2] + b"\xff\xff", 1) == ("key",)

    def test_truncated_key_rejected(self):
        schema = Schema(
            [Column("k", ColumnType.STR), Column("l", ColumnType.INT_LIST)]
        )
        with pytest.raises(SchemaError):
            schema.decode(schema.encode(("key", []))[:2], 1)

    @given(
        st.tuples(
            st.one_of(st.none(), st.integers(-(2**62), 2**62)),
            st.one_of(st.none(), st.text(max_size=20)),
            st.one_of(st.none(), st.floats(allow_nan=False)),
            st.one_of(st.none(), st.lists(st.integers(0, 2**40), max_size=10)),
        ),
        st.integers(0, 4),
    )
    def test_prefix_property(self, row, leading):
        schema = wide_schema()
        data = schema.encode(row)
        assert schema.decode(data, leading) == schema.decode(data)[:leading]


class TestValidationIsPartOfEncode:
    def test_encode_rejects_what_validate_rejects(self):
        schema = make_schema()
        for bad in (
            (1, "x", 2.0),
            (None, "x", 2.0, []),
            ("1", "x", 2.0, []),
            (1, 5, 2.0, []),
            (1, "x", "2.0", []),
            (1, "x", 2.0, [-1]),
            (1, "x", 2.0, [1.5]),
            (1, "x", 2.0, "nope"),
        ):
            with pytest.raises(SchemaError):
                schema.validate(bad)
            with pytest.raises(SchemaError):
                schema.encode(bad)


def list_schema():
    """An ETI-shaped schema: key columns, a frequency, a trailing tid-list."""
    return Schema(
        [
            Column("gram", ColumnType.STR),
            Column("coordinate", ColumnType.INT),
            Column("frequency", ColumnType.INT),
            Column("tids", ColumnType.INT_LIST, nullable=True),
        ]
    )


def edited(tid_list, value, add):
    """The list ``splice`` should leave, or None where it must decline."""
    if tid_list is None or (value in tid_list) == add:
        return None
    if add:
        return sorted([*tid_list, value])
    rest = [t for t in tid_list if t != value]
    return rest or None


class TestSplice:
    @given(
        st.one_of(st.none(), st.lists(TIDS, max_size=12, unique=True).map(sorted)),
        FREQUENCIES,
        FREQUENCIES,
        st.booleans(),
        st.data(),
    )
    def test_equals_encode_of_the_edited_row(
        self, tid_list, frequency, new_frequency, add, data
    ):
        schema = list_schema()
        value = data.draw(
            st.one_of(st.sampled_from(tid_list), TIDS) if tid_list else TIDS
        )
        record = schema.encode(("qgr", 1, frequency, tid_list))
        spliced = schema.splice(record, value, add, {"frequency": new_frequency})
        expected = edited(tid_list, value, add)
        if expected is None:
            assert spliced is None
        else:
            assert spliced == schema.encode(("qgr", 1, new_frequency, expected))

    @pytest.mark.parametrize(
        "value,add,expected",
        [
            (16384, True, [127, 128, 16383, 16384]),  # tail
            (200, True, [127, 128, 200, 16383]),  # middle
            (3, True, [3, 127, 128, 16383]),  # head
            (128, True, None),  # present
            (16383, False, [127, 128]),  # tail
            (128, False, [127, 16383]),  # middle
            (127, False, [128, 16383]),  # head
            (129, False, None),  # absent
        ],
    )
    def test_edit_positions(self, value, add, expected):
        schema = list_schema()
        record = schema.encode(("g", 0, 63, [127, 128, 16383]))
        spliced = schema.splice(record, value, add, {"frequency": 64})
        if expected is None:
            assert spliced is None
        else:
            assert spliced == schema.encode(("g", 0, 64, expected))

    @pytest.mark.parametrize("width", [1, 2, 4])
    @pytest.mark.parametrize("tail", [-1, 0, 1])
    def test_tail_add_at_a_width_boundary(self, width, tail):
        # A delta one below the width's top is appended in place; one at
        # it widens every delta of the list.
        schema = list_schema()
        top = 2 ** (8 * width - 1)
        tids = [3, 3 + top - 1]
        value = tids[-1] + top + tail
        record = schema.encode(("g", 0, 2, tids))
        spliced = schema.splice(record, value, True, {"frequency": 3})
        assert spliced == schema.encode(("g", 0, 3, [*tids, value]))

    @pytest.mark.parametrize(
        "tids,value,add",
        [
            ([0, 100, 200], 100, False),  # two 1-byte deltas merge into a 2-byte one
            ([0, 100, 40_000], 100, False),  # the merged delta needs 4 bytes
            ([0, 300, 301], 0, False),  # the only 2-byte delta goes: 1 byte left
            ([0, 1, 300], 300, False),
            ([0, 300], 150, True),  # a 2-byte delta splits into 1-byte ones
            ([200, 201], 0, True),  # a head add widens
            ([0, 2**40], 2**39, True),  # 8-byte deltas split into 8-byte ones
            ([5, 6, 7], 6, False),
        ],
    )
    def test_an_edit_that_moves_the_width(self, tids, value, add):
        schema = list_schema()
        record = schema.encode(("g", 0, 3, tids))
        expected = sorted({*tids, value} if add else set(tids) - {value})
        assert schema.splice(record, value, add) == schema.encode(("g", 0, 3, expected))

    def test_declines_a_null_list_and_an_emptying_remove(self):
        schema = list_schema()
        assert schema.splice(schema.encode(("g", 0, 9, None)), 5, True) is None
        assert schema.splice(schema.encode(("g", 0, 9, None)), 5, False) is None
        assert schema.splice(schema.encode(("g", 0, 1, [5])), 5, False) is None

    def test_an_empty_list_takes_an_add(self):
        schema = list_schema()
        spliced = schema.splice(schema.encode(("g", 0, 0, [])), 2**56, True)
        assert spliced == schema.encode(("g", 0, 0, [2**56]))

    def test_unnamed_columns_are_copied(self):
        schema = list_schema()
        record = schema.encode(("zürich", -3, 8191, [1, 2]))
        assert schema.splice(record, 3, True) == schema.encode(
            ("zürich", -3, 8191, [1, 2, 3])
        )
        assert schema.splice(record, 1, False, {"coordinate": 7}) == schema.encode(
            ("zürich", 7, 8191, [2])
        )

    @pytest.mark.parametrize(
        "value,ints,match",
        [
            (-1, None, "non-negative"),
            (1.5, None, "non-negative"),
            (None, None, "non-negative"),
            (1, {"frequency": None}, "not nullable"),
            (1, {"frequency": "2"}, "expects int"),
            (1, {"gram": 2}, "int columns only"),
            (1, {"nope": 2}, "no column"),
            (2**63, None, "non-negative"),
        ],
    )
    def test_validates_like_encode(self, value, ints, match):
        schema = list_schema()
        record = schema.encode(("g", 0, 2, [1, 5]))
        with pytest.raises(SchemaError, match=match):
            schema.splice(record, value, True, ints)

    def test_needs_a_trailing_int_list(self):
        schema = make_schema()
        reordered = Schema([*schema.columns[3:], *schema.columns[:3]])
        record = reordered.encode(([1], 1, "x", 2.0))
        with pytest.raises(SchemaError, match="trailing int list"):
            reordered.splice(record, 2, True)


class TestPrefixSize:
    def test_spans_exactly_the_leading_columns(self):
        schema = wide_schema()
        for row, _ in GOLDEN:
            data = schema.encode(row)
            assert schema.prefix_size(data, len(schema)) == len(data)
            for leading in range(len(schema) + 1):
                size = schema.prefix_size(data, leading)
                assert schema.decode(data[:size], leading) == schema.decode(
                    data, leading
                )
                if leading < len(schema):
                    assert size < len(data)

    def test_truncated_record_rejected(self):
        schema = wide_schema()
        with pytest.raises(SchemaError, match="truncated"):
            schema.prefix_size(b"\x80", 1)
