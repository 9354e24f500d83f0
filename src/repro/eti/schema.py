"""Relation schema of the ETI (§4.2)."""

from __future__ import annotations

from repro.db.types import Column, ColumnType

# The clustered-index key of the ETI, in index order.
ETI_KEY = ("qgram", "coordinate", "column")

# Name of the ETI's clustered index on [QGram, Coordinate, Column].
ETI_INDEX = "eti_key_idx"


def eti_columns() -> list[Column]:
    """Schema of the ETI relation: [QGram, Coordinate, Column, Frequency, Tid-list].

    ``tid_list`` is nullable: stop q-grams (frequency above the threshold)
    store NULL instead of their — useless and enormous — tid-lists.
    """
    return [
        Column("qgram", ColumnType.STR),
        Column("coordinate", ColumnType.INT),
        Column("column", ColumnType.INT),
        Column("frequency", ColumnType.INT),
        Column("tid_list", ColumnType.INT_LIST, nullable=True),
    ]
