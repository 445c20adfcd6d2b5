"""Table schemas and records: the bijection between database records and
basis indices.

A record packs its fields into ``n`` bits; the first declared field occupies
the most significant bits, mirroring the register's qubit order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import QqlError, SchemaError, as_int


def check_identifier(name, what: str) -> None:
    """Refuse, with :class:`SchemaError`, a ``name`` that is not exactly one
    identifier token of :func:`qlang.tokenize`, the one definition of an
    identifier: what CREATE reads and what a session file can hold."""
    from .qlang import tokenize  # qlang imports this module
    try:
        tokens = [token[:2] for token in tokenize(name)]
    except (QqlError, TypeError):  # TypeError: a name that is not a string
        tokens = []
    if tokens != [("ident", name), ("eof", "")]:
        raise SchemaError(f"{what} {name!r} is not an identifier")


def _field_value(field_name: str, width: int, value) -> int:
    """A field's value read by :func:`as_int`, refused unless it fits."""
    value = as_int(value, f"value of field {field_name!r}")
    if value < 0 or value >= 1 << width:
        raise SchemaError(f"value {value} does not fit field {field_name!r} of width {width}")
    return value


@dataclass(frozen=True)
class Record:
    """Per-field unsigned values, in schema field order."""

    values: tuple[int, ...]

    def __repr__(self) -> str:
        return f"Record{self.values}"


@dataclass(frozen=True)
class TableSchema:
    """Named fixed-width unsigned fields, each name an identifier, as is the
    table's (:func:`check_identifier`); ``num_bits`` is the data-qubit count."""

    name: str
    fields: tuple[tuple[str, int], ...]

    def __post_init__(self):
        check_identifier(self.name, "table name")
        try:
            pairs = [(n, w) for n, w in self.fields]
        except (TypeError, ValueError):
            raise SchemaError(f"the fields of {self.name!r} are not (name, width) pairs") from None
        fields = tuple((n, as_int(w, f"width of field {n!r}")) for n, w in pairs)
        object.__setattr__(self, "fields", fields)
        for field_name, width in fields:
            check_identifier(field_name, "field name")
            if width < 1:
                raise SchemaError(f"field {field_name!r} must be at least 1 bit wide")
        names = [n for n, _ in fields]
        if not names:
            raise SchemaError("a table needs at least one field")
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate field names in table {self.name!r}")

    @cached_property
    def num_bits(self) -> int:
        return sum(w for _, w in self.fields)

    def width_of(self, field: str) -> int:
        for field_name, width in self.fields:
            if field_name == field:
                return width
        raise SchemaError(f"unknown field {field!r} in table {self.name!r}")

    def offset_of(self, field: str) -> int:
        """Bit offset of the field's most significant bit, counted from the
        register's most significant end."""
        offset = 0
        for field_name, width in self.fields:
            if field_name == field:
                return offset
            offset += width
        raise SchemaError(f"unknown field {field!r} in table {self.name!r}")

    def record(self, /, **values: int) -> Record:
        """Build a record from keyword field values; omitted fields are 0.
        ``self`` is positional-only, so a field may be named ``self``."""
        for field_name in values:
            self.width_of(field_name)  # refuses an unknown field
        return Record(tuple(_field_value(n, w, values.get(n, 0)) for n, w in self.fields))

    def encode(self, record: Record) -> int:
        """Record -> basis index of the data register."""
        if len(record.values) != len(self.fields):
            raise SchemaError("record arity does not match schema")
        index = 0
        for value, (field_name, width) in zip(record.values, self.fields):
            index = (index << width) | _field_value(field_name, width, value)
        return index

    def field_values(self, indices, field: str):
        """The value of ``field`` in each data index of ``indices``, an int or
        an integer array: the one reading of the record layout."""
        width = self.width_of(field)
        return (indices >> (self.num_bits - self.offset_of(field) - width)) & ((1 << width) - 1)

    def decode(self, index: int) -> Record:
        """Basis index of the data register -> record."""
        n = self.num_bits
        index = as_int(index, "index")
        if index < 0 or index >= 1 << n:
            raise SchemaError(f"index {index} out of range for {n} data bits")
        return Record(tuple(self.field_values(index, name) for name, _ in self.fields))
