"""Deterministic serialization: canonical JSON/CSV text and atomic file writes.

All writers are byte-deterministic for equal inputs: floats go through repr
(shortest round-trip), JSON keys are sorted, CSV uses bare "\\n" line ends,
and extended reals are encoded as the strings "inf"/"-inf"/"nan" in JSON.

The text is byte for byte what `json.dumps(..., sort_keys=True, indent=2)`
(or compact separators) and `csv.writer` with QUOTE_MINIMAL quoting write,
but it is built by joining preformatted fragments: every leaf is formatted by
one `repr`, one C string escape or one table lookup, and a `Table` formats
each distinct record once however many entries share it.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import os
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import numpy as np

_escape = json.encoder.encode_basestring_ascii  # json's own string encoder (C)


@dataclass(frozen=True, eq=False)
class Table:
    """Records stored column-wise, each distinct record formatted once.

    `columns` maps each field name to a sequence holding that field of every
    distinct record.  Entry j of the table is record `codes[j]` (record j
    when `codes` is None).  The JSON writers write a table as the list of
    its entries' objects, or, with `keys`, as the object
    {str(keys[j]): entry j} (the keys must be distinct).  `csv_text` writes
    one row per entry: the entry's key first when the table has keys (under
    the header's first name), then the fields the other header names name.
    """

    columns: dict
    codes: Sequence[int] | None = None
    keys: Sequence | None = None

    def __post_init__(self):
        if not self.columns:
            raise ValueError("a table needs at least one column")


def _entries(table: Table, records: list[str]) -> list[str]:
    """The text of every entry of `table`, from that of every distinct record."""
    if table.codes is None:
        return records
    codes = table.codes.tolist() if isinstance(table.codes, np.ndarray) else table.codes
    return [records[code] for code in codes]


# ---------------------------------------------------------------- JSON

def _json_float(x) -> str:
    if x != x:
        return '"nan"'
    if x == math.inf:
        return '"inf"'
    if x == -math.inf:
        return '"-inf"'
    return float.__repr__(x)


_JSON_LEAF = {
    str: _escape,
    float: _json_float,
    int: int.__repr__,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _json_items(values, nl):
    """JSON text of each of `values`; `nl` is the newline and indentation of
    their nesting level, None for compact text."""
    if isinstance(values, np.ndarray):
        values = values.tolist()
    kinds = set(map(type, values))
    if kinds == {int}:
        return list(map(int.__repr__, values))
    if kinds == {float} and all(map(math.isfinite, values)):
        return list(map(float.__repr__, values))
    kinds.discard(type(None))
    if len(kinds) == 1 and kinds <= {list, tuple}:
        rows = [v for v in values if v is not None]
        if rows[0] and len(set(map(len, rows))) == 1:
            texts = iter(_json_rows(rows, nl))
            return [next(texts) if v is not None else "null" for v in values]
    return [leaf(v) if (leaf := _JSON_LEAF.get(type(v))) else _json(v, nl) for v in values]


def _json_rows(rows, nl):
    """JSON text of each of equal-length, non-empty lists: formatted column
    by column, then filled into one template."""
    inner = None if nl is None else nl + "  "
    template = _json_wrap("[", ["%s"] * len(rows[0]), "]", nl, inner)
    columns = [_json_items(column, inner) for column in zip(*rows)]
    return list(map(template.__mod__, zip(*columns)))


def _json_wrap(open_, parts, close, nl, inner) -> str:
    if not parts:
        return open_ + close
    if nl is None:
        return open_ + ",".join(parts) + close
    return open_ + inner + ("," + inner).join(parts) + nl + close


def _json_table(table: Table, nl, inner) -> str:
    names = sorted(table.columns)
    field_nl = None if nl is None else inner + "  "
    colon = ":" if nl is None else ": "
    fields = [_escape(name).replace("%", "%%") + colon + "%s" for name in names]
    template = _json_wrap("{", fields, "}", inner, field_nl)
    columns = [_json_items(table.columns[name], field_nl) for name in names]
    entries = _entries(table, list(map(template.__mod__, zip(*columns))))
    del columns  # every field is in `entries` now; free them before the keyed text
    if table.keys is None:
        return _json_wrap("[", entries, "]", nl, inner)
    keys = [str(key) for key in table.keys]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    return _json_wrap("{", [_escape(keys[j]) + colon + entries[j] for j in order], "}", nl, inner)


def _json(obj, nl) -> str:
    """JSON text of `obj` at the nesting level whose newline and indentation
    is `nl` (None: compact)."""
    leaf = _JSON_LEAF.get(type(obj))
    if leaf is not None:
        return leaf(obj)
    inner = None if nl is None else nl + "  "
    if isinstance(obj, dict):
        items = {str(key): value for key, value in obj.items()}
        colon = ":" if nl is None else ": "
        parts = [_escape(key) + colon + _json(items[key], inner) for key in sorted(items)]
        return _json_wrap("{", parts, "}", nl, inner)
    if isinstance(obj, (list, tuple, np.ndarray)):
        return _json_wrap("[", _json_items(obj, inner), "]", nl, inner)
    if isinstance(obj, Table):
        return _json_table(obj, nl, inner)
    if isinstance(obj, str):
        return _escape(obj)
    if isinstance(obj, (float, Fraction, np.floating)):
        return _json_float(float(obj))
    if isinstance(obj, (int, np.integer)):
        return int.__repr__(int(obj))
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def dumps_json(obj) -> str:
    return _json(obj, "\n") + "\n"


def dumps_json_line(obj) -> str:
    return _json(obj, None) + "\n"


# ---------------------------------------------------------------- CSV

_NEEDS_QUOTES = re.compile(r'[,"\r\n\0]').search


def _csv_writer_line(row) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(row)
    return buf.getvalue()[:-1]


# csv itself writes a field with a delimiter, quote, line break or NUL (which
# csv before Python 3.11 refuses), so the bytes, or the error, are this
# Python's csv module's.
_quoted = functools.lru_cache(maxsize=256)(lambda field: _csv_writer_line([field]))


def _csv_str(field: str) -> str:
    return _quoted(field) if _NEEDS_QUOTES(field) else field


def _csv_other(value) -> str:
    if isinstance(value, (float, Fraction, np.floating)):
        return float.__repr__(float(value))
    if isinstance(value, (int, np.integer)):
        return int.__repr__(int(value))
    return _csv_str(str(value))


_CSV_CELL = {
    str: _csv_str,
    float: float.__repr__,
    int: int.__repr__,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "",
}


def _csv_cells(values) -> list[str]:
    return [cell(v) if (cell := _CSV_CELL.get(type(v))) else _csv_other(v) for v in values]


def _csv_line(fields: list[str]) -> str:
    # csv quotes a row's only field when it is empty, so the row is not blank.
    return '""' if len(fields) == 1 and not fields[0] else ",".join(fields)


def _csv_table(header, table: Table) -> list[str]:
    names = list(header[1:] if table.keys is not None else header)
    if not names:
        raise ValueError("the header names no column of the table")
    fields = zip(*[_csv_cells(table.columns[name]) for name in names])
    if table.keys is None:
        return _entries(table, list(map(_csv_line, fields)))
    entries = _entries(table, list(map(",".join, fields)))
    return [key + "," + entry for key, entry in zip(_csv_cells(table.keys), entries)]


def csv_text(header, rows) -> str:
    """Header line, then one line per row; `rows` is an iterable of cell
    sequences or a `Table`."""
    lines = [_csv_writer_line(header)]  # the header's cells are not formatted
    if isinstance(rows, Table):
        lines += _csv_table(header, rows)
    else:
        lines += [_csv_line(_csv_cells(row)) for row in rows]
    return "\n".join(lines) + "\n"


def atomic_write_text(path, text: str) -> None:
    """Write-then-rename so readers never observe a partial file."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)
