"""Deterministic serialization: canonical JSON/CSV text, streamed atomically to files.

All writers are byte-deterministic for equal inputs: floats go through repr
(shortest round-trip), JSON keys are sorted, CSV uses bare "\\n" line ends,
and extended reals are encoded as the strings "inf"/"-inf"/"nan" in JSON.

The text is byte for byte what `json.dumps(..., sort_keys=True, indent=2)`
(or compact separators) and `csv.writer` with QUOTE_MINIMAL quoting write.
`json_fragments` and `csv_fragments` yield it in fragments, lists and tables
`CHUNK` items at a time: every leaf is one `repr`, one C string escape or
one table lookup, and a `Table` formats each distinct record of a chunk once.
`atomic_write` streams the fragments through a temporary file, then renames
it, so a file is written in O(CHUNK) memory, plus 8 bytes per entry of a
keyed table for its key order.  `dumps_json` and `csv_text` join them.
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
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

_escape = json.encoder.encode_basestring_ascii  # json's own string encoder (C)

CHUNK = 1 << 10  # table entries, list items or CSV rows formatted per fragment


@dataclass(frozen=True, eq=False)
class Table:
    """Records stored column-wise, formatted `CHUNK` entries at a time.

    `columns` maps each field name to a sequence holding that field of every
    distinct record, or is the sequence of records itself (a keyed list,
    JSON only).  Entry j is record `codes[j]` (record j when `codes` is
    None).  In JSON a table is the list of its entries, or with `keys` the
    object {str(keys[j]): entry j} (distinct keys).  `csv_text` writes one
    row per entry: its key first when the table has keys (under the
    header's first name), then the fields the other header names name.

    A column may itself be a table of the keyed-list form with `codes`, no
    keys: a coded column, whose entry j is its record codes[j], so a field
    that repeats a few values formats each once.
    """

    columns: dict | Sequence
    codes: Sequence[int] | None = None
    keys: Sequence | None = None

    def __post_init__(self):
        if isinstance(self.columns, dict) and not self.columns:
            raise ValueError("a table needs at least one column")

    def __len__(self) -> int:
        """The number of entries."""
        if self.codes is not None:
            return len(self.codes)
        return len(next(iter(self.columns.values())) if isinstance(self.columns, dict)
                   else self.columns)


def _take(column, index):
    """The items of `column` at `index`, a slice or an int array."""
    if isinstance(column, Table):
        return Table(column.columns, _take(np.asarray(column.codes, dtype=np.int64), index))
    if isinstance(index, slice) or isinstance(column, np.ndarray):
        return column[index]
    return [column[i] for i in index.tolist()]


@dataclass(frozen=True, eq=False)
class Rows:
    """Equal-length columns, written in JSON as the list of their rows, each
    row a list: formatted column by column, `CHUNK` rows at a time."""

    columns: tuple

    def __len__(self) -> int:
        return len(self.columns[0])


def _coded(column: Table, texts) -> list[str]:
    """The text of each entry of a coded column, `texts` formatting each
    distinct record it uses once."""
    used, inverse = np.unique(np.asarray(column.codes, dtype=np.int64), return_inverse=True)
    return list(map(texts(_take(column.columns, used)).__getitem__, inverse.tolist()))


def _key_order(keys) -> np.ndarray:
    """Entry indices in the order of str(key).  Int keys in [0, 10**17) are
    ordered without text: by their digits left-aligned, then their length."""
    array = np.asarray(np.arange(keys.start, keys.stop, keys.step)
                       if isinstance(keys, range) else keys)
    if (array.ndim != 1 or array.dtype.kind != "i"
            or not 0 <= array.min(initial=0) <= array.max(initial=0) < 10**17):
        return np.array(sorted(range(len(keys)), key=lambda j: str(keys[j])), dtype=np.int64)
    width = len(str(array.max(initial=0)))
    digits = np.searchsorted(10 ** np.arange(1, width), array, side="right").astype(np.int8) + 1
    order = np.power(10, width - digits, dtype=np.int64) * (width + 1)
    order *= array
    order += digits
    del array  # the sort holds `order` and its result, 8 bytes a key each
    return np.argsort(order, kind="stable")


def _table_entries(table: Table, records, order=None):
    """(keys or None, texts) of `CHUNK` entries at a time, in `order` or in
    entry order; `records` formats the distinct records the entries use from
    a map of column name (None: a keyed list) to those records' fields."""
    columns = table.columns if isinstance(table.columns, dict) else {None: table.columns}
    codes = None if table.codes is None else np.asarray(table.codes, dtype=np.int64)
    for lo in range(0, len(table), CHUNK):
        index = slice(lo, lo + CHUNK) if order is None else order[lo:lo + CHUNK]
        used, inverse = (index, None) if codes is None else np.unique(codes[index],
                                                                       return_inverse=True)
        texts = records({name: _take(column, used) for name, column in columns.items()})
        if inverse is not None:
            texts = [texts[code] for code in inverse.tolist()]
        yield None if table.keys is None else _take(table.keys, index), texts


# Entries a float64 column needs to be formatted once per bit pattern.  Below
# 256, a half-distinct column of short floats (0.25, 33.5) gains little or
# loses, and a column that falls back pays np.unique's sort: 25-100% of the
# plain path's time, against 5-12% at 1,024 entries.
DISTINCT_MIN = 256


def _once_per_pattern(values: np.ndarray, texts) -> list[str] | None:
    """The text of each entry of a 1-D float64 column of at least
    `DISTINCT_MIN` entries, `texts` formatting each distinct bit pattern
    once (compared as int64, so -0.0, 0.0 and every NaN payload keep their
    own text); None when more than half the entries are distinct or the
    column is not such a column.  Ints are left to the plain path: their
    text is about as cheap as the sort."""
    if values.dtype != np.float64 or values.ndim != 1 or values.size < DISTINCT_MIN:
        return None
    used, inverse = np.unique(values.view(np.int64), return_inverse=True)
    if 2 * used.size > values.size:
        return None
    return list(map(texts(used.view(np.float64).tolist()).__getitem__, inverse.tolist()))


# One window (63 KB of texts) is kept: it covers every line of a run of at
# most CHUNK steps.  Each further window would hold 63 KB more, and the key
# windows of a table, read once or twice per file, gain nothing from it.
@functools.lru_cache(maxsize=1)
def _count_texts(lo: int, count: int) -> list[str]:
    return list(map(int.__repr__, range(lo, lo + count)))


def _range_texts(values: range) -> list[str]:
    """The texts of a range's ints.  A run of consecutive ints in one
    `CHUNK`-aligned window, what chunked time and index columns hold, is
    sliced from that window's texts, formatted once however many columns
    and lines repeat it."""
    if values.step == 1 and values.start % CHUNK == 0 and len(values) <= CHUNK:
        return _count_texts(values.start, CHUNK)[:len(values)]
    return list(map(int.__repr__, values))


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
    if isinstance(values, Table):
        return _coded(values, lambda records: _json_items(records, nl))
    if isinstance(values, range):
        return _range_texts(values)
    if isinstance(values, np.ndarray):
        texts = _once_per_pattern(values, lambda distinct: _json_items(distinct, nl))
        if texts is not None:
            return texts
        values = values.tolist()
    kinds = set(map(type, values))
    if kinds == {int}:
        return list(map(int.__repr__, values))
    if kinds == {float} and all(map(math.isfinite, values)):
        return list(map(float.__repr__, values))
    nulls = type(None) in kinds
    kinds.discard(type(None))
    if len(kinds) == 1 and kinds <= {list, tuple}:
        rows = [v for v in values if v is not None] if nulls else values
        if rows[0] and len(set(map(len, rows))) == 1:
            if not nulls:
                return _json_rows(list(zip(*rows)), nl)
            texts = iter(_json_rows(list(zip(*rows)), nl))
            return [next(texts) if v is not None else "null" for v in values]
    return [leaf(v) if (leaf := _JSON_LEAF.get(type(v))) else _json(v, nl) for v in values]


_FIELD = "\0"  # a template's placeholder: JSON text holds no raw NUL (json escapes it)


def _fill(template: str, columns: list[list[str]]) -> list[str]:
    """Row i of the texts in `columns` filled into the `_FIELD`s of
    `template`, in order, with one join per row."""
    pieces = template.split(_FIELD)
    count = len(columns[0])
    parts = [[pieces[0]] * count]
    for column, piece in zip(columns, pieces[1:]):
        parts += [column, [piece] * count]
    return list(map("".join, zip(*parts)))


def _json_rows(columns, nl):
    """JSON text of each row, as a list, of equal-length, non-empty
    columns: formatted column by column, then filled into one template."""
    inner = None if nl is None else nl + "  "
    template = "".join(_json_seq("[", [[_FIELD] * len(columns)], "]", nl, inner))
    return _fill(template, [_json_items(column, inner) for column in columns])


def _json_seq(open_, chunks, close, nl, inner) -> Iterator[str]:
    """A JSON array or object at level `nl` of the item texts in `chunks`."""
    lead = "" if nl is None else inner
    sep, head = "," + lead, open_ + lead
    for texts in chunks:
        yield head + sep.join(texts)
        head = sep
    yield ("" if nl is None else nl) + close if head is sep else open_ + close


def _json_table(table: Table, nl, inner) -> Iterator[str]:
    colon = ":" if nl is None else ": "
    if isinstance(table.columns, dict):
        names, field_nl = sorted(table.columns), None if nl is None else inner + "  "
        template = "".join(_json_seq("{", [[_escape(name) + colon + _FIELD for name in names]],
                                     "}", inner, field_nl))

        def records(fields):
            return _fill(template, [_json_items(fields[name], field_nl) for name in names])
    else:  # a keyed list: each record as it is

        def records(fields):
            return _json_items(fields[None], inner)
    order = None if table.keys is None else _key_order(table.keys)
    chunks = (texts if keys is None else [_escape(str(key)) + colon + text
                                          for key, text in zip(keys, texts)]
              for keys, texts in _table_entries(table, records, order))
    open_, close = "[]" if order is None else "{}"
    yield from _json_seq(open_, chunks, close, nl, inner)


def _json_parts(obj, nl) -> Iterator[str]:
    """JSON text of `obj` at the nesting level whose newline and indentation
    is `nl` (None: compact), in fragments."""
    leaf = _JSON_LEAF.get(type(obj))
    if leaf is not None:
        yield leaf(obj)
        return
    inner = None if nl is None else nl + "  "
    if isinstance(obj, dict):
        items = {str(key): value for key, value in obj.items()}
        colon = ":" if nl is None else ": "
        lead = "" if nl is None else inner
        head = "{" + lead
        for key in sorted(items):
            yield head + _escape(key) + colon
            yield from _json_parts(items[key], inner)
            head = "," + lead
        yield "{}" if not items else ("" if nl is None else nl) + "}"
    elif isinstance(obj, (list, tuple, np.ndarray)):
        yield from _json_seq("[", (_json_items(obj[lo:lo + CHUNK], inner)
                                   for lo in range(0, len(obj), CHUNK)), "]", nl, inner)
    elif isinstance(obj, Table):
        yield from _json_table(obj, nl, inner)
    elif isinstance(obj, Rows):
        yield from _json_seq("[", (_json_rows([column[lo:lo + CHUNK] for column in obj.columns],
                                              inner)
                                   for lo in range(0, len(obj), CHUNK)), "]", nl, inner)
    elif isinstance(obj, str):
        yield _escape(obj)
    elif isinstance(obj, (float, Fraction, np.floating)):
        yield _json_float(float(obj))
    elif isinstance(obj, (int, np.integer)):
        yield int.__repr__(int(obj))
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _json(obj, nl) -> str:
    return "".join(_json_parts(obj, nl))


def json_fragments(obj) -> Iterator[str]:
    """The indented JSON text of `obj`, then a newline, in fragments."""
    yield from _json_parts(obj, "\n")
    yield "\n"


def dumps_json(obj) -> str:
    return "".join(json_fragments(obj))


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
    if isinstance(values, Table):
        return _coded(values, _csv_cells)
    if isinstance(values, range):
        return _range_texts(values)
    if isinstance(values, np.ndarray) and values.dtype.kind in "iuf":
        texts = _once_per_pattern(values, _csv_cells)
        if texts is not None:
            return texts
        values = values.tolist()  # the cells of numpy ints and floats are their Python values'
    kinds = set(map(type, values))
    if len(kinds) == 1 and (cell := _CSV_CELL.get(kinds.pop())):
        return list(map(cell, values))
    return [cell(v) if (cell := _CSV_CELL.get(type(v))) else _csv_other(v) for v in values]


def _csv_line(fields: list[str]) -> str:
    # csv quotes a row's only field when it is empty, so the row is not blank.
    return '""' if len(fields) == 1 and not fields[0] else ",".join(fields)


def _csv_table(header, table: Table) -> Iterator[list[str]]:
    names = list(header[1:] if table.keys is not None else header)
    if not names:
        raise ValueError("the header names no column of the table")
    # Only a row of one field can be blank, which `_csv_line` writes as csv does.
    join = _csv_line if table.keys is None and len(names) == 1 else ",".join

    def records(fields):
        return list(map(join, zip(*[_csv_cells(fields[name]) for name in names])))
    for keys, texts in _table_entries(table, records):
        yield texts if keys is None else [key + "," + text
                                          for key, text in zip(_csv_cells(keys), texts)]


def csv_fragments(header, rows) -> Iterator[str]:
    """Header line, then one line per row, in fragments of `CHUNK` rows;
    `rows` is an iterable of cell sequences or a `Table`."""
    yield _csv_writer_line(header) + "\n"  # the header's cells are not formatted
    if isinstance(rows, Table):
        chunks = _csv_table(header, rows)
    else:
        rows = iter(rows)
        chunks = iter(lambda: [_csv_line(_csv_cells(row)) for row in islice(rows, CHUNK)], [])
    for lines in chunks:
        yield "\n".join(lines) + "\n"


def csv_text(header, rows) -> str:
    return "".join(csv_fragments(header, rows))


def atomic_write(path, fragments: Iterable[str]) -> None:
    """Stream `fragments` through a temporary file, then rename it over
    `path`; if one fails, remove the temporary file and leave `path` as is."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.writelines(fragments)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


def atomic_write_text(path, text: str) -> None:
    """`atomic_write` of one fragment, the whole text."""
    atomic_write(path, (text,))
