"""The fragment writers against the reference writers of reference.py
(`to_jsonable` + `json.dumps`, `fmt_cell` + `csv.writer`): every text must
be equal byte for byte."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference
from lsmdp.coefficients import classify
from lsmdp import serialize
from lsmdp.objectives import parse_objective
from lsmdp.policies import parse_policy
from lsmdp.search_space import LocalSearchMdp
from lsmdp.serialize import (Table, atomic_write, csv_fragments, csv_text, dumps_json,
                             dumps_json_line, json_fragments)
from lsmdp.simulator import simulate_batch
from test_oracle import POLICIES, ROLLOUT_POLICIES, landscapes


def assert_json_matches(obj):
    assert dumps_json(obj) == reference.dumps_json(obj)
    assert dumps_json_line(obj) == reference.dumps_json_line(obj)


EDGE_VALUES = [
    math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, 1e300, 0.1, 1e-7, 123456789.0,
    np.float64(0.1), np.float64(-math.inf), np.float64("nan"), np.float32(0.1),
    np.int64(-7), np.int32(3), np.uint8(255), Fraction(1, 3), 10**30, -1, True, False, None,
    "", 'say "hi"', "back\\slash", "tab\tnew\nline\r\x00\x1f", "é€😀", "%s %d",
]


@pytest.mark.parametrize("value", EDGE_VALUES, ids=repr)
def test_json_leaves(value):
    assert_json_matches(value)
    assert_json_matches([value, [value], {"k": value}])


@pytest.mark.parametrize("obj", [
    [], {}, [[]], [{}], {"a": []}, {"a": {}}, {"a": [[], {}]}, ((),),
    {3: "int key", "10": "sorted as text", "9": None, (1, 2): "tuple key", True: 1},
    [[1, 2.5], [3, -0.0], [4, math.inf]],       # equal-length rows
    [[1, 2], None, [3, 4], None],               # rows mixed with nulls
    [[1, 2], [3]], [[], []], [(1,), [2]],       # rows of unequal length or kind
    [1, 2.0, "3", None, True], [1.5, math.nan], list(range(5)),
    np.array([]), np.array([1.0, -0.0, math.inf]), np.arange(4), np.array([[1, 2], [3, 4]]),
    np.array([True, False]), {"%": {"%s": [1]}},
])
def test_json_containers(obj):
    assert_json_matches(obj)


def test_json_rejects_what_json_rejects():
    for obj in [{1, 2}, np.bool_(True), object(), np.array(1.5)]:
        with pytest.raises(TypeError):
            dumps_json(obj)
        with pytest.raises(TypeError):
            reference.dumps_json(obj)


@pytest.mark.parametrize("row", [
    ["a,b", 'q"uote', "new\nline", "cr\ronly", "nul\x00", "plain", "é"],
    ["sa:T0=5,rate=0.995", 1, 2.5],
    [None], [""], [None, None], [], [True, False, None],
    [np.float64(0.1), np.int64(3), np.float32(0.5), np.bool_(True), Fraction(1, 4)],
    [math.inf, -math.inf, math.nan, -0.0, 10**20],
    [[1, 2], (3,), {"a": 1}],
])
def test_csv_cells(row):
    header = ("h",) * len(row)
    assert csv_text(header, [row, row]) == reference.csv_text(header, [row, row])
    assert csv_text(row, []) == reference.csv_text(row, [])


def test_csv_descriptor_is_quoted():
    assert csv_text(("policy",), [("sa:T0=5,rate=0.995",)]) == 'policy\n"sa:T0=5,rate=0.995"\n'


floats = st.floats(allow_nan=True, allow_infinity=True)
text = st.text(max_size=6)
leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-2**70, 2**70), floats, text,
    floats.map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64), st.fractions(max_denominator=100))


def containers(children):
    rows = st.integers(1, 3).flatmap(lambda width: st.lists(
        st.one_of(st.none(), st.lists(children, min_size=width, max_size=width)), max_size=4))
    return st.one_of(
        st.lists(children, max_size=4), st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.one_of(text, st.integers(-20, 20)), children, max_size=4),
        rows, st.lists(floats, max_size=4), st.lists(st.integers(), max_size=4),
        st.lists(floats, max_size=4).map(lambda xs: np.array(xs, dtype=float)),
        st.lists(st.integers(-2**63, 2**63 - 1), max_size=4).map(
            lambda xs: np.array(xs, dtype=np.int64)))


@settings(max_examples=300, deadline=None)
@given(st.recursive(leaves, containers, max_leaves=20))
def test_json_equals_reference(obj):
    assert_json_matches(obj)


@settings(max_examples=300, deadline=None)
@given(st.lists(leaves, max_size=4), st.lists(st.lists(leaves, max_size=4), max_size=4))
def test_csv_equals_reference(header, rows):
    assert csv_text(header, rows) == reference.csv_text(header, rows)


@st.composite
def tables(draw):
    names = draw(st.lists(text, min_size=1, max_size=4, unique=True))
    records = draw(st.integers(1, 4))
    columns = {name: draw(st.one_of(
        st.lists(leaves, min_size=records, max_size=records),
        st.lists(floats, min_size=records, max_size=records).map(np.array)))
        for name in names}
    codes = draw(st.one_of(st.none(), st.lists(st.integers(0, records - 1), max_size=6)))
    entries = len(codes) if codes is not None else records
    keys = draw(st.one_of(st.none(), st.lists(st.integers(-30, 30), min_size=entries,
                                              max_size=entries, unique=True)))
    return Table(columns, codes, keys)


def field(column, index):
    """Item `index` of a column, a coded column's included."""
    if isinstance(column, Table):
        return column.columns[column.codes[index]]
    return column[index]


def expanded(table):
    """The table as the plain objects and rows it stands for."""
    codes = table.codes if table.codes is not None else range(len(next(iter(table.columns.values()))))
    entries = [{name: field(column, code) for name, column in table.columns.items()}
               for code in codes]
    if table.keys is None:
        return entries
    return dict(zip(table.keys, entries))


@settings(max_examples=300, deadline=None)
@given(tables(), st.data())
def test_table_equals_reference(table, data):
    assert dumps_json({"table": table}) == reference.dumps_json({"table": expanded(table)})
    assert dumps_json_line([table]) == reference.dumps_json_line([expanded(table)])
    names = data.draw(st.lists(st.sampled_from(sorted(table.columns)), min_size=1))
    entries = expanded(table)
    if table.keys is None:
        header, rows = names, [[entry[name] for name in names] for entry in entries]
    else:
        header = ["key"] + names
        rows = [[key] + [entry[name] for name in names] for key, entry in entries.items()]
    assert csv_text(header, table) == reference.csv_text(header, rows)


@settings(max_examples=150, deadline=None)
@given(landscapes(), st.sampled_from(POLICIES), st.sampled_from([1, 25, 120]), st.data())
def test_classify_writers_equal_reference(mdp, descriptor, horizon, data):
    states = data.draw(st.one_of(st.none(), st.lists(
        st.integers(0, mdp.num_states - 1), min_size=1, max_size=12)))
    report = classify(parse_policy(descriptor), mdp, horizon=horizon, states=states)
    assert (dumps_json(report.to_json_dict())
            == reference.dumps_json(reference.report_json_dict(report)))
    assert (csv_text(report.CSV_HEADER, report.table())
            == reference.csv_text(report.CSV_HEADER, reference.report_csv_rows(report)))


@settings(max_examples=100, deadline=None)
@given(landscapes(max_bits=8), st.sampled_from(ROLLOUT_POLICIES), st.integers(0, 40),
       st.integers(0, 4), st.integers(0, 2**32))
def test_trajectory_lines_equal_reference(mdp, descriptor, horizon, count, base_seed):
    batch = simulate_batch(parse_policy(descriptor), mdp, "uniform", horizon, count, base_seed,
                           keep_steps=True)
    for k, record in enumerate(batch.records):
        expected = reference.dumps_json_line(reference.trajectory_json_dict(record))
        assert dumps_json_line(batch.trajectory_json(k)) == expected


@pytest.mark.parametrize("chunk", [1, 64, serialize.CHUNK])
@pytest.mark.parametrize("descriptor", ["hc", "sa:T0=2,rate=0.9", "walk"])
def test_long_trajectory_lines_equal_reference(monkeypatch, chunk, descriptor):
    # Past DISTINCT_MIN steps the running best and the rewards repeat a few
    # values (formatted once per bit pattern), and the time columns pass CHUNK.
    monkeypatch.setattr(serialize, "CHUNK", chunk)
    mdp = LocalSearchMdp(parse_objective("trap:n=8,k=4"))
    batch = simulate_batch(parse_policy(descriptor), mdp, "uniform", 300, 3, 5, keep_steps=True)
    for k, record in enumerate(batch.records):
        expected = reference.dumps_json_line(reference.trajectory_json_dict(record))
        assert dumps_json_line(batch.trajectory_json(k)) == expected


# Bit patterns of float64 edge values: both zeros, NaNs with other payloads
# and signs (a signaling one too), the infinities and the extremes.
FLOAT_BITS = [0, 1 << 63, 0x7FF8000000000000, 0xFFF8000000000000, 0x7FF800000000BEEF,
              0x7FF0000000000001, 0x7FF0000000000000, 0xFFF0000000000000, 1,
              0x7FEFFFFFFFFFFFFF, 0x3FF0000000000000]
INT_EDGES = {np.int64: [-2**63, 2**63 - 1, -1, 0, 1], np.uint64: [0, 1, 2**63, 2**64 - 1]}


@st.composite
def repeated_columns(draw):
    """(column, distinct): a numeric column of a size about `DISTINCT_MIN`
    whose `distinct` bit patterns are all used, exactly half of them among
    others."""
    dtype = draw(st.sampled_from([np.float64, np.int64, np.uint64]))
    least = serialize.DISTINCT_MIN
    size = draw(st.sampled_from([least - 1, least, least + 1, 2 * least + 3]))
    distinct = draw(st.sampled_from(sorted({1, 2, size // 2, size // 2 + 1, size})))
    if dtype is np.float64:
        patterns = st.one_of(st.sampled_from(FLOAT_BITS),
                             st.floats().map(lambda x: int(np.float64(x).view(np.uint64))))
    else:
        info = np.iinfo(dtype)
        patterns = st.one_of(st.sampled_from(INT_EDGES[dtype]),
                             st.integers(int(info.min), int(info.max)))
    used = np.array(draw(st.lists(patterns, min_size=distinct, max_size=distinct, unique=True)),
                    dtype=np.uint64 if dtype is np.float64 else dtype)
    # The repeats and their order come from a seed, which shrinks quickly.
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    bits = rng.permutation(np.concatenate([used, rng.choice(used, size - distinct)]))
    return (bits.view(np.float64) if dtype is np.float64 else bits), distinct


@settings(max_examples=300, deadline=None)
@given(repeated_columns())
def test_distinct_patterns_format_as_the_plain_path(column):
    values, distinct = column
    formats = serialize._once_per_pattern(values, list) is not None
    assert formats == (values.dtype == np.float64 and values.size >= serialize.DISTINCT_MIN
                       and 2 * distinct <= values.size)
    for nl in (None, "\n  "):
        assert serialize._json_items(values, nl) == serialize._json_items(values.tolist(), nl)
    assert serialize._csv_cells(values) == serialize._csv_cells(values.tolist())


def test_signed_zeros_and_nan_payloads_keep_their_text():
    values = np.array(FLOAT_BITS * 24, dtype=np.uint64).view(np.float64)  # 11 patterns
    assert serialize._once_per_pattern(values, list) is not None
    texts = serialize._json_items(values, None)
    assert texts == serialize._json_items(values.tolist(), None)
    assert texts[:4] == ["0.0", "-0.0", '"nan"', '"nan"']
    assert serialize._csv_cells(values)[:4] == ["0.0", "-0.0", "nan", "nan"]


# ---------------------------------------------------------------- streamed files

NEEDS_QUOTING = ["a,b", 'say "hi"', "new\nline", "cr\ronly", "", " lead", "é,€"]


@st.composite
def any_tables(draw):
    """Keyed, coded, plain and empty tables, keyed lists and coded columns
    among them, with non-finite floats and cells that CSV must quote."""
    cells = st.one_of(leaves, st.sampled_from(NEEDS_QUOTING))
    records = draw(st.integers(1, 7))
    coded = st.lists(cells, min_size=1, max_size=4).flatmap(  # a few values, repeated
        lambda values: st.lists(st.integers(0, len(values) - 1), min_size=records,
                                max_size=records).map(lambda codes: Table(values, codes)))
    column = st.one_of(st.lists(cells, min_size=records, max_size=records),
                       st.lists(floats, min_size=records, max_size=records).map(np.array), coded)
    if draw(st.booleans()):
        columns = {name: draw(column)
                   for name in draw(st.lists(text, min_size=1, max_size=3, unique=True))}
    else:  # a keyed list: the records themselves
        columns = draw(st.lists(st.one_of(cells, st.lists(cells, max_size=3)),
                                min_size=records, max_size=records))
    codes = draw(st.one_of(st.none(), st.lists(st.integers(0, records - 1), max_size=9)))
    entries = len(codes) if codes is not None else records
    keys = draw(st.one_of(st.none(), st.lists(st.integers(-30, 3000), min_size=entries,
                                              max_size=entries, unique=True)))
    return Table(columns, codes, keys)


def plain(table):
    """`expanded` for keyed lists too."""
    if isinstance(table.columns, dict):
        return expanded(table)
    codes = table.codes if table.codes is not None else range(len(table.columns))
    entries = [table.columns[code] for code in codes]
    return entries if table.keys is None else dict(zip(table.keys, entries))


@pytest.mark.parametrize("chunk", [1, 3, serialize.CHUNK])
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=any_tables(), leaf=leaves, data=st.data())
def test_streamed_files_equal_reference(tmp_path, monkeypatch, chunk, table, leaf, data):
    monkeypatch.setattr(serialize, "CHUNK", chunk)
    path = tmp_path / "out"
    nested = {"outer": {"table": table, "leaf": leaf, "tables": [table, leaf]},
              "list": [leaf] * 7, "array": np.arange(5.0)}
    expected = {"outer": {"table": plain(table), "leaf": leaf, "tables": [plain(table), leaf]},
                "list": [leaf] * 7, "array": np.arange(5.0)}
    atomic_write(path, json_fragments(nested))
    assert path.read_bytes() == reference.dumps_json(expected).encode()
    if not isinstance(table.columns, dict):
        return
    names = data.draw(st.lists(st.sampled_from(sorted(table.columns)), min_size=1))
    entries = expanded(table)
    if table.keys is None:
        header, rows = names, [[entry[name] for name in names] for entry in entries]
    else:
        header = ["key"] + names
        rows = [[key] + [entry[name] for name in names] for key, entry in entries.items()]
    expected_csv = reference.csv_text(header, rows).encode()
    atomic_write(path, csv_fragments(header, table))
    assert path.read_bytes() == expected_csv
    atomic_write(path, csv_fragments(header, rows))
    assert path.read_bytes() == expected_csv


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.lists(st.integers(0, 10**18), unique=True, max_size=40),
                 st.lists(st.integers(0, 300), unique=True, max_size=60),  # 3, 30, 300 ...
                 st.lists(st.integers(-50, 50), unique=True, max_size=40),
                 st.integers(0, 3000).map(range)))
def test_key_order_is_str_order(keys):
    order = serialize._key_order(np.array(keys) if isinstance(keys, list) and keys else keys)
    assert [keys[j] for j in order.tolist()] == sorted(keys, key=str)


@pytest.mark.parametrize("existing", [False, True], ids=["fresh", "existing"])
def test_failed_stream_leaves_no_partial_file(tmp_path, existing):
    path = tmp_path / "report.json"
    if existing:
        path.write_text("old\n")
    fields = [0.5] * (3 * serialize.CHUNK)
    fields[-1] = object()  # formatted only with the last chunk
    written = []

    def fragments():
        for fragment in json_fragments({"states": Table({"x": fields})}):
            written.append(fragment)
            yield fragment

    with pytest.raises(TypeError):
        atomic_write(path, fragments())
    assert len(written) > 2  # the chunks before it did reach the temporary file
    assert sorted(p.name for p in tmp_path.iterdir()) == (["report.json"] if existing else [])
    if existing:
        assert path.read_text() == "old\n"


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("coded", [False, True], ids=["per-state", "coded"])
def test_writer_memory_is_a_fraction_of_the_file(tmp_path, fmt, coded):
    # Writing a keyed table of 2**17 entries must not hold the file: memory
    # rises by less than a quarter of the file's size above what was held before.
    size = 1 << 17
    rng = np.random.default_rng(0)
    records = 24 if coded else size
    up = rng.integers(0, 17, records)
    table = Table({"f": rng.random(records), "improving": up, "gamma": (up / 17).tolist(),
                   "verdict": ["converged"] * records, "local_max": (up == 0).tolist()},
                  codes=rng.integers(0, records, size) if coded else None,
                  keys=list(range(size)))
    path = tmp_path / f"table.{fmt}"
    header = ("state",) + tuple(sorted(table.columns))
    fragments = (json_fragments({"states": table}) if fmt == "json"
                 else csv_fragments(header, table))
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        atomic_write(path, fragments)
        rise = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert rise < path.stat().st_size / 4
