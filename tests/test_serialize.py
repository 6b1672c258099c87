"""The fragment writers against the reference writers of reference.py
(`to_jsonable` + `json.dumps`, `fmt_cell` + `csv.writer`): every text must
be equal byte for byte."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from lsmdp.coefficients import classify
from lsmdp.policies import parse_policy
from lsmdp.serialize import Table, csv_text, dumps_json, dumps_json_line
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


def expanded(table):
    """The table as the plain objects and rows it stands for."""
    codes = table.codes if table.codes is not None else range(len(next(iter(table.columns.values()))))
    entries = [{name: column[code] for name, column in table.columns.items()} for code in codes]
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
