"""The CLI renderer against an oracle, and CSV reports against their JSON.

The oracle is the two-pass renderer the CLI once used: round every float to
12 significant digits while walking the payload, then ``json.dumps(indent=2)``.
``render_report`` must reproduce its bytes on any nested payload, and
``render_table`` on the rows of any column-major table, as must
``render_report`` on a payload holding one, as a protocol trace does.  A CSV report is a
two-column ``key,value`` file whose every number is the JSON report's number.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorlab import cli, transforms
from factorlab.cli import main, render_report, render_table


def _oracle_jsonable(obj):
    if isinstance(obj, dict):
        return {k: _oracle_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_oracle_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(f"{float(obj):.12g}")
    return obj


def oracle_json(obj) -> str:
    return json.dumps(_oracle_jsonable(obj), indent=2) + "\n"


def _oracle_cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.12g}"
    return str(v)


def oracle_csv_table(columns, rows) -> str:
    lines = [",".join(columns)]
    lines += [",".join(_oracle_cell(row[c]) for c in columns) for row in rows]
    return "\n".join(lines) + "\n"


# Floats where 12-digit rounding and float.__repr__ part ways: signed zero,
# the 1e12 to 1e16 band where %.12g already writes an exponent and repr does
# not, subnormals (whose shortest repr can be shorter than 12 digits), the
# small-exponent threshold and the non-finite values.
EDGE_FLOATS = [
    0.0, -0.0, 1.0, -1.0, 0.1, 1e-5, 1e-4, 9.99999999999e-5, 1.5e-5, 123456789012.0,
    999999999999.4, 999999999999.6, 1e12, 1.5e12, 1e13, 1e15, 9999999999999998.0, 1e16,
    1.2345678901234e16, 1e17, -1e17, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
    1.7976931348623157e308, math.nan, math.inf, -math.inf,
]

floats = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(1e12, 1e17) | st.floats(-1e17, -1e12),
    st.floats(-1e-300, 1e-300),
)
leaves = st.one_of(
    floats,
    floats.map(np.float64),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.booleans(),
    st.none(),
    st.integers(),
    st.text(),
    st.sampled_from(["état", "ψ⁻", "日本", " ", '"quoted"\\', "\x00\x1f"]),
)
keys = st.text(max_size=6)
trees = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(keys, children, max_size=4),
    ),
    max_leaves=40,
)


# Column names that a template could misread: printf and str.format
# directives, quotes, a comma, non-ASCII and the empty name.
TABLE_KEYS = ["%", "%s", "%%", "%(x)s", "{", "}", "{0}", '"', 'a"b', "\\", ",", "état", "ψ⁻",
              "日本", "\x00", ""]
table_keys = st.one_of(keys, st.sampled_from(TABLE_KEYS))


@st.composite
def tables(draw):
    """(columns, table): distinct column names and one list of cells per
    column, all of one length; a column holds Python floats only (the sweep's
    columns) or any leaves."""
    columns = draw(st.lists(table_keys, min_size=1, max_size=5, unique=True))
    num = draw(st.integers(0, 6))
    column = st.one_of(st.lists(floats, min_size=num, max_size=num),
                       st.lists(leaves, min_size=num, max_size=num))
    return columns, [draw(column) for _ in columns]


def as_rows(columns, table):
    """The rows of a column-major table, as the dicts the oracles take."""
    return [dict(zip(columns, row)) for row in zip(*table)]


def assert_table_equals_oracle(columns, table):
    rows = as_rows(columns, table)
    assert render_table(columns, table, "json") == oracle_json(rows)
    assert render_table(columns, table, "csv") == oracle_csv_table(columns, rows)
    # the same writer, one level down in a report
    assert render_report({"t": cli._Table(columns, table)}, "json") == oracle_json({"t": rows})


@settings(max_examples=400, deadline=None)
@given(st.dictionaries(keys, trees, max_size=5))
def test_report_json_equals_oracle(payload):
    assert render_report(payload, "json") == oracle_json(payload)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(keys, st.lists(st.dictionaries(keys, leaves, max_size=4), max_size=4)))
def test_report_json_lists_of_dicts_equal_oracle(payload):
    """Lists of flat dicts whose keys differ from item to item."""
    assert render_report(payload, "json") == oracle_json(payload)


@settings(max_examples=300, deadline=None)
@given(tables())
def test_table_equals_oracle(table):
    assert_table_equals_oracle(*table)


@pytest.mark.parametrize("x", EDGE_FLOATS)
def test_edge_floats_equal_oracle(x):
    payload = {"x": x, "np": np.float64(x), "list": [x, -x]}
    assert render_report(payload, "json") == oracle_json(payload)
    assert_table_equals_oracle(["x"], [[x]])
    assert_table_equals_oracle(["x", "-x", "np"], [[x], [-x], [np.float64(x)]])


def test_edge_float_columns_equal_oracle():
    """Every edge value in one float column, beside their negations, the same
    values as numpy scalars, and a column that also holds a None."""
    column = EDGE_FLOATS + [0.5]
    assert_table_equals_oracle(["x", "-x", "np", "mixed"], [
        column, [-x for x in column], list(map(np.float64, column)), EDGE_FLOATS + [None]])


@pytest.mark.parametrize("columns", [["x"], TABLE_KEYS], ids=["one column", "template keys"])
@pytest.mark.parametrize("num", [0, 1, 3])
def test_table_shapes_equal_oracle(columns, num):
    """No row, one row and a few, under one plain key and under keys that a
    row template could misread."""
    table = [[0.5 * i - j for i in range(num)] for j in range(len(columns))]
    assert_table_equals_oracle(columns, table)
    assert_table_equals_oracle(columns, [[None, "s", 7, False][:num] for _ in columns])


def test_empty_containers_equal_oracle():
    payload = {"a": [], "b": {}, "c": [[], {}, ()], "d": [{}]}
    assert render_report(payload, "json") == oracle_json(payload)
    assert render_report({}, "json") == oracle_json({})
    assert render_table(["x"], [[]], "json") == oracle_json([])
    assert render_table([], [], "json") == oracle_json([])
    assert render_table([], [], "csv") == "\n"


# ---------------------------------------------------------------------------
# protocol traces: outcomes as a column-major table inside the report

OUTCOME_COLUMNS = ("outcome", "probability", "correction", "fidelity")
# correction labels a row template could misread, beside the protocols' own
LABELS = ['"', "\\", "%", "%s", "%d", "%%", "{0}", "W[0,1]", "composed@2,3", "état", "ψ⁻", "日本"]


def trace_payloads(outcome, probability, correction, fidelity):
    """(the trace as ``run_protocol`` builds it, the same trace with one dict
    per outcome)."""
    meta = {"kind": "swap", "d": 3, "seed": 5}
    indices = np.array(outcome, dtype=np.int64).reshape(-1, 2)
    table = cli._Table(OUTCOME_COLUMNS, (indices, probability, correction, fidelity))
    rows = as_rows(OUTCOME_COLUMNS, (indices.tolist(), probability, correction, fidelity))
    return {**meta, "outcomes": table}, {**meta, "outcomes": rows}


@st.composite
def traces(draw):
    num = draw(st.integers(0, 9))
    column = lambda cells: draw(st.lists(cells, min_size=num, max_size=num))
    pair = st.tuples(st.integers(-2**63, 2**63 - 1), st.integers(-2**63, 2**63 - 1))
    return trace_payloads(column(pair), column(floats), column(st.text() | st.sampled_from(LABELS)),
                          column(floats))


def assert_trace_equals_oracle(columnar, rows):
    assert render_report(columnar, "json") == oracle_json(rows)


@settings(max_examples=300, deadline=None)
@given(traces())
def test_trace_equals_oracle(trace):
    assert_trace_equals_oracle(*trace)


@pytest.mark.parametrize("num", [0, 1])
def test_trace_shapes_equal_oracle(num):
    assert_trace_equals_oracle(*trace_payloads([(0, 1)][:num], [0.25][:num], ["W[0,1]"][:num],
                                                [1.0][:num]))


def test_edge_float_trace_equals_oracle():
    """Every edge value in both float columns, under every template-like label."""
    num = len(EDGE_FLOATS)
    labels = (LABELS * num)[:num]
    assert_trace_equals_oracle(*trace_payloads(
        [(n, num - n) for n in range(num)], EDGE_FLOATS, labels, EDGE_FLOATS[::-1]))


@pytest.mark.parametrize("kind", ["teleport", "swap"])
def test_protocol_trace_equals_oracle(kind):
    """run_protocol hands the stack's columns over, and no dict per outcome."""
    trace = cli.run_protocol(kind, 3, 5)
    outcomes = trace["outcomes"]
    assert isinstance(outcomes, cli._Table) and outcomes.columns == OUTCOME_COLUMNS
    indices, *rest = outcomes.cells
    rows = as_rows(OUTCOME_COLUMNS, (indices.tolist(), *rest))
    assert render_report(trace, "json") == oracle_json({**trace, "outcomes": rows})


# ---------------------------------------------------------------------------
# CSV reports against their JSON

CLASSIFY_SOURCES = {
    "werner": ["werner", "0.8"],
    "gisin": ["gisin", "0.8", "0.35"],
    "bell": ["bell", "psi-"],
    "ghz-traced": ["ghz-traced", "0.3"],
    "narnhofer": ["narnhofer"],
    "tracial": ["tracial", "9"],
    "weyl": ["weyl", "1", "2", "3"],
    "rho-theta": ["rho-theta", "0.6"],
}
SWITCH_ARGS = {"u-theta": ["--theta", "0.6"], "u-tilde-theta": ["--theta", "0.6"]}
REPORTS = (
    [["classify", *source] for source in CLASSIFY_SOURCES.values()]
    + [["transform", name, *SWITCH_ARGS.get(name, []), source, "0.8"]
       for name in transforms.SWITCH_BUILDERS for source in ("werner", "rho-theta")]
)


def test_reports_cover_every_family_and_switch():
    assert set(CLASSIFY_SOURCES) == set(cli._STATE_FAMILIES)
    assert {argv[1] for argv in REPORTS if argv[0] == "transform"} == set(transforms.SWITCH_BUILDERS)


def _lookup(report, key: str):
    for part in key.split("."):
        report = report[int(part)] if isinstance(report, list) else report[part]
    return report


def _same(token: str, value) -> bool:
    if isinstance(value, bool):
        return token == ("true" if value else "false")
    if value is None:
        return token == "None"
    if isinstance(value, str):
        return token == value
    return float(token) == value


@pytest.mark.parametrize("argv", REPORTS, ids=" ".join)
def test_csv_report_is_two_columns_of_json_values(argv, capsys):
    assert main([*argv, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert main([*argv, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "key,value"
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 2, line
        key, text = fields
        value = _lookup(report, key)
        values = value if isinstance(value, list) else [value]
        tokens = text.split(" ") if values else [text]
        assert len(tokens) == len(values) or (not values and text == ""), line
        assert all(_same(t, v) for t, v in zip(tokens, values)), line
