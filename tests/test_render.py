"""The report's text format, pinned independently of the renderer: the
layout of ``json.dumps(indent=2)``, floats at 17 significant digits (an
integral one with ``.0``), non-finite floats as strings, NumPy values as
their ``tolist()``."""

import enum
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ktgeo.classify import DEFAULT_CLASSIFY_TOL
from ktgeo.cli import SUITES, RunConfig, main, render_report, run
from ktgeo.tensor_core import DEFAULT_STEP

from conftest import pulled_charts

# JSON trees without floats, whose text json.dumps fixes exactly
_FLOAT_FREE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=30,
)


@pytest.mark.parametrize("argv", [
    ["suite", "--all", "--points", "2"],
    ["report", "--manifold", "su2xu1", "--points", "6"],
])
def test_a_report_is_a_fixed_point_of_parse_and_render(argv, tmp_path):
    out = tmp_path / "r.json"
    assert main(argv + ["--out", str(out)]) == 0
    text = out.read_text()
    assert render_report(json.loads(text)) == text


@settings(max_examples=200, deadline=None)
@given(_FLOAT_FREE)
def test_float_free_trees_render_as_json_dumps_indent_2(tree):
    assert render_report(tree) == json.dumps(tree, indent=2) + "\n"


@settings(max_examples=200, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_finite_floats_have_17_significant_digits_and_round_trip(v):
    text = render_report([v])
    digits = format(v, ".17g")
    # an integral float ("-0", "1") gains ".0", so it is read back as a float
    if "." not in digits and "e" not in digits:
        digits += ".0"
    assert text == "[\n  " + digits + "\n]\n"
    [back] = json.loads(text)
    assert type(back) is float
    assert back == v and math.copysign(1.0, back) == math.copysign(1.0, v)


def test_non_finite_floats_render_as_strings():
    text = render_report({"a": math.nan, "b": math.inf, "c": -math.inf})
    assert json.loads(text) == {"a": "nan", "b": "inf", "c": "-inf"}


def test_numpy_values_render_as_their_tolist():
    values = {"f": np.float64(0.1), "i": np.int64(-3), "b": np.bool_(True),
              "a": np.arange(4.0).reshape(2, 2), "n": [np.float32(0.5)]}
    plain = {"f": 0.1, "i": -3, "b": True, "a": [[0.0, 1.0], [2.0, 3.0]], "n": [0.5]}
    assert render_report(values) == render_report(plain)


def test_tuples_render_as_lists():
    assert render_report({"t": (1, (2, "x"))}) == render_report({"t": [1, [2, "x"]]})


class _Text(str):
    pass


class _Level(enum.IntEnum):
    LOW = 1


# the writer takes exact built-in types alone: a subclass of one, and a dict
# key other than a str, are unknown types too
@pytest.mark.parametrize("value", [{1, 2}, {"nested": [{1}]}, object(), _Text("x"),
                                   _Level.LOW, {1: "one"}])
def test_an_unknown_type_raises_type_error(value):
    with pytest.raises(TypeError, match="cannot serialize"):
        render_report(value)


def _walk(node):
    """Assert that every key of the tree ``node`` is a ``str`` and every
    leaf an exact built-in scalar or a NumPy scalar."""
    if type(node) is dict:
        for key, value in node.items():
            assert type(key) is str, key
            _walk(value)
    elif type(node) in (list, tuple):
        for value in node:
            _walk(value)
    else:
        assert type(node) in (str, int, float, bool, type(None)) or isinstance(
            node, np.generic), (type(node), node)


@pytest.mark.parametrize("charts", ["catalog", "pulled"])
def test_a_report_holds_only_what_the_writer_takes(charts):
    # the writer takes exact built-in types and NumPy values alone, so a
    # report's tree must hold nothing else, the pulled charts' too
    manifolds = ("all",) if charts == "catalog" else tuple(pulled_charts())
    _walk(run(RunConfig(manifolds=manifolds, points=2, seed=0, step=DEFAULT_STEP,
                        tol_identity=None, tol_classify=DEFAULT_CLASSIFY_TOL, suites=SUITES,
                        out=None)))
