"""The run outputs' encoder: ``json.dumps(..., indent=2)`` text with floats
at nine significant digits, and CSV cells as the README states them."""

import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from frenetplan.cli import _json_text, _write_csv
from frenetplan.evaluation import Constraint

EDGE_FLOATS = [-0.0, 0.0, math.nan, math.inf, -math.inf, 2.5e9, 1e16, 5e-324, 1e-5, 3.0]

floats = st.floats() | st.sampled_from(EDGE_FLOATS)
texts = st.text(st.characters(codec="utf-8"), max_size=8) | st.sampled_from(["%", "%s", "a\x00b"])
leaves = (
    floats
    | floats.map(np.float64)
    | st.integers(-(2**70), 2**70)
    | st.integers(-(2**63), 2**63 - 1).map(np.int64)
    | st.booleans()
    | st.booleans().map(np.bool_)
    | st.none()
    | texts
    | st.sampled_from(Constraint)
)
keys = texts | st.sampled_from(Constraint) | st.integers() | st.booleans() | st.none() | floats


def key_text(key):
    """A dict key as JSON writes it: non-string keys in their JSON spelling."""
    return key if isinstance(key, str) else json.dumps(key)


def spelled_apart(d):
    """No two keys share a JSON spelling (JSON keeps the last of equal keys)."""
    return len({key_text(k) for k in d}) == len(d)


payloads = st.recursive(
    leaves,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(keys, children, max_size=4).filter(spelled_apart)
        | arrays(np.float64, array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=3),
                 elements=floats)
        | arrays(np.int64, array_shapes(min_dims=1, max_dims=1, min_side=0, max_side=3))
    ),
    max_leaves=24,
)


def assert_written_as(value, loaded):
    """``loaded``, read back from the encoder's text, is ``value`` with its
    floats at nine significant digits."""
    if isinstance(value, dict):
        assert list(loaded) == [key_text(k) for k in value]
        for k, v in value.items():
            assert_written_as(v, loaded[key_text(k)])
    elif isinstance(value, (list, tuple, np.ndarray)):
        assert isinstance(loaded, list) and len(loaded) == len(value)
        for v, w in zip(value, loaded):
            assert_written_as(v, w)
    elif isinstance(value, (bool, np.bool_)):
        assert loaded is bool(value)
    elif isinstance(value, (int, np.integer)):
        assert type(loaded) is int and loaded == int(value)
    elif isinstance(value, (float, np.floating)):
        assert type(loaded) is float
        assert repr(loaded) == repr(float(f"{float(value):.9g}"))
    elif value is None:
        assert loaded is None
    else:
        assert type(loaded) is str and loaded == value


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(payloads)
def test_json_text_is_indented_json_of_the_rounded_payload(payload):
    out = _json_text(payload)
    loaded = json.loads(out)
    assert_written_as(payload, loaded)
    # the standard library writes the rounded values in the same bytes
    assert json.dumps(loaded, indent=2) == out


def test_json_text_of_floats_at_the_format_boundaries():
    values = [0.5, 123456789.4, 999999999.6, 1e-4, 9.99999999949e-5, 1e15, 1e16, -1e-320]
    assert json.loads(_json_text(values)) == [float(f"{v:.9g}") for v in values]
    assert _json_text(values) == json.dumps([float(f"{v:.9g}") for v in values], indent=2)


def test_json_text_spells_equal_keys_apart():
    # equal keys of different types share a key tuple, not a spelling
    rows = [{1: 0.5}, {True: 0.5}, {1.0: 0.5}, {"1": 0.5}, {None: [], -0.0: {}}]
    assert _json_text(rows) == json.dumps(rows, indent=2)


def test_csv_cells(tmp_path):
    row = (3, np.int64(-7), True, np.False_, "a;b", 0.1234567891234, np.float64(2.5e9),
           -0.0, 1e16, math.nan, -math.inf, 2)
    path = tmp_path / "cells.csv"
    _write_csv(path, [f"c{i}" for i in range(len(row))], [row, row[::-1]])
    header, first, second = path.read_text().splitlines()
    assert header == ",".join(f"c{i}" for i in range(len(row)))
    assert first == "3,-7,1,0,a;b,0.123456789,2.5e+09,-0,1e+16,nan,-inf,2"
    assert second == "2,-inf,nan,1e+16,-0,2.5e+09,0.123456789,a;b,0,1,-7,3"
