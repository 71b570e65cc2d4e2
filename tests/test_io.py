"""The JSON writer against a reference serializer, and its memory bound.

``reference_dump`` is the recursive serializer that the streaming writer
replaced: it formats one number per call and converts every array with
``tolist()``.  The writer must reproduce it byte for byte.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from treelike.io import _format_number, dump_json, write_json  # noqa: E402


def reference_number(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    v = float(x)
    if math.isnan(v):
        return "null"
    if math.isinf(v):
        return '"inf"' if v > 0 else '"-inf"'
    if v == int(v) and abs(v) < 1e16:
        return f"{v:.1f}"
    return f"{v:.17g}"


def reference_dump(value, indent=0) -> str:
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(value, dict):
        if not value:
            return "{}"
        rows = [f"{inner}{json.dumps(str(k))}: "
                f"{reference_dump(v, indent + 2)}" for k, v in value.items()]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        seq = list(value)
        if not seq:
            return "[]"
        if all(not isinstance(v, (dict, list, tuple)) for v in seq):
            return "[" + ", ".join(reference_dump(v) for v in seq) + "]"
        rows = [f"{inner}{reference_dump(v, indent + 2)}" for v in seq]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    if isinstance(value, np.ndarray):
        return reference_dump(value.tolist(), indent)
    if value is None:
        return "null"
    if isinstance(value, str):
        return json.dumps(value)
    return reference_number(value)


SPECIAL = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, -2.5e-320,
           2.2250738585072014e-308, 0.1, 1 / 3, 3.0, -7.0, 2.0 ** 53,
           9999999999999998.0, -9999999999999998.0, 1e16, -1e16,
           10000000000000002.0, 1e300, -1.5e-300]
FLOATS = st.sampled_from(SPECIAL) | st.floats(allow_nan=True,
                                              allow_infinity=True)
FLOATS32 = st.sampled_from([-0.0, 0.0, math.nan, math.inf, -math.inf, 1e-45,
                            16777216.0, 0.1, 3.0]) | st.floats(width=32)
SHAPES = hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=4)
ARRAYS = st.one_of(
    hnp.arrays(np.float64, SHAPES, elements=FLOATS),
    hnp.arrays(np.float32, SHAPES, elements=FLOATS32),
    hnp.arrays(np.int64, SHAPES),
    hnp.arrays(np.uint8, SHAPES),
    hnp.arrays(np.bool_, SHAPES),
)
SCALARS = st.one_of(
    FLOATS, st.integers(-2 ** 70, 2 ** 70), st.booleans(), st.none(),
    st.text(max_size=4),
    FLOATS.map(np.float64), FLOATS32.map(np.float32),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
)
DOCUMENTS = st.recursive(
    ARRAYS | SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=3), inner, max_size=4)),
    max_leaves=8,
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(DOCUMENTS, st.sampled_from([0, 2]))
def test_dump_matches_reference(value, indent):
    assert dump_json(value, indent) == reference_dump(value, indent)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(FLOATS | FLOATS32.map(np.float32) | SCALARS)
def test_number_rule_matches_reference(x):
    if x is not None and not isinstance(x, str):
        assert _format_number(x) == reference_number(x)


@pytest.mark.parametrize("x, text", [
    (-0.0, "-0.0"), (3.0, "3.0"), (1e16, "10000000000000000"),
    (9999999999999998.0, "9999999999999998.0"), (0.1, "0.10000000000000001"),
    (5e-324, "4.9406564584124654e-324"), (math.nan, "null"),
    (math.inf, '"inf"'), (-math.inf, '"-inf"'),
    (np.float32(0.1), "0.10000000149011612"), (np.bool_(True), "1.0"),
    (True, "true"), (np.int64(-3), "-3"), (2 ** 70, str(2 ** 70)),
])
def test_number_rule(x, text):
    assert _format_number(x) == text


@pytest.mark.parametrize("value", [
    {"sim": np.arange(12.0).reshape(3, 4) / 7, "points": ["a", "b", "c"]},
    [np.array([[True, False], [False, True]]), np.array([1, 2])],
    np.zeros((3, 0)),
    np.ones((2, 2, 2)),
    {},
])
def test_write_json_is_dump_json_plus_newline(value, tmp_path):
    path = tmp_path / "out.json"
    write_json(path, value)
    assert path.read_bytes() == (dump_json(value) + "\n").encode()


def test_write_json_memory_is_bounded(tmp_path):
    # the streaming writer peaks near 0.03 times the 1.38 MB file, a writer
    # that joins the whole text first near 2 times
    sim = np.random.default_rng(3).random((256, 256))
    path = tmp_path / "big.json"
    tracemalloc.start()
    try:
        write_json(path, {"sim": sim})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 1_300_000
    assert peak < 0.1 * size
