"""The bundle writer `reports.dumps` against the stdlib encoding it must
reproduce byte for byte."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from altring.cli import main
from altring.reports import _BLOCK_ROWS, dumps


def stdlib(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def assert_same(obj):
    """Equal text, or the same exception type when the stdlib refuses."""
    try:
        want = stdlib(obj)
    except (TypeError, ValueError) as exc:
        with pytest.raises(type(exc)):
            dumps(obj)
        return
    assert dumps(obj) == want


ints = st.integers(-2 ** 70, 2 ** 70)

# Integer rows: rectangular, ragged, empty, or holding a bool.  List
# tables all go to the stdlib; only ndarray tables take the table path.
int_rows = st.one_of(
    st.integers(0, 4).flatmap(lambda w: st.lists(st.lists(ints, min_size=w, max_size=w), max_size=5)),
    st.lists(st.lists(ints, max_size=4), max_size=5),
    st.lists(st.lists(ints | st.booleans(), max_size=4), max_size=5),
)

leaves = st.one_of(st.none(), st.booleans(), ints, st.floats(), st.text(), int_rows)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
        st.dictionaries(st.integers(-3, 3), children, max_size=3),       # non-str keys
        st.dictionaries(st.integers(-3, 3) | st.text(max_size=2) | st.none(), children, max_size=3),
    )


trees = st.recursive(leaves, _containers, max_leaves=24)


@given(trees)
def test_dumps_matches_stdlib(obj):
    assert_same(obj)


@pytest.mark.parametrize("obj", [
    {}, [], [[]], [{}], {"a": {}}, {"a": []}, {"a": {"b": {"c": []}}}, {"a": [[], [[]]]},
    [[1, 2], [3]], [[1, True]], [[-1, 2 ** 64 + 13]], [[0.5, 1]], {"x\ny": [[1]]},
    {"é": "ü ", "a": float("nan"), "b": [float("inf")]}, {1: [[1]], "1": 2},
    [[1]] * 3 + [[1, 2]],
])
def test_dumps_edge_cases(obj):
    assert_same(obj)


def plain(obj):
    """`obj` with every ndarray replaced by its `tolist()`."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: plain(v) for k, v in obj.items()}
    return obj


def assert_table_same(obj):
    assert dumps(obj) == stdlib(plain(obj))


TABLE_DTYPES = [np.int8, np.int16, np.int64, np.uint8]


@pytest.mark.parametrize("dtype", TABLE_DTYPES)
@pytest.mark.parametrize("shape", [(1, 1), (1, 6), (5, 1), (4, 3)])
def test_dumps_ndarray_tables(dtype, shape):
    """Integer ndarrays spanning their dtype's range, at the top level and
    nested at depths 1 to 3, beside other values."""
    info = np.iinfo(dtype)
    rng = np.random.default_rng(shape[0] * 10 + shape[1])
    arr = rng.integers(info.min, info.max, shape, dtype=dtype, endpoint=True)
    arr.flat[0], arr.flat[-1] = info.min, info.max
    assert_table_same(arr)
    assert_table_same({"t": arr})
    assert_table_same({"a": {"t": arr, "u": [1, 2]}, "b": None})
    assert_table_same({"a": {"b": {"t": arr[::-1].T}, "c": "x"}, "z": arr[:1]})


@given(hnp.arrays(st.sampled_from(TABLE_DTYPES),
                  hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6)))
def test_dumps_ndarray_matches_stdlib(arr):
    assert_table_same({"a": {"tau": arr}, "b": arr})


def test_dumps_table_across_blocks():
    rows = np.array([[k % 7 - 3, k] for k in range(2 * _BLOCK_ROWS + 5)], dtype=np.int64)
    assert_table_same({"outer": {"tau": rows}, "z": rows[:3]})
    assert_table_same({"tau": (rows % 5).astype(np.int8)})


@pytest.mark.parametrize("arr", [
    np.zeros((2, 2), dtype=bool), np.zeros((2, 2)), np.zeros((0, 3), dtype=np.int64),
    np.zeros((3, 0), dtype=np.int8), np.arange(3), np.zeros((2, 2, 2), dtype=np.int64),
])
def test_dumps_refuses_other_arrays(arr):
    with pytest.raises(TypeError):
        dumps({"a": {"t": arr}})


def test_verify_theorem_bundle_is_stdlib_encoding(tmp_path):
    ring = tmp_path / "m2.json"
    assert main(["gen", "m2", "--field", "5", "--out", str(ring)]) == 0
    negtr = tmp_path / "negtr.json"
    negtr.write_text(json.dumps({"source": "m2_f5", "target": "m2_f5",
                                 "repr": {"kind": "neg_transpose_plus_trace"}}))
    out = tmp_path / "bundle.json"
    assert main(["verify-theorem", "--source", str(ring), "--target", str(ring),
                 "--map", str(negtr), "--idempotent", "1,0,0,0", "--branch", "ddagger",
                 "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert len(json.loads(text)["decomposition"]["tau"]) == 625
    assert text == stdlib(json.loads(text))
