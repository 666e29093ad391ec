"""The bundle writer `reports.dumps` against the stdlib encoding it must
reproduce byte for byte."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

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

# Integer rows the table path must take (rectangular) or leave to the
# stdlib (ragged, empty, or holding a bool).
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


def test_dumps_table_across_blocks():
    rows = [[k % 7 - 3, k] for k in range(2 * _BLOCK_ROWS + 5)]
    assert_same({"outer": {"tau": rows}, "z": rows[:3]})


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
