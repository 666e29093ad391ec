"""The bundle writer `reports.dumps` against the stdlib encoding it must
reproduce byte for byte, on every sink the CLI writes to."""

import io
import json
import os
import stat

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from altring import cli
from altring.cli import main
from altring.reports import _BLOCK_ROWS, dumps


def stdlib(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()


def encode(obj) -> bytes:
    """What `dumps` writes to a binary handle."""
    fh = io.BytesIO()
    dumps(obj, fh)
    return fh.getvalue()


def assert_same(obj):
    """Equal bytes, or the same exception type when the stdlib refuses."""
    try:
        want = stdlib(obj)
    except (TypeError, ValueError) as exc:
        with pytest.raises(type(exc)):
            encode(obj)
        return
    assert encode(obj) == want


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
    assert encode(obj) == stdlib(plain(obj))


def nested(arr):
    """`arr` at the top level and nested at depths 1 to 3, beside other values."""
    return [arr, {"t": arr}, {"a": {"t": arr, "u": [1, 2]}, "b": None},
            {"a": {"b": {"t": arr}, "c": "x"}, "z": arr[:1]}]


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
    for obj in nested(arr) + [{"a": {"b": {"t": arr[::-1].T}}}]:
        assert_table_same(obj)


@given(hnp.arrays(st.sampled_from(TABLE_DTYPES),
                  hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6)))
def test_dumps_ndarray_matches_stdlib(arr):
    assert_table_same({"a": {"tau": arr}, "b": arr})


def test_dumps_table_across_blocks():
    rows = np.array([[k % 7 - 3, k] for k in range(2 * _BLOCK_ROWS + 5)], dtype=np.int64)
    assert_table_same({"outer": {"tau": rows}, "z": rows[:3]})
    assert_table_same({"tau": (rows % 5).astype(np.int8)})


class Recorder:
    """A binary handle that keeps a copy of every write and whether it came
    from the reused digit buffer (a view of an ndarray)."""

    def __init__(self):
        self.writes: list[bytes] = []
        self.from_buffer: list[bool] = []

    def write(self, data):
        self.writes.append(bytes(data))
        self.from_buffer.append(isinstance(getattr(data, "obj", None), np.ndarray))

    def recorded(self, obj) -> bytes:
        dumps(obj, self)
        return b"".join(self.writes)


@pytest.mark.parametrize("rows", [1, 2, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1])
@pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int64])
def test_digit_tables_take_the_fixed_width_path(rows, dtype):
    """Tables of 0..9 at every depth and at the block edges, where the last
    row's separator is trimmed; the table's rows come from the digit buffer."""
    rng = np.random.default_rng(rows)
    arr = rng.integers(0, 10, (rows, 3)).astype(dtype)
    for obj in nested(arr):
        assert_table_same(obj)
    rec = Recorder()
    assert rec.recorded({"tau": arr}) == stdlib({"tau": arr.tolist()})
    assert sum(rec.from_buffer) == -(-rows // _BLOCK_ROWS)


@pytest.mark.parametrize("fill", [0, 9])
@pytest.mark.parametrize("shape", [(1, 1), (_BLOCK_ROWS + 1, 1), (5, 8)])
def test_constant_digit_tables(fill, shape):
    for obj in nested(np.full(shape, fill, dtype=np.int8)):
        assert_table_same(obj)


@pytest.mark.parametrize("arr", [
    np.array([[0, 1, 2], [3, -1, 4], [5, 6, 7]], dtype=np.int8),       # one negative entry
    np.array([[0, 1, 2], [3, 10, 4], [5, 6, 7]], dtype=np.int16),      # one two-digit entry
    np.array([[255, 0], [1, 9]], dtype=np.uint8),
    np.array([[2 ** 62 + 1, 0], [-2 ** 63, 2 ** 63 - 1]], dtype=np.int64),
    np.array([[2 ** 64 - 1, 3]], dtype=np.uint64),
])
def test_other_tables_take_the_format_path(arr):
    for obj in nested(arr):
        assert_table_same(obj)
    rec = Recorder()
    assert rec.recorded({"t": arr}) == stdlib({"t": arr.tolist()})
    assert not any(rec.from_buffer)


@pytest.mark.parametrize("low, high", [(0, 10), (10, 100), (-9, 0)])
def test_dumps_streams_tables_a_block_at_a_time(low, high):
    """No single write is larger than one block of rows (with their
    separators), so the bundle is never held whole; its bytes are exact.
    Every entry of a table has the same width, so every row is the widest."""
    rows = 3 * _BLOCK_ROWS + 1
    arr = np.random.default_rng(high).integers(low, high, (rows, 8)).astype(np.int64)

    def bundle(table):
        return {"a": {"t": table}, "b": 1}

    row_bytes = len(stdlib(bundle(arr[:2].tolist()))) - len(stdlib(bundle(arr[:1].tolist())))
    rec = Recorder()
    assert rec.recorded(bundle(arr)) == stdlib(bundle(arr.tolist()))
    assert max(map(len, rec.writes)) <= _BLOCK_ROWS * row_bytes
    # three full blocks, then the last row without its separator
    assert sorted(map(len, rec.writes))[-4:] == [row_bytes - 2] + [_BLOCK_ROWS * row_bytes] * 3


@pytest.mark.parametrize("arr", [
    np.zeros((2, 2), dtype=bool), np.zeros((2, 2)), np.zeros((0, 3), dtype=np.int64),
    np.zeros((3, 0), dtype=np.int8), np.arange(3), np.zeros((2, 2, 2), dtype=np.int64),
])
def test_dumps_refuses_other_arrays(arr):
    with pytest.raises(TypeError):
        encode({"a": {"t": arr}})


def _m2_files(tmp_path, p):
    ring = tmp_path / f"m2_f{p}.json"
    assert main(["gen", "m2", "--field", str(p), "--out", str(ring)]) == 0
    negtr = tmp_path / f"negtr_f{p}.json"
    negtr.write_text(json.dumps({"source": f"m2_f{p}", "target": f"m2_f{p}",
                                 "repr": {"kind": "neg_transpose_plus_trace"}}))
    return ["verify-theorem", "--source", str(ring), "--target", str(ring), "--map", str(negtr),
            "--idempotent", "1,0,0,0", "--branch", "ddagger"]


def test_verify_theorem_bundle_is_stdlib_encoding(tmp_path):
    out = tmp_path / "bundle.json"
    assert main(_m2_files(tmp_path, 5) + ["--out", str(out)]) == 0
    raw = out.read_bytes()
    assert len(json.loads(raw)["decomposition"]["tau"]) == 625
    assert raw == stdlib(json.loads(raw))


@pytest.mark.parametrize("p, budget", [(5, 1000000), (11, 100000)])
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_stdout_and_out_give_the_same_bytes(tmp_path, capsysbinary, p, budget, fmt):
    """Over F_11 the tau table holds 10s, so the bundle takes the format
    path at CLI level; over F_5 it takes the digit path."""
    argv = _m2_files(tmp_path, p) + ["--budget", str(budget), "--format", fmt]
    out = tmp_path / "bundle.out"
    assert main(argv + ["--out", str(out)]) == 0
    assert main(argv) == 0
    assert capsysbinary.readouterr().out == out.read_bytes()
    if fmt == "json":
        raw = out.read_bytes()
        tau = json.loads(raw)["decomposition"]["tau"]
        assert len(tau) == p ** 4 and max(map(max, tau)) == p - 1
        assert raw == stdlib(json.loads(raw))


def test_failed_write_leaves_no_out_file(tmp_path, monkeypatch):
    """A bundle `dumps` refuses part-way (a float table after an integer one)
    leaves neither a partial --out nor a temporary file, and an existing
    --out is left as it was."""
    argv = _m2_files(tmp_path, 5)
    bundle = {"all_certificates_pass": True, "stages": [],
              "a": np.ones((3, 2), dtype=np.int8), "b": np.zeros((2, 2))}
    monkeypatch.setattr(cli, "verify_theorem", lambda *args: bundle)
    before = sorted(tmp_path.iterdir())
    out = tmp_path / "bundle.json"
    with pytest.raises(TypeError):
        main(argv + ["--out", str(out)])
    assert sorted(tmp_path.iterdir()) == before
    out.write_bytes(b"old")
    with pytest.raises(TypeError):
        main(argv + ["--out", str(out)])
    assert out.read_bytes() == b"old"
    assert sorted(tmp_path.iterdir()) == sorted(before + [out])


def test_out_through_a_symlink_or_into_a_pipe(tmp_path):
    """--out through a symlink replaces the file it points to, and an --out
    that is not a regular file (here a FIFO) is written in place."""
    want = tmp_path / "m2.json"
    assert main(["gen", "m2", "--field", "5", "--out", str(want)]) == 0
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_bytes(b"old")
    link.symlink_to(target)
    assert main(["gen", "m2", "--field", "5", "--out", str(link)]) == 0
    assert link.is_symlink() and target.read_bytes() == want.read_bytes()

    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert main(["gen", "m2", "--field", "5", "--out", str(fifo)]) == 0
        assert os.read(reader, 1 << 16) == want.read_bytes()     # a ring file fits the pipe
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fifo", "link.json", "m2.json", "target.json"]
