"""Differential tests: every batched numpy kernel in `Enumeration` against
the exact reference arithmetic of `rings.py` and `linalg.py`, on random
unital structure-constant rings."""

import json

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from altring import PrimeField, center, check_primeness, gen_m2, linalg
from altring.cli import main
from altring.enumeration import Enumeration
from altring.errors import UnsupportedDomain
from altring.rings import Ring, ring_to_json


@st.composite
def unital_rings(draw, primes=(2, 3, 5, 7), max_dim=4):
    """Basis vector 0 is the unit; every other basis product is random."""
    p = draw(st.sampled_from(primes))
    n = draw(st.integers(1, max_dim))
    sc = [[[0] * n for _ in range(n)] for _ in range(n)]
    for j in range(n):
        sc[0][j][j] = sc[j][0][j] = 1
    for i in range(1, n):
        for j in range(1, n):
            sc[i][j] = draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
    return Ring(f"random_f{p}", PrimeField(p), [f"b{i}" for i in range(n)], sc,
                [1] + [0] * (n - 1))


def ints(arr):
    return [int(x) for x in arr]


def check_products(ring, A, B):
    """A and B: unreduced (r, s, n) stacks, a rank-2 batch of vectors."""
    enum = Enumeration(ring)
    p, n = ring.domain.p, ring.dim

    def ref(a, b):
        return ring.mul_coords(tuple(int(x) % p for x in a), tuple(int(x) % p for x in b))

    rowwise = enum.mul(A, B)
    comm = enum.commutator(A, B)
    firsts = enum.mul(A[:, :1], B)               # broadcast over the second batch axis
    assert rowwise.shape == comm.shape == firsts.shape == A.shape
    for idx in np.ndindex(A.shape[:-1]):
        a, b = A[idx], B[idx]
        assert tuple(ints(rowwise[idx])) == ref(a, b)
        assert tuple(ints(comm[idx])) == ring.sub_coords(ref(a, b), ref(b, a))
        assert tuple(ints(firsts[idx])) == ref(A[idx[0], 0], b)
    flatA, flatB = A.reshape(-1, n), B[:1].reshape(-1, n)
    outer = enum.mul_outer(flatA, flatB)
    assert outer.shape == (len(flatA), len(flatB), n)
    for a, row in zip(flatA, outer):
        for b, got in zip(flatB, row):
            assert tuple(ints(got)) == ref(a, b)
    L, R = enum.left_mul_matrices(A), enum.right_mul_matrices(A)
    assert L.shape == R.shape == A.shape + (n,)
    for idx in np.ndindex(A.shape[:-1]):
        a = tuple(int(x) % p for x in A[idx])
        assert [ints(r) for r in L[idx]] == ring.left_mul_matrix(a)
        assert [ints(r) for r in R[idx]] == ring.right_mul_matrix(a)


def check_elimination(ring, mats):
    enum = Enumeration(ring)
    dom = ring.domain
    mats = np.array(mats, dtype=np.int64)
    ranks = enum.rank_batched(mats)
    rows, rref_ranks = enum.rref_batched(mats)
    assert rows.dtype == np.int64 and rows.shape == (len(mats), mats.shape[2], mats.shape[2])
    for M, got_rank, R, rk in zip(mats, ranks, rows, rref_ranks):
        want, _ = linalg.rref([ints(r) for r in M], dom)
        assert int(got_rank) == int(rk) == linalg.rank([ints(r) for r in M], dom)
        assert linalg.rref([ints(r) for r in R], dom)[0] == want
        assert not R[int(rk):].any()


@st.composite
def ring_and_products(draw, **kw):
    """Two (r, s, n) stacks of mostly unreduced entries: near [0, p) or
    large enough that an unreduced product would overflow int64."""
    ring = draw(unital_rings(**kw))
    p = ring.domain.p
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 3)), ring.dim)
    coord = st.integers(-2 * p, 3 * p - 1) | st.integers(-2 ** 40, 2 ** 40)
    size = shape[0] * shape[1] * shape[2]
    A, B = (np.array(draw(st.lists(coord, min_size=size, max_size=size)),
                     dtype=np.int64).reshape(shape) for _ in range(2))
    return ring, A, B


@st.composite
def ring_and_stack(draw, **kw):
    ring = draw(unital_rings(**kw))
    cols = draw(st.integers(1, ring.dim + 2))
    height = draw(st.integers(cols, 3 * cols))
    coord = st.integers(0, ring.domain.p - 1)
    row = st.lists(coord, min_size=cols, max_size=cols)
    mats = draw(st.lists(st.lists(row, min_size=height, max_size=height), min_size=1, max_size=12))
    return ring, mats


@given(ring_and_products())
def test_products_match_reference(case):
    check_products(*case)


@given(ring_and_products(primes=(191,), max_dim=2))
def test_products_match_reference_wide_prime(case):
    check_products(*case)


def skew(p):
    """b1*b2 = 3b1 + 2b2 but b2*b1 = b1: constants != 1 with c_ijk != c_jik."""
    sc = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    for j in range(3):
        sc[0][j][j] = sc[j][0][j] = 1
    sc[1][2] = [0, 3 % p, 2 % p]
    sc[2][1] = [0, 1, 0]
    sc[2][2] = [p - 1, 0, 4 % p]
    return Ring(f"skew_f{p}", PrimeField(p), ["b0", "b1", "b2"], sc, [1, 0, 0])


@st.composite
def ring_and_index_pairs(draw, **kw):
    ring = draw(unital_rings(**kw))
    count = ring.domain.p ** ring.dim
    size = draw(st.integers(1, 16))
    idx = st.lists(st.integers(0, count - 1), min_size=size, max_size=size)
    return ring, np.array(draw(idx), dtype=np.int64), np.array(draw(idx), dtype=np.int64)


def check_index_kernels(ring, a, b):
    """Index kernels against `rings.py` on base-p digits computed in Python."""
    enum = Enumeration(ring)
    p, n = ring.domain.p, ring.dim

    def coords(k):
        return tuple(int(k) // p ** (n - 1 - i) % p for i in range(n))

    def index(c):
        return sum(int(x) * p ** (n - 1 - i) for i, x in enumerate(c))

    neg = enum.smul_index(p - 1)
    got = {"mul": enum.mul_index(a, b), "comm": enum.commutator_index(a, b),
           "add": enum.add_index(a, b), "anti": neg[enum.mul_index(b, a)]}
    for kernel in got.values():
        assert kernel.dtype == np.int64 and kernel.shape == a.shape
    for t, (x, y) in enumerate(zip(map(coords, a), map(coords, b))):
        xy, yx = ring.mul_coords(x, y), ring.mul_coords(y, x)
        assert int(got["mul"][t]) == index(xy)
        assert int(got["comm"][t]) == index(ring.sub_coords(xy, yx))
        assert int(got["add"][t]) == index(ring.add_coords(x, y))
        assert int(got["anti"][t]) == index(ring.smul_coords(p - 1, yx))
    lam = int(a[0]) % p
    scaled = enum.smul_index(lam)
    assert all(int(scaled[k]) == index(ring.smul_coords(lam, coords(k)))
               for k in range(0, enum.count, max(1, enum.count // 50)))


@given(ring_and_index_pairs())
@example((skew(7), np.array([100, 342, 57, 0]), np.array([287, 6, 342, 342])))
def test_index_kernels_match_reference(case):
    check_index_kernels(*case)


@given(ring_and_index_pairs(primes=(191,), max_dim=2))
@example((skew(97), np.array([912_672, 9_408]), np.array([96, 912_671])))
def test_index_kernels_match_reference_wide_prime(case):
    check_index_kernels(*case)


@given(unital_rings() | st.sampled_from([skew(5), skew(7)]))
def test_antisymmetrised_constants_match_commutator(ring):
    """Every basis commutator, rebuilt from `comm_terms` (d at [i][j][k],
    -d at [j][i][k], zero on the diagonal), equals `commutator` and the
    reference arithmetic."""
    enum = Enumeration(ring)
    p, n = ring.domain.p, ring.dim
    table = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i, j, k, d in enum.comm_terms:
        assert i < j and 0 < d < p
        table[i][j][k], table[j][i][k] = d, p - d
    E = np.eye(n, dtype=np.int64)
    got = enum.commutator(E[:, None, :], E[None, :, :])
    for i in range(n):
        for j in range(n):
            bi, bj = ring.basis_coords(i), ring.basis_coords(j)
            want = ring.sub_coords(ring.mul_coords(bi, bj), ring.mul_coords(bj, bi))
            assert tuple(table[i][j]) == tuple(ints(got[i, j])) == tuple(int(x) for x in want)


@given(unital_rings(), st.sampled_from(["in_range", "negative", "at_least_p", "mixed"]),
       st.integers(0, 5), st.data())
def test_index_of_matches_reduced_radix(ring, kind, rows, data):
    enum = Enumeration(ring)
    p, n = ring.domain.p, ring.dim
    lo, hi = {"in_range": (0, p - 1), "negative": (-3 * p, -1),
              "at_least_p": (p, 4 * p), "mixed": (-3 * p, 4 * p)}[kind]
    cells = data.draw(st.lists(st.integers(lo, hi), min_size=rows * n, max_size=rows * n))
    C = np.array(cells, dtype=np.int64).reshape(rows, n)
    got = enum.index_of(C)
    assert got.shape == (rows,)
    assert (got == C % p @ enum.radix).all()
    for c, k in zip(C, got):
        assert int(k) == sum(int(x) % p * p ** (n - 1 - i) for i, x in enumerate(c))
    if rows:
        assert int(enum.index_of(C[0])) == int(got[0])


@pytest.mark.parametrize("edge, want", [(4, 4), (5, 0), (-1, 4), (-5, 0), (10 ** 12, 0)])
def test_index_of_range_boundaries(edge, want):
    enum = Enumeration(gen_m2(5))
    C = np.array([[edge, 0, 0, 0], [0, 0, 0, edge]], dtype=np.int64)
    assert ints(enum.index_of(C)) == [want * 125, want]


@given(ring_and_stack())
def test_elimination_matches_reference(case):
    check_elimination(*case)


@given(ring_and_stack(primes=(191,), max_dim=2))
def test_elimination_matches_reference_wide_prime(case):
    check_elimination(*case)


@pytest.mark.parametrize("p, dtype", [(5, np.int8), (11, np.int8), (13, np.int16),
                                      (181, np.int16), (191, np.int32)])
def test_elimination_dtype_is_narrowest_exact(p, dtype):
    assert Enumeration(gen_m2(p)).elim_dtype == dtype


def twisted(p):
    """b1 * b1 = (p-1)(b0 + b1): coordinate 1 of a product sums 3 terms,
    one of them up to (p-1)**3, so the int64 guard needs 3 (p-1)**3 < 2**63."""
    sc = [[[1, 0], [0, 1]], [[0, 1], [p - 1, p - 1]]]
    return Ring(f"twisted_f{p}", PrimeField(p), ["b0", "b1"], sc, [1, 0])


def test_largest_entries_stay_exact():
    p = 1_454_081                     # the largest prime the guard accepts for twisted(p)
    ring = twisted(p)
    top = (p - 1, p - 1)
    assert tuple(ints(Enumeration(ring).mul([top], [top])[0])) == ring.mul_coords(top, top)


def test_int64_limit_is_loud():
    ring = twisted(1_454_099)         # the next prime
    assert ring.mul_coords((0, 1), (0, 1)) == (1_454_098, 1_454_098)   # exact arithmetic works
    with pytest.raises(UnsupportedDomain, match="overflow int64"):
        Enumeration(ring)


@pytest.mark.parametrize("p", [2 ** 31 - 1, 2 ** 64 + 13])
def test_large_prime_ring_loads_and_analyze_skips_enumeration(p, tmp_path, capsys):
    ring = gen_m2(p)
    assert center(ring).dim == 1
    with pytest.raises(UnsupportedDomain, match="overflow int64"):
        check_primeness(ring)
    path = tmp_path / "m2.json"
    path.write_text(json.dumps(ring_to_json(ring)))
    assert main(["analyze", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert "overflow int64" in out["primeness"]["skipped"]
    assert out["centre_dim"] == 1 and out["alternative"]
