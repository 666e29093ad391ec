"""Differential tests: every batched numpy kernel in `Enumeration` against
the exact reference arithmetic of `rings.py` and `linalg.py`, on random
unital structure-constant rings."""

import io
import json
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from altring import (PrimeField, Subspace, build_map, center, check_primeness, enumeration,
                     gen_m2, gen_triangular2, gen_zorn, linalg)
from altring.cli import main
from altring.enumeration import DEFAULT_BUDGET, Enumeration
from altring.errors import BudgetExceeded, UnsupportedDomain
from altring.reports import dumps
from altring.rings import Ring, ring_to_json
from conftest import apply_matrix, unital_rings


def ints(arr):
    return [int(x) for x in arr]


def check_products(ring, A, B):
    """A and B: unreduced (r, s, n) stacks, a rank-2 batch of vectors."""
    enum = Enumeration(ring, DEFAULT_BUDGET)
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


def working_dtype(p, C):
    """The eliminator's working type for C columns over F_p: the narrowest
    signed type holding max(C-1, 1)*(p-1)**2 + p."""
    bound = max(C - 1, 1) * (p - 1) ** 2 + p
    return next(dt for dt in (np.int8, np.int16, np.int32, np.int64) if bound <= np.iinfo(dt).max)


def check_elimination(ring, mats):
    """rank_batched (the rank-only pass) and rref_batched (Gauss-Jordan)
    against `linalg` on a (B, R, C) stack of any integer dtype, reduced or
    not: both ranks are the reference rank, the rows are the `linalg.rref`
    rows in pivot-column order, then zero rows, in the working dtype, and
    neither call writes into its input.  rank_batched also takes the rows
    on two axes, (B, a, R/a, C) for every divisor a of R, in place or
    swapped (a row permutation), and ranks them as the flattened stack."""
    enum = Enumeration(ring, DEFAULT_BUDGET)
    dom, p = ring.domain, ring.domain.p
    mats = np.asarray(mats)
    before = mats.copy()
    ranks = enum.rank_batched(mats)
    rows, rref_ranks = enum.rref_batched(mats)
    assert np.array_equal(mats, before) and mats.dtype == before.dtype
    count, height, cols = mats.shape
    assert rows.dtype == working_dtype(p, cols) and rows.shape == (count, cols, cols)
    for a in (a for a in range(1, height + 1) if height % a == 0):
        split = mats.reshape(count, a, height // a, cols)
        assert np.array_equal(enum.rank_batched(split), ranks)
        assert np.array_equal(enum.rank_batched(split.swapaxes(1, 2)), ranks)
    for M, got_rank, R, rk in zip(mats, ranks, rows, rref_ranks):
        reduced = [[int(x) % p for x in r] for r in M]
        want, _ = linalg.rref(reduced, dom)
        assert int(got_rank) == int(rk) == linalg.rank(reduced, dom)
        assert [ints(r) for r in R[:int(rk)]] == want
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
    """A (B, R, C) stack, C > R allowed, whose matrices are all of rank C
    (unit rows e_c among the rows), all below it (a column zero or a
    multiple of another), a mix of the two, or drawn freely."""
    ring = draw(unital_rings(**kw))
    p = ring.domain.p
    cols = draw(st.integers(1, ring.dim + 2))
    kind = draw(st.sampled_from(["free", "full", "deficient", "mixed"]))
    height = draw(st.integers(cols if kind in ("full", "mixed") else 1, 3 * cols))
    coord = st.integers(0, p - 1)
    row = st.lists(coord, min_size=cols, max_size=cols)
    mats = np.array(draw(st.lists(st.lists(row, min_size=height, max_size=height),
                                  min_size=1, max_size=12)), dtype=np.int64)
    for b, M in enumerate(mats):
        if kind == "full" or kind == "mixed" and b % 2:
            M[draw(st.permutations(range(height)))[:cols]] = np.eye(cols, dtype=np.int64)
        elif kind != "free":
            M[:, -1] = draw(coord) * M[:, 0] % p if cols > 1 else 0
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


def index_in(ring, coords) -> int:
    p, n = ring.domain.p, ring.dim
    return sum(int(x) * p ** (n - 1 - i) for i, x in enumerate(coords))


def check_index_kernels(ring, a, b):
    """Index kernels against `rings.py` on base-p digits computed in Python."""
    enum = Enumeration(ring, DEFAULT_BUDGET)
    p, n = ring.domain.p, ring.dim

    def coords(k):
        return tuple(int(k) // p ** (n - 1 - i) % p for i in range(n))

    neg = enum.smul_index(p - 1)
    got = {"mul": enum.mul_index(a, b), "comm": enum.commutator_index(a, b),
           "add": enum.sum_index([a, b]), "anti": neg[enum.mul_index(b, a)]}
    for kernel in got.values():
        assert kernel.dtype == np.int64 and kernel.shape == a.shape
    for t, (x, y) in enumerate(zip(map(coords, a), map(coords, b))):
        xy, yx = ring.mul_coords(x, y), ring.mul_coords(y, x)
        assert int(got["mul"][t]) == index_in(ring, xy)
        assert int(got["comm"][t]) == index_in(ring, ring.sub_coords(xy, yx))
        assert int(got["add"][t]) == index_in(ring, ring.add_coords(x, y))
        assert int(got["anti"][t]) == index_in(ring, ring.smul_coords(p - 1, yx))
    lam = int(a[0]) % p
    scaled = enum.smul_index(lam)
    assert all(int(scaled[k]) == index_in(ring, ring.smul_coords(lam, coords(k)))
               for k in range(0, enum.count, max(1, enum.count // 50)))


@given(ring_and_index_pairs())
@example((skew(7), np.array([100, 342, 57, 0]), np.array([287, 6, 342, 342])))
def test_index_kernels_match_reference(case):
    check_index_kernels(*case)


@given(ring_and_index_pairs(primes=(191,), max_dim=2))
@example((skew(97), np.array([912_672, 9_408]), np.array([96, 912_671])))
def test_index_kernels_match_reference_wide_prime(case):
    check_index_kernels(*case)


@st.composite
def ring_and_signed_terms(draw, **kw):
    """A ring and 1-4 signed terms, the first positive, each an (r, 1) or a
    (1, s) index array."""
    ring = draw(unital_rings(**kw))
    count = ring.domain.p ** ring.dim
    r, s = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    terms = []
    for k in range(draw(st.integers(1, 4))):
        shape = draw(st.sampled_from([(r, 1), (1, s)]))
        idx = draw(st.lists(st.integers(0, count - 1), min_size=shape[0] * shape[1],
                            max_size=shape[0] * shape[1]))
        sign = draw(st.sampled_from([1, -1])) if k else 1
        terms.append((sign, np.array(idx, dtype=np.int64).reshape(shape)))
    return ring, terms


def check_sum_index(ring, terms):
    """`sum_index` against `Ring.add_coords`/`sub_coords` on every
    broadcast position."""
    enum = Enumeration(ring, DEFAULT_BUDGET)
    p, n = ring.domain.p, ring.dim
    plus = [t for sign, t in terms if sign > 0]
    minus = [t for sign, t in terms if sign < 0]
    got = enum.sum_index(plus, minus)
    shape = np.broadcast_shapes(*(t.shape for _, t in terms))
    assert got.dtype == np.int64 and got.shape == shape

    def coords(k):
        return tuple(int(k) // p ** (n - 1 - i) % p for i in range(n))

    for pos in np.ndindex(shape):
        want = ring.zero_coords()
        for sign, t in terms:
            x = coords(np.broadcast_to(t, shape)[pos])
            want = (ring.add_coords if sign > 0 else ring.sub_coords)(want, x)
        assert int(got[pos]) == index_in(ring, want), (terms, pos)


@given(ring_and_signed_terms())
def test_sum_index_matches_reference(case):
    check_sum_index(*case)


@given(ring_and_signed_terms(primes=(191,), max_dim=2))
def test_sum_index_matches_reference_wide_prime(case):
    check_sum_index(*case)


def check_line_masks(ring, a, b):
    """`line_masks` on the (r, 1) x (1, 2) grid of a and b's first two
    entries against a - lam*b computed in Python digit by digit, under a
    mask that marks a pseudo-random half of the elements."""
    enum = Enumeration(ring, DEFAULT_BUDGET)
    p, n = ring.domain.p, ring.dim
    mask = np.random.default_rng(len(a)).random(enum.count) < 0.5
    b = b[:2]
    masks = list(enum.line_masks(mask, a[:, None], b[None, :]))
    assert len(masks) == p

    def digits(k):
        return [int(k) // p ** (n - 1 - i) % p for i in range(n)]

    for (i, x), (j, y) in product(enumerate(map(digits, a)), enumerate(map(digits, b))):
        for lam, got in enumerate(masks):
            line = index_in(ring, [(u - lam * v) % p for u, v in zip(x, y)])
            assert bool(np.broadcast_to(got, (len(a), len(b)))[i, j]) == mask[line], (lam, i, j)


@given(ring_and_index_pairs())
def test_line_masks_match_reference(case):
    check_line_masks(*case)


@settings(max_examples=20)      # 191 masks per example
@given(ring_and_index_pairs(primes=(191,), max_dim=2))
def test_line_masks_match_reference_wide_prime(case):
    check_line_masks(*case)


def check_linear_index(ring, M, elements=None, enum=None):
    """`linear_index` against `apply_matrix` (exact, reducing M's
    entries mod p) on the given element indices, default every element."""
    enum = enum or Enumeration(ring, DEFAULT_BUDGET)
    p, n = ring.domain.p, ring.dim
    got = enum.linear_index(M)
    assert got.dtype == np.int64 and got.shape == (enum.count,)
    for k in range(enum.count) if elements is None else elements:
        x = tuple(int(k) // p ** (n - 1 - i) % p for i in range(n))
        assert int(got[k]) == index_in(ring, apply_matrix(ring, M, x)), (M, x)


@st.composite
def ring_and_matrix(draw, **kw):
    """An n x n matrix of entries in [0, p), near it (negative or at
    least p) or far outside it, or the zero or the identity matrix."""
    ring = draw(unital_rings(**kw))
    p, n = ring.domain.p, ring.dim
    entry = st.integers(0, p - 1) | st.integers(-3 * p, 4 * p) | st.integers(-2 ** 40, 2 ** 40)
    row = st.lists(entry, min_size=n, max_size=n)
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    M = draw(st.lists(row, min_size=n, max_size=n) | st.just([[0] * n] * n) | st.just(eye))
    return ring, M


@given(ring_and_matrix())
def test_linear_index_matches_reference(case):
    check_linear_index(*case)


@given(ring_and_matrix(primes=(11, 13), max_dim=2))
def test_linear_index_matches_reference_past_int8_products(case):
    """p = 11 and 13: a row of two centred entries of magnitude (p-1)/2
    sums to (p-1)**2 + p on the all-(p-1) element, past int8."""
    check_linear_index(*case)


NARROWER = {np.int16: np.int8, np.int32: np.int16, np.int64: np.int32}


def spy_dtype(monkeypatch, bound, narrow=False):
    """Record the dtype `_narrowest_signed` answers for `bound` (one step
    narrower under `narrow`) in the returned list, from now on."""
    real, chosen = enumeration._narrowest_signed, []

    def pick(b):
        dt = real(b)
        if b == bound:
            dt = NARROWER[dt] if narrow else dt
            chosen.append(dt)
        return dt
    monkeypatch.setattr(enumeration, "_narrowest_signed", pick)
    return chosen


# (p, n, dtype) on each side of every edge of the linear-map rule for an
# n x n matrix of entries of magnitude h = (p-1)/2 once centred,
# n*h*(p-1) + p, and rows inside int8 and int16
LINEAR_EDGES = [(11, 2, np.int8), (11, 3, np.int16), (13, 1, np.int8), (13, 2, np.int16),
                (181, 2, np.int16), (191, 2, np.int32), (65521, 1, np.int32),
                (65537, 1, np.int64), (5, 7, np.int8), (11, 1, np.int8), (181, 1, np.int16)]


@pytest.mark.parametrize("p, n, dtype", LINEAR_EDGES)
def test_linear_index_dtype_edges(p, n, dtype, monkeypatch):
    """The linear-map accumulator at the edges of its rule, against
    `apply_matrix`.  Every entry (p-1)/2, or (p+1)/2, drives every
    plane of the all-(p-1) element to +n*h*(p-1), or to -n*h*(p-1), and
    rows alternating the two, which cancel there, go by the sum of
    their magnitudes too; each matrix is passed reduced, negative and far
    past p, with the zero and identity matrices, on the top element, the
    element with p-1 under every (p-1)/2 of the alternating rows, the
    basis and random elements.  One step narrower, some case comes out
    wrong, or p itself does not fit."""
    ring = halves(p, n, 0, (p - 1) // 2)
    enum = Enumeration(ring, DEFAULT_BUDGET)
    h = (p - 1) // 2
    bound = n * h * (p - 1) + p
    assert np.iinfo(dtype).max >= bound
    if dtype is not np.int8:
        assert np.iinfo(NARROWER[dtype]).max < bound
    rng = np.random.default_rng(p * 100 + n)
    alternate = sum((p - 1) * p ** (n - 1 - j) for j in range(0, n, 2))
    elements = [enum.count - 1, alternate, *(p ** i for i in range(n)),
                *rng.integers(0, enum.count, 20)]
    signed = [[[c] * n for _ in range(n)] for c in (h, p - h)]
    signed.append([[(h, p - h)[j % 2] for j in range(n)] for _ in range(n)])
    chosen = spy_dtype(monkeypatch, bound)
    for M in signed:
        for form in (M, [[c - p for c in row] for row in M],
                     [[c + p * 2 ** 30 for c in row] for row in M]):
            check_linear_index(ring, form, elements, enum)
    assert chosen == [dtype] * 9
    for M in ([[0] * n] * n, [[int(i == j) for j in range(n)] for i in range(n)]):
        check_linear_index(ring, M, elements, enum)
    if dtype is not np.int8:
        monkeypatch.undo()
        spy_dtype(monkeypatch, bound, narrow=True)
        with pytest.raises((AssertionError, OverflowError)):     # the latter: p itself
            for M in signed:
                check_linear_index(ring, M, [enum.count - 1], enum)


def check_commutator_index(ring, M, a, b, enum=None):
    """`commutator_index(a, b, M)` against M*(xy - yx) in `Element`
    arithmetic (`apply_matrix`, which reduces M's entries mod p) at
    every broadcast position of the index arrays a, b; an (m, n) M indexes
    an m-dimensional target."""
    enum = enum or Enumeration(ring, DEFAULT_BUDGET)
    p, n, m = ring.domain.p, ring.dim, len(M)
    got = enum.commutator_index(a, b, M)
    shape = np.broadcast_shapes(np.shape(a), np.shape(b))
    assert got.dtype == np.int64 and got.shape == shape

    def element(k):
        return ring.element([int(k) // p ** (n - 1 - i) % p for i in range(n)])

    a, b = np.broadcast_to(a, shape), np.broadcast_to(b, shape)
    for pos in np.ndindex(shape):
        x, y = element(a[pos]), element(b[pos])
        want = apply_matrix(ring, M, (x * y - y * x).coords)
        assert int(got[pos]) == sum(int(c) * p ** (m - 1 - i) for i, c in enumerate(want)), \
            (M, x, y)


def random_matrix(rng, p, m, n):
    """An (m, n) matrix of entries in [-2p, 3p): reduced, negative or past p."""
    return rng.integers(-2 * p, 3 * p, (m, n)).tolist()


@pytest.mark.parametrize("shape", ["square", "short", "tall", "zero"])
def test_commutator_index_under_a_matrix_on_m2_rows(m2, shape):
    """M2/F5 on every pair of a three-row slice, (3, 1) against (1, 625):
    a random 4 x 4 M, a 2 x 4 and a 6 x 4 one, and M = 0."""
    rng = np.random.default_rng(35)
    M = {"square": random_matrix(rng, 5, 4, 4), "short": random_matrix(rng, 5, 2, 4),
         "tall": random_matrix(rng, 5, 6, 4), "zero": [[0] * 4] * 4}[shape]
    check_commutator_index(m2, M, np.arange(311, 314)[:, None], np.arange(625)[None, :])


@pytest.mark.parametrize("ring", [gen_zorn(5), gen_triangular2(5), gen_triangular2(97)],
                         ids=["zorn_f5", "t2_f5", "t2_f97"])
def test_commutator_index_under_a_matrix_on_seeded_pairs(ring):
    """Zorn/F5, t2/F5 and t2/F_97 on 300 seeded pairs and the top element
    against each basis vector, under a random square M and a random M
    with one row more than the ring's dimension."""
    rng = np.random.default_rng(ring.domain.p * 10 + ring.dim)
    p, n = ring.domain.p, ring.dim
    enum = Enumeration(ring, max(DEFAULT_BUDGET, p ** n))
    top, basis = p ** n - 1, [p ** (n - 1 - i) for i in range(n)]
    a = np.array([*rng.integers(0, p ** n, 300), *[top] * n], dtype=np.int64)
    b = np.array([*rng.integers(0, p ** n, 300), *basis], dtype=np.int64)
    for m in (n, n + 1):
        check_commutator_index(ring, random_matrix(rng, p, m, n), a, b, enum)


KEPT_MATRIX_CASES = ["m2_f5", "m2_f13", "m2_f31", "structured_offset", "singular", "m2_to_t2"]


def kept_matrix_map(case):
    """A map that keeps its matrix: M2/F_p under a seeded random matrix,
    p = 5 and 13 (int8 and int16 digit tables) and 31; on M2/F5 a
    structured map with a central offset and a singular matrix; and a
    3 x 4 matrix from M2/F5 into t2/F5, of dimension 3."""
    rng = np.random.default_rng(37)
    p = {"m2_f13": 13, "m2_f31": 31}.get(case, 5)
    source = gen_m2(p)
    target = gen_triangular2(5) if case == "m2_to_t2" else source
    spec = {"kind": "linear", "matrix": random_matrix(rng, p, target.dim, 4)}
    if case == "structured_offset":
        spec = {"kind": "structured", "matrix": random_matrix(rng, p, 4, 4),
                "offset_functional": [1, 0, 0, 1], "offset_central": [2, 0, 0, 2]}
    elif case == "singular":
        spec["matrix"][2] = [2 * c for c in spec["matrix"][0]]
    return build_map(source, target, spec)


@pytest.mark.parametrize("case", KEPT_MATRIX_CASES)
def test_kept_matrix_reads_match_its_index(case, monkeypatch):
    """With no index built, a kept matrix's image table and its points are
    those of the index `linear_index(M)`: `images()` equals the gather
    `all_coords()[linear_index(M)]` and writes the same `reports.dumps`
    bytes, and `at` and `eval_coords` equal the index at seeded random
    elements."""
    m = kept_matrix_map(case)
    M, es, et = m.matrix(), m.es, m.et
    assert M is not None and (case != "singular" or linalg.rank(M, m.target.domain) < 4)
    index = es.linear_index(M)
    monkeypatch.setattr(Enumeration, "linear_index", None)     # no index from here on
    images = m.images()
    gathered = et.all_coords()[index]
    assert images.shape == gathered.shape == (es.count, et.n)
    assert np.array_equal(images, gathered)
    written = []
    for table in (images, gathered):
        buf = io.BytesIO()
        dumps({"tau": table, "n": 1}, buf)
        written.append(buf.getvalue())
    assert written[0] == written[1]
    idx = np.random.default_rng(38).integers(0, es.count, (50, 3))
    assert np.array_equal(m.at(idx), index[idx])
    for k in idx[:5, 0]:
        assert m.eval_coords(es.coords_of(k)) == tuple(int(c) for c in et.coords_of(index[k]))


@st.composite
def ring_matrix_and_pairs(draw):
    """A random unital ring, an (m, n) matrix with 1 <= m <= n + 1 whose
    entries are reduced, near [0, p) or far outside it, and index pairs."""
    ring, a, b = draw(ring_and_index_pairs())
    p, n = ring.domain.p, ring.dim
    entry = st.integers(0, p - 1) | st.integers(-3 * p, 4 * p) | st.integers(-2 ** 40, 2 ** 40)
    M = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=n + 1))
    return ring, M, a, b


@given(ring_matrix_and_pairs())
def test_commutator_index_under_a_matrix_matches_reference(case):
    ring, M, a, b = case
    check_commutator_index(ring, M, a, b)


def test_composed_accumulator_is_wider_than_the_rings_own(monkeypatch):
    """t2/F_97 (912,673 elements): the ring's accumulator holds
    2*96**2 + 97 = 18,529, int16, but under M = 48 everywhere each output
    sums two composed constants of 48, and 96*96**2 + 97 needs int32.  The
    kernel matches the reference at extreme pairs in that type, and one
    step narrower some pair comes out wrong."""
    p = 97
    ring, M = gen_triangular2(p), [[(p - 1) // 2] * 3] * 3
    enum = Enumeration(ring, DEFAULT_BUDGET)
    assert enum.acc_dtype == np.int16
    rng = np.random.default_rng(p)
    digits = [0, 1, p - 2, p - 1]
    extreme = [sum(d * p ** (2 - i) for i, d in enumerate(x)) for x in product(digits, repeat=3)]
    a = np.array(extreme + rng.integers(0, p ** 3, 32).tolist(), dtype=np.int64)
    bound = 96 * (p - 1) ** 2 + p
    chosen = spy_dtype(monkeypatch, bound)
    check_commutator_index(ring, M, a[:, None], a[None, :], enum)
    assert chosen == [np.int32]
    monkeypatch.undo()
    spy_dtype(monkeypatch, bound, narrow=True)
    with pytest.raises(AssertionError):
        check_commutator_index(ring, M, a[:, None], a[None, :], enum)


class RecordingDigits:
    """The digit table, recording which coordinate planes are read."""

    def __init__(self, D):
        self.D, self.read = D, set()

    def __getitem__(self, i):
        self.read.add(i)
        return self.D[i]


def test_commutator_index_gathers_only_the_referenced_planes(m2, monkeypatch):
    """On M2/F5 the E11 coordinate of a commutator is a12*b21 - a21*b12,
    so under M = [[1, 0, 0, 0]] the composed terms reference E12 and E21
    alone: only their two planes are read, and the index matches the
    reference.  Under M = 0 no plane is read and every index is 0."""
    enum = Enumeration(m2, DEFAULT_BUDGET)
    digits = RecordingDigits(enum.digits())
    monkeypatch.setattr(enum, "digits", lambda: digits)
    a, b = np.arange(100, 105)[:, None], np.arange(625)[None, :]
    check_commutator_index(m2, [[1, 0, 0, 0]], a, b, enum)
    assert digits.read == {1, 2}
    digits.read.clear()
    assert not enum.commutator_index(a, b, [[0] * 4] * 4).any()
    assert digits.read == set()


@given(unital_rings() | st.sampled_from([skew(5), skew(7)]))
def test_antisymmetrised_constants_match_commutator(ring):
    """Every basis commutator, rebuilt from `comm_terms` (d at [i][j][k],
    -d at [j][i][k], zero on the diagonal), equals `commutator` and the
    reference arithmetic."""
    enum = Enumeration(ring, DEFAULT_BUDGET)
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
    enum = Enumeration(ring, DEFAULT_BUDGET)
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


def check_class_position(ring, shift=0):
    """`class_position` of every element, its coordinates shifted by
    `shift`*p, against its scalar class in `rings.py` arithmetic: the
    position of lam**-1 * y, lam the first nonzero coordinate of y, among
    the tuples whose first nonzero coordinate is 1, in element order."""
    p, n = ring.domain.p, ring.dim
    elements = list(product(range(p), repeat=n))
    reps = {x: k for k, x in
            enumerate(x for x in elements if any(x) and next(filter(None, x)) == 1)}
    want = [reps[ring.smul_coords(ring.domain.inv(next(filter(None, y))), y)] if any(y) else -1
            for y in elements]
    enum = Enumeration(ring, DEFAULT_BUDGET)
    got = enum.class_position(np.array(elements, dtype=np.int64) + shift * p)
    assert got.dtype == np.int64 and ints(got) == want
    assert sorted(set(want)) == list(range(-1, (p ** n - 1) // (p - 1)))


@pytest.mark.parametrize("p", [3, 5])
def test_class_position_matches_reference_on_m2(p):
    check_class_position(gen_m2(p))


@given(unital_rings(), st.integers(-2, 2))
def test_class_position_matches_reference(ring, shift):
    check_class_position(ring, shift)


@pytest.mark.parametrize("edge, want", [(4, 4), (5, 0), (-1, 4), (-5, 0), (10 ** 12, 0)])
def test_index_of_range_boundaries(edge, want):
    enum = Enumeration(gen_m2(5), DEFAULT_BUDGET)
    C = np.array([[edge, 0, 0, 0], [0, 0, 0, edge]], dtype=np.int64)
    assert ints(enum.index_of(C)) == [want * 125, want]


# a rank-1 matrix next to a full-rank last one: a -1 pivot past the first
# matrix's rank gathers the last row of the last matrix, a pivot row, so
# the rows past each rank must be zeroed
RANK_GAP = np.array([[[1, 2, 0], [2, 4, 0], [0, 0, 0]], np.eye(3, dtype=np.int64)])


@given(ring_and_stack())
@example((gen_m2(5), RANK_GAP))
def test_elimination_matches_reference(case):
    check_elimination(*case)


@given(ring_and_stack(primes=(191,), max_dim=2))
def test_elimination_matches_reference_wide_prime(case):
    check_elimination(*case)


@pytest.mark.parametrize("p, dtype", [(5, np.int8), (11, np.int8), (13, np.int16),
                                      (181, np.int16), (191, np.int32)])
def test_elimination_dtype_is_narrowest_exact(p, dtype):
    assert Enumeration(gen_m2(p), DEFAULT_BUDGET).elim_dtype == dtype


def worst_case(p, C, last):
    """C x C matrix whose corner takes C-1 subtractions of (p-1)**2 before
    its own step: rows e_c + (p-1) e_{C-1} for c < C-1 pivot in order,
    each clearing the p-1 in column c of the last row (p-1, ..., p-1,
    last), so the corner reaches last - (C-1)*(p-1)**2."""
    M = np.zeros((C, C), dtype=np.int64)
    M[:C - 1, :C - 1] = np.eye(C - 1, dtype=np.int64)
    M[:C - 1, C - 1] = M[C - 1, :C - 1] = p - 1
    M[C - 1, C - 1] = last
    return M


# (p, C, working dtype) at each edge of max(C-1, 1)*(p-1)**2 + p
ELIMINATION_EDGES = [(5, 8, np.int8), (5, 9, np.int16), (7, 4, np.int8), (7, 5, np.int16),
                     (181, 2, np.int16), (181, 3, np.int32), (191, 2, np.int32),
                     (13, 1, np.int16)]


@pytest.mark.parametrize("p, C, dtype", ELIMINATION_EDGES)
def test_eliminator_dtype_edges(p, C, dtype):
    """Every input form at the edges of the per-call dtype rule.  The stack
    holds the worst case (corner reaching -(C-1)*(p-1)**2), one whose
    corner ends at 0 mod p (rank C-1, so a wrapped corner shows as rank
    C) and random matrices, half with a repeated row; it is passed
    reduced, narrow, narrow and negative, and as unreduced int64."""
    rng = np.random.default_rng(p * 100 + C)
    rand = rng.integers(0, p, (6, C, C))
    rand[::2, -1] = rand[::2, 0]                       # rank-deficient half
    stack = np.concatenate([worst_case(p, C, 0)[None], worst_case(p, C, (C - 1) % p)[None], rand])
    narrow = np.int8 if p < 64 else np.int16
    forms = {"reduced": stack, "narrow": stack.astype(narrow),
             "narrow_negative": (stack - p).astype(narrow), "negative": stack - 3 * p,
             "at_least_p": stack + 2 * p, "zero_as_p": np.where(stack == 0, p, stack),
             "huge": stack + p * rng.integers(-2 ** 40 // p, 2 ** 40 // p, stack.shape)}
    ring = gen_m2(p)
    for name, form in forms.items():
        assert Enumeration(ring, DEFAULT_BUDGET).rref_batched(form)[0].dtype == dtype, name
        check_elimination(ring, form)


@pytest.mark.parametrize("shape", [(3, 0, 4), (0, 3, 4), (3, 4, 0)],
                         ids=["no_rows", "no_matrices", "no_columns"])
def test_elimination_of_empty_stacks(shape):
    """A stack with no rows, no matrices or no columns ranks 0 and reduces
    to zero rows, as `linalg` has it, where numpy's max over no rows
    would raise."""
    check_elimination(gen_m2(5), np.zeros(shape, dtype=np.int64))


def test_planes_check_range_in_the_input_dtype():
    """Reduced narrow input is moved into planes without an int64 copy of
    it, which would take 8 bytes an entry (numpy reports its buffers to
    tracemalloc), and narrow unreduced input is still reduced."""
    enum = Enumeration(gen_zorn(3), DEFAULT_BUDGET)
    X = enum.all_coords()
    tracemalloc.start()
    try:
        planes = enum._planes(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(planes, X.T) and peak < 2 * X.nbytes
    narrow = np.array([[-1, 3, 7, -128, 127, 0, 2, -3]], dtype=np.int8)
    assert ints(enum._planes(narrow)[:, 0]) == [int(x) % 3 for x in narrow[0]]


def halves(p, n, m, c):
    """Unital ring over odd F_p whose nonzero structure constants all equal
    c, (p-1)/2 or (p+1)/2, so that each centred constant is +h or -h, h =
    (p-1)/2: b_0 = c*1, and the first m products b_i*b_j, i, j >= 1, are
    c*(b_1 + ... + b_{n-1}), the pairs (1, 2), ..., (1, n-1) first, then
    the rest row-major.  Coordinate k >= 1 of a product sums m + 2
    constants, so W = (m+2)*h, and the all-(p-1) element squared reaches
    c'*(m+2)*(p-1)**2 there.  For m <= n-2 the first m pairs are
    (1, j), and the commutator of (p-1)b_1 with (p-1)(b_2 + ... + b_{n-1})
    reaches c'*m*(p-1)**2."""
    sc = [[[0] * n for _ in range(n)] for _ in range(n)]
    for j in range(n):
        sc[0][j][j] = sc[j][0][j] = c
    star = [(1, j) for j in range(2, n)]
    pairs = star + [(i, j) for i in range(1, n) for j in range(1, n) if (i, j) not in star]
    for i, j in pairs[:m]:
        sc[i][j] = [0] + [c] * (n - 1)
    return Ring(f"halves{m}_{c}_f{p}", PrimeField(p), [f"b{i}" for i in range(n)], sc,
                [pow(c, -1, p)] + [0] * (n - 1))


def accumulator_kernels_wrong(ring, enum, a, b):
    """The kernels among `mul_index`, `commutator_index` and `mul` that
    disagree with `rings.py` on some pair (a[t], b[t]); the index kernels
    also run on the broadcast (a, b) grid, which must agree with them on
    its diagonal."""
    coords = enum.coords_of(a), enum.coords_of(b)
    got = {"mul_index": enum.mul_index(a, b), "commutator_index": enum.commutator_index(a, b),
           "mul": enum.index_of(enum.mul(*coords))}
    for name in ("mul_index", "commutator_index"):
        grid = getattr(enum, name)(a[:, None], b[None, :])
        assert grid.dtype == np.int64 and grid.shape == (len(a), len(b))
        assert (np.diagonal(grid) == got[name]).all()
    wrong = set()
    for t, (x, y) in enumerate(zip(*coords)):
        x, y = tuple(ints(x)), tuple(ints(y))
        xy, yx = ring.mul_coords(x, y), ring.mul_coords(y, x)
        want = {"mul_index": xy, "commutator_index": ring.sub_coords(xy, yx), "mul": xy}
        wrong |= {name for name in got if int(got[name][t]) != index_in(ring, want[name])}
    return wrong


def accumulator_cases(p, n, count):
    """Index pairs (a, b): the all-(p-1) element squared, the all-(p-1)
    element times each basis vector and back, (p-1)b_1 with (p-1)(b_2 +
    ... + b_{n-1}) both ways (a != b, so the differences are nonzero), and
    random pairs."""
    top = count - 1
    basis = [p ** (n - 1 - i) for i in range(n)]
    star = [(p - 1) * p ** (n - 2), p ** (n - 2) - 1]
    rng = np.random.default_rng(p * 100 + n)
    a = np.array([top, top, *basis, *star, *rng.integers(0, count, 6)], dtype=np.int64)
    b = np.array([top, *basis, top, *star[::-1], *rng.integers(0, count, 6)], dtype=np.int64)
    return a, b


# (p, n, m, acc_dtype) on each side of every edge of the accumulator rule
# for halves(p, n, m, c), W*(p-1)**2 + p with W = (m+2)*(p-1)/2, and one
# row inside each type
ACCUMULATOR_EDGES = [(3, 7, 29, np.int8), (3, 7, 30, np.int16), (5, 4, 1, np.int8),
                     (5, 4, 2, np.int16), (23, 4, 4, np.int16), (23, 4, 5, np.int32),
                     (1123, 2, 1, np.int32), (1129, 2, 1, np.int64),
                     (3, 5, 13, np.int8), (17, 4, 5, np.int16), (907, 2, 0, np.int32)]


@pytest.mark.parametrize("p, n, m, dtype", ACCUMULATOR_EDGES)
def test_accumulator_dtype_edges(p, n, m, dtype):
    """The product and commutator accumulator at the edges of its rule,
    against `rings.py`, with every constant (p-1)/2 and with every one
    (p+1)/2, so that output sums reach +W*(p-1)**2 and -W*(p-1)**2.  One
    step narrower, the square of the all-(p-1) element comes out wrong."""
    bound = (m + 2) * (p - 1) // 2 * (p - 1) ** 2 + p
    assert np.iinfo(dtype).max >= bound
    if dtype is not np.int8:
        assert np.iinfo(NARROWER[dtype]).max < bound
    for c in ((p - 1) // 2, (p + 1) // 2):
        ring = halves(p, n, m, c)
        enum = Enumeration(ring, max(DEFAULT_BUDGET, p ** n))
        assert enum.acc_dtype == dtype
        a, b = accumulator_cases(p, n, enum.count)
        assert accumulator_kernels_wrong(ring, enum, a, b) == set()
        if dtype is not np.int8 and 2 * c < p:
            enum.acc_dtype = NARROWER[dtype]
            assert {"mul_index", "mul"} <= accumulator_kernels_wrong(ring, enum, a, b)


def test_one_step_narrower_accumulator_breaks_the_commutator():
    """halves(5, 6, 4, 2): W = 12, so int16, and the commutator of
    (p-1)b_1 with (p-1)(b_2 + ... + b_5) sums 4 differences of 16 with
    constant 2 to 128, one past int8; in int8 every kernel errs."""
    ring = halves(5, 6, 4, 2)
    enum = Enumeration(ring, DEFAULT_BUDGET)
    assert enum.acc_dtype == np.int16
    a, b = accumulator_cases(5, 6, enum.count)
    assert accumulator_kernels_wrong(ring, enum, a, b) == set()
    enum.acc_dtype = np.int8
    assert accumulator_kernels_wrong(ring, enum, a, b) == {"mul_index", "commutator_index", "mul"}


def twisted(p):
    """b1 * b1 = (p-1)(b0 + b1): coordinate 1 of a product sums the
    constants 1, 1 and p-1, centred 1, 1 and -1, so W = 3 and the int64
    guard needs 3*(p-1)**2 + p < 2**63."""
    sc = [[[1, 0], [0, 1]], [[0, 1], [p - 1, p - 1]]]
    return Ring(f"twisted_f{p}", PrimeField(p), ["b0", "b1"], sc, [1, 0])


def test_largest_entries_stay_exact():
    p = 1_753_413_037                 # the largest prime the guard accepts for twisted(p)
    ring = twisted(p)
    top = (p - 1, p - 1)
    enum = Enumeration(ring, DEFAULT_BUDGET)
    assert enum.acc_dtype == np.int64
    for a, b in product([top, (p - 1, 0), (0, p - 1), (1, p - 1)], repeat=2):
        assert tuple(ints(enum.mul([a], [b])[0])) == ring.mul_coords(a, b)
        assert tuple(ints(enum.commutator([a], [b])[0])) == ring.sub_coords(
            ring.mul_coords(a, b), ring.mul_coords(b, a))


def test_int64_limit_is_loud():
    ring = twisted(1_753_413_059)     # the next prime
    assert ring.mul_coords((0, 1), (0, 1)) == (1_753_413_058, 1_753_413_058)  # exact arithmetic works
    with pytest.raises(UnsupportedDomain, match="overflow int64"):
        Enumeration(ring, DEFAULT_BUDGET)


@pytest.mark.parametrize("p, dtype", [(2, np.int8), (11, np.int8), (13, np.int16),
                                      (181, np.int16), (191, np.int32)])
def test_mul_matrices_dtype_follows_weights(p, dtype):
    """twisted(p): entry (1, 1) of L_a is a_0 + (p-1)*a_1, weight p, so it
    reaches p*(p-1) before reduction and `mat_dtype` holds p*p."""
    ring = twisted(p)
    enum = Enumeration(ring, DEFAULT_BUDGET)
    assert enum.mat_dtype == dtype
    edge = [0, 1, p - 2, p - 1, -1, 2 ** 40]
    A = np.array(list(product(edge, repeat=2)), dtype=np.int64)
    L, R = enum.left_mul_matrices(A), enum.right_mul_matrices(A)
    assert L.dtype == R.dtype == dtype
    for a, left, right in zip(A, L, R):
        a = tuple(int(x) % p for x in a)
        assert [ints(r) for r in left] == ring.left_mul_matrix(a)
        assert [ints(r) for r in right] == ring.right_mul_matrix(a)


@st.composite
def ring_and_subspace(draw, **kw):
    """A random unital ring and an rref basis of a random subspace."""
    ring = draw(unital_rings(**kw))
    vec = st.lists(st.integers(0, ring.domain.p - 1), min_size=ring.dim, max_size=ring.dim)
    basis, pivots = linalg.rref(draw(st.lists(vec, max_size=ring.dim)), ring.domain)
    return ring, basis, pivots


@given(ring_and_subspace())
def test_subspace_mask_matches_reference(case):
    """Membership of every element index against `linalg.in_span` on the
    element's coordinates."""
    ring, basis, pivots = case
    enum = Enumeration(ring, DEFAULT_BUDGET)
    got = Subspace.from_vectors(ring, basis).mask(enum)
    assert got.shape == (enum.count,)
    want = [linalg.in_span(basis, pivots, list(x), ring.domain)
            for x in product(range(ring.domain.p), repeat=ring.dim)]
    assert got.tolist() == want


@given(ring_and_subspace(max_dim=3), st.booleans())
def test_subspace_points_match_explicit_enumeration(case, unreduced):
    """Every point, in the documented order (first basis direction
    fastest), against a Python enumeration in `rings.py` arithmetic."""
    ring, basis, _ = case
    p, d = ring.domain.p, len(basis)
    rows = [[x - (i + 1) * p for i, x in enumerate(row)] for row in basis] if unreduced else basis
    enum = Enumeration(ring, DEFAULT_BUDGET)
    got = enum.subspace_points(rows)
    want = []
    for coeffs in product(range(p), repeat=d):
        point = ring.zero_coords()
        for c, row in zip(reversed(coeffs), basis):      # first direction varies fastest
            point = ring.add_coords(point, ring.smul_coords(c, row))
        want.append(point)
    assert got.shape == (p ** d, ring.dim)
    assert [tuple(ints(v)) for v in got] == want
    if d:
        with pytest.raises(BudgetExceeded):
            Enumeration(ring, p ** d - 1).subspace_points(rows)


@pytest.mark.parametrize("p", [2 ** 31 - 1, 2 ** 64 + 13])
def test_large_prime_ring_loads_and_analyze_skips_enumeration(p, tmp_path, capsys):
    """M2 has W = 2: at p = 2**31 - 1, 2*(p-1)**2 + p fits int64, so the
    census and primeness are skipped for their p**4 elements; at 2**64 +
    13 it does not, and they are skipped for int64."""
    ring = gen_m2(p)
    assert center(ring).dim == 1
    if p < 2 ** 63:
        error, reason = BudgetExceeded, (f"enumerating {ring.name!r} needs {p ** 4} evaluations, "
                                         f"budget is {DEFAULT_BUDGET}")
    else:
        error, reason = UnsupportedDomain, "overflow int64"
    with pytest.raises(error, match=reason):
        check_primeness(ring)
    path = tmp_path / "m2.json"
    path.write_text(json.dumps(ring_to_json(ring)))
    assert main(["analyze", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    for key in ("idempotents", "primeness"):
        assert reason in out[key]["skipped"]
    assert out["centre_dim"] == 1 and out["alternative"]
