"""Differential tests: every batched numpy kernel in `Enumeration` against
the exact reference arithmetic of `rings.py` and `linalg.py`, on random
unital structure-constant rings."""

import json
import tracemalloc
from collections import Counter
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from altring import PrimeField, Subspace, center, check_primeness, gen_m2, gen_zorn, linalg
from altring.cli import main
from altring.enumeration import DEFAULT_BUDGET, Enumeration
from altring.errors import BudgetExceeded, UnsupportedDomain
from altring.rings import Ring, ring_to_json
from conftest import unital_rings


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


def check_linear_index(ring, M, elements=None):
    """`linear_index` against `Ring.apply_matrix` (exact, reducing M's
    entries mod p) on the given element indices, default every element."""
    enum = Enumeration(ring, DEFAULT_BUDGET)
    p, n = ring.domain.p, ring.dim
    got = enum.linear_index(M)
    assert got.dtype == np.int64 and got.shape == (enum.count,)
    for k in range(enum.count) if elements is None else elements:
        x = tuple(int(k) // p ** (n - 1 - i) % p for i in range(n))
        assert int(got[k]) == index_in(ring, ring.apply_matrix(M, x)), (M, x)


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
    """p = 13: a product c*D_j reaches (p-1)**2 = 144, past int8."""
    check_linear_index(*case)


# (p, n, dtype) on each side of every edge of n*(p-1)**2 + p
LINEAR_EDGES = [(5, 7, np.int8), (5, 8, np.int16), (11, 1, np.int8), (11, 2, np.int16),
                (13, 1, np.int16), (181, 1, np.int16), (181, 2, np.int32), (191, 1, np.int32)]


@pytest.mark.parametrize("p, n, dtype", LINEAR_EDGES)
def test_linear_index_dtype_edges(p, n, dtype):
    """The linear-map accumulator at the edges of its rule.  The all-(p-1)
    matrix drives every plane of the all-(p-1) element to n*(p-1)**2;
    it is passed reduced, negative and far past p, with the zero and
    identity matrices, on the top element, the basis and random
    elements."""
    ring = dense(p, n, 0)
    enum = Enumeration(ring, DEFAULT_BUDGET)
    bound = n * (p - 1) ** 2 + p
    assert enum.lin_dtype == dtype and np.iinfo(dtype).max >= bound
    if dtype is not np.int8:
        narrower = {np.int16: np.int8, np.int32: np.int16}[dtype]
        assert np.iinfo(narrower).max < bound
    top = [[p - 1] * n for _ in range(n)]
    rng = np.random.default_rng(p * 100 + n)
    elements = [enum.count - 1, *(p ** i for i in range(n)), *rng.integers(0, enum.count, 20)]
    for M in (top, [[-1] * n] * n, [[c + p * 2 ** 30 for c in row] for row in top],
              [[0] * n] * n, [[int(i == j) for j in range(n)] for i in range(n)]):
        check_linear_index(ring, M, elements)


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


@pytest.mark.parametrize("edge, want", [(4, 4), (5, 0), (-1, 4), (-5, 0), (10 ** 12, 0)])
def test_index_of_range_boundaries(edge, want):
    enum = Enumeration(gen_m2(5), DEFAULT_BUDGET)
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


def dense(p, n, m):
    """Unital ring with every structure constant p-1: b_0 = -1 (so b_0*b_j
    = b_j*b_0 = (p-1)b_j, and the unit is (p-1)b_0), and the first m
    non-unit basis products (row-major) are (p-1)*(b_0 + ... + b_{n-1}).
    Coordinate k >= 1 of the square of the all-(p-1) element sums m + 2
    terms of exactly (p-1)**3."""
    sc = [[[0] * n for _ in range(n)] for _ in range(n)]
    for j in range(n):
        sc[0][j][j] = sc[j][0][j] = p - 1
    for i, j in [(i, j) for i in range(1, n) for j in range(1, n)][:m]:
        sc[i][j] = [p - 1] * n
    return Ring(f"dense{m}_f{p}", PrimeField(p), [f"b{i}" for i in range(n)], sc,
                [p - 1] + [0] * (n - 1))


# (p, n, m, acc_dtype) on each side of every edge of max(nnz_k)*(p-1)**3 + p,
# where nnz_k = m + 2
ACCUMULATOR_EDGES = [(3, 5, 13, np.int8), (3, 5, 14, np.int16), (17, 4, 5, np.int16),
                     (17, 4, 6, np.int32), (907, 2, 0, np.int32), (907, 2, 1, np.int64)]


@pytest.mark.parametrize("p, n, m, dtype", ACCUMULATOR_EDGES)
def test_accumulator_dtype_edges(p, n, m, dtype):
    """The product and commutator accumulator at the edges of its rule,
    against `rings.py`: the all-(p-1) element drives every output to its
    bound, on 1-D index arrays and on broadcast row and column grids."""
    ring = dense(p, n, m)
    enum = Enumeration(ring, DEFAULT_BUDGET)
    nnz = max(Counter(k for _, _, k, _ in enum.terms).values())
    assert nnz == m + 2 and enum.acc_dtype == dtype
    assert np.iinfo(dtype).max >= nnz * (p - 1) ** 3 + p
    if dtype is not np.int8:
        narrower = {np.int16: np.int8, np.int32: np.int16, np.int64: np.int32}[dtype]
        assert np.iinfo(narrower).max < nnz * (p - 1) ** 3 + p
    top = enum.count - 1
    basis = [p ** (n - 1 - i) for i in range(n)]
    rng = np.random.default_rng(p * 100 + m)
    a = np.array([top, top, *basis, *rng.integers(0, enum.count, 6)], dtype=np.int64)
    b = np.array([top, *basis, top, *rng.integers(0, enum.count, 6)], dtype=np.int64)
    coords = enum.coords_of(a), enum.coords_of(b)
    got = {"mul": enum.mul_index(a, b), "comm": enum.commutator_index(a, b),
           "coords": enum.index_of(enum.mul(*coords))}
    grid = {"mul": enum.mul_index(a[:, None], b[None, :]),
            "comm": enum.commutator_index(a[:, None], b[None, :])}
    for t, (x, y) in enumerate(zip(*coords)):
        x, y = tuple(ints(x)), tuple(ints(y))
        xy, yx = ring.mul_coords(x, y), ring.mul_coords(y, x)
        assert int(got["mul"][t]) == int(got["coords"][t]) == int(enum.index_of(xy))
        assert int(got["comm"][t]) == int(enum.index_of(ring.sub_coords(xy, yx)))
    for name in grid:
        assert grid[name].dtype == np.int64 and grid[name].shape == (len(a), len(b))
        assert (np.diagonal(grid[name]) == got[name]).all()
    for s, t in [(0, 1), (1, 0), (len(a) - 1, 2)]:
        x, y = (tuple(ints(enum.coords_of(k))) for k in (a[s], b[t]))
        assert int(grid["mul"][s, t]) == int(enum.index_of(ring.mul_coords(x, y)))


def twisted(p):
    """b1 * b1 = (p-1)(b0 + b1): coordinate 1 of a product sums 3 terms,
    one of them up to (p-1)**3, so the int64 guard needs 3 (p-1)**3 < 2**63."""
    sc = [[[1, 0], [0, 1]], [[0, 1], [p - 1, p - 1]]]
    return Ring(f"twisted_f{p}", PrimeField(p), ["b0", "b1"], sc, [1, 0])


def test_largest_entries_stay_exact():
    p = 1_454_081                     # the largest prime the guard accepts for twisted(p)
    ring = twisted(p)
    top = (p - 1, p - 1)
    enum = Enumeration(ring, DEFAULT_BUDGET)
    assert tuple(ints(enum.mul([top], [top])[0])) == ring.mul_coords(top, top)


def test_int64_limit_is_loud():
    ring = twisted(1_454_099)         # the next prime
    assert ring.mul_coords((0, 1), (0, 1)) == (1_454_098, 1_454_098)   # exact arithmetic works
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
