"""Vectorized enumeration of rings over small prime fields.

Element order is lexicographic over coordinate tuples with F_p = {0..p-1},
so the element at index k has the base-p digits of k as coordinates
(most significant digit = coordinate 0).  Subspaces enumerate by
coefficient vectors with the *first* basis direction varying fastest, so
scalar multiples of the first basis vector come right after zero; scan
witnesses quote whichever order the scan uses.

All numpy arithmetic stays exact.  Products run over the nonzero
structure constants only: output coordinate k accumulates c*A_i*B_j for
each constant c = sc[i][j][k] on operands reduced to [0, p), so it sums
at most nnz_k terms, each in [0, (p-1)**3], before it is reduced mod p.
The product and commutator cores accumulate in `acc_dtype`, the
narrowest signed type (`_narrowest_signed`) holding max(nnz_k)*(p-1)**3
+ p, the maximum taken over `terms` and `comm_terms`: int16 for M2 and
Zorn over F_5.  An `Enumeration` refuses (UnsupportedDomain) a prime for
which that bound passes int64; the ring itself still loads and works in
exact Python arithmetic.

The product kernels work plane-major: each operand is reduced mod p and
its coordinate axis moved to the front in one pass, so every A_i is a
contiguous plane, and the result is returned as a coordinate-last view
of the (n, ...) accumulator, not copied back.  `index_of` and `_planes`
reduce mod p only when some entry lies outside [0, p); reduced input,
the common case after a kernel, is indexed without a pass of divisions.

One Enumeration serves a ring for the whole run: `Enumeration.of(ring)`
builds it on first use and keeps it in the ring's memo (`rings.memoised`),
so the digit table and the idempotent mask are built once per ring.  The
Enumeration keeps the ring's name, not the ring, so the memo holds no
reference cycle and the ring is freed, tables included, with its last
reference.  `all_coords`, the (count, n) int64 transpose of the digit
table, is not cached: at 390,625 elements it is 25 MB that would stay
alive for the whole run, raising peak RSS, while its callers need it
only for a moment.

Pair scans work in index space.  The digit table `digits` holds the
(n, count) coordinate planes of every element in `elim_dtype`, the
narrowest signed type holding (p-1)**2 + p, so the sum or difference of
two digits stays exact in it; it is built on first use under the element
budget.  The index kernels `mul_index`, `commutator_index`
and `add_index` take element indices (any broadcastable shapes), gather
their operand planes from the table with `take(idx, axis=1)` and return
int64 indices by Horner's rule on the planes (`index_of_planes`, run in
`index_dtype`, the narrowest signed type holding count - 1): no
coordinate rows, no transpose.  `mul_index` runs the same product core
as `mul` and `mul_outer`, which take their operand planes in
`elim_dtype` and return reduced coordinates in `acc_dtype`.  The cores
reduce mod p by floor division (`reduce`): numpy vectorises integer
division by a scalar, and on int16 planes it ran about 9 times faster
than `remainder` (numpy 2.4, x86-64).

Linear maps run in index space too.  `linear_index(M)` returns the
element index of M*x for every element x: plane k accumulates c*D_j over
the nonzero entries c = M[k][j] mod p on the digit planes, so it sums at
most n terms, each in [0, (p-1)**2], in `lin_dtype`, the narrowest signed
type holding n*(p-1)**2 + p (int8 for M2 over F_5, int16 for Zorn over
F_5), before `reduce` and `index_of_planes`.  The ufunc is told that
type, so a narrow digit plane is widened before it is multiplied: under
NumPy 1.24's value-based casting an int8 array times a wider scalar
would stay int8.

Commutators have one core of their own over the antisymmetrised
constants d = (c_ijk - c_jik) mod p, i < j (`comm_terms`): plane k
accumulates d*(A_i*B_j - A_j*B_i), so the diagonal and the repeated
half of the basis pairs cost nothing.  Each term lies in (-(p-1)**3,
(p-1)**3), and output k sums one per nonzero d_ijk; a nonzero d_ijk
needs c_ijk or c_jik nonzero, so that count never passes nnz_k of the
products, and `acc_dtype` holds every partial sum.

Multiplication matrices and elimination run in narrow dtypes, each
sized by a bound of its own (`_narrowest_signed`).  Entry (k, j) of L_a
sums c*a_i over the constants c = c_ijk (entry (k, i) of R_a sums
c*a_j), so it stays below (p-1) times its weight, the sum of those
constants.  `left/right_mul_matrices` accumulate in `mat_dtype`, which
holds the largest weight times (p-1) plus p, reduce only the entries
whose weight lets them reach p, and return reduced entries in it.  The
eliminator picks its working type per call from the column count C (see
`_eliminate_chunk`): it holds max(C-1, 1)*(p-1)**2 + p, so p = 5 runs
in int8 up to C = 8 and in int16 beyond.  `elim_dtype` sizes only the
digit table.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property

import numpy as np

from .errors import BudgetExceeded, UnsupportedDomain
from .rings import Ring, memoised

DEFAULT_BUDGET = 10**6


def _narrowest_signed(bound: int):
    """Narrowest signed integer dtype holding every integer of magnitude
    at most `bound`."""
    for dt in (np.int8, np.int16, np.int32, np.int64):
        if bound <= np.iinfo(dt).max:
            return dt
    raise UnsupportedDomain(f"values up to {bound} do not fit int64")


def require_finite(ring: Ring) -> int:
    if ring.domain.kind != "Fp":
        raise UnsupportedDomain(f"ring {ring.name!r} is over Q; finite enumeration needs a prime field")
    return ring.domain.p


class Enumeration:
    """Cached element tables and batched arithmetic for one finite ring."""

    def __init__(self, ring: Ring):
        self.name = ring.name
        self.p = require_finite(ring)
        self.n = ring.dim
        self.count = self.p ** self.n
        # nonzero structure constants (i, j, k, c): b_i * b_j has c at coordinate k
        self.terms = [(i, j, k, int(c)) for i, plane in enumerate(ring.sc)
                      for j, row in enumerate(plane) for k, c in enumerate(row) if int(c)]
        # antisymmetrised constants (i, j, k, d), i < j: [b_i, b_j] has d at coordinate k
        self.comm_terms = [(i, j, k, d) for i in range(self.n) for j in range(i + 1, self.n)
                           for k in range(self.n)
                           if (d := (int(ring.sc[i][j][k]) - int(ring.sc[j][i][k])) % self.p)]
        # product and commutator accumulator: nnz_k terms of magnitude <= (p-1)**3
        per_output = max(max(Counter(t[2] for t in terms).values(), default=1)
                         for terms in (self.terms, self.comm_terms))
        acc_bound = per_output * (self.p - 1) ** 3 + self.p
        if acc_bound > np.iinfo(np.int64).max:
            raise UnsupportedDomain(
                f"ring {ring.name!r}: {per_output} products of F_{self.p} entries can "
                "overflow int64; enumeration needs a smaller prime")
        self.acc_dtype = _narrowest_signed(acc_bound)
        # digit table: holds (p-1)**2 + p, so a + b and a - b of two digits stay exact
        self.elim_dtype = _narrowest_signed((self.p - 1) ** 2 + self.p)
        # linear maps: n terms c*D_j with c and D_j both in [0, p)
        self.lin_dtype = _narrowest_signed(self.n * (self.p - 1) ** 2 + self.p)
        # entry (k, j) of L_a sums c*a_i over the constants c_ijk, entry (k, i)
        # of R_a sums c*a_j: at most (p-1) times the weight, the sum of those c
        self.mat_weights = {True: Counter(), False: Counter()}      # keyed by `left`
        for i, j, k, c in self.terms:
            self.mat_weights[True][k, j] += c
            self.mat_weights[False][k, i] += c
        weight = max((w for ws in self.mat_weights.values() for w in ws.values()), default=0)
        self.mat_dtype = _narrowest_signed(weight * (self.p - 1) + self.p)
        self.radix = self.p ** np.arange(self.n - 1, -1, -1, dtype=np.int64)
        # Horner's rule on digit planes: every partial index stays below count
        self.index_dtype = _narrowest_signed(self.count - 1)
        self.unit = np.array([int(x) for x in ring.unit_coords], dtype=np.int64)
        self._digits = None
        self._idempotents = None

    @staticmethod
    @memoised
    def of(ring: Ring) -> "Enumeration":
        """The ring's one Enumeration, built on first use."""
        return Enumeration(ring)

    @cached_property
    def inv_table(self) -> np.ndarray:
        """Inverses mod p (0 for 0), built on first use: p - 1 modular powers."""
        return np.array([0] + [pow(a, self.p - 2, self.p) for a in range(1, self.p)],
                        dtype=np.int64)

    # -- indices and coordinates ----------------------------------------

    def coords_of(self, idx) -> np.ndarray:
        idx = np.asarray(idx, dtype=np.int64)
        return (idx[..., None] // self.radix) % self.p

    def index_of(self, coords) -> np.ndarray:
        C = np.asarray(coords, dtype=np.int64)
        if C.size and (C.min() < 0 or C.max() >= self.p):
            C = C % self.p
        return C @ self.radix

    def _check_budget(self, budget: int):
        if self.count > budget:
            raise BudgetExceeded(self.count, budget, f"enumerating {self.name!r}")

    def all_coords(self, budget: int = DEFAULT_BUDGET) -> np.ndarray:
        """(count, n) int64 coordinates of every element, a fresh transpose
        of the digit table on every call."""
        return np.ascontiguousarray(self.digits(budget).T, dtype=np.int64)

    def digits(self, budget: int = DEFAULT_BUDGET) -> np.ndarray:
        """(n, count) digit table in `elim_dtype`: plane i holds coordinate i
        of every element, in element order."""
        self._check_budget(budget)
        if self._digits is None:
            p, n = self.p, self.n
            self._digits = np.empty((n, self.count), dtype=self.elim_dtype)
            digit = np.arange(p, dtype=self.elim_dtype)[:, None]
            for i in range(n):        # digit i cycles through 0..p-1 in runs of p**(n-1-i)
                self._digits[i].reshape(p ** i, p, p ** (n - 1 - i))[:] = digit
        return self._digits

    def index_of_planes(self, P) -> np.ndarray:
        """Element indices of reduced (n, ...) coordinate planes (any
        integer dtype), by Horner's rule in `index_dtype`; returned in
        int64."""
        idx = P[0].astype(self.index_dtype)
        for plane in P[1:]:
            idx *= idx.dtype.type(self.p)
            idx += plane
        return idx.astype(np.int64, copy=False)

    def reduce(self, X) -> np.ndarray:
        """X mod p in place, for a signed integer array: X - p*(X // p),
        since numpy vectorises floor division by a scalar but not
        `remainder`."""
        p = X.dtype.type(self.p)
        q = X // p
        q *= p
        X -= q
        return X

    # -- batched arithmetic ----------------------------------------------

    def _planes(self, A, dtype=None) -> np.ndarray:
        """A reduced mod p with its coordinate axis first: (n, ...) planes
        in `dtype` (default `elim_dtype`), which must hold p."""
        A = np.asarray(A, dtype=np.int64)
        if A.size and (A.min() < 0 or A.max() >= self.p):
            A = self.reduce(A.copy())
        out = np.empty((A.shape[-1],) + A.shape[:-1], dtype=dtype or self.elim_dtype)
        out[...] = np.moveaxis(A, -1, 0)
        return out

    def _product_planes(self, A, B) -> np.ndarray:
        """Products of reduced (n, ...) planes, broadcast over the trailing
        axes: plane k accumulates c*A_i*B_j in `acc_dtype` on contiguous
        planes.  The one product core behind `mul`, `mul_outer` and
        `mul_index`, so that no public kernel runs inside another."""
        acc = self.acc_dtype
        A, B = A.astype(acc, copy=False), B.astype(acc, copy=False)
        shape = np.broadcast_shapes(A.shape[1:], B.shape[1:])
        out = np.zeros((self.n,) + shape, dtype=acc)
        term = np.empty(shape, dtype=acc)
        for i, j, k, c in self.terms:
            np.multiply(A[i], B[j], out=term)
            if c != 1:
                term *= acc(c)
            out[k] += term
        return self.reduce(out)

    def _commutator_planes(self, A, B) -> np.ndarray:
        """Commutators of reduced (n, ...) planes: plane k accumulates
        d*(A_i*B_j - A_j*B_i) in `acc_dtype` over the antisymmetrised
        constants, one difference per basis pair i < j shared by every k
        it feeds.  The one commutator core behind `commutator` and
        `commutator_index`."""
        acc = self.acc_dtype
        A, B = A.astype(acc, copy=False), B.astype(acc, copy=False)
        shape = np.broadcast_shapes(A.shape[1:], B.shape[1:])
        out = np.zeros((self.n,) + shape, dtype=acc)
        diff = np.empty(shape, dtype=acc)
        swap = np.empty(shape, dtype=acc)
        pair = None
        for i, j, k, d in self.comm_terms:
            if (i, j) != pair:
                pair = (i, j)
                np.multiply(A[i], B[j], out=diff)
                np.multiply(A[j], B[i], out=swap)
                diff -= swap
            if d == 1:
                out[k] += diff
            else:
                np.multiply(diff, acc(d), out=swap)
                out[k] += swap
        return self.reduce(out)

    def mul(self, A, B) -> np.ndarray:
        """Rowwise products: result[b] = A[b] * B[b], reduced, in `acc_dtype`."""
        return np.moveaxis(self._product_planes(self._planes(A), self._planes(B)), 0, -1)

    def mul_outer(self, A, B) -> np.ndarray:
        """All products: result[a, b] = A[a] * B[b]."""
        A, B = self._planes(A), self._planes(B)
        return np.moveaxis(self._product_planes(A[:, :, None], B[:, None, :]), 0, -1)

    def commutator(self, A, B) -> np.ndarray:
        return np.moveaxis(self._commutator_planes(self._planes(A), self._planes(B)), 0, -1)

    # -- index kernels: element indices in, element indices out -----------

    def mul_index(self, a, b, budget: int = DEFAULT_BUDGET) -> np.ndarray:
        """Index of a[t] * b[t] for index arrays a, b (broadcast)."""
        D = self.digits(budget)
        return self.index_of_planes(self._product_planes(D.take(a, axis=1), D.take(b, axis=1)))

    def commutator_index(self, a, b, budget: int = DEFAULT_BUDGET) -> np.ndarray:
        """Index of [a[t], b[t]] for index arrays a, b (broadcast)."""
        D = self.digits(budget)
        return self.index_of_planes(self._commutator_planes(D.take(a, axis=1), D.take(b, axis=1)))

    def add_index(self, a, b, budget: int = DEFAULT_BUDGET) -> np.ndarray:
        """Index of a[t] + b[t] for index arrays a, b (broadcast)."""
        D = self.digits(budget)
        S = D.take(a, axis=1) + D.take(b, axis=1)       # <= 2p - 2, exact in elim_dtype
        S -= (S >= self.p) * S.dtype.type(self.p)
        return self.index_of_planes(S)

    def left_mul_matrices(self, A) -> np.ndarray:
        """result[b] = matrix of x -> A[b] * x (column-vector action): column
        j is A[b] * b_j.  Reduced entries in `mat_dtype`."""
        return self._mul_matrices(A, left=True)

    def right_mul_matrices(self, A) -> np.ndarray:
        """result[b] = matrix of x -> x * A[b]: column j is b_j * A[b].
        Reduced entries in `mat_dtype`."""
        return self._mul_matrices(A, left=False)

    def _mul_matrices(self, A, left: bool) -> np.ndarray:
        A = self._planes(A, self.mat_dtype)
        out = np.zeros((self.n, self.n) + A.shape[1:], dtype=self.mat_dtype)
        for i, j, k, c in self.terms:
            a, col = (A[i], j) if left else (A[j], i)
            out[k, col] += a if c == 1 else self.mat_dtype(c) * a
        for (k, col), w in self.mat_weights[left].items():
            if w * (self.p - 1) >= self.p:    # the entry can leave [0, p)
                out[k, col] %= self.p
        return np.moveaxis(out, (0, 1), (-2, -1))

    def linear_index(self, M, budget: int = DEFAULT_BUDGET) -> np.ndarray:
        """Index of M*x for every element x, in element order, for an
        (n, n) integer matrix M (entries reduced mod p here)."""
        D = self.digits(budget)
        dt = self.lin_dtype
        out = np.zeros((len(M), self.count), dtype=dt)
        term = np.empty(self.count, dtype=dt)
        for k, row in enumerate(M):
            for j, c in enumerate(row):
                c = int(c) % self.p
                if c == 1:
                    out[k] += D[j]
                elif c:
                    np.multiply(D[j], c, out=term, dtype=dt)
                    out[k] += term
        return self.index_of_planes(self.reduce(out))

    def smul_index(self, lam: int, budget: int = DEFAULT_BUDGET) -> np.ndarray:
        """Index table of x -> lam*x over all elements."""
        scaled = (np.arange(self.p, dtype=np.int64) * lam % self.p).astype(self.elim_dtype)
        return self.index_of_planes(scaled.take(self.digits(budget)))

    def idempotent_mask(self, budget: int = DEFAULT_BUDGET) -> np.ndarray:
        """Which elements e satisfy e*e = e, squared on the digit table once."""
        D = self.digits(budget)
        if self._idempotents is None:
            self._idempotents = (self._product_planes(D, D) == D).all(axis=0)
        return self._idempotents

    # -- subspace points ---------------------------------------------------

    def subspace_points(self, basis_rows, budget: int = DEFAULT_BUDGET) -> np.ndarray:
        """All F_p points of a subspace, first basis direction fastest."""
        B = np.array([[int(x) for x in row] for row in basis_rows], dtype=np.int64)
        d = len(B)
        if d == 0:
            return np.zeros((1, self.n), dtype=np.int64)
        total = self.p ** d
        if total > budget:
            raise BudgetExceeded(total, budget, "enumerating subspace points")
        ar = np.arange(total, dtype=np.int64)
        coeffs = (ar[:, None] // self.p ** np.arange(d, dtype=np.int64)) % self.p
        return coeffs @ B % self.p

    def in_span_mask(self, basis_rows, pivots, V) -> np.ndarray:
        """Which rows of V lie in the span of an rref basis."""
        V = np.asarray(V, dtype=np.int64) % self.p
        if not basis_rows:
            return (V == 0).all(axis=-1)
        B = np.array([[int(x) for x in row] for row in basis_rows], dtype=np.int64)
        red = (V - V[..., list(pivots)] @ B) % self.p
        return (red == 0).all(axis=-1)

    # -- batched rank over F_p ---------------------------------------------

    def rank_batched(self, mats, chunk: int = 4096) -> np.ndarray:
        """Ranks of a (B, R, C) stack of small matrices of any integer dtype,
        by Gauss-Jordan elimination (`_eliminate_chunk`) in chunks of
        `chunk` matrices."""
        mats = np.asarray(mats)
        out = np.empty(len(mats), dtype=np.int64)
        for lo in range(0, len(mats), chunk):
            out[lo:lo + chunk] = self._eliminate_chunk(mats[lo:lo + chunk])[2]
        return out

    def rref_batched(self, mats) -> tuple[np.ndarray, np.ndarray]:
        """Row-reduce a (B, R, C) stack of any integer dtype; returns (rows,
        ranks), each matrix compressed to its pivot rows (exactly its
        nonzero reduced rows, in row order) padded with zero rows to C
        rows.  Only the compressed (B, C, C) rows are widened to int64."""
        T, used, ranks = self._eliminate_chunk(mats)
        take = np.argsort(~used, axis=1, kind="stable")[:, :T.shape[1]]
        rows = T.swapaxes(1, 2)[np.arange(len(T))[:, None], take]
        return rows.astype(np.int64), ranks

    def _eliminate_chunk(self, A) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Gauss-Jordan elimination of a (B, R, C) stack of any integer dtype.

        Returns the reduced stack column-major, (B, C, R) in the working
        dtype with every entry in [0, p); the (B, R) mask of pivot rows,
        which are exactly the nonzero rows at the end; and the ranks.

        Input is reduced mod p only when some entry lies outside [0, p).
        The work runs in place on a column-major copy and reduces lazily,
        by floor division (`reduce`): step c reduces only column c and the
        pivot row, then subtracts f*b from the columns c: with f and b both
        in [0, p).  A column thus takes at most one subtraction below
        (p-1)**2 per earlier step before its own step reduces it, so every
        entry lies in [-(C-1)*(p-1)**2, p), and scaling the reduced pivot
        row by a**-1 stays at most (p-1)**2.  The working dtype is the
        narrowest signed type holding max(C-1, 1)*(p-1)**2 + p.  After its
        step a column is a unit column or stays reduced, so no final pass
        is needed.
        """
        p = self.p
        A = np.asarray(A)
        if A.size and (A.min() < 0 or A.max() >= p):
            A = self.reduce(A.astype(np.int64))
        B, R, C = A.shape
        dt = _narrowest_signed(max(C - 1, 1) * (p - 1) ** 2 + p)
        T = np.empty((B, C, R), dtype=dt)
        T[...] = A.swapaxes(1, 2)
        inv = self.inv_table.astype(dt)
        free = np.ones((B, R), dtype=bool)
        ranks = np.zeros(B, dtype=np.int64)
        rows = np.arange(B)
        for c in range(C):
            col = T[:, c, :]
            if c:
                self.reduce(col)
            cand = col != 0
            cand &= free
            piv = np.argmax(cand, axis=1)
            has = cand[rows, piv]
            # pivot row scaled to a leading 1; zero where column c has no pivot
            prow = self.reduce(T[rows, c:, piv])
            prow *= (inv[col[rows, piv]] * has)[:, None]
            self.reduce(prow)
            rest = T[:, c:, :]
            rest -= prow[:, :, None] * col[:, None, :]
            sel = np.flatnonzero(has)
            T[sel, c:, piv[sel]] = prow[sel]
            free[sel, piv[sel]] = False
            ranks += has
        return T, ~free, ranks
