"""Vectorized enumeration of rings over small prime fields.

Element order is lexicographic over coordinate tuples with F_p = {0..p-1},
so the element at index k has the base-p digits of k as coordinates
(most significant digit = coordinate 0).  Subspaces enumerate by
coefficient vectors with the *first* basis direction varying fastest, so
scalar multiples of the first basis vector come right after zero; scan
witnesses quote whichever order the scan uses.

All numpy arithmetic stays exact.  Products run over the nonzero
structure constants only: output coordinate k accumulates c*A_i*B_j for
each constant c = sc[i][j][k], so an int64 entry sums at most nnz_k terms
below (p-1)**3 before it is reduced mod p.  An `Enumeration` refuses
(UnsupportedDomain) a prime for which that bound reaches 2**63; the ring
itself still loads and works in exact Python arithmetic.

The product kernels work plane-major: each operand is reduced mod p and
its coordinate axis moved to the front in one pass, so every A_i is a
contiguous plane, and the result is returned as a coordinate-last view
of the (n, ...) accumulator, not copied back.  `index_of` reduces mod p
only when some entry lies outside [0, p); reduced input, the common case
after a kernel, is indexed without a pass of divisions.

Pair scans work in index space.  The digit table `digits` holds the
(n, count) coordinate planes of every element in `elim_dtype` (which
holds (p-1)**2 + p, so the sum or difference of two digits stays exact
in it), built once per Enumeration under the element budget.  The index kernels `mul_index`, `commutator_index` and
`add_index` take element indices, gather their operand planes from the
table with `take(idx, axis=1)`, accumulate in int64 and return indices
by Horner's rule on the planes (`index_of_planes`): no coordinate rows,
no transpose.  `mul_index` runs the same product core as `mul` and
`mul_outer`.

Commutators have one core of their own over the antisymmetrised
constants d = (c_ijk - c_jik) mod p, i < j (`comm_terms`): plane k
accumulates d*(A_i*B_j - A_j*B_i), so the diagonal and the repeated
half of the basis pairs cost nothing.  The guard above covers it: each
term lies in (-(p-1)**3, (p-1)**3), and a nonzero d_ijk needs c_ijk or
c_jik nonzero, so output k sums at most nnz_k terms.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property

import numpy as np

from .errors import BudgetExceeded, UnsupportedDomain
from .rings import Ring

DEFAULT_BUDGET = 10**6


def require_finite(ring: Ring) -> int:
    if ring.domain.kind != "Fp":
        raise UnsupportedDomain(f"ring {ring.name!r} is over Q; finite enumeration needs a prime field")
    return ring.domain.p


class Enumeration:
    """Cached element tables and batched arithmetic for one finite ring."""

    def __init__(self, ring: Ring):
        self.ring = ring
        self.p = require_finite(ring)
        self.n = ring.dim
        self.count = self.p ** self.n
        # nonzero structure constants (i, j, k, c): b_i * b_j has c at coordinate k
        self.terms = [(i, j, k, int(c)) for i, plane in enumerate(ring.sc)
                      for j, row in enumerate(plane) for k, c in enumerate(row) if int(c)]
        per_output = max(Counter(k for _, _, k, _ in self.terms).values(), default=0)
        if per_output * (self.p - 1) ** 3 >= 2 ** 63:
            raise UnsupportedDomain(
                f"ring {ring.name!r}: {per_output} products of F_{self.p} entries can "
                "overflow int64; enumeration needs a smaller prime")
        # narrowest signed dtype holding the eliminator's a - f*b before reduction
        self.elim_dtype = next(dt for dt in (np.int8, np.int16, np.int32, np.int64)
                               if (self.p - 1) ** 2 + self.p <= np.iinfo(dt).max)
        self.radix = self.p ** np.arange(self.n - 1, -1, -1, dtype=np.int64)
        self.unit = np.array([int(x) for x in ring.unit_coords], dtype=np.int64)
        # antisymmetrised constants (i, j, k, d), i < j: [b_i, b_j] has d at coordinate k
        self.comm_terms = [(i, j, k, d) for i in range(self.n) for j in range(i + 1, self.n)
                           for k in range(self.n)
                           if (d := (int(ring.sc[i][j][k]) - int(ring.sc[j][i][k])) % self.p)]
        self._coords = None
        self._digits = None

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
            raise BudgetExceeded(self.count, budget, f"enumerating {self.ring.name!r}")

    def all_coords(self, budget: int = DEFAULT_BUDGET) -> np.ndarray:
        self._check_budget(budget)
        if self._coords is None:
            self._coords = np.ascontiguousarray(self.digits(budget).T, dtype=np.int64)
        return self._coords

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
        """Element indices of reduced (n, ...) coordinate planes, by Horner's
        rule in int64 (P may be any integer dtype)."""
        idx = P[0].astype(np.int64)
        for plane in P[1:]:
            idx *= self.p
            idx += plane
        return idx

    # -- batched arithmetic ----------------------------------------------

    def _planes(self, A) -> np.ndarray:
        """A reduced mod p with its coordinate axis first: (n, ...) planes."""
        A = np.asarray(A, dtype=np.int64)
        out = np.empty((A.shape[-1],) + A.shape[:-1], dtype=np.int64)
        return np.remainder(np.moveaxis(A, -1, 0), self.p, out=out)

    def _product_planes(self, A, B) -> np.ndarray:
        """Products of reduced (n, ...) planes, broadcast over the trailing
        axes: plane k accumulates c*A_i*B_j in int64 on contiguous planes.
        The one product core behind `mul`, `mul_outer` and `mul_index`, so
        that no public kernel runs inside another."""
        shape = np.broadcast_shapes(A.shape[1:], B.shape[1:])
        out = np.zeros((self.n,) + shape, dtype=np.int64)
        term = np.empty(shape, dtype=np.int64)
        for i, j, k, c in self.terms:
            np.multiply(A[i], B[j], out=term, dtype=np.int64)
            if c != 1:
                term *= c
            out[k] += term
        out %= self.p
        return out

    def _commutator_planes(self, A, B) -> np.ndarray:
        """Commutators of reduced (n, ...) planes: plane k accumulates
        d*(A_i*B_j - A_j*B_i) over the antisymmetrised constants, one
        difference per basis pair i < j shared by every k it feeds.  The
        one commutator core behind `commutator` and `commutator_index`."""
        shape = np.broadcast_shapes(A.shape[1:], B.shape[1:])
        out = np.zeros((self.n,) + shape, dtype=np.int64)
        diff = np.empty(shape, dtype=np.int64)
        swap = np.empty(shape, dtype=np.int64)
        pair = None
        for i, j, k, d in self.comm_terms:
            if (i, j) != pair:
                pair = (i, j)
                np.multiply(A[i], B[j], out=diff, dtype=np.int64)
                np.multiply(A[j], B[i], out=swap, dtype=np.int64)
                diff -= swap
            if d == 1:
                out[k] += diff
            else:
                np.multiply(diff, d, out=swap)
                out[k] += swap
        out %= self.p
        return out

    def mul(self, A, B) -> np.ndarray:
        """Rowwise products: result[b] = A[b] * B[b]."""
        return np.moveaxis(self._product_planes(self._planes(A), self._planes(B)), 0, -1)

    def mul_outer(self, A, B) -> np.ndarray:
        """All products: result[a, b] = A[a] * B[b]."""
        A, B = self._planes(A), self._planes(B)
        return np.moveaxis(self._product_planes(A[:, :, None], B[:, None, :]), 0, -1)

    def square(self, A) -> np.ndarray:
        return self.mul(A, A)

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
        """result[b] = matrix of x -> A[b] * x (column-vector action)."""
        A = self._planes(A)
        out = np.zeros((self.n, self.n) + A.shape[1:], dtype=np.int64)
        for i, j, k, c in self.terms:
            out[k, j] += c * A[i]
        return np.moveaxis(out % self.p, (0, 1), (-2, -1))

    def right_mul_matrices(self, A) -> np.ndarray:
        """result[b] = matrix of x -> x * A[b]."""
        A = self._planes(A)
        out = np.zeros((self.n, self.n) + A.shape[1:], dtype=np.int64)
        for i, j, k, c in self.terms:
            out[k, i] += c * A[j]
        return np.moveaxis(out % self.p, (0, 1), (-2, -1))

    def smul_index(self, lam: int, budget: int = DEFAULT_BUDGET) -> np.ndarray:
        """Index table of x -> lam*x over all elements."""
        scaled = (np.arange(self.p, dtype=np.int64) * lam % self.p).astype(self.elim_dtype)
        return self.index_of_planes(scaled.take(self.digits(budget)))

    def idempotent_mask(self, budget: int = DEFAULT_BUDGET) -> np.ndarray:
        X = self.all_coords(budget)
        return (self.square(X) == X).all(axis=1)

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

    def rank_batched(self, mats: np.ndarray, chunk: int = 4096) -> np.ndarray:
        """Ranks of a stack of small matrices by masked Gaussian elimination.

        Eliminates column by column with per-matrix pivot choice.  Column c
        costs O(B * rows * (cols - c)) operations in `elim_dtype`, the
        narrowest signed integer type that holds (p-1)**2 + p (int8 for
        p <= 11, int16 for p <= 181), which keeps scans over hundreds of
        thousands of candidate elements in numpy.
        """
        mats = np.asarray(mats, dtype=np.int64)
        out = np.empty(len(mats), dtype=np.int64)
        for lo in range(0, len(mats), chunk):
            out[lo:lo + chunk] = self._eliminate_chunk(mats[lo:lo + chunk])[1]
        return out

    def rref_batched(self, mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Row-reduce a stack of matrices; returns (rows, ranks) with each
        matrix compressed to its nonzero reduced rows padded to C rows."""
        A, ranks = self._eliminate_chunk(mats)
        nonzero = (A != 0).any(axis=2)
        order = np.argsort(~nonzero, axis=1, kind="stable")
        C = A.shape[2]
        take = order[:, :C]
        rows = A[np.arange(len(A))[:, None], take]
        return rows, ranks

    def _eliminate_chunk(self, A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Gauss-Jordan elimination of a (B, R, C) stack; returns the reduced
        stack as int64 and the ranks.

        Works in place on a column-major copy in `elim_dtype`: every entry
        stays in [0, p) between steps and a - f*b lies in [-(p-1)**2, p), so
        the narrow type is exact.  At column c the unused rows are already
        zero left of c, so only columns c: change.
        """
        p = self.p
        A = np.asarray(A, dtype=np.int64) % p
        T = np.ascontiguousarray(A.astype(self.elim_dtype).swapaxes(1, 2))  # (B, C, R)
        B, C, R = T.shape
        inv = self.inv_table.astype(self.elim_dtype)
        used = np.zeros((B, R), dtype=bool)
        ranks = np.zeros(B, dtype=np.int64)
        rows = np.arange(B)
        for c in range(C):
            col = T[:, c, :]
            cand = (col != 0) & ~used
            has = cand.any(axis=1)
            piv = np.argmax(cand, axis=1)
            factor = col * has[:, None]
            prow = T[rows, c:, piv] * inv[col[rows, piv]][:, None] % p
            rest = T[:, c:, :]
            rest -= prow[:, :, None] * factor[:, None, :]
            rest %= p
            sel = np.flatnonzero(has)
            T[sel, c:, piv[sel]] = prow[sel]
            used[sel, piv[sel]] = True
            ranks += has
        return T.swapaxes(1, 2).astype(np.int64), ranks
