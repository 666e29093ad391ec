"""Vectorized enumeration of rings over small prime fields.

Element order is lexicographic over coordinate tuples with F_p = {0..p-1},
so the element at index k has the base-p digits of k as coordinates
(most significant digit = coordinate 0).  Subspaces enumerate by
coefficient vectors with the *first* basis direction varying fastest, so
scalar multiples of the first basis vector come right after zero; scan
witnesses quote whichever order the scan uses.

All numpy arithmetic stays exact.  Products run over the nonzero
structure constants only, each taken centred: c' is the representative
of c mod p in (-p/2, p/2] (`_centred`).  Output coordinate k
accumulates c'*A_i*B_j for each constant c = sc[i][j][k] on operands
reduced to [0, p), so |A_i*B_j| <= (p-1)**2, and every term, partial sum
and temporary stays within W*(p-1)**2, where W is the largest sum of
|c'| over the terms feeding one output.  A c' of -1 is a subtraction
with no multiply.  The product and commutator cores accumulate in
`acc_dtype`, the narrowest signed type (`_narrowest_signed`) holding
W*(p-1)**2 + p, since `reduce`'s p*(X // p) is at most |X| + p; W is
taken over `terms` and `comm_terms`.  M2 and Zorn over F_5 have W = 2
and 4, bounds 37 and 69: int8.  An `Enumeration` refuses
(UnsupportedDomain) a prime for which that bound passes int64; the ring
itself still loads and works in exact Python arithmetic.

The product kernels work plane-major: each operand is reduced mod p and
its coordinate axis moved to the front in one pass, so every A_i is a
contiguous plane, and the result is returned as a coordinate-last view
of the (n, ...) accumulator, not copied back.  `mul_outer(A, B)` builds
(n, nB, nA) planes, A's batch innermost, and returns their (nA, nB, n)
transposed view: the primeness element route multiplies up to 8192
generators by the n basis vectors, and each product step then runs over
all of them, not over n entries (4.4 -> 0.6 ms per 8192-row chunk on
Zorn/F5, numpy 2.4.6, x86-64, 2 cores); `rref_batched`'s batch-last copy
reads that view with its batch axis contiguous.  `index_of` and `_planes`
reduce mod p only when some entry lies outside [0, p); reduced input,
the common case after a kernel, is indexed without a pass of divisions.

`class_position` maps coordinate rows to the position of their scalar
class among the leading-coefficient-1 representatives in element order,
the primeness generator classes, and zero to -1: each row is scaled by
the inverse of its leading entry on `elim_dtype` planes, and its block's
offset is taken off its Horner index.  Since L_{lam*a} = lam*L_a, a rank
screen over the representatives then decides every nonzero element.

One Enumeration per ring and budget serves a whole run:
`Enumeration.of(ring, budget)` builds it on first use and keeps it in the
ring's memo (`rings.memoised`), so the digit table and the idempotent
mask are built once.  No kernel takes a budget: it must be at least 1,
the digit table and every count-sized output (a map's `fibres` too) need
count <= budget, and `subspace_points` p**d <= budget.  The Enumeration
keeps the ring's name, not the ring, so the memo holds no reference
cycle and the ring is freed, tables included, with its last reference.
`all_coords` is the read-only transposed view of the digit table,
(count, n) in `elim_dtype`, so the primeness generator classes and
`MapTable` gather narrow coordinate rows from it with no copy; an int64
copy would be 25 MB on Zorn/F5.

Pair scans work in index space, and only this module reads the digit
table `digits`: the (n, count) coordinate planes of every element in
`elim_dtype`, which holds (p-1)**2 + p and so any sum of p digits,
built on first use under the budget.  The index kernels take
element indices (any broadcastable shapes), gather their operand planes
with `take(idx, axis=1)` and return int64 indices by Horner's rule
(`index_of_planes`).  `mul_index` runs the product core of `mul` and
`mul_outer`; `sum_index` reduces a signed sum in (-p, 2p), as a + b or
a - b, by one compare-and-add per side, else by `reduce`; `line_masks`
steps the planes of a - lam*b in place.  The cores reduce by floor
division (`reduce`): on 8 x 2**18 int8 and int16 planes it ran about 25
and 12 times faster than `remainder` (numpy 2.4.6, x86-64, 2 cores).

Linear maps run in index space too.  `linear_planes(M, P)` returns the
reduced coordinate planes of M*x for the (n, ...) digit planes P of any
elements x: plane k accumulates c'*P_j over the nonzero centred entries
c' of row k, so it stays within S*(p-1), S the largest sum of |c'| over
a row of M.  Each call picks the narrowest signed type holding
S*(p-1) + p, int8 for every matrix over F_5 up to n = 15, before
`reduce`; a digit plane may be wider, as any type holding p holds every
digit.  The ufunc is told that type, so a narrow digit plane is widened
before it is multiplied: under NumPy 1.24's value-based casting an int8
array times a wider scalar would stay int8.  `linear_index(M)` runs it
on the digit table and indexes the planes (`index_of_planes`): the
element index of M*x for every element x.  A map that keeps its matrix
runs it on the transposed `all_coords` for its image table and on the
coordinate rows of a few points for their images (`MapTable.images` and
`MapTable.at`), so neither builds that index.  For an (m, n) matrix the
m planes index the elements of an m-dimensional target, so a structured
map's image index is one `linear_index` even when the target's
dimension differs.

Commutators have one core of their own over the antisymmetrised
constants d = (c_ijk - c_jik) mod p, i < j (`comm_terms`): plane k
accumulates d'*(A_i*B_j - A_j*B_i), d' the centred d, so the diagonal
and the repeated half of the basis pairs cost nothing.  Each difference
lies within (p-1)**2, so output k stays within the sum of |d'| feeding
it times (p-1)**2, part of W; as |d'| <= |c'_ijk| + |c'_jik|, it never
passes the products' own sum.  Commutators under a matrix run the same
core: `commutator_index(a, b, M)` is the index of M*[a, b] for an (m, n)
M, over the composed constants e_ijl = sum_k M_lk*d_ijk mod p
(`_commutator_terms`), so a linear map of a commutator costs no more
than the commutator, and no gather through the map's index.  Its
accumulator holds W_M*(p-1)**2 + p, W_M the largest sum of |e'| feeding
one output, chosen per call as `linear_index` does.  It gathers the
digit planes of only the coordinates the composed terms reference; with
no terms, M kills every basis commutator and every index is 0, with no
plane gathered.

Multiplication matrices and elimination run in narrow dtypes, each
sized by a bound of its own (`_narrowest_signed`).  Entry (k, j) of L_a
sums c*a_i over the constants c = c_ijk (entry (k, i) of R_a sums
c*a_j), so it stays below (p-1) times its weight, the sum of those
constants.  `left/right_mul_matrices` accumulate in `mat_dtype`, which
holds the largest weight times (p-1) plus p, reduce only the entries
whose weight lets them reach p, and return reduced entries in it.

One eliminator, `_eliminate_chunk`, serves both batched routes, and
only this module knows its layout: it works on a batch-last copy of a
(B, ..., C) stack, its row axes flattened, so each column step is a few
whole-plane operations over all B matrices.  `rref_batched` is the one
Gauss-Jordan entry point, `rank_batched` the lean rank-only pass.  Both
pick their working type per call from the column count C: it holds
max(C-1, 1)*(p-1)**2 + p, so p = 5 runs in int8 up to C = 8 and in int16
beyond, and p = 191 needs int32.  `elim_dtype` sizes only the digit
table.  `rref_batched` returns a view of a batch-last buffer, and the
multiplication matrices of a (B, m) batch hold B innermost, so
primeness's (B, m, n, n) stack of L_w over reduced rows w reaches the
batch-last copy with its batch axis contiguous.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import cached_property

import numpy as np

from .errors import BudgetExceeded, UnsupportedDomain
from .rings import Ring, memoised

DEFAULT_BUDGET = 10**6
RANK_CHUNK = 4096           # matrices per elimination call in `rank_batched`


def _narrowest_signed(bound: int):
    """Narrowest signed integer dtype holding every integer of magnitude
    at most `bound`."""
    for dt in (np.int8, np.int16, np.int32, np.int64):
        if bound <= np.iinfo(dt).max:
            return dt
    raise UnsupportedDomain(f"values up to {bound} do not fit int64")


def _centred(c, p: int) -> int:
    """c mod p as its representative in (-p/2, p/2]."""
    c = int(c) % p
    return c - p if 2 * c > p else c


def require_finite(ring: Ring) -> int:
    if ring.domain.kind != "Fp":
        raise UnsupportedDomain(f"ring {ring.name!r} is over Q; finite enumeration needs a prime field")
    return ring.domain.p


class Enumeration:
    """Cached element tables and batched arithmetic for one finite ring."""

    def __init__(self, ring: Ring, budget: int):
        if budget < 1:
            raise ValueError(f"budget must be at least 1, got {budget}")
        self.name = ring.name
        self.budget = budget
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
        # product and commutator accumulator: output k sums c'*X over its
        # terms, each |X| <= (p-1)**2, so it stays within W*(p-1)**2, W the
        # largest sum of |c'| feeding one output
        weights = Counter()
        for kind, terms in enumerate((self.terms, self.comm_terms)):
            for _, _, k, c in terms:
                weights[kind, k] += abs(_centred(c, self.p))
        weight = max(weights.values(), default=0)
        acc_bound = weight * (self.p - 1) ** 2 + self.p
        if acc_bound > np.iinfo(np.int64).max:
            raise UnsupportedDomain(
                f"ring {ring.name!r}: {weight} products of F_{self.p} entries can "
                "overflow int64; enumeration needs a smaller prime")
        self.acc_dtype = _narrowest_signed(acc_bound)
        # digit table: holds (p-1)**2 + p, so a + b and a - b of two digits stay exact
        self.elim_dtype = _narrowest_signed((self.p - 1) ** 2 + self.p)
        # entry (k, j) of L_a sums c*a_i over the constants c_ijk, entry (k, i)
        # of R_a sums c*a_j: at most (p-1) times the weight, the sum of those c
        self.mat_weights = {True: Counter(), False: Counter()}      # keyed by `left`
        for i, j, k, c in self.terms:
            self.mat_weights[True][k, j] += c
            self.mat_weights[False][k, i] += c
        weight = max((w for ws in self.mat_weights.values() for w in ws.values()), default=0)
        self.mat_dtype = _narrowest_signed(weight * (self.p - 1) + self.p)
        self.radix = self.p ** np.arange(self.n - 1, -1, -1, dtype=np.int64)
        self._digits = None
        self._idempotents = None

    @staticmethod
    @memoised
    def of(ring: Ring, budget: int) -> "Enumeration":
        """The ring's one Enumeration under `budget`, built on first use."""
        return Enumeration(ring, budget)

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

    def _check_budget(self):
        if self.count > self.budget:
            raise BudgetExceeded(self.count, self.budget, f"enumerating {self.name!r}")

    def all_coords(self) -> np.ndarray:
        """(count, n) coordinates of every element in `elim_dtype`: the
        transposed view of the digit table, not a copy, and read-only."""
        X = self.digits().T
        X.flags.writeable = False       # a write would change the digit table
        return X

    def digits(self) -> np.ndarray:
        """(n, count) digit table in `elim_dtype`: plane i holds coordinate i
        of every element, in element order."""
        self._check_budget()
        if self._digits is None:
            p, n = self.p, self.n
            self._digits = np.empty((n, self.count), dtype=self.elim_dtype)
            digit = np.arange(p, dtype=self.elim_dtype)[:, None]
            for i in range(n):        # digit i cycles through 0..p-1 in runs of p**(n-1-i)
                self._digits[i].reshape(p ** i, p, p ** (n - 1 - i))[:] = digit
        return self._digits

    def index_of_planes(self, P) -> np.ndarray:
        """Element indices of reduced (m, ...) coordinate planes (any
        integer dtype), by Horner's rule in the narrowest signed type
        holding p**m - 1; returned in int64."""
        idx = P[0].astype(_narrowest_signed(self.p ** len(P) - 1))
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
        in `dtype` (default `elim_dtype`), which must hold p.  The range is
        checked in A's own dtype; only input to reduce is widened."""
        A = np.asarray(A)
        if A.size and (A.min() < 0 or A.max() >= self.p):
            A = self.reduce(A.astype(np.int64))
        out = np.empty((A.shape[-1],) + A.shape[:-1], dtype=dtype or self.elim_dtype)
        out[...] = np.moveaxis(A, -1, 0)
        return out

    def _product_planes(self, A, B) -> np.ndarray:
        """Products of reduced (n, ...) planes, broadcast over the trailing
        axes: plane k accumulates c'*A_i*B_j, c' the centred constant, in
        `acc_dtype` on contiguous planes, a c' of -1 by subtraction, and a
        square's one operand (B is A) cast once, or not at all where it is
        in `acc_dtype` already, as the digit table of M2 or Zorn over F_5
        is.  The one product core behind the product kernels, so that none
        runs inside another."""
        acc = self.acc_dtype
        cast = A.astype(acc, copy=False)
        A, B = cast, cast if B is A else B.astype(acc, copy=False)
        shape = np.broadcast_shapes(A.shape[1:], B.shape[1:])
        out = np.zeros((self.n,) + shape, dtype=acc)
        term = np.empty(shape, dtype=acc)
        for i, j, k, c in self.terms:
            np.multiply(A[i], B[j], out=term)
            c = _centred(c, self.p)
            if c == -1:
                out[k] -= term
                continue
            if c != 1:
                term *= acc(c)
            out[k] += term
        return self.reduce(out)

    def _commutator_terms(self, M=None):
        """The constants of x, y -> M*[x, y] (M = identity when None) as
        (i, j, l, e) over i < j, grouped by basis pair, e_ijl = sum_k
        M_lk*d_ijk mod p != 0 for the antisymmetrised constants d
        (`comm_terms`); their row count m; and the accumulator type.  For
        M = None that is `comm_terms` in `acc_dtype`; otherwise the
        narrowest signed type holding W*(p-1)**2 + p, W the largest sum of
        |e'| over the terms feeding one output, chosen per call."""
        if M is None:
            return self.comm_terms, self.n, self.acc_dtype
        p = self.p
        rows = [[int(c) % p for c in row] for row in M]
        composed = Counter()
        for i, j, k, d in self.comm_terms:
            for l, row in enumerate(rows):
                if row[k]:
                    composed[i, j, l] += row[k] * d
        terms = [(i, j, l, e) for (i, j, l), v in sorted(composed.items())
                 if (e := _centred(v, p))]
        weights = Counter()
        for _, _, l, e in terms:
            weights[l] += abs(e)
        return terms, len(rows), _narrowest_signed(
            max(weights.values(), default=0) * (p - 1) ** 2 + p)

    def _commutator_planes(self, A, B, shape, terms, m, acc) -> np.ndarray:
        """(m,) + shape planes of M*[A, B] for reduced planes A, B,
        indexable by coordinate and broadcast to `shape`, with `terms`, m
        and `acc` from `_commutator_terms(M)`: plane l accumulates
        e'*(A_i*B_j - A_j*B_i) in `acc` over the centred constants e', an
        e' of 1 or -1 by addition or subtraction, one difference per basis
        pair i < j shared by every l it feeds.  Only the coordinates the
        terms reference are read.  The one commutator core behind
        `commutator` and `commutator_index`."""
        out = np.zeros((m,) + shape, dtype=acc)
        diff = np.empty(shape, dtype=acc)
        swap = np.empty(shape, dtype=acc)
        pair = None
        for i, j, k, d in terms:
            if (i, j) != pair:
                pair = (i, j)
                np.multiply(A[i], B[j], out=diff, dtype=acc)
                np.multiply(A[j], B[i], out=swap, dtype=acc)
                diff -= swap
            d = _centred(d, self.p)
            if d == 1:
                out[k] += diff
            elif d == -1:
                out[k] -= diff
            else:
                np.multiply(diff, acc(d), out=swap)
                out[k] += swap
        return self.reduce(out)

    def mul(self, A, B) -> np.ndarray:
        """Rowwise products: result[b] = A[b] * B[b], reduced, in `acc_dtype`."""
        return np.moveaxis(self._product_planes(self._planes(A), self._planes(B)), 0, -1)

    def mul_outer(self, A, B) -> np.ndarray:
        """All products: result[a, b] = A[a] * B[b], a view of (n, nB, nA)
        planes, so each product step runs over all of A at once."""
        A, B = self._planes(A), self._planes(B)
        return np.moveaxis(self._product_planes(A[:, None, :], B[:, :, None]), 0, -1).swapaxes(0, 1)

    def commutator(self, A, B) -> np.ndarray:
        A, B = self._planes(A), self._planes(B)
        shape = np.broadcast_shapes(A.shape[1:], B.shape[1:])
        return np.moveaxis(self._commutator_planes(A, B, shape, *self._commutator_terms()), 0, -1)

    # -- index kernels: element indices in, element indices out -----------

    def mul_index(self, a, b) -> np.ndarray:
        """Index of a[t] * b[t] for index arrays a, b (broadcast)."""
        D = self.digits()
        return self.index_of_planes(self._product_planes(D.take(a, axis=1), D.take(b, axis=1)))

    def commutator_index(self, a, b, M=None) -> np.ndarray:
        """Index of M*[a[t], b[t]] for index arrays a, b (broadcast), M the
        identity when None; an (m, n) M indexes an m-dimensional target.
        Only the digit planes of the coordinates M's composed constants
        reference are gathered, and with none (M kills every basis
        commutator) every index is 0, with no plane gathered."""
        D = self.digits()
        terms, m, acc = self._commutator_terms(M)
        shape = np.broadcast_shapes(np.shape(a), np.shape(b))
        if not terms:
            return np.zeros(shape, dtype=np.int64)
        used = sorted({c for i, j, _, _ in terms for c in (i, j)})
        A, B = ({i: D[i].take(x) for i in used} for x in (a, b))
        return self.index_of_planes(self._commutator_planes(A, B, shape, terms, m, acc))

    def sum_index(self, plus, minus=()) -> np.ndarray:
        """Index of sum(plus) - sum(minus) for sequences of index arrays
        (broadcast), `plus` nonempty."""
        D, p = self.digits(), self.p
        lo, hi = -len(minus) * (p - 1), len(plus) * (p - 1)
        dt = np.promote_types(self.elim_dtype, _narrowest_signed(hi - lo + p))
        shape = (self.n,) + np.broadcast_shapes(*(np.shape(t) for t in (*plus, *minus)))
        S = D.take(plus[0], axis=1).astype(dt, copy=False)
        for t, op in [(t, np.add) for t in plus[1:]] + [(t, np.subtract) for t in minus]:
            # in place once S has the full shape; a take lives only as an operand
            S = op(S, D.take(t, axis=1), out=S if S.shape == shape else None, dtype=dt)
        if lo <= -p or hi >= 2 * p:
            return self.index_of_planes(self.reduce(S))
        if hi >= p:                 # S lies in (-p, 2p): one compare-and-add per side
            S -= (S >= p) * S.dtype.type(p)
        if lo < 0:
            S += (S < 0) * S.dtype.type(p)
        return self.index_of_planes(S)

    def class_position(self, Y) -> np.ndarray:
        """Position of each (B, n) coordinate row's scalar class among the
        leading-coefficient-1 representatives in element order, -1 for a
        zero row.  The representatives whose first nonzero coordinate is
        coordinate n-1-k have the indices [p**k, 2*p**k), block k, and the
        blocks run k = 0, ..., n-1, so block k starts at position
        (p**k - 1)/(p - 1).  Each row is scaled by the inverse of its
        leading entry on `elim_dtype` planes and indexed by Horner's rule."""
        P, p = self._planes(Y), self.p
        lead = (P != 0).argmax(axis=0)      # first nonzero coordinate, 0 for a zero row
        a = np.take_along_axis(P, lead[None], axis=0)[0]
        P *= self.inv_table.astype(P.dtype).take(a)
        block = self.radix          # p**k at coordinate n-1-k
        pos = self.index_of_planes(self.reduce(P)) - (block - (block - 1) // (p - 1)).take(lead)
        pos[a == 0] = -1
        return pos

    def line_masks(self, mask, a, b):
        """mask[a - lam*b] for lam = 0, 1, ..., p - 1 in turn, for a boolean
        mask over elements and index arrays a, b (broadcast)."""
        D, p = self.digits(), self.p
        yield mask[a]
        B = D.take(b, axis=1)
        A = D.take(a, axis=1) - B       # the planes of a - lam*b from lam = 1, in (-p, p)
        for lam in range(1, p):
            A += (A < 0) * A.dtype.type(p)
            yield mask[self.index_of_planes(A)]
            if lam < p - 1:
                A -= B

    def left_mul_matrices(self, A) -> np.ndarray:
        """result[b] = matrix of x -> A[b] * x (column-vector action): column
        j is A[b] * b_j.  Reduced entries in `mat_dtype`."""
        return self._mul_matrices(A, left=True)

    def right_mul_matrices(self, A) -> np.ndarray:
        """result[b] = matrix of x -> x * A[b]: column j is b_j * A[b].
        Reduced entries in `mat_dtype`."""
        return self._mul_matrices(A, left=False)

    def _mul_matrices(self, A, left: bool) -> np.ndarray:
        # planes and matrices hold the batch axes in reverse, the first one
        # innermost, as the batch-last copy of `_eliminate_chunk` reads them
        A = np.asarray(A)
        nb = A.ndim - 1                 # batch axes
        A = self._planes(A.transpose(*range(nb - 1, -1, -1), nb), self.mat_dtype)
        out = np.zeros((self.n, self.n) + A.shape[1:], dtype=self.mat_dtype)
        for i, j, k, c in self.terms:
            a, col = (A[i], j) if left else (A[j], i)
            out[k, col] += a if c == 1 else self.mat_dtype(c) * a
        for (k, col), w in self.mat_weights[left].items():
            if w * (self.p - 1) >= self.p:    # the entry can leave [0, p)
                out[k, col] %= self.p
        return out.transpose(*range(nb + 1, 1, -1), 0, 1)

    def linear_planes(self, M, P) -> np.ndarray:
        """Reduced (m, ...) coordinate planes of M*x for the (n, ...) digit
        planes P of some elements x, for an (m, n) integer matrix M, its
        entries taken centred mod p here.  Plane k accumulates c'*P_j in
        the narrowest signed type holding S*(p-1) + p, S the largest sum
        of |c'| over a row of M, chosen per call."""
        rows = [[_centred(c, self.p) for c in row] for row in M]
        dt = _narrowest_signed(max((sum(map(abs, row)) for row in rows), default=0)
                               * (self.p - 1) + self.p)
        out = np.zeros((len(rows),) + P.shape[1:], dtype=dt)
        term = np.empty(P.shape[1:], dtype=dt)
        for k, row in enumerate(rows):
            for j, c in enumerate(row):
                if c == 1:
                    out[k] += P[j]
                elif c == -1:
                    out[k] -= P[j]
                elif c:
                    np.multiply(P[j], c, out=term, dtype=dt)
                    out[k] += term
        return self.reduce(out)

    def linear_index(self, M) -> np.ndarray:
        """Index of M*x for every element x, in element order, for an
        (m, n) integer matrix M: `linear_planes` on the digit table."""
        return self.index_of_planes(self.linear_planes(M, self.digits()))

    def fibres(self, index) -> np.ndarray:
        """(2, count) boolean mask over this ring's elements for an index
        array `index` into them (a map's image index): row 0 marks those hit
        more than once, row 1 those never hit.  One `bincount`."""
        self._check_budget()
        hits = np.bincount(index, minlength=self.count)
        return np.stack([hits > 1, hits == 0])

    def smul_index(self, lam: int) -> np.ndarray:
        """Index table of x -> lam*x over all elements: `linear_index` of
        lam times the identity."""
        return self.linear_index(lam * np.eye(self.n, dtype=np.int64))

    def idempotent_mask(self) -> np.ndarray:
        """Which elements e satisfy e*e = e, squared on the digit table once."""
        D = self.digits()
        if self._idempotents is None:
            self._idempotents = (self._product_planes(D, D) == D).all(axis=0)
        return self._idempotents

    # -- subspace points ---------------------------------------------------

    def subspace_points(self, basis_rows) -> np.ndarray:
        """All F_p points of a subspace, first basis direction fastest."""
        B = np.array([[int(x) for x in row] for row in basis_rows], dtype=np.int64)
        d = len(B)
        if d == 0:
            return np.zeros((1, self.n), dtype=np.int64)
        total = self.p ** d
        if total > self.budget:
            raise BudgetExceeded(total, self.budget, "enumerating subspace points")
        ar = np.arange(total, dtype=np.int64)
        coeffs = (ar[:, None] // self.p ** np.arange(d, dtype=np.int64)) % self.p
        return coeffs @ B % self.p

    def subspace_mask(self, basis_rows) -> np.ndarray:
        """Membership in a subspace over all element indices."""
        self._check_budget()
        mask = np.zeros(self.count, dtype=bool)
        mask[self.index_of(self.subspace_points(basis_rows))] = True
        return mask

    # -- batched rank over F_p ---------------------------------------------

    def rank_batched(self, mats) -> np.ndarray:
        """Ranks of a (B, ..., C) stack of small matrices of any integer
        dtype, whose row axes, all but the first and the last, count as one
        (a (B, m, r, C) stack ranks each (m*r, C) matrix), by the rank-only
        forward pass of `_eliminate_chunk` in chunks of `RANK_CHUNK`
        matrices."""
        mats = np.asarray(mats)
        out = np.empty(len(mats), dtype=np.int64)
        for lo in range(0, len(mats), RANK_CHUNK):
            out[lo:lo + RANK_CHUNK] = self._eliminate_chunk(mats[lo:lo + RANK_CHUNK],
                                                            rank_only=True)[2]
        return out

    def rref_batched(self, mats) -> tuple[np.ndarray, np.ndarray]:
        """Row-reduce a (B, R, C) stack of any integer dtype (more row axes
        are flattened, as in `rank_batched`); returns (rows, ranks) with
        rows (B, C, C) in the eliminator's working dtype: the reduced row
        echelon form of each matrix, its nonzero rows in pivot-column order
        (the rows of `linalg.rref`), then zero rows.  One `take` gathers
        the rows from the eliminated stack up to the largest rank, and each
        matrix's rows past its own rank are zeroed.  The rows are a view of
        a batch-last (C, C, B) buffer."""
        T, pivots, ranks = self._eliminate_chunk(mats)
        C, R, B = T.shape
        rows = np.zeros((C, C, B), dtype=T.dtype)           # batch-last
        top = int(ranks.max(initial=0))     # rows past every rank stay zero
        got = rows[:, :top]
        got[...] = T.reshape(C, R * B).take(pivots.T[:top], axis=1)
        got *= pivots.T[:top] >= 0
        return rows.transpose(2, 1, 0), ranks

    def _eliminate_chunk(self, A, rank_only: bool = False) -> tuple[np.ndarray, np.ndarray | None,
                                                                     np.ndarray]:
        """Row elimination of a (B, ..., C) stack of any integer dtype, its
        row axes flattened into R rows, as in `rank_batched`.

        Returns the eliminated stack batch-last, (C, R, B) in the working
        dtype; the (B, C) pivot positions, each matrix's pivot rows as flat
        indices into an (R, B) plane, in pivot-column order and -1 past
        the rank (None under `rank_only`); and the ranks.  Gauss-Jordan
        (the default) leaves every entry in [0, p): each pivot row is the
        reduced echelon row of its column and every other row is zero.
        `rank_only` runs the forward pass alone, and the stack it returns
        is scratch.  A stack with no matrices or no rows has rank 0.

        The work runs in place on a batch-last copy, so each step is a few
        whole-plane operations over all B matrices and flat `take`s of the
        pivot entry and pivot row; the pivot is the first candidate row
        with a nonzero entry, found as a max over rows weighted R-1, ...,
        0, and the last row where there is none (its entry is then not a
        candidate, so the step does nothing).  Input is reduced mod p only
        when some entry lies outside [0, p), and the work reduces lazily,
        by floor division (`reduce`): step c reduces column c and the
        pivot row b, then subtracts f*b from the later columns, with f and
        b both in [0, p).  Gauss-Jordan scales b to a leading 1 and takes
        f = col, except f = a - 1 at the pivot row itself, whose entry a
        then leaves it equal to b mod p: column c becomes a unit column
        with no write-back.  The rank-only pass scales the factors f =
        a**-1 * col instead of b and skips column c, and its last step only
        counts.  The pivot row's own factor is then 1, which leaves it 0
        mod p in every later column, so a used row is reduced to 0 there
        and no later step changes it: every nonzero entry is a candidate,
        with no record of used rows, and a column with no pivot has a = 0
        and so inverse 0, which zeroes its factors with no mask.  Either
        way a column takes at most one subtraction below (p-1)**2 per
        earlier step before its own step reduces it, so every entry lies
        in [-(C-1)*(p-1)**2, p), and every scaling product is at most
        (p-1)**2.  Both passes thus work in the narrowest signed type
        holding max(C-1, 1)*(p-1)**2 + p.  After its step a Gauss-Jordan
        column is a unit column or stays reduced, and no later step
        touches it, so no final pass is needed.
        """
        p = self.p
        A = np.asarray(A)
        if A.size and (A.min() < 0 or A.max() >= p):
            A = self.reduce(A.astype(np.int64))
        B, C, row_axes = A.shape[0], A.shape[-1], A.shape[1:-1]
        R = math.prod(row_axes)
        dt = _narrowest_signed(max(C - 1, 1) * (p - 1) ** 2 + p)
        T = np.empty((C, R, B), dtype=dt)
        T.reshape(C, *row_axes, B)[...] = np.moveaxis(A, (0, -1), (-1, 0))
        ranks = np.zeros(B, dtype=np.int64)
        pivots = None if rank_only else np.full((B, C), -1, dtype=np.intp)
        if not (B and R):
            return T, pivots, ranks
        inv = self.inv_table.astype(dt)
        free = None if rank_only else np.ones((R, B), dtype=bool)
        batch = np.arange(B)
        last = (R - 1) * B + batch          # (last row, matrix) in a flat (R, B) plane
        weight = np.arange(R - 1, -1, -1, dtype=np.min_scalar_type(R))[:, None]
        for c in range(C):
            col = T[c]
            if c:
                self.reduce(col)
            cand = col != 0
            if not rank_only:
                cand &= free
            at = last - (cand * weight).max(axis=0).astype(np.intp) * B
            a = col.take(at)                # the pivot entry where there is a pivot
            if rank_only:                   # where there is none, a = 0
                ranks += a != 0
                if c == C - 1:
                    break
                later = T[c + 1:]
                prow = self.reduce(later.reshape(len(later), R * B).take(at, axis=1))
                later -= prow[:, None, :] * self.reduce(col * inv.take(a))
                continue
            has = cand.take(at)
            later = T[c:]
            prow = self.reduce(later.reshape(len(later), R * B).take(at, axis=1))
            prow *= inv.take(a) * has
            self.reduce(prow)
            f = col.copy()                  # factor a - 1 turns the pivot row into prow
            f.reshape(-1)[at] -= has
            later -= prow[:, None, :] * f
            free.reshape(-1)[at] &= ~has
            pivots[batch, ranks] = np.where(has, at, -1)
            ranks += has
        return T, pivots, ranks
