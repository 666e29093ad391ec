"""Maps between finite rings: construction, storage, and the verifier
battery for surjective idempotent-preserving Lie multiplicative maps.

A map is given either as a total table over the enumerated source (no
additivity is assumed: multiplicativity on commutators is the only given)
or in structured form, a linear part M plus a central offset lambda(x)*z,
which is the one matrix M + z lambda^T.  Maps live over prime-field
rings only.  A table or a composite is its image index, read by every
verifier; the few that need coordinates of some points take them from
it (`Enumeration.coords_of`).  A map built from a matrix
(`MapTable.from_matrix`: every builder kind but table and compose) keeps
it, and each fact is read where it is cheapest:
- its linear facts from the matrix: it is linear at once (`phi_linear`),
  and a square one of full rank is bijective with no `fibres` pass;
- its values at given points (`MapTable.at`, behind `eval_coords`) from
  the matrix applied to those points' coordinates;
- its image table (`MapTable.images`) from the matrix on the digit
  planes, read through `Enumeration.all_coords`;
- everything else from its image index, one `linear_index` of the
  matrix, built on the first `image_index` call.  The entry verifiers
  read phi's; decompose's psi and tau never need theirs.
An element-quantified verifier ends in a failure mask and reports
through `reports.first_failure`.

A map is verified at the budget it was built under: every function
that takes a map reads its Enumerations `m.es` and `m.et`, which share
one budget, and takes none of its own.  Pair-quantified certificates
are decided exactly where an argument allows, each with the report, byte
for byte, that an exhaustive row-major scan would return, at every
budget that covers the elements:
- additivity and almost additivity of any table against its linear
  extension (`first_additive_failure`), with no pair scan;
- the bilinear ones on the n x n grid of basis vectors
  (`first_bilinear_failure`): a linear phi's Lie multiplicativity
  (`phi_linear`, one O(N) test per map), and, in `decompose.py`, a
  linear psi's product rule and, only while the pairs fit the budget, an
  additive tau's vanishing on commutators;
- a linear phi's idempotent preservation on one element mask, and its
  scalar homogeneity outright.
The rest scan pairs (`pair_scan`), exhaustively within the budget, in
row chunks of 1, 2, 4, ... rows so that an early failure stops early,
and sampled past it.
"""

from __future__ import annotations

import functools
import json

import numpy as np

from . import linalg
from .enumeration import DEFAULT_BUDGET, Enumeration
from .errors import (DimensionMismatch, DomainMismatch, NotIdempotentImage,
                     NotInvertible, OffsetNotCentral, ParseError)
from .reports import CheckReport, coords_json, first_failure
from .rings import Element, Ring, is_associative, scalar_array
from .structure import (PeirceFrame, center, check_annihilation, check_main_hypotheses,
                        peirce_frame)


class MapTable:
    """Total map between two finite rings over the source and target
    Enumerations `es` and `et`, which must share one budget: the map's.
    Its image index holds at entry x the target element index of phi(x).
    A map built from its index (a table or a composite) is that index.  A
    map built from a matrix (`from_matrix`) keeps the matrix (`matrix`)
    and builds its index from it only when `image_index` is first called;
    no other constructor sets a matrix, so the two never disagree.  The
    image table (`images`) and, for a square matrix of full rank,
    bijectivity (`fibres`) are read from a kept matrix, and so are points
    (`at`) while no index is built.  `spec` is the builder spec a
    structured map is saved as; a table (None) is saved as its entries."""

    def __init__(self, source: Ring, target: Ring, es: Enumeration, et: Enumeration,
                 index, spec: dict | None = None):
        if es.budget != et.budget:
            raise ValueError(f"source and target Enumerations have different budgets, "
                             f"{es.budget} and {et.budget}")
        self.source, self.target = source, target
        self.es, self.et = es, et
        self.spec = spec
        self._memo = {}
        if index is None:           # only `from_matrix`, which keeps the matrix
            self._index = None
            return
        self._index = np.asarray(index, dtype=np.int64)
        if self._index.shape != (es.count,):
            raise DimensionMismatch("dense table must cover every source element")

    @classmethod
    def from_matrix(cls, source: Ring, target: Ring, es: Enumeration, et: Enumeration,
                    M, spec: dict | None = None) -> "MapTable":
        """The map x -> Mx of a target.dim x source.dim matrix M, kept
        reduced into [0, p).  Its index is built on first use; the
        source's element guard of the budget applies here, through
        `Enumeration.all_coords`, so a map that could not be enumerated
        is refused when it is built."""
        es.all_coords()
        m = cls(source, target, es, et, None, spec)
        m._memo["matrix"] = [[int(c) % es.p for c in row] for row in M]
        return m

    def matrix(self) -> list | None:
        """The matrix, as lists of ints in [0, p), that the map was built
        from (`from_matrix`), or None for a map built from its index:
        every linear fact about the map is read from it when kept."""
        return self._memo.get("matrix")

    # -- evaluation -------------------------------------------------------

    def at(self, idx) -> np.ndarray:
        """Target index of phi(x) for each source element index in the
        array `idx` (any shape): a gather from the image index once it is
        built, else M applied to the coordinates of those elements alone
        (`Enumeration.linear_planes`), with no count-sized pass."""
        if self._index is None:
            X = np.moveaxis(self.es.all_coords()[idx], -1, 0)
            return self.et.index_of(np.moveaxis(self.es.linear_planes(self.matrix(), X), 0, -1))
        return self._index[idx]

    def eval_coords(self, coords):
        """Image of one source coordinate vector."""
        k = self.es.index_of([[int(x) for x in coords]])
        return tuple(int(c) for c in self.et.coords_of(self.at(k)[0]))

    def __call__(self, x: Element) -> Element:
        return Element(self.target, self.eval_coords(x.coords))

    def image_index(self) -> np.ndarray:
        """Target element index of phi(x) for every source element x; a
        kept matrix's is one `linear_index`, built on the first call."""
        if self._index is None:
            self._index = self.es.linear_index(self.matrix())
        return self._index

    def images(self) -> np.ndarray:
        """(N, m) narrow image coordinates over the whole enumerated
        source, every call: from a kept matrix, its planes over the digit
        planes of `Enumeration.all_coords` (a transposed view); else a
        gather of the image index from the target's `all_coords`."""
        M = self.matrix()
        if M is not None:
            return self.es.linear_planes(M, self.es.all_coords().T).T
        return self.et.all_coords()[self._index]

    def preimages(self, t: int) -> dict:
        """The first two preimages of target index t, as the witness {"a", "b"}."""
        return {key: coords_json(self.source, self.es.coords_of(k))
                for key, k in zip("ab", np.flatnonzero(self.image_index() == t)[:2])}

    def cached(self, key, build):
        """build(), computed once per map and key.  A run's Peirce frames,
        hypothesis reports and branch detection, keyed by the idempotent,
        are kept here and shared by every stage that needs them, next to
        the kept matrix (key "matrix")."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def fibres(self) -> np.ndarray:
        """`Enumeration.fibres` of the image index: (2, count) masks of the
        target elements hit more than once and never hit.  A kept square
        matrix of full rank is a bijection, so both are empty, with no
        pass over the index."""
        M = self.matrix()
        if M is not None and len(M) == self.source.dim and \
                linalg.rank(M, self.target.domain) == len(M):
            return np.zeros((2, self.et.count), dtype=bool)
        return self.et.fibres(self.image_index())

    def is_bijective(self) -> bool:
        return self.source.dim == self.target.dim and not self.fibres().any()


# -- builders ---------------------------------------------------------------

def _matrix_unit_order(ring: Ring) -> int:
    """Side length k when the basis multiplies like k x k matrix units."""
    n = ring.dim
    k = round(n ** 0.5)
    if k * k != n:
        raise DimensionMismatch(f"ring {ring.name!r} is not a full matrix ring (dim {n})")
    dom = ring.domain
    for a in range(k):
        for b in range(k):
            for c in range(k):
                for d in range(k):
                    got = ring.mul_coords(ring.basis_coords(a * k + b), ring.basis_coords(c * k + d))
                    want = ring.basis_coords(a * k + d) if b == c else ring.zero_coords()
                    if got != want:
                        raise DimensionMismatch(
                            f"ring {ring.name!r}: basis is not in matrix-unit order")
    return k


def _field(obj: dict, key: str, where: str):
    """obj[key], or ParseError naming the missing field."""
    try:
        return obj[key]
    except KeyError:
        raise ParseError(f"{where} is missing field {key!r}") from None


def _structured_matrix(source: Ring, target: Ring, matrix, offset_functional=None,
                       offset_central=None) -> list:
    """The matrix M + z lambda^T of a linear part M plus an offset
    lambda(x)*z, which must be central: z central, and lambda vanishing on
    every commutator, so on each [b_i, b_j]."""
    for key, value, depth in (("matrix", matrix, 2), ("offset_functional", offset_functional, 1),
                              ("offset_central", offset_central, 1)):
        scalar_array([] if value is None else value, depth, f"map field {key!r}")
    if len(matrix) != target.dim or any(len(r) != source.dim for r in matrix):
        raise DimensionMismatch(f"linear part must be {target.dim}x{source.dim}")
    dom = source.domain
    func = [dom.parse(x) for x in (offset_functional or [dom.zero] * source.dim)]
    z = [dom.parse(x) for x in (offset_central or [dom.zero] * target.dim)]
    if len(func) != source.dim or len(z) != target.dim:
        raise DimensionMismatch("offset shapes do not match the rings")
    if any(x != dom.zero for x in func) and any(x != dom.zero for x in z):
        if not center(target).contains(z):
            raise OffsetNotCentral("offset element is not in the target centre")
        for i in range(source.dim):
            for j in range(i + 1, source.dim):
                bi, bj = source.basis_coords(i), source.basis_coords(j)
                comm = source.sub_coords(source.mul_coords(bi, bj), source.mul_coords(bj, bi))
                if linalg.mat_vec([func], list(comm), dom)[0] != dom.zero:
                    raise OffsetNotCentral("offset functional does not vanish on commutators")
    return [[dom.add(dom.parse(a), dom.mul(zk, f)) for a, f in zip(row, func)]
            for row, zk in zip(matrix, z)]


SELF_MAPS = ("identity", "neg_transpose_plus_trace", "conjugation", "compose")


def build_map(source: Ring, target: Ring, spec: dict, budget: int = DEFAULT_BUDGET) -> MapTable:
    """Construct a MapTable, and its image index under `budget`, from a
    builder description.

    Kinds: identity, linear, neg_transpose_plus_trace, conjugation,
    compose, table, structured.  The self-map kinds (`SELF_MAPS`) map a
    ring to itself: they write source coordinates as target coordinates,
    so the two rings must have one key and one table of structure
    constants.  Transpose and conjugation builders are only offered on
    rings verified associative (conjugation by a unit is not an
    automorphism without associativity).
    """
    if source.domain != target.domain:
        raise DomainMismatch(f"{source.name!r} and {target.name!r} have different scalar domains")
    es, et = Enumeration.of(source, budget), Enumeration.of(target, budget)
    kind = spec.get("kind")
    dom = source.domain
    where = f"map of kind {kind!r}"
    if kind in SELF_MAPS and (source.key != target.key or source.sc != target.sc):
        raise DimensionMismatch(f"{kind} map needs identical source and target rings")
    if kind == "compose":
        idx = np.arange(es.count)
        parts = _field(spec, "parts", where)
        if not isinstance(parts, list) or not all(isinstance(part, dict) for part in parts):
            raise ParseError("map field 'parts' must be an array of map objects")
        for part in parts:
            idx = build_map(source, target, part, budget).image_index()[idx]
        return MapTable(source, target, es, et, idx)
    if kind == "table":
        entries = _field(spec, "entries", where)
        if isinstance(entries, dict):
            entries = [_field(entries, str(i), "table entries") for i in range(len(entries))]
        scalar_array(entries, 2, "map field 'entries'")
        if len(entries) != es.count:
            raise ParseError(f"table has {len(entries)} entries, source has {es.count} elements")
        if any(len(row) != target.dim for row in entries):
            raise DimensionMismatch(f"table rows must have {target.dim} entries, "
                                    f"one per coordinate of {target.name!r}")
        # all-int rows in one conversion, reduced by `index_of`; strings,
        # fractions and ints past int64 go scalar by scalar
        images = np.asarray(entries)
        if images.dtype.kind != "i":
            images = np.array([[dom.parse(x) for x in row] for row in entries], dtype=np.int64)
        return MapTable(source, target, es, et, et.index_of(images))
    if kind == "identity":
        M, spec = linalg.mat_identity(source.dim, dom), {"kind": "identity"}
    elif kind == "linear":
        M = _structured_matrix(source, target, _field(spec, "matrix", where))
    elif kind == "structured":
        M = _structured_matrix(source, target, _field(spec, "matrix", where),
                               spec.get("offset_functional"), spec.get("offset_central"))
    elif kind == "neg_transpose_plus_trace":
        if not is_associative(source):
            raise DimensionMismatch("transpose builder needs an associative matrix ring")
        k = _matrix_unit_order(source)
        n = source.dim
        M = [[dom.zero] * n for _ in range(n)]
        unit = source.unit_coords
        for a in range(k):
            for b in range(k):
                col = a * k + b
                M[b * k + a][col] = dom.sub(M[b * k + a][col], dom.one)
                if a == b:
                    for t in range(n):
                        M[t][col] = dom.add(M[t][col], unit[t])
        spec = {"kind": "neg_transpose_plus_trace"}
    elif kind == "conjugation":
        if not is_associative(source):
            raise NotInvertible("conjugation builder needs an associative ring")
        u = [dom.parse(x) for x in scalar_array(_field(spec, "element", where), 1,
                                                "map field 'element'")]
        L = source.left_mul_matrix(u)
        u_inv, _ = linalg.solve(L, list(source.unit_coords), dom)
        if u_inv is None or source.mul_coords(u_inv, u) != tuple(source.unit_coords):
            raise NotInvertible("conjugating element has no two-sided inverse")
        M = linalg.mat_mul(L, source.right_mul_matrix(u_inv), dom)
        spec = {"kind": "conjugation", "element": [dom.fmt(x) for x in u]}
    else:
        raise ParseError(f"unknown map kind {kind!r}")
    return MapTable.from_matrix(source, target, es, et, M, spec)


def map_to_json(m: MapTable) -> dict:
    spec = dict(m.spec) if m.spec else {
        "kind": "table", "entries": [[int(x) for x in row] for row in m.images()]}
    return {"source": m.source.name, "target": m.target.name, "repr": spec}


def map_from_json(obj: dict, rings: dict[str, Ring], budget: int = DEFAULT_BUDGET) -> MapTable:
    if not isinstance(obj, dict):
        raise ParseError("a map file must hold a JSON object")
    for key in ("source", "target"):
        if not isinstance(obj.get(key, ""), str):
            raise ParseError(f"map field {key!r} must be a ring name")
    try:
        src = rings[obj["source"]]
        tgt = rings[obj["target"]]
        spec = obj["repr"]
    except KeyError as exc:
        raise ParseError(f"map file references unknown ring or missing field: {exc}") from exc
    if not isinstance(spec, dict):
        raise ParseError(f"map field 'repr' must be an object, got {spec!r}")
    return build_map(src, tgt, spec, budget)


def load_map(path, rings: dict[str, Ring], budget: int = DEFAULT_BUDGET) -> MapTable:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: {exc}") from exc
    return map_from_json(obj, rings, budget)


def save_map(m: MapTable, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(map_to_json(m), fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- pair-quantified scan engine ---------------------------------------------

PAIR_CHUNK = 1 << 18       # most pairs per `fail_fn` call in `pair_scan`


def pair_scan(count: int, budget: int, seed: int, fail_fn):
    """Run a predicate over all ordered pairs, or a seeded sample of them.

    fail_fn(a_idx, b_idx) receives broadcastable int64 index arrays and
    returns a boolean failure mask of their broadcast shape.  Exhaustive
    mode passes rows of pairs as the grids arange(lo, hi)[:, None] and
    arange(count)[None, :], so the kernels gather only small planes, and
    walks them in enumeration order (row-major): the reported witness is
    always the first failing pair.  Its chunks take 1, 2, 4, ... rows, up
    to PAIR_CHUNK pairs (at least one row), so a failure in the first
    rows costs a few rows, not a full chunk.  Sampled mode passes two 1-D
    draws of at most PAIR_CHUNK pairs and records seed and coverage for
    the report.  Sampled pairs are drawn uniformly with replacement, so
    coverage = budget/total counts draws, not distinct pairs: a pair can
    be drawn more than once.
    """
    if budget < 1:
        raise ValueError(f"pair budget must be at least 1, got {budget}")
    total = count * count
    if total <= budget:
        b_idx = np.arange(count, dtype=np.int64)[None, :]
        max_rows = max(1, PAIR_CHUNK // count)
        lo, rows = 0, 1
        while lo < count:
            hi = min(count, lo + rows)
            a_idx = np.arange(lo, hi, dtype=np.int64)[:, None]
            bad = np.flatnonzero(np.broadcast_to(fail_fn(a_idx, b_idx), (hi - lo, count)))
            if len(bad):
                k = int(bad[0])
                return False, (lo + k // count, k % count), "exhaustive", None, total
            lo, rows = hi, min(2 * rows, max_rows)
        return True, None, "exhaustive", None, total
    rng = np.random.default_rng(seed)
    checked = 0
    while checked < budget:
        m = min(PAIR_CHUNK, budget - checked)
        a_idx = rng.integers(0, count, m)
        b_idx = rng.integers(0, count, m)
        fails = fail_fn(a_idx, b_idx)
        bad = np.flatnonzero(fails)
        if len(bad):
            k = int(bad[0])
            return False, (int(a_idx[k]), int(b_idx[k])), "sampled", budget / total, checked + k + 1
        checked += m
    return True, None, "sampled", budget / total, checked


def pair_report(name: str, m: MapTable, seed: int, fail_fn) -> CheckReport:
    """`pair_scan` over the map's source element pairs, under its budget,
    as a report; a failing pair is quoted as the witness {"a", "b"} in
    source coordinates."""
    ok, pair, mode, cov, checked = pair_scan(m.es.count, m.es.budget, seed, fail_fn)
    return pair_result(name, m.source, m.es, pair, checked, mode,
                       seed if mode == "sampled" else None, cov)


def pair_result(name: str, source: Ring, es: Enumeration, pair, checked=None,
                mode: str = "exhaustive", seed=None, coverage=None) -> CheckReport:
    """The report of a scan over the source's element pairs whose first
    failing pair of element indices is `pair` (None when none fails).
    `checked` defaults to every pair, as an exhaustive scan counts them."""
    total = es.count ** 2
    wit = None if pair is None else {
        key: coords_json(source, es.coords_of(k)) for key, k in zip("ab", pair)}
    return CheckReport(name, pair is None, wit,
                       {"pairs": total, "checked": int(total if checked is None else checked)},
                       mode, seed, coverage)


def basis_index(es: Enumeration) -> np.ndarray:
    """Element index of each basis vector b_k, which is p**(n-1-k)."""
    return es.index_of(np.eye(es.n, dtype=np.int64))


def basis_matrix(es: Enumeration, et: Enumeration, g_idx) -> list:
    """The matrix, as lists of ints in [0, p), whose column k is the
    target element g(b_k) of an image index g."""
    return et.coords_of(np.asarray(g_idx)[basis_index(es)]).T.tolist()


def linear_extension(es: Enumeration, et: Enumeration, g_idx) -> np.ndarray:
    """Target index of L(x) for every source element x, where L is the
    linear map whose column k is g(b_k): one `linear_index`."""
    return es.linear_index(basis_matrix(es, et, g_idx))


def phi_linear(m: MapTable) -> bool:
    """Whether phi is F_p-linear, that is additive: true at once when it
    keeps a matrix, else whether its image index equals its
    `linear_extension`, one O(N) pass over the source Enumeration, which
    applies the element guard of the map's budget, computed once per map.
    On a linear map the entry battery decides its quantifiers exactly,
    with no pair scan, and `decompose` builds psi as one matrix."""
    return m.matrix() is not None or m.cached("linear", lambda: bool(np.array_equal(
        linear_extension(m.es, m.et, m.image_index()), m.image_index())))


def first_additive_failure(es: Enumeration, et: Enumeration, g_idx, lin_idx, inside):
    """The first failing pair (a, b), row-major, of "g(a+b) - g(a) - g(b)
    lies in `inside`" over all source pairs, or None when every pair
    passes; no pair is scanned.  `inside` is a boolean mask over target
    elements that is a subspace I ({0} for additivity, the centre for
    almost additivity), and `lin_idx` the index of a linear map L, as a
    rule g's `linear_extension`.

    Verdict: the defect D(a, b) = g(a+b) - g(a) - g(b) is also
    d(a+b) - d(a) - d(b) for d = g - L, since L is additive, so every
    pair passes when d(x) lies in I for every x (when g == L, with no
    `sum_index`).  Conversely, when every pair passes, g mod I is
    additive, so F_p-linear, and equals its linear extension mod I: with
    L that extension, the rows below are tested only on failure.

    Witness: D(0, 0) = -g(0), so if g(0) is outside I the first pair is
    (0, 0).  Otherwise the rows that pass, K = {a : D(a, b) in I for all
    b}, hold 0 (D(0, b) = -g(0)) and are closed under addition,

        D(a + a', b) = D(a, a' + b) + D(a', b) - D(a, a'),

    each term in I for a, a' in K, so over F_p they form a subspace.  The
    lowest-index element outside a subspace is a basis vector (see
    `first_bilinear_failure`), so the rows b_{n-1}, ..., b_0 are tested in
    ascending element index, each by one O(N) mask over its columns, and
    the first failing row with its first failing column is the first
    failing pair of the exhaustive row-major scan: at most n row tests.
    When no basis row fails, K is the whole source and every pair passes.
    """
    g_idx = np.asarray(g_idx)
    if np.array_equal(g_idx, lin_idx) or inside[et.sum_index([g_idx], [lin_idx])].all():
        return None
    if not inside[g_idx[0]]:
        return 0, 0
    every = np.arange(es.count, dtype=np.int64)
    for a in basis_index(es)[::-1, None]:      # each a of shape (1,), against every b
        sums = g_idx[es.sum_index([a, every])]
        bad = np.flatnonzero(~inside[et.sum_index([sums], [g_idx[a], g_idx])])
        if len(bad):
            return int(a[0]), int(bad[0])
    return None


def first_bilinear_failure(es: Enumeration, fails):
    """The first failing pair, row-major, of a bilinear predicate: one
    whose failure set is {(a, b) : D(a, b) != 0} for a bilinear D, such as
    a linear map's Lie or product defect, or None when every pair passes.

    It is decided on the n x n grid of basis vectors, taken in ascending
    element index (b_{n-1}, ..., b_0): `fails(a_idx, b_idx)` is called
    once, on the (n, 1) and (1, n) index grids, and the first failing
    cell, row-major, is the first failing pair of the exhaustive row-major
    scan.  The a with D(a, .) != 0 are the complement of a subspace K,
    and every element of index below p**(n-1-k), the index of b_k, lies
    in span(b_{k+1}, ...).  So if the lowest-index a outside K has first
    nonzero coordinate k, then b_k is outside K too (else a would be a
    sum of two elements of K: a multiple of b_k and a lower-index rest),
    and its index is at most a's: a is the basis vector b_k.  With a
    fixed, the b with D(a, b) != 0 are the complement of a subspace as
    well, and the same argument gives b.
    """
    basis = basis_index(es)[::-1]
    bad = np.flatnonzero(fails(basis[:, None], basis[None, :]))
    return None if not len(bad) else tuple(int(k) for k in basis[list(divmod(int(bad[0]), es.n))])


# -- verifiers ----------------------------------------------------------------

def verify_surjective(m: MapTable) -> CheckReport:
    return first_failure("surjective", m.fibres()[1], lambda k: {
        "unreached": coords_json(m.target, m.et.coords_of(k))},
        {"elements": int(m.es.count)})


def verify_lie_multiplicative(m: MapTable, seed: int = 0) -> CheckReport:
    """phi([x,y]) = [phi(x), phi(y)] over source pairs (sampled past budget).

    On a linear map (`phi_linear`) the defect phi([a,b]) - [phi(a),
    phi(b)] is bilinear, so it is decided exactly on the basis grid
    (`first_bilinear_failure`), with the witness of the exhaustive scan.
    """
    es, et = m.es, m.et
    f_idx = m.image_index()

    def fails(a_idx, b_idx):
        lhs = f_idx[es.commutator_index(a_idx, b_idx)]
        return lhs != et.commutator_index(f_idx[a_idx], f_idx[b_idx])

    if phi_linear(m):
        return pair_result("lie_multiplicative", m.source, es, first_bilinear_failure(es, fails))
    return pair_report("lie_multiplicative", m, seed, fails)


def verify_preserves_idempotents(m: MapTable, seed: int = 0) -> CheckReport:
    """e - lam*f idempotent iff phi(e) - lam*phi(f) idempotent, all source
    pairs and every prime-field lam, on any map, bijective or not; a
    failing pair quotes as "lambda" the first lam whose mask fails on it.

    On a linear map phi(e) - lam*phi(f) = phi(e - lam*f), and e - lam*f
    covers the ring, so the pairs all pass iff no x is in F, the elements
    whose idempotency phi changes.  0 is idempotent and phi(0) = 0, so 0
    is not in F and the exhaustive scan's first failing pair is (0, b),
    b the lowest-index element with a nonzero multiple in F: the
    `smul_index` tables that find it are built only on failure.
    """
    es, et = m.es, m.et
    f_idx = m.image_index()

    def lambda_masks(a_idx, b_idx):
        """The failure mask of each lam = 0, 1, ..., p - 1 in turn."""
        return map(np.not_equal, es.line_masks(es.idempotent_mask(), a_idx, b_idx),
                   et.line_masks(et.idempotent_mask(), f_idx[a_idx], f_idx[b_idx]))

    if phi_linear(m):
        flips = es.idempotent_mask() != et.idempotent_mask()[f_idx]
        pair = None
        if flips.any():
            scaled = flips.copy()           # b with lam*b in F for some lam = 1, ..., p - 1
            for lam in range(2, es.p):
                scaled |= flips[es.smul_index(lam)]
            pair = (0, int(np.flatnonzero(scaled)[0]))
        rep = pair_result("preserves_idempotents", m.source, es, pair)
    else:
        rep = pair_report("preserves_idempotents", m, seed,
                          lambda a, b: functools.reduce(np.logical_or, lambda_masks(a, b)))
    rep.quantifier_space["lambdas"] = es.p
    if not rep.ok:
        a, b = es.index_of([[rep.witness["a"]], [rep.witness["b"]]])
        rep.witness["lambda"] = next(lam for lam, bad in enumerate(lambda_masks(a, b)) if bad.any())
    return rep


def check_map_consequences(m: MapTable) -> list[CheckReport]:
    """Consequences of surjectivity + idempotent preservation over a
    2-torsion-free ring: injectivity, a fixed zero, and scalar
    homogeneity.  Failures certify an upstream inconsistency.  A linear
    map (`phi_linear`) is homogeneous: its rows need no scalar table."""
    es, et = m.es, m.et
    idx = m.image_index()
    linear = phi_linear(m)

    def inhomogeneous(lam):
        # phi(lam x) != lam phi(x), x in element order; rows 0 and 1 need no table
        if lam < 2 or linear:
            return np.full(es.count, lam == 0 and idx[0] != 0)
        scale = es.smul_index(lam)
        return idx[scale] != (scale if et is es else et.smul_index(lam))[idx]

    homogeneous = np.stack([inhomogeneous(lam) for lam in range(es.p)])
    return [first_failure("injective", m.fibres()[0], m.preimages,
                          {"elements": int(es.count)}),
            first_failure("maps_zero_to_zero", idx[:1] != 0, lambda k: {
                "image_of_zero": coords_json(m.target, et.coords_of(idx[0]))}, {"elements": 1}),
            first_failure("scalar_homogeneous", homogeneous, lambda k: {
                "x": coords_json(m.source, es.coords_of(k % es.count)), "lambda": k // es.count},
                {"elements": int(es.count), "lambdas": int(es.p)})]


def check_almost_additivity(m: MapTable) -> CheckReport:
    """phi(a+b) - phi(a) - phi(b) lands in the target centre, all pairs,
    decided exactly with no pair scan (`first_additive_failure`).  A
    linear phi is its own linear extension and passes with one compare;
    any other phi builds its extension again (one `linear_index`) rather
    than keep a second count-sized array on the map."""
    es, et = m.es, m.et
    f_idx = m.image_index()
    central = center(m.target).mask(et)     # applies the target's element guard
    lin = f_idx if phi_linear(m) else linear_extension(es, et, f_idx)
    return pair_result("almost_additive", m.source, es,
                       first_additive_failure(es, et, f_idx, lin, central))


def peirce_frames(m: MapTable, e1: Element) -> tuple[PeirceFrame, PeirceFrame]:
    """Peirce frames of e1 in the source and of phi(e1) in the target,
    built once per map and idempotent."""
    def build():
        src_frame = peirce_frame(m.source, e1)
        f1 = m(e1)
        try:
            tgt_frame = peirce_frame(m.target, f1)
        except Exception as exc:
            raise NotIdempotentImage(f"phi(e1) = {f1!r} does not span a Peirce frame: {exc}") from exc
        return src_frame, tgt_frame
    return m.cached(("frames", e1), build)


def frame_hypotheses(m: MapTable, frame: PeirceFrame) -> list[CheckReport]:
    """`check_main_hypotheses` on the source frame under the map's budget,
    run once per map, frame ring object and idempotent; the target frame
    reads it only when it is that frame, phi(e1) = e1 on one ring object."""
    return m.cached(("hypotheses", frame.ring, frame.e1.coords),
                    lambda: check_main_hypotheses(frame, m.es.budget))


def check_peirce_image(m: MapTable, e1: Element):
    """Corner behaviour of the map: off-diagonal corners map onto the
    matching target corners; diagonal corners land in a diagonal corner
    plus the centre, with the shape recorded.  Also transports the
    annihilation conditions (2) and (3) to the target frame: read from
    `frame_hypotheses` when the two frames are one frame of one ring
    object, else run alone (`check_annihilation`).

    Returns (reports, source_frame, target_frame).
    """
    src_frame, tgt_frame = peirce_frames(m, e1)
    es, et = m.es, m.et
    f_idx = m.image_index()
    reports = []

    for ij in ((1, 2), (2, 1)):
        pts = src_frame.components[ij].points(es)
        want = tgt_frame.components[ij].mask(et)
        hit = np.zeros(et.count, dtype=bool)
        hit[f_idx[es.index_of(pts)]] = True
        # over target elements: [images outside the corner; corner elements never reached]
        reports.append(first_failure(
            f"offdiag_image_{ij[0]}{ij[1]}", np.stack([hit & ~want, want & ~hit]),
            lambda k: {("image", "unreached")[k // et.count]:
                       coords_json(m.target, et.coords_of(k % et.count))},
            {"elements": len(pts), "target_elements": int(want.sum())}))

    zc = center(m.target)
    for i in (1, 2):
        j = 3 - i
        pts = src_frame.components[(i, i)].points(es)
        img = f_idx[es.index_of(pts)]
        in_same = tgt_frame.components[(i, i)].sum(zc).mask(et)[img]
        in_swap = tgt_frame.components[(j, j)].sum(zc).mask(et)[img]
        # with neither shape, quote the first element whose image misses one
        reports.append(first_failure(
            f"diag_image_{i}{i}", ~(in_same & in_swap) & ~(in_same.all() | in_swap.all()),
            lambda k: {"element": coords_json(m.source, pts[k]),
                       "image": coords_json(m.target, et.coords_of(img[k]))},
            {"elements": len(pts), "same_corner_shape": int(in_same.all()),
             "swapped_corner_shape": int(in_swap.all())}))

    shared = tgt_frame.ring is src_frame.ring and tgt_frame.e1.coords == src_frame.e1.coords
    target = frame_hypotheses(m, tgt_frame)[1:3] if shared else [
        check_annihilation(tgt_frame, name, m.es.budget) for name in ("condition_2", "condition_3")]
    reports += [CheckReport("target_" + rep.condition, rep.ok, rep.witness, rep.quantifier_space)
                for rep in target]
    return reports, src_frame, tgt_frame
