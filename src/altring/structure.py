"""Structural analysis: centre, nucleus, idempotents, Peirce frames,
and the hypothesis checkers used by the map-decomposition pipeline.

Universally quantified conditions are checked by exhaustive scans over
prime-field rings (with a hard evaluation budget); anything expressible
as a linear condition, or as the vanishing of a quadratic form, is
decided exactly over either scalar domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .enumeration import DEFAULT_BUDGET, Enumeration
from .errors import (BudgetExceeded, NotIdempotent, PeirceIncompatible, RingMismatch,
                     TrivialIdempotent, UnsupportedDomain)
from .reports import CheckReport, coords_json, first_failure
from .rings import (Element, Ring, associators, is_alternative, is_associative, is_flexible,
                    is_k_torsion_free, memoised, reduced, structure_array)

PRIMENESS_CHUNK = 8192          # generators per batch in both primeness routes
UNIT_ROUNDS = 12                # certificate rounds after the screen (`_unit_certificates`)
UNIT_STRIDE = 2654435761        # odd stride of the rounds' element index sequence


@dataclass(frozen=True)
class Subspace:
    """Subspace of a ring, held as a reduced echelon basis.

    Bases are canonical (fixed pivot order), so two subspaces are equal
    exactly when their basis tuples are equal.
    """

    ring: Ring
    basis: tuple[tuple, ...]
    pivots: tuple[int, ...]

    @staticmethod
    def from_vectors(ring: Ring, vectors) -> "Subspace":
        rows, piv = linalg.rref(list(vectors), ring.domain)
        return Subspace(ring, tuple(tuple(r) for r in rows), tuple(piv))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, coords) -> bool:
        return linalg.in_span([list(r) for r in self.basis], list(self.pivots),
                              list(coords), self.ring.domain)

    def sum(self, other: "Subspace") -> "Subspace":
        return Subspace.from_vectors(self.ring, [list(r) for r in self.basis + other.basis])

    def intersect(self, other: "Subspace") -> "Subspace":
        rows = linalg.intersect_spans([list(r) for r in self.basis],
                                      [list(r) for r in other.basis], self.ring.domain)
        return Subspace.from_vectors(self.ring, rows)

    def points(self, enum: Enumeration) -> np.ndarray:
        return enum.subspace_points(self.basis)

    def mask(self, enum: Enumeration) -> np.ndarray:
        """Membership over all element indices of a finite ring
        (`Enumeration.subspace_mask`)."""
        return enum.subspace_mask(self.basis)


def center(r: Ring) -> Subspace:
    """Commutative centre: solutions of [z, b_i] = 0 for every basis b_i."""
    return Subspace(r, *_center_basis(r))


@memoised
def _center_basis(r: Ring) -> tuple[tuple, tuple]:
    """Echelon rows and pivots of the centre, solved once per ring."""
    zc = _commutant(r, [r.basis_coords(i) for i in range(r.dim)])
    return zc.basis, zc.pivots


def _commutant(r: Ring, vectors) -> Subspace:
    """Elements x with x v = v x for every v in `vectors`: the nullspace of
    the stacked R_v - L_v, row (v, k) holding (b_i v - v b_i)_k over i.
    No vectors give the zero subspace."""
    S = structure_array(r)
    V = np.array(vectors, dtype=S.dtype).reshape(-1, r.dim)
    D = np.tensordot(V, S, axes=([1], [1])) - np.tensordot(V, S, axes=([1], [0]))
    rows = reduced(r, D).transpose(0, 2, 1).reshape(-1, r.dim)
    return Subspace.from_vectors(r, linalg.nullspace(rows.tolist(), r.domain))


def nucleus(r: Ring) -> Subspace:
    """Elements with vanishing associator in all three slots against the
    basis: for every basis pair (b_i, b_j) the kernel of x -> (b_i, b_j, x),
    x -> (b_i, x, b_j) and x -> (x, b_i, b_j), whose matrices have the
    associator array's entries at x = b_m as columns: the rows, indexed
    (i, j, slot, coordinate) over m, are three transposes of the array."""
    A = associators(r)
    rows = np.stack([A.transpose(0, 1, 3, 2), A.transpose(0, 2, 3, 1), A.transpose(1, 2, 3, 0)],
                    axis=2)
    return Subspace.from_vectors(r, linalg.nullspace(rows.reshape(-1, r.dim).tolist(), r.domain))


# -- idempotents -----------------------------------------------------------

class IdempotentCensus:
    """The idempotents of a finite ring, each tagged "zero", "trivial" (the
    unit) or "nontrivial".

    `index` holds the element indices of the idempotent mask
    (`Enumeration.idempotent_mask`) in element order, and the tags are read
    from it: index 0 is zero and the unit's index is trivial (in the zero
    ring, where 1 = 0, the one idempotent is zero).  `counts` works on the
    index alone; `elements` and `tags` are built on first use, so a census
    that is only counted builds no `Element`.
    """

    def __init__(self, ring: Ring, index: np.ndarray, enum: Enumeration):
        self.ring = ring
        self.index = index
        self._enum = enum
        self._unit = int(enum.index_of(ring.unit_coords))

    @cached_property
    def elements(self) -> tuple[Element, ...]:
        return tuple(Element(self.ring, tuple(int(c) for c in x))
                     for x in self._enum.coords_of(self.index))

    @cached_property
    def tags(self) -> tuple[str, ...]:
        return tuple("zero" if k == 0 else "trivial" if k == self._unit else "nontrivial"
                     for k in self.index.tolist())

    def counts(self) -> dict:
        total = len(self.index)
        zero = int(np.count_nonzero(self.index == 0))
        trivial = int(np.count_nonzero(self.index == self._unit)) if self._unit else 0
        return {"total": total, "zero": zero, "trivial": trivial,
                "nontrivial": total - zero - trivial}

    def count(self, tag: str | None = None) -> int:
        return self.counts().get("total" if tag is None else tag, 0)


def idempotents(r: Ring, budget: int = DEFAULT_BUDGET) -> IdempotentCensus:
    """All e with e*e = e, by exhaustive scan of a finite ring; over Q,
    `Enumeration.of` raises `UnsupportedDomain`."""
    enum = Enumeration.of(r, budget)
    return IdempotentCensus(r, np.flatnonzero(enum.idempotent_mask()), enum)


# -- Peirce frames ----------------------------------------------------------

@dataclass(frozen=True)
class PeirceFrame:
    """Idempotent pair (e1, e2 = 1 - e1) with its four corner projections."""

    ring: Ring
    e1: Element
    e2: Element
    projectors: dict            # (i, j) -> matrix of a |-> e_i (a e_j)
    components: dict            # (i, j) -> Subspace


def peirce_frame(r: Ring, e1: Element) -> PeirceFrame:
    """The frame of a nontrivial idempotent e1, from L and R, the matrices
    of x -> e1 x and x -> x e1, each a contraction of e1 with
    `structure_array`; the projectors are returned as lists.

    By bilinearity and the unit, multiplying by e2 = 1 - e1 is I - L on the
    left and I - R on the right, so corner (i, j) projects by L_i R_j, with
    L_1 = L, L_2 = I - L and likewise R_j.  These projectors are compatible
    (e_i a . e_j = e_i . a e_j), idempotent, pairwise annihilating, sum to
    I and split the dimension exactly when LR = RL, L^2 = L and R^2 = R:
    then I - L and I - R are idempotents commuting with L and R; conversely
    compatibility at (1, 1) is LR = RL, and L = P11 + P12 and R = P11 + P21
    are sums of orthogonal idempotents.  A component is the column space of
    its projector.
    """
    if e1.ring.key != r.key:
        raise RingMismatch("idempotent belongs to a different ring")
    if (e1 * e1).coords != e1.coords:
        raise NotIdempotent(f"{e1!r} is not idempotent")
    if e1.is_zero() or e1.coords == r.unit_coords:
        raise TrivialIdempotent("Peirce frame needs an idempotent other than 0 and 1")
    e2 = Element(r, r.sub_coords(r.unit_coords, e1.coords))
    S = structure_array(r)
    e = np.array(e1.coords, dtype=S.dtype)
    # L[k, j] = (e1 b_j)_k and R[k, j] = (b_j e1)_k
    L = reduced(r, np.tensordot(e, S, axes=([0], [0])).T)
    R = reduced(r, np.tensordot(S, e, axes=([1], [0])).T)
    for lhs, rhs, law in ((L @ R, R @ L, "e1 (a e1) != (e1 a) e1"),
                          (L @ L, L, "e1 (e1 a) != e1 a"),
                          (R @ R, R, "(a e1) e1 != a e1")):
        if (reduced(r, lhs - rhs) != 0).any():
            raise PeirceIncompatible(f"{law} for some a on this ring")
    ident = np.eye(r.dim, dtype=S.dtype)
    left = {1: L, 2: reduced(r, ident - L)}
    right = {1: R, 2: reduced(r, ident - R)}
    projectors = {(i, j): reduced(r, left[i] @ right[j]).tolist()
                  for i in (1, 2) for j in (1, 2)}
    components = {ij: Subspace.from_vectors(r, [list(c) for c in zip(*P)])
                  for ij, P in projectors.items()}
    return PeirceFrame(r, e1, e2, projectors, components)


# -- Peirce multiplication relations ----------------------------------------

def verify_peirce_relations(frame: PeirceFrame) -> list[CheckReport]:
    """Corner multiplication relations for an alternative ring's frame.

    Containments (products land in the right corner) are bilinear, so
    they are decided on component bases.  The off-diagonal square law
    (iv.a) is decided from its polar form, on every field and with no
    enumeration: q(x) = x^2 is a quadratic form, and
    q(sum c_a u_a) = sum c_a^2 q(u_a) + sum_{a<b} c_a c_b B(u_a, u_b) with
    B(u, v) = q(u + v) - q(u) - q(v), so q vanishes on a cell exactly when
    it vanishes on every basis vector u_k and every sum u_j + u_k.  Nothing
    is divided by 2, so this holds in characteristic 2 too.  The points
    are checked in the order u_k, then u_j + u_k for j < k, for k = 1..d.
    Over F_p the first failure in that order is the first failing point
    in `Enumeration.subspace_points` order: if q vanishes on the span of
    u_1..u_{k-1}, then q(u_k + w) = q(u_k) + B(u_k, w) is linear in w from
    that span, so the first failing point is u_k, or else u_j + u_k for
    the lowest j with B(u_k, u_j) != 0.  The report counts the points the
    claim covers: every point of both cells over F_p, the checked points
    over Q.  Every report quotes the first failing case in loop order.
    """
    r = frame.ring
    comp = frame.components
    reports = []

    def basis_elems(ij):
        return [list(row) for row in comp[ij].basis]

    def nonzero(w):
        return any(x != r.domain.zero for x in w)

    def basis_pair_report(name, cell_pairs, fails, space=None,
                          quote=lambda ca, cb: {"cells": [list(ca), list(cb)]}):
        """Scan the basis pairs of each (left cell, right cell) in loop
        order: count them all, quote the first failing pair."""
        ok, wit, n_pairs = True, None, 0
        for ca, cb in cell_pairs:
            for u in basis_elems(ca):
                for v in basis_elems(cb):
                    n_pairs += 1
                    if ok and fails(u, v, ca, cb):
                        ok, wit = False, {"left": coords_json(r, u), "right": coords_json(r, v),
                                          **quote(ca, cb)}
        return CheckReport(name, ok, wit, {"basis_pairs": n_pairs, **(space or {})})

    off = ((1, 2), (2, 1))
    cells = [(a, b) for a in (1, 2) for b in (1, 2)]
    # (i): R_ij R_jl subset R_il
    reports.append(basis_pair_report(
        "peirce_i_compose",
        [((i, j), (j, l)) for i, j in cells for l in (1, 2)],
        lambda u, v, ca, cb: not comp[(ca[0], cb[1])].contains(r.mul_coords(u, v))))

    # (ii): R_ij R_ij subset R_ji (i != j)
    some_nonzero = any(nonzero(r.mul_coords(u, v))
                       for ij in off for u in basis_elems(ij) for v in basis_elems(ij))
    reports.append(basis_pair_report(
        "peirce_ii_swap", [(ij, ij) for ij in off],
        lambda u, v, ca, cb: not comp[ca[::-1]].contains(r.mul_coords(u, v)),
        {"nonzero_products": int(some_nonzero)}))

    # (iii): R_ij R_kl = 0 when j != k and (i,j) != (k,l)
    reports.append(basis_pair_report(
        "peirce_iii_orthogonal",
        [(ca, cb) for ca in cells for cb in cells if ca[1] != cb[0] and ca != cb],
        lambda u, v, ca, cb: nonzero(r.mul_coords(u, v))))

    # (iv.a): x^2 = 0 for every x in an off-diagonal component
    wit, n_points = None, 0
    for ij in off:
        rows = basis_elems(ij)
        d = len(rows)
        n_points += r.domain.p ** d if r.domain.kind == "Fp" else d + d * (d - 1) // 2
        points = (x for k, u in enumerate(rows)
                  for x in [u] + [r.add_coords(w, u) for w in rows[:k]])
        bad = next((x for x in points if nonzero(r.mul_coords(x, x))), None)
        if wit is None and bad is not None:
            wit = {"element": coords_json(r, bad), "cell": list(ij)}
    reports.append(CheckReport("peirce_iv_a_squares", wit is None, wit, {"elements": n_points}))

    # (iv.b): xy = -yx on off-diagonal component basis pairs
    reports.append(basis_pair_report(
        "peirce_iv_b_anticommute", [(ij, ij) for ij in off],
        lambda u, v, ca, cb: nonzero(r.add_coords(r.mul_coords(u, v), r.mul_coords(v, u))),
        quote=lambda ca, cb: {"cell": list(ca)}))
    return reports


# -- structural hypotheses for the decomposition theorem --------------------

# annihilation conditions (1)-(3) of a frame, as cell -> its annihilating
# sides (cell, from the left):
# (1): x_ij R_ji = 0 forces x_ij = 0, for both off-diagonal cells
# (2): x_11 R_12 = 0 or R_21 x_11 = 0 forces x_11 = 0
# (3): R_12 x_22 = 0 or x_22 R_21 = 0 forces x_22 = 0
ANNIHILATION = {"condition_1": {(1, 2): [((2, 1), False)], (2, 1): [((1, 2), False)]},
                "condition_2": {(1, 1): [((1, 2), False), ((2, 1), True)]},
                "condition_3": {(2, 2): [((1, 2), True), ((2, 1), False)]}}


def check_annihilation(frame: PeirceFrame, condition: str,
                       budget: int = DEFAULT_BUDGET) -> CheckReport:
    """One condition of `ANNIHILATION` over the enumerated F_p points of
    its cells, cell by cell, a witness being {"element", "cell"};
    `maps.check_peirce_image` runs (2) and (3) alone on a target frame."""
    enum = Enumeration.of(frame.ring, budget)
    sides = ANNIHILATION[condition]

    def annihilated(pts, ij):
        """Nonzero rows x of pts annihilated by a whole corner from one of
        the sides of ij: b*x = 0 (left) or x*b = 0 for every basis vector
        b of the corner."""
        out = np.zeros(len(pts), dtype=bool)
        for cell, left in sides[ij]:
            killed = np.ones(len(pts), dtype=bool)
            for row in frame.components[cell].basis:
                b = np.broadcast_to(np.array(row, dtype=np.int64), pts.shape)
                killed &= ((enum.mul(b, pts) if left else enum.mul(pts, b)) == 0).all(axis=1)
            out |= killed
        return out & (pts != 0).any(axis=1)

    cells = list(sides)
    pts = [frame.components[ij].points(enum) for ij in cells]
    X = np.concatenate(pts)
    owner = np.repeat(np.arange(len(cells)), [len(P) for P in pts])
    return first_failure(
        condition, np.concatenate([annihilated(P, ij) for P, ij in zip(pts, cells)]),
        lambda k: {"element": coords_json(frame.ring, X[k]), "cell": list(cells[owner[k]])},
        {"elements": len(X)})


def check_main_hypotheses(frame: PeirceFrame, budget: int = DEFAULT_BUDGET) -> list[CheckReport]:
    """Annihilation conditions (1)-(3) on the corners (`check_annihilation`)
    plus (4), surjectivity of central multiplications; all quantifiers run
    over enumerated F_p points."""
    r = frame.ring
    enum = Enumeration.of(r, budget)
    reports = [check_annihilation(frame, name, budget) for name in ANNIHILATION]

    # (4): z != 0 central implies x -> z x is onto (full rank over a field)
    zpts = center(r).points(enum)
    nz = (zpts != 0).any(axis=1)
    ranks = enum.rank_batched(enum.left_mul_matrices(zpts))
    reports.append(first_failure(
        "condition_4", nz & (ranks < r.dim),
        lambda k: {"central": coords_json(r, zpts[k]), "rank": int(ranks[k])},
        {"central_elements": int(nz.sum())}))
    return reports


def check_spade_club(frame: PeirceFrame, hypotheses: list[CheckReport],
                     budget: int = DEFAULT_BUDGET) -> list[CheckReport]:
    """Diagonal sums commuting with a whole off-diagonal corner must be
    central; also reports the implication instance from conditions (1)-(3),
    read from `hypotheses`, the frame's `check_main_hypotheses` reports.

    Centrality is `center`'s own definition, commuting with every basis
    vector, tested like the corner on the diagonal sums x_11 + x_22 alone:
    only those need to lie within the budget, not the whole ring.  The
    sums are the points of R_11 + R_22 from `Enumeration.subspace_points`
    on the basis of R_22 followed by that of R_11, so x_22 runs fastest
    and the budget is applied there.
    """
    r = frame.ring
    enum = Enumeration.of(r, budget)
    comp = frame.components
    sums = enum.subspace_points(comp[(2, 2)].basis + comp[(1, 1)].basis)

    def commutes(rows):
        out = np.ones(len(sums), dtype=bool)
        for row in rows:            # one element, broadcast against every sum
            out &= (enum.commutator(sums, row) == 0).all(axis=1)
        return out

    central = commutes(np.eye(r.dim, dtype=np.int64))
    reports = []
    for name, cell in (("spade", (1, 2)), ("club", (2, 1))):
        reports.append(first_failure(name, commutes(comp[cell].basis) & ~central,
                                     lambda k: {"diagonal_sum": coords_json(r, sums[k])},
                                     {"diagonal_sums": len(sums)}))

    premise = all(c.ok for c in hypotheses[:3])
    conclusion = all(rep.ok for rep in reports)
    reports.append(CheckReport("conditions_imply_spade_club", (not premise) or conclusion,
                               None, {"premise_holds": int(premise)}))
    return reports


def check_z_of_peirce_cell(frame: PeirceFrame) -> list[CheckReport]:
    """Centre of each off-diagonal corner, with the literal containment in
    R_ij + Z(R) (true by construction) plus intersection diagnostics."""
    r = frame.ring
    zc = center(r)
    reports = []
    for ij in ((1, 2), (2, 1)):
        cell = frame.components[ij]
        cell_centre = _commutant(r, cell.basis).intersect(cell)
        ambient = cell.sum(zc)
        contained = all(ambient.contains(list(v)) for v in cell_centre.basis)
        inter = cell_centre.intersect(zc)
        reports.append(CheckReport(
            f"cell_centre_{ij[0]}{ij[1]}", contained, None,
            {"cell_dim": cell.dim, "cell_centre_dim": cell_centre.dim,
             "centre_intersection_dim": inter.dim}))
    return reports


# -- primeness ---------------------------------------------------------------

@dataclass
class PrimenessReport:
    ring_name: str
    prime_by_ideals: bool
    prime_by_elements: bool
    criterion_equiv: bool
    ideal_witness: object
    element_witness: object
    quantifier_space: dict
    alternative: bool
    torsion_free_3: bool

    def to_json(self) -> dict:
        """The fields in order, ring_name as "ring", and "prime" (by ideals)."""
        fields = {k: v for k, v in vars(self).items() if k != "ring_name"}
        return {"ring": self.ring_name, "prime": self.prime_by_ideals, **fields}


def _generator_classes(enum: Enumeration) -> tuple[np.ndarray, np.ndarray]:
    """Leading-coefficient-1 representatives of the nonzero scalar classes,
    in element order, and which of them have a full-rank L_a.

    An element whose first nonzero coordinate is coordinate i and equals 1
    has an index in [p**k, 2*p**k) for k = n-1-i, so the representatives
    are those index ranges, for k = 0, ..., n-1, already in element order,
    the order `Enumeration.class_position` counts them in.
    """
    X = enum.all_coords()
    reps = np.concatenate([X[enum.p ** k:2 * enum.p ** k] for k in range(enum.n)])
    full = enum.rank_batched(enum.left_mul_matrices(reps)) == enum.n
    return reps, full


def _unit_pair(enum: Enumeration, t: int) -> np.ndarray:
    """The (2, n) coordinate rows of u_t and v_t, the elements of
    certificate round t >= 1: indices 2t-1 and 2t of the sequence
    j*UNIT_STRIDE mod count, j = 1, 2, ..., decoded by `coords_of`."""
    return enum.coords_of(np.array([2 * t - 1, 2 * t], dtype=np.int64) * UNIT_STRIDE % enum.count)


def _unit_certificates(enum: Enumeration, reps: np.ndarray, screened: np.ndarray) -> np.ndarray:
    """The round that certified (x) = R for each generator x: 0 for the
    screen (full-rank L_x), t for y = x*u_t + v_t*x with full-rank L_y
    (`_unit_pair`), -1 for a generator no round certified.

    y lies in (x), and a full-rank L_y gives yR = R, so (x) = R.  The
    proof needs neither alternativity nor a unit.  Each round runs over
    every generator left, in one batch of `Enumeration.mul` products with
    u_t and v_t broadcast against it, and drops those it certifies.  It
    ranks nothing: L_{lam*a} = lam*L_a, so L_y has full rank exactly when
    y is nonzero and the representative of its scalar class was screened
    (`Enumeration.class_position`).
    """
    rounds = np.where(screened, 0, -1)
    left = np.flatnonzero(~screened)
    X = reps[left]
    for t in range(1, UNIT_ROUNDS + 1):
        if not len(left):
            break
        u, v = _unit_pair(enum, t)
        pos = enum.class_position(enum.reduce(enum.mul(X, u) + enum.mul(v, X)))
        full = (pos >= 0) & screened[pos]
        rounds[left[full]] = t
        left, X = left[~full], X[~full]
    return rounds


def _principal_ideals(ring: Ring, enum: Enumeration, reps: np.ndarray,
                      screened: np.ndarray) -> list[Subspace]:
    """Distinct ideals generated by single elements.

    Scalar multiples generate the same ideal, so generators run over the
    leading-coefficient-1 representatives.  A generator x is first
    certified to generate the whole ring by a unit inside (x)
    (`_unit_certificates`): y = x*u + v*x lies in (x), and if L_y has
    full rank then yR = R, so (x) = R.  The screen (full-rank L_x) is
    round 0.  The certificate is one-sided: a generator it leaves goes
    through the closure, so no verdict rests on the choice of u and v.
    Each closure step stacks the current (compressed echelon) spanning
    rows x with the transposed multiplication matrices L_x^T and R_x^T,
    whose rows are the products x*b_j and b_j*x with every basis vector,
    and row-reduces again (`Enumeration.rref_batched`); a generator is
    settled once its rank stops growing.  The closure runs batched over
    the uncertified generators alone, `PRIMENESS_CHUNK` per batch, and
    each ideal is keyed by where it is first found: (chunk of `reps` of
    `PRIMENESS_CHUNK` generators, step, position), the whole ring at
    step 0 of a chunk that holds a certified generator and ahead of the
    stable generators of a step where a closure reaches it.  The ideals
    come out in key order, the order of a closure over every chunk of
    `reps` in turn with no certificate.  A stable generator's rows are a
    reduced echelon form, which is canonical, so ideals are told apart by
    its bytes and each distinct one is built once.
    """
    n, chunk = ring.dim, PRIMENESS_CHUNK
    certified = _unit_certificates(enum, reps, screened) >= 0
    # (first key, echelon rows) of each ideal, the whole ring under None
    found: dict[bytes | None, tuple[tuple, list | None]] = {}
    if certified.any():
        found[None] = ((int(np.argmax(certified)) // chunk, 0, -1), None)

    def record(ideal, key, rows=None):
        if ideal not in found or key < found[ideal][0]:
            found[ideal] = (key, rows)

    def layer(rows):
        # rows (B, m, n) -> [rows; x*b_j; b_j*x] for every row x and basis vector b_j:
        # row j of L_x^T (R_x^T) holds x*b_j (b_j*x)
        b_count, m = rows.shape[0], rows.shape[1]
        return np.concatenate([rows] + [mats.swapaxes(-1, -2).reshape(b_count, m * n, n)
                                        for mats in (enum.left_mul_matrices(rows),
                                                     enum.right_mul_matrices(rows))], axis=1)

    uncertified = np.flatnonzero(~certified)
    for lo in range(0, len(uncertified), chunk):
        pos = uncertified[lo:lo + chunk]
        rows = reps[pos][:, None, :]
        ranks = np.ones(len(rows), dtype=np.int64)
        for step in range(1, n + 2):
            if not len(rows):
                break
            grown, new_ranks = enum.rref_batched(layer(rows))
            full = new_ranks == n
            if full.any():
                record(None, (int(pos[full].min()) // chunk, step, -1))
            stable = (new_ranks == ranks) & ~full
            for b in np.flatnonzero(stable):
                at = int(pos[b])
                record(grown[b].tobytes(), (at // chunk, step, at),
                       grown[b, :new_ranks[b]].tolist())
            keep = ~stable & ~full
            rows, ranks, pos = grown[keep], new_ranks[keep], pos[keep]
        if len(rows):
            raise RuntimeError("ideal closure failed to stabilize")
    whole = [list(ring.basis_coords(i)) for i in range(n)]
    return [Subspace.from_vectors(ring, whole if rows is None else rows)
            for _, rows in sorted(found.values(), key=lambda entry: entry[0])]


def check_primeness(r: Ring, budget: int = DEFAULT_BUDGET) -> PrimenessReport:
    """Two independent primeness decisions and their agreement.

    Route one enumerates principal ideals, keeps the minimal ones, and
    looks for a pair of nonzero ideals with zero product.  Route two scans
    elements a and asks whether (a b_k) x = 0 has a nonzero solution x,
    which is the annihilation criterion with the inner factor running
    over the basis.

    Both routes skip generators a with full-rank L_a: aR = R makes (a) the
    whole ring, and 1 in span{a b_k} forces the stacked kernel to zero.
    The element route stacks L_w only over a basis w of aR, the nonzero
    reduced rows of the rows a b_k (`Enumeration.rref_batched`), not over
    all n of them: those rows span aR and y -> L_y is linear, so every
    L_{a b_k} is a combination of the L_w and each L_w of the L_{a b_k}.
    The two stacks have the same row space, so the same kernel and rank
    (`Enumeration.rank_batched` of the (B, w, r, c) stack of the L_w, its
    rows (w, r)), and the same first failing a.  Its witness b is still
    the first nullspace vector of the full stack of L_{a b_k}, so its
    bytes do not depend on the basis.  The route takes 1, 2, 4, ... up to
    `PRIMENESS_CHUNK` survivors per batch, so a failure among the first
    survivors costs a few rows, and stops at the first batch that fails.
    The ideal route also skips a generator x with a unit inside (x): for
    fixed u and v, y = x*u + v*x lies in (x), and a full-rank L_y gives
    yR = R, so (x) = R (`_unit_certificates`, which reads L_y's rank off
    the screen through y's scalar class).  A generator that no round
    certifies runs the closure, in batches of uncertified generators only,
    so both verdicts stay exact.  The screen is the one elimination over
    all generator classes; each other elimination runs once per batch.
    """
    enum = Enumeration.of(r, budget)
    n = r.dim
    reps, screened = _generator_classes(enum)

    # ideal route
    ideals = _principal_ideals(r, enum, reps, screened)
    minimal = [sub for sub in ideals
               if not any(other.dim < sub.dim and all(sub.contains(list(v)) for v in other.basis)
                          for other in ideals)]
    # the first pair of minimal ideals, in loop order, with zero product
    zero_pair = next(((A, B) for A in minimal for B in minimal
                      if all(all(x == r.domain.zero for x in r.mul_coords(list(u), list(v)))
                             for u in A.basis for v in B.basis)), None)
    prime_ideal = zero_pair is None
    ideal_witness = None if prime_ideal else {
        "ideal_a_basis": [coords_json(r, u) for u in zero_pair[0].basis],
        "ideal_b_basis": [coords_json(r, v) for v in zero_pair[1].basis],
        "a": coords_json(r, zero_pair[0].basis[0]),
        "b": coords_json(r, zero_pair[1].basis[0]),
    }

    # element route: for each nonzero a (one representative per scalar class,
    # which preserves the first witness in element order), the solutions of
    # (a b_k) x = 0 for all k form a kernel; a nonzero kernel refutes primeness.
    survivors = reps[~screened]
    element_witness = None
    basis = np.eye(n, dtype=np.int64)
    lo, size = 0, 1
    while lo < len(survivors):
        A = survivors[lo:lo + size]
        lo, size = lo + size, min(2 * size, PRIMENESS_CHUNK)
        # the first m reduced rows of the rows a*b_k span aR; zero rows past
        # a rank add nothing, and m >= 1, so no stack is empty
        W, dims = enum.rref_batched(enum.mul_outer(A, basis))
        m = max(int(dims.max()), 1)
        ranks = enum.rank_batched(enum.left_mul_matrices(W[:, :m]))
        bad = np.flatnonzero(ranks < n)
        if len(bad):
            b0 = int(bad[0])
            # the witness solves the full stack of L_{a*b_k}, rows (k, r)
            full = enum.left_mul_matrices(enum.mul_outer(A[b0:b0 + 1], basis))[0]
            rows = [[int(x) for x in row] for row in full.reshape(n * n, n)]
            null = linalg.nullspace(rows, r.domain)
            element_witness = {"a": coords_json(r, A[b0]), "b": coords_json(r, null[0])}
            break
    prime_element = element_witness is None

    return PrimenessReport(
        ring_name=r.name,
        prime_by_ideals=prime_ideal,
        prime_by_elements=prime_element,
        criterion_equiv=prime_ideal == prime_element,
        ideal_witness=ideal_witness,
        element_witness=element_witness,
        quantifier_space={"elements": int(enum.count), "generator_classes": int(len(reps)),
                          "ideals_found": len(ideals), "minimal_ideals": len(minimal)},
        alternative=is_alternative(r).ok,
        torsion_free_3=is_k_torsion_free(r, 3).ok,
    )


# -- the whole structural report ----------------------------------------------

def analyze(r: Ring, budget: int = DEFAULT_BUDGET) -> tuple[dict, list[CheckReport]]:
    """The `altring analyze` report, and the law reports it records: ring
    laws, centre and nucleus dimensions, the idempotent census and
    primeness, the last two {"skipped": reason} past the budget or over Q."""
    laws = [is_alternative(r), is_flexible(r), is_associative(r),
            is_k_torsion_free(r, 2), is_k_torsion_free(r, 3)]
    report = {"ring": r.name, "dim": r.dim, "domain": r.domain.to_json(), "unit_verified": True,
              **{rep.condition: rep.ok for rep in laws},
              "centre_dim": center(r).dim, "nucleus_dim": nucleus(r).dim}
    for key, run in (("idempotents", lambda: idempotents(r, budget).counts()),
                     ("primeness", lambda: check_primeness(r, budget).to_json())):
        try:
            report[key] = run()
        except (BudgetExceeded, UnsupportedDomain) as exc:
            report[key] = {"skipped": str(exc)}
    return report, laws
