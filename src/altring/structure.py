"""Structural analysis: centre, nucleus, idempotents, Peirce frames,
and the hypothesis checkers used by the map-decomposition pipeline.

Universally quantified conditions are checked by exhaustive scans over
prime-field rings (with a hard evaluation budget); anything expressible
as a linear condition is solved exactly over either scalar domain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .enumeration import DEFAULT_BUDGET, Enumeration
from .errors import (BudgetExceeded, NotIdempotent, PeirceIncompatible,
                     RingMismatch, TrivialIdempotent, UnsupportedDomain)
from .reports import CheckReport, coords_json
from .rings import Element, Ring, is_alternative, is_k_torsion_free, memoised


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

    def points(self, enum: Enumeration, budget: int = DEFAULT_BUDGET) -> np.ndarray:
        return enum.subspace_points([list(r) for r in self.basis], budget)

    def mask(self, enum: Enumeration, V) -> np.ndarray:
        return enum.in_span_mask([list(r) for r in self.basis], list(self.pivots), V)


def center(r: Ring) -> Subspace:
    """Commutative centre: solutions of [z, b_i] = 0 for every basis b_i."""
    return Subspace(r, *_center_basis(r))


@memoised
def _center_basis(r: Ring) -> tuple[tuple, tuple]:
    """Echelon rows and pivots of the centre, solved once per ring."""
    dom = r.domain
    rows = []
    for i in range(r.dim):
        b = r.basis_coords(i)
        L = r.left_mul_matrix(b)
        R = r.right_mul_matrix(b)
        for k in range(r.dim):
            rows.append([dom.sub(R[k][j], L[k][j]) for j in range(r.dim)])
    zc = Subspace.from_vectors(r, linalg.nullspace(rows, dom))
    return zc.basis, zc.pivots


def center_mask(r: Ring, budget: int) -> np.ndarray:
    """Which elements of a finite ring are central, over all element indices."""
    enum = Enumeration.of(r)
    mask = np.zeros(enum.count, dtype=bool)
    mask[enum.index_of(center(r).points(enum, budget))] = True
    return mask


def nucleus(r: Ring) -> Subspace:
    """Elements with vanishing associator in all three slots against the basis."""
    dom = r.domain
    rows = []
    n = r.dim
    basis = [r.basis_coords(i) for i in range(n)]
    lmat = [r.left_mul_matrix(b) for b in basis]
    rmat = [r.right_mul_matrix(b) for b in basis]
    for i in range(n):
        for j in range(n):
            prod = r.mul_coords(basis[i], basis[j])
            # (b_i, b_j, x): (b_i b_j) x - b_i (b_j x)
            m1 = _mat_sub(r.left_mul_matrix(prod), linalg.mat_mul(lmat[i], lmat[j], dom), dom)
            # (b_i, x, b_j): (b_i x) b_j - b_i (x b_j)
            m2 = _mat_sub(linalg.mat_mul(rmat[j], lmat[i], dom), linalg.mat_mul(lmat[i], rmat[j], dom), dom)
            # (x, b_i, b_j): (x b_i) b_j - x (b_i b_j)
            m3 = _mat_sub(linalg.mat_mul(rmat[j], rmat[i], dom), r.right_mul_matrix(prod), dom)
            rows.extend(m1)
            rows.extend(m2)
            rows.extend(m3)
    return Subspace.from_vectors(r, linalg.nullspace(rows, dom))


def _mat_sub(A, B, dom):
    return [[dom.sub(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


# -- idempotents -----------------------------------------------------------

@dataclass(frozen=True)
class IdempotentCensus:
    ring: Ring
    elements: tuple[Element, ...]
    tags: tuple[str, ...]          # "zero" | "trivial" | "nontrivial"

    def count(self, tag: str | None = None) -> int:
        if tag is None:
            return len(self.elements)
        return sum(1 for t in self.tags if t == tag)

    def counts(self) -> dict:
        return {"total": self.count(), **{t: self.count(t) for t in ("zero", "trivial", "nontrivial")}}

    def nontrivial(self) -> list[Element]:
        return [e for e, t in zip(self.elements, self.tags) if t == "nontrivial"]


def _tag_idempotent(r: Ring, coords) -> str:
    if all(x == r.domain.zero for x in coords):
        return "zero"
    if tuple(coords) == tuple(r.unit_coords):
        return "trivial"
    return "nontrivial"


def idempotents(r: Ring, budget: int = DEFAULT_BUDGET, include_zero: bool = True,
                candidates=None) -> IdempotentCensus:
    """All e with e*e = e, by exhaustive scan over F_p or supplied candidates."""
    found = []
    if candidates is not None:
        for cand in candidates:
            e = cand if isinstance(cand, Element) else r.element(cand)
            if (e * e).coords == e.coords:
                found.append(e.coords)
    elif r.domain.kind == "Fp":
        enum = Enumeration.of(r)
        idx = np.flatnonzero(enum.idempotent_mask(budget))
        found = [tuple(int(c) for c in x) for x in enum.coords_of(idx)]
    else:
        raise UnsupportedDomain("idempotent search over Q needs explicit candidates")
    elems, tags = [], []
    for coords in found:
        tag = _tag_idempotent(r, coords)
        if tag == "zero" and not include_zero:
            continue
        elems.append(Element(r, tuple(coords)))
        tags.append(tag)
    return IdempotentCensus(r, tuple(elems), tuple(tags))


# -- Peirce frames ----------------------------------------------------------

@dataclass(frozen=True)
class PeirceFrame:
    """Idempotent pair (e1, e2 = 1 - e1) with its four corner projections."""

    ring: Ring
    e1: Element
    e2: Element
    projectors: dict            # (i, j) -> matrix of a |-> e_i (a e_j)
    components: dict            # (i, j) -> Subspace

    def project(self, a: Element) -> dict:
        if a.ring.key != self.ring.key:
            raise RingMismatch("element belongs to a different ring")
        out = {}
        for ij, P in self.projectors.items():
            out[ij] = Element(self.ring, self.ring.apply_matrix(P, a.coords))
        return out

    def projector_np(self, i: int, j: int) -> np.ndarray:
        return np.array([[int(x) for x in row] for row in self.projectors[(i, j)]],
                        dtype=np.int64)


def peirce_frame(r: Ring, e1: Element) -> PeirceFrame:
    dom = r.domain
    if e1.ring.key != r.key:
        raise RingMismatch("idempotent belongs to a different ring")
    if (e1 * e1).coords != e1.coords:
        raise NotIdempotent(f"{e1!r} is not idempotent")
    if e1.is_zero() or e1.coords == r.unit_coords:
        raise TrivialIdempotent("Peirce frame needs an idempotent other than 0 and 1")
    e2 = Element(r, r.sub_coords(r.unit_coords, e1.coords))
    es = {1: e1.coords, 2: e2.coords}
    left = {i: r.left_mul_matrix(es[i]) for i in es}
    right = {j: r.right_mul_matrix(es[j]) for j in es}
    for i in (1, 2):
        for j in (1, 2):
            # compatibility e_i a . e_j = e_i . a e_j must hold before corners make sense
            lhs = linalg.mat_mul(right[j], left[i], dom)
            rhs = linalg.mat_mul(left[i], right[j], dom)
            if lhs != rhs:
                raise PeirceIncompatible(f"e_{i} a . e_{j} != e_{i} . a e_{j} on this ring")
    projectors = {(i, j): linalg.mat_mul(left[i], right[j], dom)
                  for i in (1, 2) for j in (1, 2)}
    ident = linalg.mat_identity(r.dim, dom)
    total = ident
    keys = list(projectors)
    for ij in keys:
        P = projectors[ij]
        if linalg.mat_mul(P, P, dom) != P:
            raise PeirceIncompatible(f"corner projection {ij} is not idempotent")
        for kl in keys:
            if kl != ij:
                Q = linalg.mat_mul(P, projectors[kl], dom)
                if any(x != dom.zero for row in Q for x in row):
                    raise PeirceIncompatible(f"corner projections {ij} and {kl} do not annihilate")
    acc = [[dom.zero] * r.dim for _ in range(r.dim)]
    for P in projectors.values():
        acc = [[dom.add(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(acc, P)]
    if acc != total:
        raise PeirceIncompatible("corner projections do not sum to the identity")
    components = {}
    for ij, P in projectors.items():
        cols = [r.apply_matrix(P, r.basis_coords(k)) for k in range(r.dim)]
        components[ij] = Subspace.from_vectors(r, [list(c) for c in cols])
    if sum(s.dim for s in components.values()) != r.dim:
        raise PeirceIncompatible("corner dimensions do not add up to the ring dimension")
    return PeirceFrame(r, e1, e2, projectors, components)


# -- Peirce multiplication relations ----------------------------------------

def verify_peirce_relations(frame: PeirceFrame, budget: int = DEFAULT_BUDGET) -> list[CheckReport]:
    """Corner multiplication relations for an alternative ring's frame.

    Containments (products land in the right corner) are bilinear, so
    they are decided on component bases.  The off-diagonal square law is
    checked pointwise over F_p components; over Q it follows from basis
    squares plus basis anticommutation and is checked that way.
    """
    r = frame.ring
    comp = frame.components
    reports = []

    def basis_elems(ij):
        return [list(row) for row in comp[ij].basis]

    # (i): R_ij R_jl subset R_il
    ok, wit, n_pairs = True, None, 0
    for i in (1, 2):
        for j in (1, 2):
            for l in (1, 2):
                for u in basis_elems((i, j)):
                    for v in basis_elems((j, l)):
                        n_pairs += 1
                        w = r.mul_coords(u, v)
                        if not comp[(i, l)].contains(w):
                            ok, wit = False, {"left": coords_json(r, u), "right": coords_json(r, v),
                                              "cells": [[i, j], [j, l]]}
                            break
                    if not ok:
                        break
    reports.append(CheckReport("peirce_i_compose", ok, wit, {"basis_pairs": n_pairs}))

    # (ii): R_ij R_ij subset R_ji (i != j)
    ok, wit, n_pairs = True, None, 0
    nontrivially_nonzero = False
    for i, j in ((1, 2), (2, 1)):
        for u in basis_elems((i, j)):
            for v in basis_elems((i, j)):
                n_pairs += 1
                w = r.mul_coords(u, v)
                if any(x != r.domain.zero for x in w):
                    nontrivially_nonzero = True
                if not comp[(j, i)].contains(w):
                    ok, wit = False, {"left": coords_json(r, u), "right": coords_json(r, v),
                                      "cells": [[i, j], [i, j]]}
    reports.append(CheckReport("peirce_ii_swap", ok, wit,
                               {"basis_pairs": n_pairs, "nonzero_products": int(nontrivially_nonzero)}))

    # (iii): R_ij R_kl = 0 when j != k and (i,j) != (k,l)
    ok, wit, n_pairs = True, None, 0
    for i in (1, 2):
        for j in (1, 2):
            for k in (1, 2):
                for l in (1, 2):
                    if j == k or (i, j) == (k, l):
                        continue
                    for u in basis_elems((i, j)):
                        for v in basis_elems((k, l)):
                            n_pairs += 1
                            w = r.mul_coords(u, v)
                            if any(x != r.domain.zero for x in w):
                                ok, wit = False, {"left": coords_json(r, u), "right": coords_json(r, v),
                                                  "cells": [[i, j], [k, l]]}
    reports.append(CheckReport("peirce_iii_orthogonal", ok, wit, {"basis_pairs": n_pairs}))

    # (iv.a): x^2 = 0 for every x in an off-diagonal component
    ok, wit, n_elems = True, None, 0
    if r.domain.kind == "Fp":
        enum = Enumeration.of(r)
        for ij in ((1, 2), (2, 1)):
            pts = comp[ij].points(enum, budget)
            n_elems += len(pts)
            sq = enum.mul(pts, pts)
            bad = np.flatnonzero((sq != 0).any(axis=1))
            if len(bad) and ok:
                b = int(bad[0])
                ok, wit = False, {"element": coords_json(r, [int(c) for c in pts[b]]), "cell": list(ij)}
    else:
        for ij in ((1, 2), (2, 1)):
            rows = basis_elems(ij)
            for u in rows:
                n_elems += 1
                if any(x != r.domain.zero for x in r.mul_coords(u, u)):
                    ok, wit = False, {"element": coords_json(r, u), "cell": list(ij)}
            for a in range(len(rows)):
                for b in range(a + 1, len(rows)):
                    s = r.add_coords(r.mul_coords(rows[a], rows[b]), r.mul_coords(rows[b], rows[a]))
                    if any(x != r.domain.zero for x in s):
                        ok, wit = False, {"element": coords_json(r, rows[a]), "cell": list(ij)}
    reports.append(CheckReport("peirce_iv_a_squares", ok, wit, {"elements": n_elems}))

    # (iv.b): xy = -yx on off-diagonal component basis pairs
    ok, wit, n_pairs = True, None, 0
    for ij in ((1, 2), (2, 1)):
        rows = basis_elems(ij)
        for u in rows:
            for v in rows:
                n_pairs += 1
                s = r.add_coords(r.mul_coords(u, v), r.mul_coords(v, u))
                if any(x != r.domain.zero for x in s):
                    ok, wit = False, {"left": coords_json(r, u), "right": coords_json(r, v), "cell": list(ij)}
    reports.append(CheckReport("peirce_iv_b_anticommute", ok, wit, {"basis_pairs": n_pairs}))
    return reports


# -- structural hypotheses for the decomposition theorem --------------------

def check_main_hypotheses(frame: PeirceFrame, budget: int = DEFAULT_BUDGET) -> list[CheckReport]:
    """Annihilation conditions on the corners plus surjectivity of central
    multiplications; all quantifiers run over enumerated F_p points."""
    r = frame.ring
    enum = Enumeration.of(r)
    comp = frame.components
    reports = []

    def annihilated(pts, cell, left):
        """Rows x of pts with b*x = 0 (left) or x*b = 0 for every basis vector b of cell."""
        ok_mask = np.ones(len(pts), dtype=bool)
        for row in comp[cell].basis:
            b = np.broadcast_to(np.array([int(x) for x in row], dtype=np.int64), pts.shape)
            prod = enum.mul(b, pts) if left else enum.mul(pts, b)
            ok_mask &= (prod == 0).all(axis=1)
        return ok_mask

    def first_bad(pts, bad_mask):
        nz = (pts != 0).any(axis=1)
        idxs = np.flatnonzero(bad_mask & nz)
        if len(idxs) == 0:
            return None
        return coords_json(r, [int(c) for c in pts[int(idxs[0])]])

    # (1): x_ij R_ji = 0 forces x_ij = 0, for both off-diagonal cells
    ok, wit, space = True, None, 0
    for i, j in ((1, 2), (2, 1)):
        pts = comp[(i, j)].points(enum, budget)
        space += len(pts)
        w = first_bad(pts, annihilated(pts, (j, i), False))
        if w is not None and ok:
            ok, wit = False, {"element": w, "cell": [i, j]}
    reports.append(CheckReport("condition_1", ok, wit, {"elements": space}))

    # (2): x_11 R_12 = 0 or R_21 x_11 = 0 forces x_11 = 0
    pts = comp[(1, 1)].points(enum, budget)
    bad = annihilated(pts, (1, 2), False) | annihilated(pts, (2, 1), True)
    w = first_bad(pts, bad)
    reports.append(CheckReport("condition_2", w is None,
                               None if w is None else {"element": w, "cell": [1, 1]},
                               {"elements": len(pts)}))

    # (3): R_12 x_22 = 0 or x_22 R_21 = 0 forces x_22 = 0
    pts = comp[(2, 2)].points(enum, budget)
    bad = annihilated(pts, (1, 2), True) | annihilated(pts, (2, 1), False)
    w = first_bad(pts, bad)
    reports.append(CheckReport("condition_3", w is None,
                               None if w is None else {"element": w, "cell": [2, 2]},
                               {"elements": len(pts)}))

    # (4): z != 0 central implies x -> z x is onto (full rank over a field)
    zc = center(r)
    zpts = zc.points(enum, budget)
    nz = (zpts != 0).any(axis=1)
    ranks = enum.rank_batched(enum.left_mul_matrices(zpts))
    bad = nz & (ranks < r.dim)
    idxs = np.flatnonzero(bad)
    wit = None
    if len(idxs):
        zbad = zpts[int(idxs[0])]
        wit = {"central": coords_json(r, [int(c) for c in zbad]), "rank": int(ranks[int(idxs[0])])}
    reports.append(CheckReport("condition_4", len(idxs) == 0, wit,
                               {"central_elements": int(nz.sum())}))
    return reports


def check_spade_club(frame: PeirceFrame, hypotheses: list[CheckReport],
                     budget: int = DEFAULT_BUDGET) -> list[CheckReport]:
    """Diagonal sums commuting with a whole off-diagonal corner must be
    central; also reports the implication instance from conditions (1)-(3),
    read from `hypotheses`, the frame's `check_main_hypotheses` reports."""
    r = frame.ring
    enum = Enumeration.of(r)
    comp = frame.components
    zc = center(r)
    p11 = comp[(1, 1)].points(enum, budget)
    p22 = comp[(2, 2)].points(enum, budget)
    if len(p11) * len(p22) > budget:
        raise BudgetExceeded(len(p11) * len(p22), budget, "diagonal-sum scan")
    sums = (p11[:, None, :] + p22[None, :, :]).reshape(-1, r.dim) % enum.p

    reports = []
    for name, cell in (("spade", (1, 2)), ("club", (2, 1))):
        commutes = np.ones(len(sums), dtype=bool)
        for row in comp[cell].basis:
            b = np.broadcast_to(np.array([int(x) for x in row], dtype=np.int64), sums.shape)
            commutes &= (enum.commutator(sums, b) == 0).all(axis=1)
        central = zc.mask(enum, sums)
        bad = np.flatnonzero(commutes & ~central)
        wit = None
        if len(bad):
            wit = {"diagonal_sum": coords_json(r, [int(c) for c in sums[int(bad[0])]])}
        reports.append(CheckReport(name, len(bad) == 0, wit, {"diagonal_sums": len(sums)}))

    premise = all(c.ok for c in hypotheses[:3])
    conclusion = all(rep.ok for rep in reports)
    reports.append(CheckReport("conditions_imply_spade_club", (not premise) or conclusion,
                               None, {"premise_holds": int(premise)}))
    return reports


def check_z_of_peirce_cell(frame: PeirceFrame) -> list[CheckReport]:
    """Centre of each off-diagonal corner, with the literal containment in
    R_ij + Z(R) (true by construction) plus intersection diagnostics."""
    r = frame.ring
    dom = r.domain
    zc = center(r)
    reports = []
    for ij in ((1, 2), (2, 1)):
        cell = frame.components[ij]
        rows = []
        for row in cell.basis:
            L = r.left_mul_matrix(list(row))
            R = r.right_mul_matrix(list(row))
            rows.extend(_mat_sub(R, L, dom))
        kern = Subspace.from_vectors(r, linalg.nullspace(rows, dom))
        cell_centre = kern.intersect(cell)
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
        return {
            "ring": self.ring_name,
            "prime": self.prime_by_ideals,
            "prime_by_ideals": self.prime_by_ideals,
            "prime_by_elements": self.prime_by_elements,
            "criterion_equiv": self.criterion_equiv,
            "ideal_witness": self.ideal_witness,
            "element_witness": self.element_witness,
            "quantifier_space": self.quantifier_space,
            "alternative": self.alternative,
            "torsion_free_3": self.torsion_free_3,
        }


def _normalized_rep_mask(X: np.ndarray) -> np.ndarray:
    """Elements whose first nonzero coordinate is 1 (one per scalar class)."""
    nz = X != 0
    has = nz.any(axis=1)
    first = np.argmax(nz, axis=1)
    lead = X[np.arange(len(X)), first]
    return has & (lead == 1)


def _generator_classes(enum: Enumeration, budget: int) -> tuple[np.ndarray, np.ndarray]:
    """Leading-coefficient-1 representatives of the nonzero scalar classes,
    in element order, and which of them have a full-rank L_a."""
    X = enum.all_coords(budget)
    reps = X[_normalized_rep_mask(X)]
    full = enum.rank_batched(enum.left_mul_matrices(reps)) == enum.n
    return reps, full


def _principal_ideals(ring: Ring, enum: Enumeration, reps: np.ndarray,
                      screened: np.ndarray) -> list[Subspace]:
    """Distinct ideals generated by single elements.

    Scalar multiples generate the same ideal, so generators run over the
    leading-coefficient-1 representatives.  A screened generator (full-rank
    L_a) has aR = R and needs no closure.  For the others each closure step
    stacks the current (compressed echelon) spanning rows x with the
    transposed multiplication matrices L_x^T and R_x^T, whose rows are the
    products x*b_j and b_j*x with every basis vector, and row-reduces
    again; a generator is settled once its rank stops growing.  The stack
    stays in the narrow `mat_dtype` up to the eliminator.  Everything runs
    batched, in chunks cut over all generators, so ideals are found in the
    same order as without the screen.
    """
    n = ring.dim
    whole = Subspace.from_vectors(ring, [list(ring.basis_coords(i)) for i in range(n)])
    ideals: dict[tuple, Subspace] = {}

    def layer(rows):
        # rows (B, m, n) -> [rows; x*b_j; b_j*x] for every row x and basis vector b_j
        b_count, m = rows.shape[0], rows.shape[1]
        left = enum.left_mul_matrices(rows).swapaxes(-1, -2).reshape(b_count, m * n, n)
        right = enum.right_mul_matrices(rows).swapaxes(-1, -2).reshape(b_count, m * n, n)
        return np.concatenate([rows, left, right], axis=1, dtype=enum.mat_dtype)

    chunk = 8192
    for lo in range(0, len(reps), chunk):
        if screened[lo:lo + chunk].any():
            ideals.setdefault(whole.basis, whole)
        rows = reps[lo:lo + chunk][~screened[lo:lo + chunk]][:, None, :]
        ranks = np.ones(len(rows), dtype=np.int64)
        for _ in range(n + 1):
            if not len(rows):
                break
            grown, new_ranks = enum.rref_batched(layer(rows))
            full = new_ranks == n
            if full.any():
                ideals.setdefault(whole.basis, whole)
            stable = (new_ranks == ranks) & ~full
            for b in np.flatnonzero(stable):
                sub = Subspace.from_vectors(ring, [[int(x) for x in v] for v in grown[b]])
                ideals.setdefault(sub.basis, sub)
            keep = ~stable & ~full
            rows, ranks = grown[keep], new_ranks[keep]
        if len(rows):
            raise RuntimeError("ideal closure failed to stabilize")
    return list(ideals.values())


def check_primeness(r: Ring, budget: int = DEFAULT_BUDGET) -> PrimenessReport:
    """Two independent primeness decisions and their agreement.

    Route one enumerates principal ideals, keeps the minimal ones, and
    looks for a pair of nonzero ideals with zero product.  Route two scans
    elements a and asks whether (a b_k) x = 0 has a nonzero solution x,
    which is the annihilation criterion with the inner factor running
    over the basis.

    Both routes skip generators a with full-rank L_a: aR = R makes (a) the
    whole ring, and 1 in span{a b_k} forces the stacked kernel to zero.
    """
    enum = Enumeration.of(r)
    n = r.dim
    reps, screened = _generator_classes(enum, budget)

    # ideal route
    ideals = _principal_ideals(r, enum, reps, screened)
    minimal = []
    for sub in ideals:
        if not any(other.dim < sub.dim and all(sub.contains(list(v)) for v in other.basis)
                   for other in ideals):
            minimal.append(sub)
    ideal_witness = None
    prime_ideal = True
    for A in minimal:
        for B in minimal:
            if all(all(x == r.domain.zero for x in r.mul_coords(list(u), list(v)))
                   for u in A.basis for v in B.basis):
                prime_ideal = False
                ideal_witness = {
                    "ideal_a_basis": [coords_json(r, u) for u in A.basis],
                    "ideal_b_basis": [coords_json(r, v) for v in B.basis],
                    "a": coords_json(r, A.basis[0]),
                    "b": coords_json(r, B.basis[0]),
                }
                break
        if not prime_ideal:
            break

    # element route: for each nonzero a (one representative per scalar class,
    # which preserves the first witness in element order), the solutions of
    # (a b_k) x = 0 for all k form a kernel; a nonzero kernel refutes primeness.
    survivors = reps[~screened]
    prime_element = True
    element_witness = None
    chunk = 8192
    basis = np.eye(n, dtype=np.int64)
    for lo in range(0, len(survivors), chunk):
        A = survivors[lo:lo + chunk]
        AB = enum.mul_outer(A, basis)                      # (B, n, n): rows a*b_k
        S = enum.left_mul_matrices(AB).reshape(len(A), n * n, n)  # stack left-mult matrices
        ranks = enum.rank_batched(S)
        bad = np.flatnonzero(ranks < n)
        if len(bad):
            b0 = int(bad[0])
            a_coords = [int(c) for c in A[b0]]
            rows = [[int(x) for x in row] for row in S[b0]]
            null = linalg.nullspace(rows, r.domain)
            element_witness = {"a": coords_json(r, a_coords), "b": coords_json(r, null[0])}
            prime_element = False
            break

    return PrimenessReport(
        ring_name=r.name,
        prime_by_ideals=prime_ideal,
        prime_by_elements=prime_element,
        criterion_equiv=prime_ideal == prime_element,
        ideal_witness=ideal_witness,
        element_witness=element_witness,
        quantifier_space={"elements": int(enum.count), "generator_classes": int(len(reps)),
                          "ideals_found": len(ideals), "minimal_ideals": len(minimal)},
        alternative=bool(is_alternative(r)),
        torsion_free_3=is_k_torsion_free(r, 3),
    )
