"""Splitting a verified map into an additive part and a central part.

Given a surjective idempotent-preserving Lie multiplicative map phi and a
nontrivial idempotent e1 of the source, the pipeline builds Peirce frames
on both sides, tests the two corner conditions

    dagger :  f_i phi(R_jj) f_i  inside  Z(target) f_i   (i != j)
    ddagger:  f_i phi(R_ii) f_i  inside  Z(target) f_i

and constructs psi cellwise: off-diagonal corners copy phi, diagonal
corners subtract the uniquely solved central component.  tau is phi - psi.
Under "dagger" psi should be a ring isomorphism, under "ddagger" the
negative of an anti-isomorphism; verify_decomposition certifies both
claims exhaustively (or by seeded sampling past the pair budget), plus
centrality of tau and its vanishing on commutators.

Small corners make the corner conditions degenerate: when both hold the
caller must pick the branch (both constructions can be simultaneously
valid, e.g. on 2x2 matrix rings, where the two answers differ).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .enumeration import DEFAULT_BUDGET, Enumeration
from .errors import (AmbiguousCentralSplit, BranchUndetermined,
                     CertificationFailed, HypothesisFailed, NotBijective,
                     NotIdempotentImage)
from .maps import MapTable, pair_scan
from .reports import CheckReport, coords_json
from .rings import Element
from .structure import PeirceFrame, Subspace, center, check_main_hypotheses, peirce_frame

BRANCH_DAGGER = "dagger"
BRANCH_DDAGGER = "ddagger"

INFORMATIONAL_CERTIFICATES = ("tau_additive",)


def _frames(m: MapTable, e1: Element):
    src_frame = peirce_frame(m.source, e1)
    f1 = m(e1)
    try:
        tgt_frame = peirce_frame(m.target, f1)
    except Exception as exc:
        raise NotIdempotentImage(
            f"image of the idempotent is not a nontrivial idempotent: {exc}") from exc
    return src_frame, tgt_frame


@dataclass
class BranchDetection:
    dagger: bool
    ddagger: bool
    reports: list[CheckReport]

    def to_json(self):
        return {"dagger": self.dagger, "ddagger": self.ddagger,
                "corners": [r.to_json() for r in self.reports]}


def detect_branch(m: MapTable, e1: Element, budget: int = DEFAULT_BUDGET) -> BranchDetection:
    """Test both corner conditions, each for both index assignments.

    Both assignments (i = 1 and i = 2) must hold for a branch to count,
    and the per-corner results are reported separately.  Both branches may
    hold at once (degenerate small corners) and neither may hold.
    """
    src_frame, tgt_frame = _frames(m, e1)
    return _detect_branch_frames(m, src_frame, tgt_frame, budget)


def _detect_branch_frames(m: MapTable, src_frame: PeirceFrame, tgt_frame: PeirceFrame,
                          budget: int) -> BranchDetection:
    es, et = Enumeration(m.source), Enumeration(m.target)
    imgs = m.images(budget)
    zc = center(m.target)
    f = {1: tgt_frame.e1.coords, 2: tgt_frame.e2.coords}
    reports = []
    flags = {}
    for tag in (BRANCH_DAGGER, BRANCH_DDAGGER):
        tag_ok = True
        for i in (1, 2):
            j = 3 - i
            src_cell = (j, j) if tag == BRANCH_DAGGER else (i, i)
            zf = Subspace.from_vectors(
                m.target, [list(m.target.mul_coords(list(z), f[i])) for z in zc.basis])
            pts = src_frame.components[src_cell].points(es, budget)
            corners = imgs[es.index_of(pts)] @ tgt_frame.projector_np(i, i).T % et.p
            inside = zf.mask(et, corners)
            ok = bool(inside.all())
            wit = None
            if not ok:
                k = int(np.flatnonzero(~inside)[0])
                wit = {"element": coords_json(m.source, [int(x) for x in pts[k]]),
                       "corner": coords_json(m.target, [int(x) for x in corners[k]])}
            reports.append(CheckReport(f"branch_{tag}_corner_{i}", ok, wit,
                                       {"elements": len(pts)}))
            tag_ok &= ok
        flags[tag] = tag_ok
    return BranchDetection(flags[BRANCH_DAGGER], flags[BRANCH_DDAGGER], reports)


@dataclass
class DecompositionResult:
    map: MapTable
    e1: Element
    source_frame: PeirceFrame
    target_frame: PeirceFrame
    branch: str
    psi: np.ndarray                 # (N, target dim) additive part images
    tau: np.ndarray                 # (N, target dim) central part images
    psi_matrix: list | None
    detection: BranchDetection
    budget: int
    seed: int
    certificates: list[CheckReport] = field(default_factory=list)

    def required_pass(self) -> bool:
        return all(c.ok for c in self.certificates
                   if c.condition not in INFORMATIONAL_CERTIFICATES)

    def to_json(self) -> dict:
        tgt = self.map.target
        return {
            "source": self.map.source.name,
            "target": tgt.name,
            "idempotent": coords_json(self.map.source, self.e1.coords),
            "branch": self.branch,
            "psi_matrix": None if self.psi_matrix is None else
                [[tgt.domain.fmt(x) for x in row] for row in self.psi_matrix],
            "tau": self.tau.tolist(),
            "detection": self.detection.to_json(),
            "certificates": [c.to_json() for c in self.certificates],
            "all_required_pass": self.required_pass(),
            "budget": self.budget,
            "seed": self.seed,
        }


def decompose(m: MapTable, e1: Element, branch: str | None = None,
              budget: int = DEFAULT_BUDGET, seed: int = 0,
              certify: bool = True) -> DecompositionResult:
    """Build psi and tau for a map assumed to pass the entry verifiers.

    Raises HypothesisFailed when a structural condition (1)-(4) fails on
    the source frame, BranchUndetermined when the corner tests do not
    single out a branch and the caller chose none, AmbiguousCentralSplit
    when the central component of a diagonal image is not uniquely
    solvable, and (with certify=True) CertificationFailed on the first
    broken certificate.
    """
    if not m.is_bijective(budget):
        raise NotBijective("decomposition needs a bijective dense table")
    src_frame, tgt_frame = _frames(m, e1)

    for rep in check_main_hypotheses(src_frame, budget):
        if not rep.ok:
            raise HypothesisFailed(rep.condition.rsplit("_", 1)[1], rep.witness)

    detection = _detect_branch_frames(m, src_frame, tgt_frame, budget)
    if branch is None:
        if detection.dagger and not detection.ddagger:
            branch = BRANCH_DAGGER
        elif detection.ddagger and not detection.dagger:
            branch = BRANCH_DDAGGER
        else:
            raise BranchUndetermined(detection.dagger, detection.ddagger)
    if branch not in (BRANCH_DAGGER, BRANCH_DDAGGER):
        raise ValueError(f"branch must be 'dagger' or 'ddagger', got {branch!r}")
    if not getattr(detection, branch):
        raise BranchUndetermined(detection.dagger, detection.ddagger)

    es, et = Enumeration(m.source), Enumeration(m.target)
    tgt = m.target
    dom = tgt.domain
    imgs = m.images(budget)
    zc = center(tgt)

    # unique-split preflight: each diagonal target corner must meet the
    # centre trivially, which is exactly injectivity of z -> z*f_i
    for i in (1, 2):
        inter = tgt_frame.components[(i, i)].intersect(zc)
        if inter.dim != 0:
            raise AmbiguousCentralSplit(
                f"target corner ({i},{i}) meets the centre in dimension {inter.dim}")

    f = {1: tgt_frame.e1.coords, 2: tgt_frame.e2.coords}
    zf_cols = {}
    for i in (1, 2):
        cols = [list(tgt.mul_coords(list(z), f[i])) for z in zc.basis]
        A = [[cols[k][row] for k in range(len(cols))] for row in range(tgt.dim)]
        if zc.dim and linalg.nullspace(A, dom):
            raise AmbiguousCentralSplit(f"central multiples of f_{i} are linearly dependent")
        zf_cols[i] = (A, cols)

    # cellwise psi on the component points, memoized by global element index
    memo = {}
    for ij in ((1, 1), (1, 2), (2, 1), (2, 2)):
        pts = src_frame.components[ij].points(es, budget)
        idxs = es.index_of(pts)
        img = imgs[idxs]
        if ij[0] != ij[1]:
            vals = img
        else:
            i = ij[0]
            j = 3 - i
            solve_corner, keep_corner, fsub = ((j, j), (i, i), i) if branch == BRANCH_DAGGER \
                else ((i, i), (j, j), j)
            corners = img @ tgt_frame.projector_np(*solve_corner).T % et.p
            kept = img @ tgt_frame.projector_np(*keep_corner).T % et.p
            A, _ = zf_cols[solve_corner[0]]
            vals = np.empty_like(kept)
            for row in range(len(pts)):
                rhs = [dom.parse(int(x)) for x in corners[row]]
                alpha, null = linalg.solve(A, rhs, dom)
                if alpha is None or null:
                    raise AmbiguousCentralSplit(
                        "no unique central solution for a diagonal image "
                        f"(element {coords_json(m.source, [int(x) for x in pts[row]])})")
                zcoords = [dom.zero] * tgt.dim
                for a, zrow in zip(alpha, zc.basis):
                    zcoords = [dom.add(x, dom.mul(a, y)) for x, y in zip(zcoords, zrow)]
                zf = tgt.mul_coords(zcoords, f[fsub])
                vals[row] = (kept[row] - np.array([int(x) for x in zf], dtype=np.int64)) % et.p
        order = np.argsort(idxs)
        memo[ij] = (idxs[order], vals[order])

    X = es.all_coords(budget)
    psi = np.zeros((es.count, tgt.dim), dtype=np.int64)
    for ij in ((1, 1), (1, 2), (2, 1), (2, 2)):
        proj = X @ src_frame.projector_np(*ij).T % es.p
        keys, vals = memo[ij]
        pos = np.searchsorted(keys, es.index_of(proj))
        psi += vals[pos]
    psi %= et.p
    tau = (imgs - psi) % et.p

    basis_idx = es.index_of(np.eye(m.source.dim, dtype=np.int64))
    psi_matrix = [[dom.parse(int(psi[int(bi)][row])) for bi in basis_idx]
                  for row in range(tgt.dim)]

    res = DecompositionResult(m, e1, src_frame, tgt_frame, branch, psi, tau,
                              psi_matrix, detection, budget, seed)
    res.certificates = verify_decomposition(res, budget, seed)
    if certify:
        for cert in res.certificates:
            if not cert.ok and cert.condition not in INFORMATIONAL_CERTIFICATES:
                raise CertificationFailed(cert.condition, cert.witness)
    return res


# -- certificates --------------------------------------------------------------

def verify_decomposition(res: DecompositionResult, budget: int = DEFAULT_BUDGET,
                         seed: int = 0) -> list[CheckReport]:
    """Certificate battery for a decomposition.

    Element-quantified checks are always exhaustive; pair-quantified ones
    are exhaustive within the budget and seeded-sampled past it.  The
    product rule is certified globally and again per Peirce-cell case,
    with the sandwich identity psi((ab)a) = (psi(a)psi(b))psi(a) for
    opposite off-diagonal pairs checked separately.
    """
    m = res.map
    es, et = Enumeration(m.source), Enumeration(m.target)
    X = es.all_coords(budget)
    imgs = m.images(budget)
    psi, tau = res.psi, res.tau
    p = es.p
    anti = res.branch == BRANCH_DDAGGER
    certs: list[CheckReport] = []

    def elem_witness(k):
        return {"x": coords_json(m.source, [int(v) for v in X[k]])}

    # recomposition: psi + tau = phi, asserted on every element
    bad = np.flatnonzero(((psi + tau) % p != imgs).any(axis=1))
    certs.append(CheckReport("recomposition", len(bad) == 0,
                             elem_witness(int(bad[0])) if len(bad) else None,
                             {"elements": int(es.count)}))

    def pair_report(name, fails, extra=None):
        ok, pair, mode, cov, checked = pair_scan(es.count, budget, seed, fails)
        wit = None
        if pair is not None:
            wit = {"a": coords_json(m.source, [int(v) for v in X[pair[0]]]),
                   "b": coords_json(m.source, [int(v) for v in X[pair[1]]])}
            if extra:
                wit.update(extra)
        certs.append(CheckReport(name, ok, wit,
                                 {"pairs": es.count ** 2, "checked": int(checked)},
                                 mode, seed if mode == "sampled" else None, cov))

    psi_idx = et.index_of(psi)
    tau_idx = et.index_of(tau)

    def additive_fails(f_idx):
        def fails(a_idx, b_idx):
            lhs = f_idx[es.add_index(a_idx, b_idx, budget)]
            return lhs != et.add_index(f_idx[a_idx], f_idx[b_idx], budget)
        return fails

    pair_report("psi_additive", additive_fails(psi_idx))

    Mnp = np.array([[int(x) for x in row] for row in res.psi_matrix], dtype=np.int64)
    bad = np.flatnonzero((X @ Mnp.T % p != psi).any(axis=1))
    certs.append(CheckReport("psi_linear_matrix", len(bad) == 0,
                             elem_witness(int(bad[0])) if len(bad) else None,
                             {"elements": int(es.count)}))

    # witness: the first target element hit twice, with two preimages,
    # else the first target element never hit
    hits = np.bincount(psi_idx, minlength=et.count)
    wit = None
    if (hits > 1).any():
        k = int(np.flatnonzero(hits > 1)[0])
        a, b = (int(x) for x in np.flatnonzero(psi_idx == k)[:2])
        wit = {"image": coords_json(m.target, [int(v) for v in et.coords_of(k)]),
               "a": coords_json(m.source, [int(v) for v in X[a]]),
               "b": coords_json(m.source, [int(v) for v in X[b]])}
    elif (hits == 0).any():
        k = int(np.flatnonzero(hits == 0)[0])
        wit = {"unreached": coords_json(m.target, [int(v) for v in et.coords_of(k)])}
    certs.append(CheckReport("psi_bijective", wit is None, wit, {"elements": int(es.count)}))

    # anti: psi(ab) = -psi(b)psi(a), the sign applied through the index table of x -> -x
    neg = et.smul_index(p - 1, budget) if anti else None

    def product_fails(a_idx, b_idx):
        lhs = psi_idx[es.mul_index(a_idx, b_idx, budget)]
        if anti:
            return lhs != neg[et.mul_index(psi_idx[b_idx], psi_idx[a_idx], budget)]
        return lhs != et.mul_index(psi_idx[a_idx], psi_idx[b_idx], budget)

    pair_report("psi_anti_multiplicative" if anti else "psi_multiplicative", product_fails)

    # per-cell cases of the product rule
    comp_pts = {ij: res.source_frame.components[ij].points(es, budget)
                for ij in ((1, 1), (1, 2), (2, 1), (2, 2))}

    def case_report(name, cells_fn):
        ok, wit, pairs = True, None, 0
        for i in (1, 2):
            j = 3 - i
            ca, cb = cells_fn(i, j)
            A, B = comp_pts[ca], comp_pts[cb]
            aa = np.repeat(np.arange(len(A)), len(B))
            bb = np.tile(np.arange(len(B)), len(A))
            pairs += len(aa)
            prod = es.mul(A[aa], B[bb])
            lhs = psi[es.index_of(prod)]
            pa = psi[es.index_of(A[aa])]
            pb = psi[es.index_of(B[bb])]
            rhs = (-et.mul(pb, pa)) % p if anti else et.mul(pa, pb)
            bad = np.flatnonzero((lhs != rhs).any(axis=1))
            if len(bad) and ok:
                k = int(bad[0])
                ok = False
                wit = {"a": coords_json(m.source, [int(v) for v in A[aa[k]]]),
                       "b": coords_json(m.source, [int(v) for v in B[bb[k]]]),
                       "cells": [list(ca), list(cb)]}
        certs.append(CheckReport(name, ok, wit, {"pairs": pairs}))

    case_report("case_diag_offdiag", lambda i, j: ((i, i), (i, j)))
    case_report("case_offdiag_diag", lambda i, j: ((i, j), (j, j)))
    case_report("case_diag_diag", lambda i, j: ((i, i), (i, i)))
    case_report("case_offdiag_same", lambda i, j: ((i, j), (i, j)))
    case_report("case_offdiag_opposite", lambda i, j: ((i, j), (j, i)))

    # sandwich identity psi((ab)a) = (psi(a) psi(b)) psi(a), opposite cells
    ok, wit, triples = True, None, 0
    for i in (1, 2):
        j = 3 - i
        A, B = comp_pts[(i, j)], comp_pts[(j, i)]
        aa = np.repeat(np.arange(len(A)), len(B))
        bb = np.tile(np.arange(len(B)), len(A))
        triples += len(aa)
        aba = es.mul(es.mul(A[aa], B[bb]), A[aa])
        lhs = psi[es.index_of(aba)]
        pa = psi[es.index_of(A[aa])]
        pb = psi[es.index_of(B[bb])]
        rhs = et.mul(et.mul(pa, pb), pa)
        bad = np.flatnonzero((lhs != rhs).any(axis=1))
        if len(bad) and ok:
            k = int(bad[0])
            ok = False
            wit = {"a": coords_json(m.source, [int(v) for v in A[aa[k]]]),
                   "b": coords_json(m.source, [int(v) for v in B[bb[k]]])}
    certs.append(CheckReport("sandwich_identity", ok, wit, {"triples": triples}))

    zc = center(m.target)
    central = zc.mask(et, tau)
    bad = np.flatnonzero(~central)
    wit = None
    if len(bad):
        k = int(bad[0])
        wit = {"x": coords_json(m.source, [int(v) for v in X[k]]),
               "tau": coords_json(m.target, [int(v) for v in tau[k]])}
    certs.append(CheckReport("tau_central", len(bad) == 0, wit,
                             {"elements": int(es.count)}))

    tau_zero = (tau == 0).all(axis=1)

    def tau_comm_fails(a_idx, b_idx):
        return ~tau_zero[es.commutator_index(a_idx, b_idx, budget)]

    pair_report("tau_kills_commutators", tau_comm_fails)
    pair_report("tau_additive", additive_fails(tau_idx))
    return certs
