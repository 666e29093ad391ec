"""The theorem pipeline, and the split of a verified map into an additive
part and a central part.

`verify_theorem` runs the proof's chain once and returns the bundle dict
of `altring verify-theorem`, stage by stage: ring axioms; entry (phi
surjective, Lie multiplicative, idempotent preserving); consequences;
almost additivity; Peirce image, which builds the frames of e1 and
phi(e1); hypotheses (1)-(4) on the source frame; (spade)/(club), which
read those reports; branch detection; and, when all of these pass,
`decompose` with its certificates.  Each artefact is computed once per
run: the enumeration, centre and alternativity are memoised on the
rings, the frames, source hypotheses and branch detection of e1 on the
map (`MapTable.cached`), so `decompose` finds them built.

Given a surjective idempotent-preserving Lie multiplicative map phi and a
nontrivial idempotent e1 of the source, the split builds Peirce frames
on both sides, tests the two corner conditions

    dagger :  f_i phi(R_jj) f_i  inside  Z(target) f_i   (i != j)
    ddagger:  f_i phi(R_ii) f_i  inside  Z(target) f_i

and constructs psi cellwise: off-diagonal corners copy phi, diagonal
corners subtract the uniquely solved central component.  tau is phi - psi.
Under "dagger" psi should be a ring isomorphism, under "ddagger" the
negative of an anti-isomorphism; verify_decomposition certifies both
claims exhaustively (or by seeded sampling past the pair budget), plus
centrality of tau and its vanishing on commutators.

Element-sized work runs over element indices, never coordinate rows.
psi(x) sums the memoized values of the Peirce components of x, looked up
by the index of each projection (`Enumeration.linear_index`), on (n, N)
planes.  The element certificates compare index arrays computed once
from `psi` and `tau`: recomposition is `add_index(psi, tau)` against the
image index, the matrix check is `linear_index(psi_matrix)`, centrality
of tau is a gather from a centre mask over all target indices.  Each
quotes the lowest failing element index as its witness.  The per-cell
product cases and the sandwich identity run `mul_index` on grids of the
Peirce cells' element indices, row-major, and quote the first failing
pair.

Small corners make the corner conditions degenerate: when both hold the
caller must pick the branch (both constructions can be simultaneously
valid, e.g. on 2x2 matrix rings, where the two answers differ).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .enumeration import DEFAULT_BUDGET, Enumeration
from .errors import (AltringError, AmbiguousCentralSplit, BranchUndetermined,
                     BudgetExceeded, CertificationFailed, HypothesisFailed,
                     NotBijective, UnsupportedDomain)
from .maps import (MapTable, check_almost_additivity, check_map_consequences,
                   check_peirce_image, pair_report, peirce_frames,
                   verify_lie_multiplicative, verify_preserves_idempotents,
                   verify_surjective)
from .reports import CheckReport, coords_json
from .rings import Element, is_alternative, is_k_torsion_free
from .structure import (PeirceFrame, Subspace, center, center_mask,
                        check_main_hypotheses, check_spade_club)

BRANCH_DAGGER = "dagger"
BRANCH_DDAGGER = "ddagger"

INFORMATIONAL_CERTIFICATES = ("tau_additive",)
CELLS = ((1, 1), (1, 2), (2, 1), (2, 2))


@dataclass
class BranchDetection:
    dagger: bool
    ddagger: bool
    reports: list[CheckReport]

    def to_json(self):
        return {"dagger": self.dagger, "ddagger": self.ddagger,
                "corners": [r.to_json() for r in self.reports]}


def detect_branch(m: MapTable, e1: Element, budget: int = DEFAULT_BUDGET) -> BranchDetection:
    """Test both corner conditions, each for both index assignments; run
    once per map, idempotent and budget.

    Both assignments (i = 1 and i = 2) must hold for a branch to count,
    and the per-corner results are reported separately.  Both branches may
    hold at once (degenerate small corners) and neither may hold.
    """
    return m.cached(("detection", e1, budget),
                    lambda: _detect_branch_frames(m, *peirce_frames(m, e1), budget))


def _source_hypotheses(m: MapTable, e1: Element, budget: int) -> list[CheckReport]:
    """`check_main_hypotheses` on the source frame of e1, run once per map,
    idempotent and budget."""
    return m.cached(("hypotheses", e1, budget),
                    lambda: check_main_hypotheses(peirce_frames(m, e1)[0], budget))


def _detect_branch_frames(m: MapTable, src_frame: PeirceFrame, tgt_frame: PeirceFrame,
                          budget: int) -> BranchDetection:
    es, et = Enumeration.of(m.source), Enumeration.of(m.target)
    imgs = m.images(budget)
    zc = center(m.target)
    f = {1: tgt_frame.e1.coords, 2: tgt_frame.e2.coords}
    zf = {i: Subspace.from_vectors(m.target, [list(m.target.mul_coords(list(z), f[i]))
                                              for z in zc.basis]) for i in (1, 2)}
    reports = []
    for tag in (BRANCH_DAGGER, BRANCH_DDAGGER):
        for i in (1, 2):
            j = 3 - i
            src_cell = (j, j) if tag == BRANCH_DAGGER else (i, i)
            pts = src_frame.components[src_cell].points(es, budget)
            corners = imgs[es.index_of(pts)] @ tgt_frame.projector_np(i, i).T % et.p
            inside = zf[i].mask(et, corners)
            ok = bool(inside.all())
            wit = None
            if not ok:
                k = int(np.flatnonzero(~inside)[0])
                wit = {"element": coords_json(m.source, [int(x) for x in pts[k]]),
                       "corner": coords_json(m.target, [int(x) for x in corners[k]])}
            reports.append(CheckReport(f"branch_{tag}_corner_{i}", ok, wit,
                                       {"elements": len(pts)}))
    return BranchDetection(all(r.ok for r in reports[:2]), all(r.ok for r in reports[2:]), reports)


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
            "tau": self.tau,
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
    src_frame, tgt_frame = peirce_frames(m, e1)
    for rep in _source_hypotheses(m, e1, budget):
        if not rep.ok:
            raise HypothesisFailed(rep.condition.rsplit("_", 1)[1], rep.witness)
    detection = detect_branch(m, e1, budget)
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

    es, et = Enumeration.of(m.source), Enumeration.of(m.target)
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
        zf_cols[i] = A = [[cols[k][row] for k in range(len(cols))] for row in range(tgt.dim)]
        if zc.dim and linalg.nullspace(A, dom):
            raise AmbiguousCentralSplit(f"central multiples of f_{i} are linearly dependent")

    # cellwise psi on the component points, memoized by global element index
    memo = {}
    for ij in CELLS:
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
            A = zf_cols[solve_corner[0]]
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
        memo[ij] = (idxs[order], np.ascontiguousarray(vals[order].T, dtype=et.elim_dtype))

    # four cell values in [0, p) stay exact in elim_dtype
    planes = np.zeros((tgt.dim, es.count), dtype=et.elim_dtype)
    for ij in CELLS:
        keys, vals = memo[ij]
        pos = np.searchsorted(keys, es.linear_index(src_frame.projector_np(*ij), budget))
        planes += vals.take(pos, axis=1)
    psi = et.reduce(planes).T
    tau = imgs.astype(et.elim_dtype)
    tau -= psi
    et.reduce(tau)

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
    es, et = Enumeration.of(m.source), Enumeration.of(m.target)
    psi, tau = res.psi, res.tau
    psi_idx, tau_idx = et.index_of(psi), et.index_of(tau)
    p = es.p
    anti = res.branch == BRANCH_DDAGGER
    certs: list[CheckReport] = []

    def src_json(k):
        return coords_json(m.source, [int(v) for v in es.coords_of(k)])

    def elem_report(name, bad, witness=None):
        """Report on an element mask: the witness is the lowest failing index."""
        bad = np.flatnonzero(bad)
        wit = None
        if len(bad):
            k = int(bad[0])
            wit = {"x": src_json(k), **(witness(k) if witness else {})}
        certs.append(CheckReport(name, wit is None, wit, {"elements": int(es.count)}))

    # recomposition: psi + tau = phi, asserted on every element
    elem_report("recomposition", et.add_index(psi_idx, tau_idx, budget) != m.image_index(budget))

    def additive_fails(f_idx):
        def fails(a_idx, b_idx):
            lhs = f_idx[es.add_index(a_idx, b_idx, budget)]
            return lhs != et.add_index(f_idx[a_idx], f_idx[b_idx], budget)
        return fails

    def pair_cert(name, fails):
        certs.append(pair_report(name, m.source, budget, seed, fails))

    pair_cert("psi_additive", additive_fails(psi_idx))
    elem_report("psi_linear_matrix", es.linear_index(res.psi_matrix, budget) != psi_idx)

    # witness: the first target element hit twice, with two preimages,
    # else the first target element never hit
    hits = np.bincount(psi_idx, minlength=et.count)
    wit = None
    if (hits > 1).any():
        k = int(np.flatnonzero(hits > 1)[0])
        a, b = (int(x) for x in np.flatnonzero(psi_idx == k)[:2])
        wit = {"image": coords_json(m.target, [int(v) for v in et.coords_of(k)]),
               "a": src_json(a), "b": src_json(b)}
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

    pair_cert("psi_anti_multiplicative" if anti else "psi_multiplicative", product_fails)

    # per-cell cases of the product rule and the sandwich identity, on
    # (|A|, |B|) grids of cell element indices: the first failing pair in
    # row-major order, i = 1 before i = 2
    cell_idx = {ij: es.index_of(res.source_frame.components[ij].points(es, budget))
                for ij in CELLS}

    def cells_report(name, space, cells_fn, fails, quote_cells):
        ok, wit, pairs = True, None, 0
        for i in (1, 2):
            ca, cb = cells_fn(i, 3 - i)
            A, B = cell_idx[ca], cell_idx[cb]
            pairs += len(A) * len(B)
            bad = np.flatnonzero(fails(A[:, None], B[None, :]))
            if len(bad) and ok:
                a, b = divmod(int(bad[0]), len(B))
                ok = False
                wit = {"a": src_json(A[a]), "b": src_json(B[b])}
                if quote_cells:
                    wit["cells"] = [list(ca), list(cb)]
        certs.append(CheckReport(name, ok, wit, {space: pairs}))

    for name, cells_fn in (("case_diag_offdiag", lambda i, j: ((i, i), (i, j))),
                           ("case_offdiag_diag", lambda i, j: ((i, j), (j, j))),
                           ("case_diag_diag", lambda i, j: ((i, i), (i, i))),
                           ("case_offdiag_same", lambda i, j: ((i, j), (i, j))),
                           ("case_offdiag_opposite", lambda i, j: ((i, j), (j, i)))):
        cells_report(name, "pairs", cells_fn, product_fails, True)

    def sandwich_fails(a_idx, b_idx):
        # psi((ab)a) = (psi(a) psi(b)) psi(a)
        lhs = psi_idx[es.mul_index(es.mul_index(a_idx, b_idx, budget), a_idx, budget)]
        pa = psi_idx[a_idx]
        return lhs != et.mul_index(et.mul_index(pa, psi_idx[b_idx], budget), pa, budget)

    cells_report("sandwich_identity", "triples", lambda i, j: ((i, j), (j, i)),
                 sandwich_fails, False)

    central = center_mask(m.target, budget)
    elem_report("tau_central", ~central[tau_idx],
                lambda k: {"tau": coords_json(m.target, [int(v) for v in tau[k]])})

    pair_cert("tau_kills_commutators",
              lambda a_idx, b_idx: tau_idx[es.commutator_index(a_idx, b_idx, budget)] != 0)
    pair_cert("tau_additive", additive_fails(tau_idx))
    return certs


# -- the theorem pipeline ------------------------------------------------------

def verify_theorem(m: MapTable, e1: Element, branch: str | None, budget: int,
                   seed: int) -> dict:
    """Every certificate of the theorem for (m, e1), stage by stage, as the
    bundle dict (see the module docstring for the order).

    A structural error after the ring axioms (for example phi(e1) not
    spanning a Peirce frame, or no branch to pick) ends the run with an
    "error" entry; budget and domain errors propagate.
    """
    src = m.source
    bundle = {"config": {"budget": budget, "seed": seed,
                         "source": src.name, "target": m.target.name,
                         "idempotent": [src.domain.fmt(c) for c in e1.coords],
                         "branch_request": branch},
              "stages": []}
    reports: list[CheckReport] = []

    def stage(name, reps):
        reports.extend(reps)
        bundle["stages"].append({"stage": name, "reports": [r.to_json() for r in reps]})

    stage("ring_axioms", [
        CheckReport("source_alternative", is_alternative(src).ok, None, {}),
        CheckReport("target_alternative", is_alternative(m.target).ok, None, {}),
        CheckReport("source_torsion_free_2", is_k_torsion_free(src, 2), None, {}),
        CheckReport("source_torsion_free_3", is_k_torsion_free(src, 3), None, {}),
    ])
    try:
        stage("entry", [verify_surjective(m, budget),
                        verify_lie_multiplicative(m, budget, seed),
                        verify_preserves_idempotents(m, budget, seed)])
        stage("consequences", check_map_consequences(m, budget))
        stage("almost_additive", [check_almost_additivity(m, budget, seed)])
        image_reports, src_frame, _ = check_peirce_image(m, e1, budget)
        stage("peirce_image", image_reports)
        hypotheses = _source_hypotheses(m, e1, budget)
        stage("hypotheses", hypotheses)
        stage("spade_club", check_spade_club(src_frame, hypotheses, budget))
        bundle["branch_detection"] = detect_branch(m, e1, budget).to_json()
        if all(r.ok for r in reports):
            result = decompose(m, e1, branch, budget, seed, certify=False)
            stage("decomposition", result.certificates)
            bundle["decomposition"] = result.to_json()
        else:
            bundle["error"] = "entry or hypothesis certificates failed; decomposition skipped"
    except (BudgetExceeded, UnsupportedDomain):
        raise
    except AltringError as exc:
        bundle["error"] = f"{type(exc).__name__}: {exc}"
    bundle["all_certificates_pass"] = "error" not in bundle and all(
        r.ok for r in reports if r.condition not in INFORMATIONAL_CERTIFICATES)
    return bundle
