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
rings, the frames, their hypothesis reports and branch detection of e1
on the map (`MapTable.cached`), so `decompose` finds them built.  Like
the map verifiers, the pipeline runs at the budget the map was built
under (`m.es.budget`) and takes none of its own.

Given a surjective idempotent-preserving Lie multiplicative map phi and a
nontrivial idempotent e1 of the source, the split builds Peirce frames
on both sides, tests the two corner conditions

    dagger :  f_i phi(R_jj) f_i  inside  Z(target) f_i   (i != j)
    ddagger:  f_i phi(R_ii) f_i  inside  Z(target) f_i

and constructs psi cellwise: off-diagonal corners copy phi, diagonal
corners keep one corner of phi(x) and subtract its unique central
component z*f.  tau is phi - psi.
Both are maps, held as `MapTable`s.  Under
"dagger" psi should be a ring isomorphism, under "ddagger" the negative
of an anti-isomorphism; verify_decomposition certifies both claims,
plus centrality of tau, its additivity and its vanishing on commutators.
Every certificate is required, tau's additivity included: the theorem
concludes that tau is an additive map into the centre that kills
commutators.
psi's and tau's additivity are decided exactly against their linear
extensions, and a linear psi's product rule on the basis grid, at any
budget.  An additive tau's vanishing on commutators is decided on the
basis grid as well, but only while the pairs fit the budget.  The rest,
a non-linear psi's product rule and tau's vanishing on commutators
otherwise, scan pairs, exhaustively within the pair budget and sampled
past it; an additive tau's scan evaluates T [a, b] through the
commutator constants composed with tau's matrix T.

Element-sized work combines element indices and masks, never coordinate
rows or the digit table, which only `enumeration.py` reads; subspace
membership is a gather from `Subspace.mask`.  psi is one linear recipe
per Peirce cell c, psi(x) = sum_c Q_c phi(P_c x), with P_c the source
projection onto c and Q_c = I off the diagonal.  On a diagonal cell
Q = P_keep - B A+ P_solve (`diagonal_recipes`) keeps one corner of
phi(x) and subtracts z*f_keep, where z*f_solve is the other corner.
This is exact: detection proved every such corner lies in Z*f_solve,
`decompose` refuses a branch detection did not pass, and the preflight
gives A full column rank, so each corner's central multiple is unique
and equals A+ times it.  The recipe takes one of two routes:
- matrix route, when phi is linear (`phi_linear`, which the entry
  battery has computed): with Phi phi's matrix (kept on the map, else
  its basis images), psi_matrix is Psi = sum_c Q_c Phi P_c in exact
  `linalg` arithmetic, and psi and tau are the maps of Psi and Phi - Psi
  (`MapTable.from_matrix`), which keep them and build no index:
  `verify_decomposition` reads them from the matrices and at points;
- cell route, for any other table (`psi_cell_route`): phi's index
  gathered at `linear_index(P_c)`, then `linear_index(Q_c)` gathered at
  that, and psi's index is the running `sum_index` of the four cell
  images; psi_matrix is read from psi's basis images, and tau's index is
  phi's minus psi's (`sum_index`).
The bundle's tau table is `tau.images()`: on the matrix route T on the
digit planes, on the cell route a gather of tau's index.  The element
certificates compare matrices where the maps keep them (see
`verify_decomposition`), else indices: recomposition is
`sum_index([psi, tau])` against phi's, the matrix check compares psi's
index with psi_matrix's, centrality of tau is a gather from the centre's
mask, at tau's basis images when tau keeps a matrix.  The
per-cell product cases and the sandwich identity are implied by a linear
psi's exact product rule when it passes (see `verify_decomposition`);
otherwise they run `mul_index` on grids of the Peirce cells' element
indices, row-major.  Every scan ends in a failure mask and reports
through `reports.first_failure`, as does each corner test of branch
detection, which applies the target's corner projector to the
coordinates of the images of the cell points only.

Small corners make the corner conditions degenerate: when both hold the
caller must pick the branch (both constructions can be simultaneously
valid, e.g. on 2x2 matrix rings, where the two answers differ).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np

from . import linalg
from .errors import (AltringError, AmbiguousCentralSplit, BranchUndetermined,
                     BudgetExceeded, HypothesisFailed, NotBijective,
                     UnsupportedDomain)
from .maps import (MapTable, basis_index, basis_matrix, check_almost_additivity,
                   check_map_consequences, check_peirce_image, first_additive_failure,
                   first_bilinear_failure, frame_hypotheses, linear_extension, pair_report,
                   pair_result, peirce_frames, phi_linear, verify_lie_multiplicative,
                   verify_preserves_idempotents, verify_surjective)
from .reports import CheckReport, coords_json, first_failure
from .rings import Element, is_alternative, is_k_torsion_free
from .structure import PeirceFrame, Subspace, center, check_spade_club

BRANCH_DAGGER = "dagger"
BRANCH_DDAGGER = "ddagger"

CELLS = ((1, 1), (1, 2), (2, 1), (2, 2))


@dataclass
class BranchDetection:
    dagger: bool
    ddagger: bool
    reports: list[CheckReport]

    def to_json(self):
        return {"dagger": self.dagger, "ddagger": self.ddagger,
                "corners": [r.to_json() for r in self.reports]}


def detect_branch(m: MapTable, e1: Element) -> BranchDetection:
    """Test both corner conditions, each for both index assignments; run
    once per map and idempotent.

    Both assignments (i = 1 and i = 2) must hold for a branch to count,
    and the per-corner results are reported separately.  Both branches may
    hold at once (degenerate small corners) and neither may hold.
    """
    return m.cached(("detection", e1), lambda: _detect_branch_frames(m, *peirce_frames(m, e1)))


def _central_multiples(frame: PeirceFrame, i: int) -> list[list]:
    """z*f_i for each z of the centre's basis: Z*f_i is their span."""
    r, f = frame.ring, (frame.e1 if i == 1 else frame.e2).coords
    return [list(r.mul_coords(list(z), f)) for z in center(r).basis]


def _detect_branch_frames(m: MapTable, src_frame: PeirceFrame,
                          tgt_frame: PeirceFrame) -> BranchDetection:
    es, et = m.es, m.et
    f_idx = m.image_index()
    # per i: the projector y -> f_i y f_i, applied only at the images of the
    # cell points, and the Z*f_i mask
    corner = {i: np.array(tgt_frame.projectors[(i, i)], dtype=np.int64) for i in (1, 2)}
    inside_zf = {i: Subspace.from_vectors(m.target, _central_multiples(tgt_frame, i)).mask(et)
                 for i in (1, 2)}
    reports = []
    for tag in (BRANCH_DAGGER, BRANCH_DDAGGER):
        for i in (1, 2):
            j = 3 - i
            src_cell = (j, j) if tag == BRANCH_DAGGER else (i, i)
            pts = src_frame.components[src_cell].points(es)
            corners = et.index_of(et.coords_of(f_idx[es.index_of(pts)]) @ corner[i].T)
            reports.append(first_failure(
                f"branch_{tag}_corner_{i}", ~inside_zf[i][corners],
                lambda k: {"element": coords_json(m.source, pts[k]),
                           "corner": coords_json(m.target, et.coords_of(corners[k]))},
                {"elements": len(pts)}))
    return BranchDetection(all(r.ok for r in reports[:2]), all(r.ok for r in reports[2:]), reports)


@dataclass
class DecompositionResult:
    map: MapTable
    e1: Element
    source_frame: PeirceFrame
    target_frame: PeirceFrame
    branch: str
    psi: MapTable                   # additive part
    tau: MapTable                   # central part, phi - psi
    psi_matrix: list | None
    detection: BranchDetection
    seed: int
    certificates: list[CheckReport] = field(default_factory=list)

    def required_pass(self) -> bool:
        return all(c.ok for c in self.certificates)

    def to_json(self) -> dict:
        tgt = self.map.target
        return {
            "source": self.map.source.name,
            "target": tgt.name,
            "idempotent": coords_json(self.map.source, self.e1.coords),
            "branch": self.branch,
            "psi_matrix": None if self.psi_matrix is None else
                [coords_json(tgt, row) for row in self.psi_matrix],
            "tau": self.tau.images(),
            "detection": self.detection.to_json(),
            "certificates": [c.to_json() for c in self.certificates],
            "all_required_pass": self.required_pass(),
            "budget": self.map.es.budget,
            "seed": self.seed,
        }


def decompose(m: MapTable, e1: Element, branch: str | None = None,
              seed: int = 0) -> DecompositionResult:
    """Build psi and tau for a map assumed to pass the entry verifiers, and
    certify them at the map's budget; `required_pass()` of the result says
    whether they hold.

    Raises HypothesisFailed when a structural condition (1)-(4) fails on
    the source frame, BranchUndetermined when the corner tests do not
    single out a branch and the caller chose none, and
    AmbiguousCentralSplit when a diagonal target corner meets the centre,
    which would leave the central component of a diagonal image
    ambiguous.
    """
    if not m.is_bijective():
        raise NotBijective("decomposition needs a bijective dense table")
    src_frame, tgt_frame = peirce_frames(m, e1)
    for rep in frame_hypotheses(m, src_frame):
        if not rep.ok:
            raise HypothesisFailed(rep.condition.rsplit("_", 1)[1], rep.witness)
    detection = detect_branch(m, e1)
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

    es, et = m.es, m.et
    tgt = m.target
    zc = center(tgt)

    # unique-split preflight: each diagonal target corner meets the centre
    # trivially.  Then z -> z*f_j is injective on the centre, so the central
    # solve of `diagonal_recipes` is unique: a central z != 0 with z*f_j = 0
    # has z = z*f_i = f_i z (i != j), so f_i (z f_i) = z puts z in corner
    # (i, i) and in the centre, where this loop has raised.
    for i in (1, 2):
        inter = tgt_frame.components[(i, i)].intersect(zc)
        if inter.dim != 0:
            raise AmbiguousCentralSplit(
                f"target corner ({i},{i}) meets the centre in dimension {inter.dim}")
    # psi = sum_c Q_c phi(P_c x): on a linear phi one matrix, and psi and
    # tau = phi - psi are the maps of Psi and Phi - Psi; else cell by cell
    recipes = diagonal_recipes(tgt_frame, branch)
    if phi_linear(m):
        Phi = m.matrix() or basis_matrix(es, et, m.image_index())
        psi_matrix = psi_matrix_route(Phi, src_frame, recipes, tgt.domain)
        psi = MapTable.from_matrix(m.source, tgt, es, et, psi_matrix)
        tau = MapTable.from_matrix(m.source, tgt, es, et, [
            [tgt.domain.sub(f, s) for f, s in zip(frow, srow)]
            for frow, srow in zip(Phi, psi_matrix)])
    else:
        psi_idx = psi_cell_route(m, src_frame, recipes)
        psi_matrix = basis_matrix(es, et, psi_idx)
        psi = MapTable(m.source, tgt, es, et, psi_idx)
        tau = MapTable(m.source, tgt, es, et, et.sum_index([m.image_index()], [psi_idx]))

    res = DecompositionResult(m, e1, src_frame, tgt_frame, branch, psi, tau,
                              psi_matrix, detection, seed)
    res.certificates = verify_decomposition(res)
    return res


def diagonal_recipes(tgt_frame: PeirceFrame, branch: str) -> dict:
    """Q_c for each diagonal source cell c = (i, i): the target matrix
    Q = P_keep - B A+ P_solve, which takes phi(x) to psi(x) on that cell
    (see the module docstring).  Q_c = I off the diagonal.

    (solve, keep) is (j, i) under dagger and (i, j) under ddagger; A and
    B hold the columns z_k*f_solve and z_k*f_keep.  A+ is the left
    inverse of A read from its pivot rows S, A_S^-1 applied to rows S:
    for a corner c = A alpha it returns alpha, and B alpha = z*f_keep.
    """
    dom = tgt_frame.ring.domain
    zf_cols = {i: [list(col) for col in zip(*_central_multiples(tgt_frame, i))] for i in (1, 2)}
    recipes = {}
    for i in (1, 2):
        solve, keep = (3 - i, i) if branch == BRANCH_DAGGER else (i, 3 - i)
        A, B = zf_cols[solve], zf_cols[keep]
        P_keep = tgt_frame.projectors[(keep, keep)]
        rows = linalg.rref([list(col) for col in zip(*A)], dom)[1]
        A_inv = linalg.inverse([A[r] for r in rows], dom)
        P_solve = tgt_frame.projectors[(solve, solve)]
        BAP = linalg.mat_mul(linalg.mat_mul(B, A_inv, dom), [P_solve[r] for r in rows], dom)
        recipes[(i, i)] = [[dom.sub(q, c) for q, c in zip(qr, cr)]
                           for qr, cr in zip(P_keep, BAP)]
    return recipes


def psi_cell_route(m: MapTable, src_frame: PeirceFrame, recipes: dict) -> np.ndarray:
    """psi's image index for any phi, sum_c Q_c phi(P_c x) over the element
    table: per cell, phi's index gathered at `linear_index(P_c)`, then on
    a diagonal cell `linear_index(Q_c)` gathered at that, and the running
    `sum_index` of the four cell images."""
    es, et, f_idx = m.es, m.et, m.image_index()
    psi_idx = None
    for ij in CELLS:
        comp = f_idx[es.linear_index(src_frame.projectors[ij])]
        if ij in recipes:
            comp = et.linear_index(recipes[ij])[comp]
        psi_idx = comp if psi_idx is None else et.sum_index([psi_idx, comp])
    return psi_idx


def psi_matrix_route(Phi: list, src_frame: PeirceFrame, recipes: dict, dom) -> list:
    """psi's matrix Psi = sum_c Q_c Phi P_c for a linear phi with matrix
    Phi, in exact `linalg` arithmetic over `dom`: the cell route's recipe
    with every map a matrix."""
    terms = [linalg.mat_mul(linalg.mat_mul(recipes[ij], Phi, dom) if ij in recipes else Phi,
                            src_frame.projectors[ij], dom) for ij in CELLS]
    return [[functools.reduce(dom.add, entries) for entries in zip(*rows)]
            for rows in zip(*terms)]


# -- certificates --------------------------------------------------------------

def product_rule(es, et, psi: MapTable, anti: bool):
    """fails(a_idx, b_idx) of psi's product rule over index arrays:
    psi(ab) != psi(a)psi(b), or, anti, psi(ab) != -psi(b)psi(a), the sign
    applied through the index table of x -> -x; psi is read at the points
    only (`MapTable.at`)."""
    neg = et.smul_index(et.p - 1) if anti else None

    def fails(a_idx, b_idx):
        lhs = psi.at(es.mul_index(a_idx, b_idx))
        pa, pb = psi.at(a_idx), psi.at(b_idx)
        if anti:
            return lhs != neg[et.mul_index(pb, pa)]
        return lhs != et.mul_index(pa, pb)
    return fails


def verify_decomposition(res: DecompositionResult) -> list[CheckReport]:
    """Certificate battery for a decomposition, at its map's budget and its
    seed.  Every report is required: `required_pass()` holds only when all
    pass, tau_additive included.

    Element-quantified checks are always exhaustive.  Of the pair
    certificates, psi's and tau's additivity are decided exactly, with no
    pair scan, against their linear extensions (`first_additive_failure`),
    and a linear psi's product rule on the basis grid
    (`first_bilinear_failure`), each with the bytes of the exhaustive
    row-major scan; a non-linear psi's product rule scans pairs,
    exhaustively within the budget and seeded-sampled past it.
    tau_additive is computed before tau_kills_commutators and reported
    after it.  An additive tau is x -> T x, T its kept matrix or else its
    basis images, so tau([a, b]) = T [a, b] is bilinear, and each pair is
    tested as `commutator_index(a, b, T) != 0`, over the commutator
    constants composed with T, with no lookup in tau's index; a
    non-additive tau is looked up at each commutator's index.  Either
    predicate fails on the same pairs, so the report is the same.  On an
    additive tau, when the scan would be exhaustive (count**2 <= budget),
    tau_kills_commutators is decided on the basis grid with the scan's
    bytes.  Otherwise it scans pairs as the product rule does, so past
    the budget it stays sampled even on an additive tau.  The product
    rule is certified globally and again per Peirce-cell case, with the
    sandwich identity psi((ab)a) = (psi(a)psi(b))psi(a) for opposite
    off-diagonal pairs checked separately.

    Implied route: when psi is linear and its global product rule passed,
    the rule holds on every pair, so the five cases pass with their grid
    sizes and no grid is built.  So does the sandwich identity under
    dagger, psi((ab)a) = psi(ab)psi(a), and under ddagger, psi((ab)a) =
    psi(a)(psi(b)psi(a)), when the target is flexible: `is_alternative`
    of the target passes (alternative implies flexible in every
    characteristic).  Otherwise the cell grids are scanned.

    Facts a kept matrix decides are read from it, never from whether phi
    is linear, and no index of psi or tau is built for them, so a psi or
    tau replaced after `decompose` is checked on its own index:
    - recomposition passes at once when psi, tau and phi all keep
      matrices and Psi + T = Phi (mod p), else it compares indices;
    - psi_additive and psi_linear_matrix pass at once when psi keeps a
      matrix equal to psi_matrix; otherwise, after the cell route or once
      psi or psi_matrix has been replaced, they compare psi's index with
      one `linear_index(psi_matrix)`;
    - psi_bijective passes at once when psi keeps a square matrix of full
      rank (`MapTable.fibres`);
    - tau_additive passes at once when tau keeps a matrix;
    - tau_central, when tau keeps a matrix T, tests only the n basis
      vectors, in ascending element index: {x : Tx central} is a
      subspace, so its lowest-index outsider is a basis vector (see
      `first_bilinear_failure`), and every element passes when they do.
    Each gives the report, byte for byte, of the element or pair check it
    replaces.  psi and tau are read at points through `MapTable.at`,
    which applies a kept matrix to those points alone.
    """
    m, seed = res.map, res.seed
    es, et = m.es, m.et
    psi, tau = res.psi, res.tau
    anti = res.branch == BRANCH_DDAGGER
    certs: list[CheckReport] = []

    def elem_report(name, bad, quote=lambda k: {}, xs=None):
        # bad[k] tests element k, or element xs[k] when only the elements xs are tested
        def witness(k):
            return {"x": coords_json(m.source, es.coords_of(k if xs is None else xs[k])),
                    **quote(k)}
        certs.append(first_failure(name, bad, witness, {"elements": int(es.count)}))

    # recomposition: psi + tau = phi, asserted on every element, or at once
    # when all three keep matrices (each map is x -> Mx) and Psi + T = Phi
    psi_M, tau_M, phi_M = (g.matrix() for g in (psi, tau, m))
    if None not in (psi_M, tau_M, phi_M) and phi_M == [
            list(map(m.target.domain.add, *rows)) for rows in zip(psi_M, tau_M)]:
        elem_report("recomposition", False)     # no element fails
    else:
        elem_report("recomposition",
                    et.sum_index([psi.image_index(), tau.image_index()]) != m.image_index())

    # additivity against a linear extension, exact with no pair scan
    def additive_cert(name, g_idx, lin_idx):
        zero = np.zeros(et.count, dtype=bool)
        zero[0] = True
        return pair_result(name, m.source, es, first_additive_failure(es, et, g_idx, lin_idx, zero))

    if psi_M is not None and psi_M == res.psi_matrix:
        # psi is x -> Psi x: additive, and psi_matrix's map
        certs.append(pair_result("psi_additive", m.source, es, None))
        elem_report("psi_linear_matrix", False)
    else:
        # psi_matrix's index is psi's linear extension, its basis images
        psi_idx = psi.image_index()
        psi_lin = es.linear_index(res.psi_matrix)
        certs.append(additive_cert("psi_additive", psi_idx, psi_lin))
        elem_report("psi_linear_matrix", psi_lin != psi_idx)
        # 3 MB on Zorn/F5 that the pair scans below would hold on top of theirs
        del psi_lin
    psi_linear = certs[-1].ok

    def fibre_witness(k):
        # a doubly-hit image with its first two preimages, else one never hit
        row, t = divmod(k, et.count)
        y = coords_json(m.target, et.coords_of(t))
        return {"unreached": y} if row else {"image": y, **psi.preimages(t)}

    certs.append(first_failure("psi_bijective", psi.fibres(), fibre_witness,
                               {"elements": int(es.count)}))

    product_fails = product_rule(es, et, psi, anti)
    # on a linear psi the product defect is bilinear: decided on the basis grid
    name = "psi_anti_multiplicative" if anti else "psi_multiplicative"
    if psi_linear:
        certs.append(pair_result(name, m.source, es, first_bilinear_failure(es, product_fails)))
    else:
        certs.append(pair_report(name, m, seed, product_fails))
    # the product rule holds on every pair: each case below restricts it
    implied = psi_linear and certs[-1].ok
    comps = res.source_frame.components

    @functools.cache
    def cell_idx(ij):
        return es.index_of(comps[ij].points(es))

    # per-cell cases of the product rule and the sandwich identity, on the
    # (|A|, |B|) grids of cell element indices, raveled row-major, i = 1 first,
    # or, when `proven` implies them, passed with the grids' size and no grid
    def cells_report(name, space, cells_fn, fails, quote_cells, proven):
        cells = [cells_fn(i, 3 - i) for i in (1, 2)]
        if proven:
            certs.append(CheckReport(name, True, None, {
                space: sum(es.p ** (comps[ca].dim + comps[cb].dim) for ca, cb in cells)}))
            return
        grids = [np.meshgrid(cell_idx(ca), cell_idx(cb), indexing="ij") for ca, cb in cells]
        a_idx, b_idx = (np.concatenate([g[s].ravel() for g in grids]) for s in (0, 1))
        owner = np.repeat([0, 1], [g[0].size for g in grids])

        def quote(k):
            wit = {"a": coords_json(m.source, es.coords_of(a_idx[k])),
                   "b": coords_json(m.source, es.coords_of(b_idx[k]))}
            if quote_cells:
                wit["cells"] = [list(c) for c in cells[owner[k]]]
            return wit

        certs.append(first_failure(name, fails(a_idx, b_idx), quote, {space: len(a_idx)}))

    for name, cells_fn in (("case_diag_offdiag", lambda i, j: ((i, i), (i, j))),
                           ("case_offdiag_diag", lambda i, j: ((i, j), (j, j))),
                           ("case_diag_diag", lambda i, j: ((i, i), (i, i))),
                           ("case_offdiag_same", lambda i, j: ((i, j), (i, j))),
                           ("case_offdiag_opposite", lambda i, j: ((i, j), (j, i)))):
        cells_report(name, "pairs", cells_fn, product_fails, True, implied)

    def sandwich_fails(a_idx, b_idx):
        # psi((ab)a) = (psi(a) psi(b)) psi(a)
        lhs = psi.at(es.mul_index(es.mul_index(a_idx, b_idx), a_idx))
        pa = psi.at(a_idx)
        return lhs != et.mul_index(et.mul_index(pa, psi.at(b_idx)), pa)

    cells_report("sandwich_identity", "triples", lambda i, j: ((i, j), (j, i)),
                 sandwich_fails, False, implied and (not anti or is_alternative(m.target).ok))

    # every element, or, when tau keeps a matrix, the basis vectors in
    # ascending element index (see the docstring)
    central = center(m.target).mask(et)
    xs = None if tau_M is None else basis_index(es)[::-1]
    tau_xs = tau.image_index() if xs is None else tau.at(xs)
    elem_report("tau_central", ~central[tau_xs],
                lambda k: {"tau": coords_json(m.target, et.coords_of(tau_xs[k]))}, xs)

    # an additive tau makes tau([a, b]) bilinear (see the docstring); a tau
    # that keeps a matrix is additive, any other builds its linear extension,
    # 3 MB on Zorn/F5, as a temporary of this call, so the sampled scan below
    # does not hold it
    if tau_M is not None:
        tau_additive = pair_result("tau_additive", m.source, es, None)
    else:
        tau_additive = additive_cert("tau_additive", tau.image_index(),
                                     linear_extension(es, et, tau.image_index()))

    if tau_additive.ok:
        # tau is x -> T x, so tau([a, b]) = T [a, b], composed into one kernel
        T = tau_M or basis_matrix(es, et, tau.image_index())

        def kills_fails(a_idx, b_idx):
            return es.commutator_index(a_idx, b_idx, T) != 0
    else:
        def kills_fails(a_idx, b_idx):
            return tau.at(es.commutator_index(a_idx, b_idx)) != 0

    if tau_additive.ok and es.count ** 2 <= es.budget:
        certs.append(pair_result("tau_kills_commutators", m.source, es,
                                 first_bilinear_failure(es, kills_fails)))
    else:
        certs.append(pair_report("tau_kills_commutators", m, seed, kills_fails))
    certs.append(tau_additive)
    return certs


# -- the theorem pipeline ------------------------------------------------------

def verify_theorem(m: MapTable, e1: Element, branch: str | None, seed: int) -> dict:
    """Every certificate of the theorem for (m, e1) at the map's budget,
    stage by stage, as the bundle dict (see the module docstring for the
    order).

    A structural error after the ring axioms (for example phi(e1) not
    spanning a Peirce frame, or no branch to pick) ends the run with an
    "error" entry; budget and domain errors propagate.
    """
    src, budget = m.source, m.es.budget
    bundle = {"config": {"budget": budget, "seed": seed,
                         "source": src.name, "target": m.target.name,
                         "idempotent": coords_json(src, e1.coords),
                         "branch_request": branch},
              "stages": []}
    reports: list[CheckReport] = []

    def stage(name, reps):
        reports.extend(reps)
        bundle["stages"].append({"stage": name, "reports": [r.to_json() for r in reps]})

    stage("ring_axioms", [replace(rep, condition=f"{side}_{rep.condition}") for side, rep in (
        ("source", is_alternative(src)), ("target", is_alternative(m.target)),
        ("source", is_k_torsion_free(src, 2)), ("source", is_k_torsion_free(src, 3)))])
    try:
        stage("entry", [verify_surjective(m), verify_lie_multiplicative(m, seed),
                        verify_preserves_idempotents(m, seed)])
        stage("consequences", check_map_consequences(m))
        stage("almost_additive", [check_almost_additivity(m)])
        image_reports, src_frame, _ = check_peirce_image(m, e1)
        stage("peirce_image", image_reports)
        hypotheses = frame_hypotheses(m, src_frame)
        stage("hypotheses", hypotheses)
        stage("spade_club", check_spade_club(src_frame, hypotheses, budget))
        bundle["branch_detection"] = detect_branch(m, e1).to_json()
        if all(r.ok for r in reports):
            result = decompose(m, e1, branch, seed)
            stage("decomposition", result.certificates)
            bundle["decomposition"] = result.to_json()
        else:
            bundle["error"] = "entry or hypothesis certificates failed; decomposition skipped"
    except (BudgetExceeded, UnsupportedDomain):
        raise
    except AltringError as exc:
        bundle["error"] = f"{type(exc).__name__}: {exc}"
    bundle["all_certificates_pass"] = "error" not in bundle and all(r.ok for r in reports)
    return bundle
