"""Maps between finite rings: construction, storage, and the verifier
battery for surjective idempotent-preserving Lie multiplicative maps.

A map is stored either as a total table over the enumerated source (no
additivity is assumed: multiplicativity on commutators is the only given)
or in structured form, a linear part plus a central offset.  Structured
maps evaluate over any scalar domain; every scan-based verifier works on
the dense table and therefore needs a prime-field ring.
"""

from __future__ import annotations

import json

import numpy as np

from . import linalg
from .enumeration import DEFAULT_BUDGET, Enumeration
from .errors import (DimensionMismatch, DomainMismatch, NotBijective,
                     NotIdempotentImage, NotInvertible, OffsetNotCentral,
                     ParseError)
from .reports import CheckReport, coords_json
from .rings import Element, Ring, is_associative
from .structure import (PeirceFrame, center, center_mask, check_main_hypotheses,
                        peirce_frame)


class MapTable:
    """Total map between two rings over one scalar domain."""

    def __init__(self, source: Ring, target: Ring, *, images: np.ndarray | None = None,
                 matrix=None, offset_functional=None, offset_central=None, spec=None):
        if source.domain != target.domain:
            raise DomainMismatch(f"{source.name!r} and {target.name!r} have different scalar domains")
        self.source = source
        self.target = target
        self.spec = spec or {"kind": "table"}
        self._images = None
        self._image_idx = None
        self._memo = {}
        if images is not None:
            self.kind = "dense"
            self._images = np.asarray(images, dtype=np.int64)
            if self._images.shape != (Enumeration.of(source).count, target.dim):
                raise DimensionMismatch("dense table must cover every source element")
        else:
            self.kind = "structured"
            if matrix is None or len(matrix) != target.dim or any(len(r) != source.dim for r in matrix):
                raise DimensionMismatch(f"linear part must be {target.dim}x{source.dim}")
            dom = source.domain
            self.matrix = [[dom.parse(x) for x in row] for row in matrix]
            self.offset_functional = [dom.parse(x) for x in (offset_functional or [dom.zero] * source.dim)]
            self.offset_central = tuple(dom.parse(x) for x in (offset_central or [dom.zero] * target.dim))
            if len(self.offset_functional) != source.dim or len(self.offset_central) != target.dim:
                raise DimensionMismatch("offset shapes do not match the rings")
            self._validate_offset()

    def _validate_offset(self):
        dom = self.source.domain
        if all(x == dom.zero for x in self.offset_functional) or \
           all(x == dom.zero for x in self.offset_central):
            return
        if not center(self.target).contains(self.offset_central):
            raise OffsetNotCentral("offset element is not in the target centre")
        comms = []
        for i in range(self.source.dim):
            for j in range(i + 1, self.source.dim):
                bi, bj = self.source.basis_coords(i), self.source.basis_coords(j)
                comms.append(list(self.source.sub_coords(self.source.mul_coords(bi, bj),
                                                         self.source.mul_coords(bj, bi))))
        basis, _ = linalg.rref(comms, dom)
        for row in basis:
            acc = dom.zero
            for f, x in zip(self.offset_functional, row):
                acc = dom.add(acc, dom.mul(f, x))
            if acc != dom.zero:
                raise OffsetNotCentral("offset functional does not vanish on commutators")

    # -- evaluation -------------------------------------------------------

    def eval_coords(self, coords):
        """Image of one source coordinate vector (any scalar domain)."""
        if self.kind == "dense":
            k = Enumeration.of(self.source).index_of(np.array([int(x) for x in coords], dtype=np.int64))
            return tuple(int(c) for c in self._images[int(k)])
        dom = self.source.domain
        out = linalg.mat_vec(self.matrix, list(coords), dom)
        lam = dom.zero
        for f, x in zip(self.offset_functional, coords):
            lam = dom.add(lam, dom.mul(f, x))
        return tuple(dom.add(a, dom.mul(lam, z)) for a, z in zip(out, self.offset_central))

    def __call__(self, x: Element) -> Element:
        return Element(self.target, self.eval_coords(x.coords))

    def images(self, budget: int = DEFAULT_BUDGET) -> np.ndarray:
        """Dense image coordinates over the whole enumerated source."""
        if self._images is None:
            enum = Enumeration.of(self.source)
            X = enum.all_coords(budget)
            M = np.array([[int(x) for x in row] for row in self.matrix], dtype=np.int64)
            f = np.array([int(x) for x in self.offset_functional], dtype=np.int64)
            z = np.array([int(x) for x in self.offset_central], dtype=np.int64)
            self._images = (X @ M.T + (X @ f)[:, None] * z) % enum.p
        return self._images

    def image_index(self, budget: int = DEFAULT_BUDGET) -> np.ndarray:
        if self._image_idx is None:
            self._image_idx = Enumeration.of(self.target).index_of(self.images(budget))
        return self._image_idx

    def cached(self, key, build):
        """build(), computed once per map and key.  A run's Peirce frames,
        hypothesis reports and branch detection, keyed by the idempotent,
        are kept here and shared by every stage that needs them."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def replace_entry(self, idx: int, coords) -> "MapTable":
        """Dense copy with one table entry overwritten (for negative controls)."""
        imgs = self.images().copy()
        imgs[idx] = np.array([int(self.target.domain.parse(x)) for x in coords], dtype=np.int64)
        return MapTable(self.source, self.target, images=imgs,
                        spec={"kind": "table", "note": "perturbed"})

    def is_bijective(self, budget: int = DEFAULT_BUDGET) -> bool:
        if self.source.dim != self.target.dim:
            return False
        idx = self.image_index(budget)
        return bool((np.bincount(idx, minlength=len(idx)) == 1).all())


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


def build_map(source: Ring, target: Ring, spec: dict, budget: int = DEFAULT_BUDGET) -> MapTable:
    """Construct a MapTable from a builder description.

    Kinds: identity, linear, neg_transpose_plus_trace, conjugation,
    compose, table, structured.  Transpose and conjugation builders are
    only offered on rings verified associative (conjugation by a unit is
    not an automorphism without associativity).
    """
    kind = spec.get("kind")
    dom = source.domain
    if kind == "identity":
        if source.key != target.key or source.sc != target.sc:
            raise DimensionMismatch("identity map needs identical source and target rings")
        return MapTable(source, target, matrix=linalg.mat_identity(source.dim, dom),
                        spec={"kind": "identity"})
    if kind == "linear":
        return MapTable(source, target, matrix=spec["matrix"], spec=spec)
    if kind == "structured":
        return MapTable(source, target, matrix=spec["matrix"],
                        offset_functional=spec.get("offset_functional"),
                        offset_central=spec.get("offset_central"), spec=spec)
    if kind == "neg_transpose_plus_trace":
        if not is_associative(source):
            raise DimensionMismatch("transpose builder needs an associative matrix ring")
        k = _matrix_unit_order(source)
        if target.dim != source.dim or target.domain != dom:
            raise DimensionMismatch("transpose builder needs matching rings")
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
        return MapTable(source, target, matrix=M, spec={"kind": "neg_transpose_plus_trace"})
    if kind == "conjugation":
        if not is_associative(source):
            raise NotInvertible("conjugation builder needs an associative ring")
        if source.key != target.key:
            raise DimensionMismatch("conjugation maps a ring to itself")
        u = [dom.parse(x) for x in spec["element"]]
        L = source.left_mul_matrix(u)
        u_inv, _ = linalg.solve(L, list(source.unit_coords), dom)
        if u_inv is None or source.mul_coords(u_inv, u) != tuple(source.unit_coords):
            raise NotInvertible("conjugating element has no two-sided inverse")
        M = linalg.mat_mul(L, source.right_mul_matrix(u_inv), dom)
        return MapTable(source, target, matrix=M,
                        spec={"kind": "conjugation", "element": [dom.fmt(x) for x in u]})
    if kind == "compose":
        parts = [build_map(source, target, s, budget) for s in spec["parts"]]
        idx = np.arange(Enumeration.of(source).count)
        for part in parts:
            idx = part.image_index(budget)[idx]
        images = Enumeration.of(target).coords_of(idx)
        return MapTable(source, target, images=images, spec=spec)
    if kind == "table":
        entries = spec["entries"]
        if isinstance(entries, dict):
            entries = [entries[str(i)] for i in range(len(entries))]
        enum = Enumeration.of(source)
        if len(entries) != enum.count:
            raise ParseError(f"table has {len(entries)} entries, source has {enum.count} elements")
        tgt = target.domain
        images = np.array([[int(tgt.parse(x)) for x in row] for row in entries], dtype=np.int64)
        return MapTable(source, target, images=images, spec={"kind": "table"})
    raise ParseError(f"unknown map kind {kind!r}")


def map_to_json(m: MapTable) -> dict:
    spec = dict(m.spec)
    if m.kind == "dense" and "entries" not in spec:
        spec = {"kind": "table",
                "entries": [[int(x) for x in row] for row in m.images()]}
    return {"source": m.source.name, "target": m.target.name, "repr": spec}


def map_from_json(obj: dict, rings: dict[str, Ring], budget: int = DEFAULT_BUDGET) -> MapTable:
    try:
        src = rings[obj["source"]]
        tgt = rings[obj["target"]]
        spec = obj["repr"]
    except KeyError as exc:
        raise ParseError(f"map file references unknown ring or missing field: {exc}") from exc
    if isinstance(spec, str):
        spec = {"kind": spec, **{k: v for k, v in obj.items() if k not in ("source", "target", "repr")}}
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

def pair_scan(count: int, budget: int, seed: int, fail_fn, chunk: int = 1 << 18):
    """Run a predicate over all ordered pairs, or a seeded sample of them.

    fail_fn(a_idx, b_idx) receives broadcastable int64 index arrays and
    returns a boolean failure mask of their broadcast shape.  Exhaustive
    mode passes rows of pairs as the grids arange(lo, hi)[:, None] and
    arange(count)[None, :], so the kernels gather only small planes, and
    walks them in enumeration order (row-major): the reported witness is
    always the first failing pair.  Sampled mode passes two 1-D draws of
    at most `chunk` pairs and records seed and coverage for the report.
    Sampled pairs are drawn uniformly with replacement, so coverage =
    budget/total counts draws, not distinct pairs: a pair can be drawn
    more than once.
    """
    total = count * count
    if total <= budget:
        b_idx = np.arange(count, dtype=np.int64)[None, :]
        rows_per_chunk = max(1, chunk // count)
        for lo in range(0, count, rows_per_chunk):
            hi = min(count, lo + rows_per_chunk)
            a_idx = np.arange(lo, hi, dtype=np.int64)[:, None]
            bad = np.flatnonzero(np.broadcast_to(fail_fn(a_idx, b_idx), (hi - lo, count)))
            if len(bad):
                k = int(bad[0])
                return False, (lo + k // count, k % count), "exhaustive", None, total
        return True, None, "exhaustive", None, total
    rng = np.random.default_rng(seed)
    checked = 0
    while checked < budget:
        m = min(chunk, budget - checked)
        a_idx = rng.integers(0, count, m)
        b_idx = rng.integers(0, count, m)
        fails = fail_fn(a_idx, b_idx)
        bad = np.flatnonzero(fails)
        if len(bad):
            k = int(bad[0])
            return False, (int(a_idx[k]), int(b_idx[k])), "sampled", budget / total, checked + k + 1
        checked += m
    return True, None, "sampled", budget / total, checked


def pair_report(name: str, source: Ring, budget: int, seed: int, fail_fn) -> CheckReport:
    """`pair_scan` over the source's element pairs as a report; a failing
    pair is quoted as the witness {"a", "b"} in source coordinates."""
    es = Enumeration.of(source)
    ok, pair, mode, cov, checked = pair_scan(es.count, budget, seed, fail_fn)
    wit = None if pair is None else {
        key: coords_json(source, [int(x) for x in es.coords_of(k)]) for key, k in zip("ab", pair)}
    return CheckReport(name, ok, wit, {"pairs": es.count ** 2, "checked": int(checked)},
                       mode, seed if mode == "sampled" else None, cov)


# -- verifiers ----------------------------------------------------------------

def verify_surjective(m: MapTable, budget: int = DEFAULT_BUDGET) -> CheckReport:
    et = Enumeration.of(m.target)
    idx = m.image_index(budget)
    hit = np.bincount(idx, minlength=et.count) > 0
    ok = bool(hit.all())
    wit = None
    if not ok:
        missing = int(np.flatnonzero(~hit)[0])
        wit = {"unreached": coords_json(m.target, [int(x) for x in et.coords_of(missing)])}
    return CheckReport("surjective", ok, wit, {"elements": int(len(idx))})


def verify_lie_multiplicative(m: MapTable, budget: int = DEFAULT_BUDGET,
                              seed: int = 0) -> CheckReport:
    """phi([x,y]) = [phi(x), phi(y)] over source pairs (sampled past budget)."""
    es, et = Enumeration.of(m.source), Enumeration.of(m.target)
    f_idx = m.image_index(budget)

    def fails(a_idx, b_idx):
        lhs = f_idx[es.commutator_index(a_idx, b_idx, budget)]
        return lhs != et.commutator_index(f_idx[a_idx], f_idx[b_idx], budget)

    return pair_report("lie_multiplicative", m.source, budget, seed, fails)


def verify_preserves_idempotents(m: MapTable, budget: int = DEFAULT_BUDGET,
                                 seed: int = 0) -> CheckReport:
    """e - lam*f idempotent iff phi(e) - lam*phi(f) idempotent, all source
    pairs and every prime-field lam; needs a bijective table first."""
    if not m.is_bijective(budget):
        raise NotBijective("idempotent preservation is a biconditional; the map must be a bijection")
    es, et = Enumeration.of(m.source), Enumeration.of(m.target)
    Ds, Dt = es.digits(budget), et.digits(budget)
    f_idx = m.image_index(budget)
    idem_src = es.idempotent_mask(budget)
    idem_tgt = et.idempotent_mask(budget)

    p = es.p

    def minus_b(D, a_idx, b_idx):
        """Planes of a - b mod p, full broadcast shape, and the planes of b."""
        B = D.take(b_idx, axis=1)
        A = D.take(a_idx, axis=1) - B
        A += (A < 0) * A.dtype.type(p)
        return A, B

    def fails(a_idx, b_idx):
        bad = idem_src[a_idx] != idem_tgt[f_idx[a_idx]]             # lam = 0
        # planes of a - lam*b on both sides, stepped from lam = 1 by - b mod p
        d_src, b_src = minus_b(Ds, a_idx, b_idx)
        d_tgt, b_tgt = minus_b(Dt, f_idx[a_idx], f_idx[b_idx])
        for lam in range(1, p):
            if lam > 1:
                for D, B in ((d_src, b_src), (d_tgt, b_tgt)):
                    D -= B
                    D += (D < 0) * D.dtype.type(p)
            bad = bad | (idem_src[es.index_of_planes(d_src)] != idem_tgt[et.index_of_planes(d_tgt)])
        return bad

    rep = pair_report("preserves_idempotents", m.source, budget, seed, fails)
    rep.quantifier_space["lambdas"] = p
    if not rep.ok:
        a, b = (int(es.index_of(rep.witness[key])) for key in "ab")
        Xa, Xb = es.coords_of(a), es.coords_of(b)
        imgs = m.images(budget)
        for lam in range(p):
            d = (Xa - lam * Xb) % p
            dt = (imgs[a] - lam * imgs[b]) % p
            if bool(idem_src[int(es.index_of(d))]) != bool(idem_tgt[int(et.index_of(dt))]):
                rep.witness["lambda"] = int(lam)
                break
    return rep


def check_map_consequences(m: MapTable, budget: int = DEFAULT_BUDGET) -> list[CheckReport]:
    """Consequences of surjectivity + idempotent preservation over a
    2-torsion-free ring: injectivity, a fixed zero, and scalar
    homogeneity.  Failures certify an upstream inconsistency."""
    es, et = Enumeration.of(m.source), Enumeration.of(m.target)
    idx = m.image_index(budget)
    counts = np.bincount(idx, minlength=et.count)
    inj = bool((counts <= 1).all())
    wit = None
    if not inj:
        dup = int(np.flatnonzero(counts > 1)[0])
        pre = np.flatnonzero(idx == dup)[:2]
        wit = {"a": coords_json(m.source, [int(x) for x in es.coords_of(int(pre[0]))]),
               "b": coords_json(m.source, [int(x) for x in es.coords_of(int(pre[1]))])}
    reports = [CheckReport("injective", inj, wit, {"elements": int(es.count)})]

    zero_ok = bool((m.images(budget)[0] == 0).all())
    reports.append(CheckReport("maps_zero_to_zero", zero_ok,
                               None if zero_ok else {"image_of_zero": coords_json(
                                   m.target, [int(x) for x in m.images(budget)[0]])},
                               {"elements": 1}))

    ok, wit = True, None
    for lam in range(es.p):
        bad = np.flatnonzero(idx[es.smul_index(lam, budget)] != et.smul_index(lam, budget)[idx])
        if len(bad) and ok:
            k = int(bad[0])
            ok = False
            wit = {"x": coords_json(m.source, [int(v) for v in es.coords_of(k)]), "lambda": int(lam)}
    reports.append(CheckReport("scalar_homogeneous", ok, wit,
                               {"elements": int(es.count), "lambdas": int(es.p)}))
    return reports


def check_almost_additivity(m: MapTable, budget: int = DEFAULT_BUDGET,
                            seed: int = 0) -> CheckReport:
    """phi(a+b) - phi(a) - phi(b) lands in the target centre, all pairs."""
    es, et = Enumeration.of(m.source), Enumeration.of(m.target)
    Dt = et.digits(budget)
    f_idx = m.image_index(budget)
    central = center_mask(m.target, budget)

    def fails(a_idx, b_idx):
        # digit planes of the defect lie in (-2p, p), exact in elim_dtype
        defect = Dt.take(f_idx[es.add_index(a_idx, b_idx, budget)], axis=1) - (
            Dt.take(f_idx[a_idx], axis=1) + Dt.take(f_idx[b_idx], axis=1))
        return ~central[et.index_of_planes(et.reduce(defect))]

    return pair_report("almost_additive", m.source, budget, seed, fails)


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


def check_peirce_image(m: MapTable, e1: Element, budget: int = DEFAULT_BUDGET):
    """Corner behaviour of the map: off-diagonal corners map onto the
    matching target corners; diagonal corners land in a diagonal corner
    plus the centre, with the shape recorded.  Also transports the
    annihilation conditions to the target frame.

    Returns (reports, source_frame, target_frame).
    """
    src_frame, tgt_frame = peirce_frames(m, e1)
    es, et = Enumeration.of(m.source), Enumeration.of(m.target)
    imgs = m.images(budget)
    reports = []

    for ij in ((1, 2), (2, 1)):
        pts = src_frame.components[ij].points(es, budget)
        img = imgs[es.index_of(pts)]
        tgt_pts = tgt_frame.components[ij].points(et, budget)
        got = np.unique(et.index_of(img))
        want = np.unique(et.index_of(tgt_pts))
        ok = len(got) == len(want) and bool((got == want).all())
        wit = None
        if not ok:
            stray = np.setdiff1d(got, want)
            if len(stray):
                wit = {"image": coords_json(m.target, [int(x) for x in et.coords_of(int(stray[0]))])}
        reports.append(CheckReport(f"offdiag_image_{ij[0]}{ij[1]}", ok, wit,
                                   {"elements": len(pts), "target_elements": len(tgt_pts)}))

    zc = center(m.target)
    for i in (1, 2):
        j = 3 - i
        pts = src_frame.components[(i, i)].points(es, budget)
        img = imgs[es.index_of(pts)]
        same = tgt_frame.components[(i, i)].sum(zc)
        swap = tgt_frame.components[(j, j)].sum(zc)
        in_same, in_swap = same.mask(et, img), swap.mask(et, img)
        ok = bool(in_same.all() or in_swap.all())
        wit = None
        if not ok:
            k = int(np.flatnonzero(~(in_same & in_swap))[0])
            wit = {"element": coords_json(m.source, [int(x) for x in pts[k]]),
                   "image": coords_json(m.target, [int(x) for x in img[k]])}
        reports.append(CheckReport(
            f"diag_image_{i}{i}", ok, wit,
            {"elements": len(pts),
             "same_corner_shape": int(bool(in_same.all())),
             "swapped_corner_shape": int(bool(in_swap.all()))}))

    transported = check_main_hypotheses(tgt_frame, budget)
    for rep in transported[1:3]:
        reports.append(CheckReport("target_" + rep.condition, rep.ok, rep.witness,
                                   rep.quantifier_space))
    return reports, src_frame, tgt_frame
