"""The exact routes of the pair certificates.  On an F_p-linear map
(`phi_linear`) Lie multiplicativity, idempotent preservation and scalar
homogeneity are decided without a pair scan, and on any map additivity
and almost additivity (`first_additive_failure`) and, when psi is
linear, psi's product rule (`first_bilinear_failure`), as is tau's
vanishing on commutators when tau is additive and the pairs fit the
budget; each report must be the one an exhaustive row-major scan
returns, byte for byte.  A pure-Python scan in `rings.py` coordinate
arithmetic is the reference, on random unital rings with random linear
maps, one-entry corruptions of them, central perturbations
x -> g(x) + c(x)*z and constant shifts.  A map built from a matrix keeps
it, and every report read from kept matrices is the one the same image
indices give with none kept."""

import functools
import importlib
from collections import Counter
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altring import (MapTable, build_map, center, check_almost_additivity,
                     check_map_consequences, decompose, gen_m2, gen_zorn, linalg, phi_linear,
                     verify_decomposition, verify_lie_multiplicative,
                     verify_preserves_idempotents, verify_surjective)
from altring.decompose import diagonal_recipes, product_rule, psi_cell_route
from altring.enumeration import DEFAULT_BUDGET, Enumeration
from altring.errors import BudgetExceeded
from altring.maps import (basis_matrix, first_additive_failure, first_bilinear_failure,
                          linear_extension, pair_report)
from conftest import apply_matrix, rebased_unital_rings, replace_entries
from test_maps import structured_cases
from test_rings import random_bases, rebase


def reference_reports(m) -> dict:
    """condition -> report JSON of an exhaustive scan in element order
    (pairs row-major, scalar homogeneity lambda-major), evaluated on
    coordinate tuples with `Ring` arithmetic and the images of
    `MapTable.eval_coords`."""
    S, T = m.source, m.target
    p = S.domain.p
    X = list(product(range(p), repeat=S.dim))
    phi = {x: m.eval_coords(x) for x in X}
    memo = {}

    def once(key, fn):
        if key not in memo:
            memo[key] = fn()
        return memo[key]

    def mul(R, a, b):
        return once((id(R), "mul", a, b), lambda: R.mul_coords(a, b))

    def comm(R, a, b):
        return R.sub_coords(mul(R, a, b), mul(R, b, a))

    def idem(R, x):
        return once((id(R), "idem", x), lambda: R.mul_coords(x, x) == x)

    def smul(R, lam, x):
        return once((id(R), "smul", lam, x), lambda: R.smul_coords(lam, x))

    def central(z):
        return once(("central", z), lambda: all(
            T.mul_coords(z, b) == T.mul_coords(b, z) for b in map(T.basis_coords, range(T.dim))))

    def idem_lambdas(a, b):
        return [lam for lam in range(p)
                if idem(S, S.sub_coords(a, smul(S, lam, b)))
                != idem(T, T.sub_coords(phi[a], smul(T, lam, phi[b])))]

    pair_tests = {
        "lie_multiplicative": lambda a, b: phi[comm(S, a, b)] != comm(T, phi[a], phi[b]),
        "preserves_idempotents": lambda a, b: bool(idem_lambdas(a, b)),
        "almost_additive": lambda a, b: not central(
            T.sub_coords(T.sub_coords(phi[S.add_coords(a, b)], phi[a]), phi[b])),
    }
    pairs = {"pairs": len(X) ** 2, "checked": len(X) ** 2}
    out = {}
    for name, fails in pair_tests.items():
        first = next(((a, b) for a in X for b in X if fails(a, b)), None)
        wit = None if first is None else {"a": list(first[0]), "b": list(first[1])}
        space = dict(pairs)
        if name == "preserves_idempotents":
            space["lambdas"] = p
            if wit:
                wit["lambda"] = idem_lambdas(*first)[0]
        out[name] = {"condition": name, "pass": wit is None, "witness": wit,
                     "quantifier_space": space}
    first = next(((lam, x) for lam in range(p) for x in X
                  if phi[smul(S, lam, x)] != smul(T, lam, phi[x])), None)
    out["scalar_homogeneous"] = {
        "condition": "scalar_homogeneous", "pass": first is None,
        "witness": None if first is None else {"x": list(first[1]), "lambda": first[0]},
        "quantifier_space": {"elements": len(X), "lambdas": p}}
    return out


def library_reports(m) -> dict:
    reports = [verify_lie_multiplicative(m), verify_preserves_idempotents(m),
               check_almost_additivity(m), check_map_consequences(m)[2]]
    return {rep.condition: rep.to_json() for rep in reports}


@st.composite
def linear_maps(draw):
    """A random F_p-linear map between random unital rings of dim <= 3,
    p in {3, 5}, singular matrices included, and a copy of it with one
    entry changed."""
    p = draw(st.sampled_from([3, 5]))
    source = draw(rebased_unital_rings(p))
    target = draw(st.just(source) | rebased_unital_rings(p))
    entry = st.integers(0, p - 1)
    row = st.lists(entry, min_size=source.dim, max_size=source.dim)
    rank_one = st.tuples(st.lists(entry, min_size=target.dim, max_size=target.dim), row).map(
        lambda uv: [[a * b for b in uv[1]] for a in uv[0]])
    matrix = draw(st.lists(row, min_size=target.dim, max_size=target.dim) | rank_one)
    m = build_map(source, target, {"kind": "linear", "matrix": matrix})
    k = draw(st.integers(0, p ** source.dim - 1))
    old = m.eval_coords(Enumeration.of(source, DEFAULT_BUDGET).coords_of(k))
    new = draw(st.lists(entry, min_size=target.dim, max_size=target.dim)
               .filter(lambda c: tuple(c) != old))
    return m, replace_entries(m, {k: new})


@given(linear_maps())
def test_entry_battery_matches_reference_scan(maps):
    linear, corrupted = maps
    assert phi_linear(linear) and not phi_linear(corrupted)
    for m in maps:
        assert library_reports(m) == reference_reports(m)


def test_phi_linear_accepts_builder_maps_and_rejects_near_misses(m2, dsum):
    maps = [build_map(m2, m2, spec) for spec, _ in structured_cases(m2).values()]
    maps.append(build_map(m2, m2, {"kind": "compose", "parts": [
        {"kind": "conjugation", "element": [1, 1, 0, 1]}, {"kind": "neg_transpose_plus_trace"}]}))
    maps.append(build_map(m2, dsum, {"kind": "linear",
                                     "matrix": [[int(i % 4 == j) for j in range(4)] for i in range(8)]}))
    assert all(phi_linear(m) for m in maps)

    enum = Enumeration.of(m2, DEFAULT_BUDGET)
    ident = build_map(m2, m2, {"kind": "identity"})
    every = np.arange(enum.count)
    shifted = MapTable(m2, m2, enum, enum, enum.sum_index([every, np.full(enum.count, 7)]))
    # the identity except where coordinate 3 is p - 1: basis images and
    # every element with a smaller last digit are right
    top_digit = enum.coords_of(every)[:, 3] == 4
    off_top = MapTable(m2, m2, enum, enum, np.where(top_digit, (every + 125) % 625, every))
    near_misses = [replace_entries(ident, {137: [1, 2, 3, 4]}), shifted, off_top]
    assert shifted.image_index()[0] != 0
    assert [phi_linear(m) for m in near_misses] == [False] * 3


ENTRY_VERIFIERS = [verify_surjective, verify_lie_multiplicative, verify_preserves_idempotents,
                   check_map_consequences, check_almost_additivity]


@pytest.mark.parametrize("verifier", ENTRY_VERIFIERS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("kind", ["linear", "swapped"])
def test_entry_verifiers_refuse_a_budget_below_the_element_count(m2, negtr, verifier, kind):
    """Each verifier applies the element guard of the map's budget, on a
    linear table and on one that takes the scan route: the same index
    over Enumerations of budget 625 (M2/F5's element count) verifies, and
    over Enumerations one element short raises."""
    m = negtr
    if kind == "swapped":
        imgs = negtr.images()
        m = replace_entries(negtr, {137: imgs[411], 411: imgs[137]})
    at_count, short = (MapTable(m2, m2, Enumeration.of(m2, b), Enumeration.of(m2, b),
                                m.image_index()) for b in (625, 624))
    assert phi_linear(at_count) == (kind == "linear")
    verifier(at_count)
    with pytest.raises(BudgetExceeded):
        verifier(short)


def first_failing_pair(X, fails):
    """The first pair (a, b) of coordinate tuples, row-major over X, with
    fails(a, b), or None."""
    return next(((a, b) for a in X for b in X if fails(a, b)), None)


def quoted(es, pair):
    """A library pair of element indices as coordinate tuples."""
    return None if pair is None else tuple(
        tuple(int(c) for c in es.coords_of(k)) for k in pair)


@st.composite
def perturbed_maps(draw, changes):
    """(source, target, g): a random linear map between random unital
    rings of dim <= 3 over F_p, p in {3, 5}, as a target index array, with
    the `changes` made: "central", a perturbation x -> g(x) + c(x)*z (c
    random, z a nonzero central element); "shift", a nonzero constant
    added, so that g(0) != 0; "entry", one entry changed."""
    p = draw(st.sampled_from([3, 5]))
    # a non-central defect needs a target that is not commutative
    rings = rebased_unital_rings(p) | rebased_unital_rings(p).filter(lambda r: center(r).dim < r.dim)
    source = draw(rings)
    target = draw(st.just(source) | rings)
    es, et = Enumeration.of(source, DEFAULT_BUDGET), Enumeration.of(target, DEFAULT_BUDGET)
    entry = st.integers(0, p - 1)
    nonzero = st.lists(entry, min_size=target.dim, max_size=target.dim).filter(any)
    matrix = draw(st.lists(st.lists(entry, min_size=source.dim, max_size=source.dim),
                           min_size=target.dim, max_size=target.dim))
    images = et.coords_of(es.linear_index(matrix)).astype(np.int64)
    if "central" in changes:
        zc = center(target)         # holds the unit, so it is never 0
        z = np.array(draw(st.lists(entry, min_size=zc.dim, max_size=zc.dim).filter(any)))
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        images += rng.integers(0, p, es.count)[:, None] * (z @ np.array(zc.basis, dtype=np.int64))
    if "shift" in changes:
        images += np.array(draw(nonzero))
    if "entry" in changes:
        images[draw(st.integers(0, es.count - 1))] += np.array(draw(nonzero))
    return source, target, et.index_of(images % p)


CHANGES = [(), ("entry",), ("shift",), ("central",), ("central", "entry"),
           ("central", "shift", "entry")]


@pytest.mark.parametrize("changes", CHANGES, ids=lambda c: "+".join(c) or "linear")
@given(data=st.data())
def test_additive_failure_matches_reference_scan(changes, data):
    """The first failing pair of additivity ({0}) and almost additivity
    (the centre) against the exhaustive scan, on maps that pass, fail at
    (0, 0), fail only modulo {0} or fail modulo the centre."""
    S, T, g = data.draw(perturbed_maps(changes))
    es, et = Enumeration.of(S, DEFAULT_BUDGET), Enumeration.of(T, DEFAULT_BUDGET)
    X = list(product(range(S.domain.p), repeat=S.dim))
    img = {x: tuple(int(c) for c in et.coords_of(g[k])) for k, x in enumerate(X)}

    @functools.lru_cache(maxsize=None)
    def central(z):
        return all(T.mul_coords(z, T.basis_coords(k)) == T.mul_coords(T.basis_coords(k), z)
                   for k in range(T.dim))

    # one row-major pass for both subspaces: their first failing pairs
    inside = [(np.arange(et.count) == 0, lambda z: not any(z)), (center(T).mask(et), central)]
    want = [None] * len(inside)
    for a, b in product(X, X):
        d = T.sub_coords(T.sub_coords(img[S.add_coords(a, b)], img[a]), img[b])
        want = [w or (None if member(d) else (a, b)) for w, (_, member) in zip(want, inside)]
        if None not in want:
            break
    lin = linear_extension(es, et, g)
    assert [quoted(es, first_additive_failure(es, et, g, lin, mask))
            for mask, _ in inside] == want


@given(linear_maps(), st.booleans())
def test_product_grid_matches_reference_scan(maps, anti):
    """psi's product rule, psi(ab) = psi(a)psi(b) or (anti) -psi(b)psi(a),
    on a linear psi: the basis grid's first failing cell is the
    exhaustive scan's first failing pair."""
    m = maps[0]
    S, T = m.source, m.target
    X = list(product(range(S.domain.p), repeat=S.dim))
    psi = {x: m.eval_coords(x) for x in X}

    def fails(a, b):
        if anti:
            rhs = T.sub_coords(T.zero_coords(), T.mul_coords(psi[b], psi[a]))
        else:
            rhs = T.mul_coords(psi[a], psi[b])
        return psi[S.mul_coords(a, b)] != rhs

    got = first_bilinear_failure(m.es, product_rule(m.es, m.et, m, anti))
    assert quoted(m.es, got) == first_failing_pair(X, fails)


@pytest.mark.parametrize("spec, branch", [({"kind": "identity"}, "dagger"),
                                          ({"kind": "neg_transpose_plus_trace"}, "ddagger")])
def test_linear_psi_certificates_match_the_exhaustive_scan(m2, spec, branch):
    """A decomposition whose psi is replaced by a linear map that breaks the
    product rule: psi_additive passes and the product certificate of each
    branch has the report of the exhaustive scan, which replays."""
    res = decompose(build_map(m2, m2, spec), m2.basis_element(0), branch)
    M = [list(row) for row in res.psi_matrix]
    M[0][1] = (M[0][1] + 1) % 5
    res.psi, res.psi_matrix = build_map(m2, m2, {"kind": "linear", "matrix": M}), M
    enum = res.map.es
    res.tau = MapTable(m2, m2, enum, enum, enum.sum_index([res.map.image_index()],
                                                          [res.psi.image_index()]))
    anti = branch == "ddagger"
    name = "psi_anti_multiplicative" if anti else "psi_multiplicative"
    certs = {c.condition: c for c in verify_decomposition(res)}
    assert certs["psi_additive"].ok and certs["tau_additive"].ok
    scan = pair_report(name, res.psi, 0, product_rule(enum, enum, res.psi, anti))
    assert scan.mode == "exhaustive" and not scan.ok
    assert certs[name].to_json() == scan.to_json()
    a, b = (m2.element(certs[name].witness[k]) for k in "ab")
    want = res.psi(b) * res.psi(a) if anti else res.psi(a) * res.psi(b)
    assert res.psi(a * b) != (-want if anti else want)


def commutator_fails(es, tau_idx):
    """fails(a_idx, b_idx) of tau([a, b]) = 0 over index arrays."""
    return lambda a_idx, b_idx: tau_idx[es.commutator_index(a_idx, b_idx)] != 0


def first_commutator_failure(tau):
    """The reference for tau([a, b]) = 0: the first failing pair of
    coordinate tuples, row-major, in `rings.py` arithmetic."""
    S = tau.source
    X = list(product(range(S.domain.p), repeat=S.dim))
    zero = tau.target.zero_coords()
    return first_failing_pair(X, lambda a, b: tau.eval_coords(
        S.sub_coords(S.mul_coords(a, b), S.mul_coords(b, a))) != zero)


@given(linear_maps())
def test_commutator_grid_matches_reference_scan(maps):
    """A linear map taken as tau: tau([a, b]) is bilinear, so the basis
    grid's first failing cell is the exhaustive scan's first failing pair."""
    m = maps[0]
    got = first_bilinear_failure(m.es, commutator_fails(m.es, m.image_index()))
    assert quoted(m.es, got) == first_commutator_failure(m)


# x -> x_11 * 1 on M2: central and additive, but tau(E11 - E22) = 1, and
# E11 - E22 = [E12, E21]
TRACE_CORNER_TAU = [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]]


def tau_certificates(res, monkeypatch):
    """verify_decomposition's reports by condition, and the names of the
    certificates it decided by a pair scan."""
    scanned = []

    def recording(name, *args):
        scanned.append(name)
        return pair_report(name, *args)

    monkeypatch.setattr(importlib.import_module("altring.decompose"), "pair_report", recording)
    return {c.condition: c for c in verify_decomposition(res)}, scanned


@pytest.mark.parametrize("corrupt", ["linear", "one_entry"])
@pytest.mark.parametrize("spec, branch", [({"kind": "identity"}, "dagger"),
                                          ({"kind": "neg_transpose_plus_trace"}, "ddagger")])
def test_tau_commutator_certificate_is_the_exhaustive_scan(m2, spec, branch, corrupt,
                                                           monkeypatch):
    """A decomposition on M2/F5 whose tau is replaced by one that fails to
    kill commutators: the linear x -> x_11 * 1, decided on the basis grid
    with no pair scan, or tau with the entry at E12 = [E11, E12] set to E12,
    which is not additive and keeps the scan.  Either way the report is the
    exhaustive scan's, its witness is the reference's first failing pair,
    and it replays."""
    res = decompose(build_map(m2, m2, spec), m2.basis_element(0), branch)
    enum = res.map.es
    if corrupt == "linear":
        res.tau = build_map(m2, m2, {"kind": "linear", "matrix": TRACE_CORNER_TAU})
    else:
        res.tau = replace_entries(res.tau, {int(enum.index_of([0, 1, 0, 0])): [0, 1, 0, 0]})
    certs, scanned = tau_certificates(res, monkeypatch)
    assert certs["tau_additive"].ok == (corrupt == "linear")
    assert scanned == ([] if corrupt == "linear" else ["tau_kills_commutators"])
    scan = pair_report("tau_kills_commutators", res.map, 0,
                       commutator_fails(enum, res.tau.image_index()))
    assert scan.mode == "exhaustive" and not scan.ok
    assert certs["tau_kills_commutators"].to_json() == scan.to_json()
    a, b = (tuple(scan.witness[k]) for k in "ab")
    assert (a, b) == first_commutator_failure(res.tau)
    a, b = m2.element(a), m2.element(b)
    assert res.tau(a * b - b * a) != m2.zero()


def test_tau_commutator_certificate_stays_sampled_past_the_budget(m2, monkeypatch):
    """One pair below the 625**2 pairs of M2/F5, the identity's tau (zero,
    so additive) still has its commutator certificate sampled."""
    res = decompose(build_map(m2, m2, {"kind": "identity"}, budget=390_624),
                    m2.basis_element(0), "dagger", seed=3)
    certs, scanned = tau_certificates(res, monkeypatch)
    assert certs["tau_additive"].ok and scanned == ["tau_kills_commutators"]
    rep = certs["tau_kills_commutators"].to_json()
    assert rep["pass"] and (rep["mode"], rep["seed"]) == ("sampled", 3)


def test_zorn_swapped_identity_almost_additive_witness_replays(zorn):
    """Past the pair budget (390,625**2 pairs against 10**6) the swapped
    Zorn/F5 identity is refused with an exact almost_additive witness:
    reported over every pair, it replays in `rings.py` arithmetic, its
    row a is 0 or a basis vector, and it is the first failure of row a."""
    es = Enumeration.of(zorn, DEFAULT_BUDGET)
    idx = np.arange(es.count)
    i, j = 123456, 271828
    idx[[i, j]] = idx[[j, i]]
    m = MapTable(zorn, zorn, es, es, idx)
    rep = check_almost_additivity(m)
    assert not rep.ok and rep.mode == "exhaustive" and rep.seed is None
    assert rep.quantifier_space == {"pairs": es.count ** 2, "checked": es.count ** 2}
    a, b = (zorn.element(rep.witness[k]) for k in "ab")
    d = m(a + b) - m(a) - m(b)
    assert any(d * zorn.basis_element(k) != zorn.basis_element(k) * d for k in range(zorn.dim))
    assert sum(1 for c in a.coords if c) <= 1 and set(a.coords) <= {0, 1}
    ka, kb = (int(k) for k in es.index_of([a.coords, b.coords]))
    row = idx[es.sum_index([np.full(kb, ka), np.arange(kb)])]
    defects = es.sum_index([row], [np.full(kb, idx[ka]), idx[:kb]])
    assert center(zorn).mask(es)[defects].all()


@st.composite
def rebased_linear_maps(draw, gen, p, branch):
    """(phi, e1) on gen(p), M2 or Zorn, in a random basis
    (`test_rings.random_bases`): on M2, conjugation by a random g in GL_2
    under dagger or x -> -g x^T g^-1 + tr(x)*1 under ddagger, and the
    identity on Zorn, each built in the standard basis and moved to the
    random one as T^-1 A T, with e1 = T^-1 e11."""
    base, T = draw(random_bases((p,), (gen,)))
    ring, dom = rebase(base, T), base.domain
    T_inv = linalg.inverse(T, dom)
    spec = {"kind": "identity"}
    if gen is gen_m2:
        g = draw(st.lists(st.integers(0, p - 1), min_size=4, max_size=4)
                 .filter(lambda g: (g[0] * g[3] - g[1] * g[2]) % p))
        spec = {"kind": "conjugation", "element": g}
        if branch == "ddagger":
            spec = {"kind": "compose", "parts": [{"kind": "neg_transpose_plus_trace"}, spec]}
    std = build_map(base, base, spec)
    A = basis_matrix(std.es, std.et, std.image_index())
    phi = build_map(ring, ring, {"kind": "linear",
                                 "matrix": linalg.mat_mul(linalg.mat_mul(T_inv, A, dom), T, dom)})
    return phi, ring.element(linalg.mat_vec(T_inv, list(base.basis_coords(0)), dom))


@pytest.mark.parametrize("gen, p, branch", [(gen_m2, 3, "dagger"), (gen_m2, 5, "dagger"),
                                            (gen_m2, 3, "ddagger"), (gen_m2, 5, "ddagger"),
                                            (gen_zorn, 3, "dagger")],
                         ids=["m2_f3-dagger", "m2_f5-dagger", "m2_f3-ddagger", "m2_f5-ddagger",
                              "zorn_f3-dagger"])
@settings(max_examples=6)
@given(data=st.data())
def test_matrix_route_matches_cell_route(gen, p, branch, data):
    """On a linear phi `decompose` takes the matrix route: psi keeps
    psi_matrix and tau keeps Phi - Psi, each the basis images of its
    index.  The cell route, called directly on the same frames and
    recipes, gives the same psi index, and so the same tau = phi - psi."""
    phi, e1 = data.draw(rebased_linear_maps(gen, p, branch))
    res = decompose(phi, e1, branch)
    assert phi_linear(phi) and res.psi.matrix() == res.psi_matrix
    for g in (res.psi, res.tau):
        assert g.matrix() == basis_matrix(g.es, g.et, g.image_index())
    cells = psi_cell_route(phi, res.source_frame, diagonal_recipes(res.target_frame, branch))
    assert np.array_equal(cells, res.psi.image_index())
    assert np.array_equal(phi.et.sum_index([phi.image_index()], [cells]), res.tau.image_index())


def test_matrix_route_builds_no_psi_or_tau_index(zorn, monkeypatch):
    """On the Zorn/F5 identity, with the frames, hypotheses, branch
    detection, `phi_linear` and phi's index cached on the map by a first
    run, `decompose` with its certificates and the bundle's tau table make
    no `linear_index` or `sum_index` call: psi and tau stay matrices, read
    at points and, for the table, on the digit planes."""
    ident = build_map(zorn, zorn, {"kind": "identity"})
    decompose(ident, zorn.basis_element(0), "dagger")
    calls = Counter()
    for name in ("linear_index", "sum_index"):
        def counted(self, *args, _fn=getattr(Enumeration, name), _name=name):
            calls[_name] += 1
            return _fn(self, *args)
        monkeypatch.setattr(Enumeration, name, counted)
    res = decompose(ident, zorn.basis_element(0), "dagger")
    tau = res.tau.images()
    assert calls == {}
    assert res.required_pass() and res.psi.matrix() == res.psi_matrix
    assert tau.shape == (ident.es.count, zorn.dim) and not tau.any()


# -- kept matrices ---------------------------------------------------------------

def index_built(g):
    """The same map built from its image index alone: it keeps no matrix."""
    return MapTable(g.source, g.target, g.es, g.et, g.image_index())


@pytest.mark.parametrize("kind", ["identity", "linear", "neg_transpose_plus_trace", "conjugation",
                                  "structured_offset", "unreduced", "singular"])
def test_builder_maps_keep_their_matrix(m2, kind):
    """Every matrix kind keeps its matrix, reduced into [0, p): the basis
    images of its index.  Its entry reports, bijective by rank or singular,
    are those of the same index with no matrix."""
    specs = {name: spec for name, (spec, _) in structured_cases(m2).items()}
    specs["unreduced"] = {"kind": "linear", "matrix": [[6, -1, 0, 0], [0, 11, 0, -5],
                                                       [0, 0, -4, 0], [5, 0, 0, 1]]}
    specs["singular"] = {"kind": "linear", "matrix": [[1, 0, 0, 0], [0, 0, 0, 0],
                                                      [0, 0, 1, 0], [0, 0, 0, 1]]}
    m = build_map(m2, m2, specs[kind])
    M = m.matrix()
    assert M == basis_matrix(m.es, m.et, m.image_index())
    assert all(type(c) is int and 0 <= c < 5 for row in M for c in row)
    bare = index_built(m)
    assert bare.matrix() is None and phi_linear(m)
    # x + 2tr(x)*1 has trace 5tr(x) = 0: singular too
    assert m.is_bijective() == bare.is_bijective() == (kind not in ("singular",
                                                                   "structured_offset"))
    assert np.array_equal(m.fibres(), bare.fibres())
    reports = [[r.to_json() for r in (verify_surjective(g), *check_map_consequences(g))]
               for g in (m, bare)]
    assert reports[0] == reports[1]


def decomposition_breaks(res, condition, w) -> bool:
    """True when witness `w` violates `condition` of the decomposition
    `res`, in `rings.py` Element arithmetic with images from
    `MapTable.__call__`."""
    S, T = res.map.source, res.map.target
    phi, psi, tau = res.map, res.psi, res.tau
    el = S.element
    anti = res.branch == "ddagger"
    if "x" in w:
        x = el(w["x"])
        return {"recomposition": lambda: psi(x) + tau(x) != phi(x),
                "psi_linear_matrix": lambda: list(psi(x).coords) != list(
                    apply_matrix(T, res.psi_matrix, x.coords)),
                "tau_central": lambda: list(tau(x).coords) == w["tau"] and any(
                    tau(x) * T.basis_element(k) != T.basis_element(k) * tau(x)
                    for k in range(T.dim))}[condition]()
    if condition == "psi_bijective":
        if "unreached" in w:
            y = T.element(w["unreached"])
            return all(psi(el(x)) != y for x in product(range(S.domain.p), repeat=S.dim))
        a, b = el(w["a"]), el(w["b"])
        return a != b and psi(a) == psi(b) == T.element(w["image"])
    a, b = el(w["a"]), el(w["b"])
    if condition in ("psi_additive", "tau_additive"):
        g = psi if condition == "psi_additive" else tau
        return g(a + b) != g(a) + g(b)
    if condition == "tau_kills_commutators":
        return tau(a * b - b * a) != T.zero()
    if condition == "sandwich_identity":
        return psi((a * b) * a) != (psi(a) * psi(b)) * psi(a)
    assert condition.startswith(("psi_", "case_")), condition
    return psi(a * b) != (-(psi(b) * psi(a)) if anti else psi(a) * psi(b))


@pytest.mark.parametrize("corrupt", ["as_built", "one_entry", "linear"])
@pytest.mark.parametrize("which", ["map", "psi", "tau"])
@pytest.mark.parametrize("spec, branch", [({"kind": "identity"}, "dagger"),
                                          ({"kind": "neg_transpose_plus_trace"}, "ddagger")],
                         ids=["identity", "negtr"])
def test_certificates_do_not_read_kept_matrices_for_their_verdicts(m2, spec, branch, which,
                                                                  corrupt):
    """phi, psi or tau as built, with one entry changed (it drops its
    matrix), or replaced by another linear map (it keeps one): every
    certificate's JSON is the same with matrices kept, with that map
    swapped for an index-built copy, and with all three swapped, and each
    failing witness replays."""
    res = decompose(build_map(m2, m2, spec), m2.basis_element(0), branch)
    g = getattr(res, which)
    if corrupt == "one_entry":
        k = int(g.es.index_of([0, 1, 0, 0]))
        setattr(res, which, replace_entries(g, {k: (g.images()[k] + [1, 0, 0, 0]) % 5}))
    elif corrupt == "linear":
        M = [list(row) for row in g.matrix()]
        M[0][1] = (M[0][1] + 1) % 5
        setattr(res, which, build_map(m2, m2, {"kind": "linear", "matrix": M}))
        assert getattr(res, which).matrix() == M
    kept = [c.to_json() for c in verify_decomposition(res)]
    for swapped in ([which], ["map", "psi", "tau"]):
        for name in swapped:
            setattr(res, name, index_built(getattr(res, name)))
        assert [c.to_json() for c in verify_decomposition(res)] == kept, swapped
    failing = [c for c in kept if not c["pass"]]
    assert bool(failing) == (corrupt != "as_built")
    for c in failing:
        assert decomposition_breaks(res, c["condition"], c["witness"]), c


@pytest.mark.parametrize("spec, branch", [({"kind": "identity"}, "dagger"),
                                          ({"kind": "neg_transpose_plus_trace"}, "ddagger")],
                         ids=["identity", "negtr"])
def test_corrupted_tau_without_its_matrix_fails_as_before(m2, spec, branch):
    """tau with its entry at E12 changed keeps no matrix, so recomposition
    runs the element check and tau_additive builds tau's linear extension:
    both fail with the witnesses they had before maps kept matrices."""
    res = decompose(build_map(m2, m2, spec), m2.basis_element(0), branch)
    k = int(res.map.es.index_of([0, 1, 0, 0]))
    res.tau = replace_entries(res.tau, {k: (res.tau.images()[k] + [0, 1, 0, 0]) % 5})
    assert res.tau.matrix() is None
    certs = {c.condition: c for c in verify_decomposition(res)}
    assert (certs["recomposition"].ok, certs["recomposition"].witness) == \
        (False, {"x": [0, 1, 0, 0]})
    assert (certs["tau_additive"].ok, certs["tau_additive"].witness) == \
        (False, {"a": [0, 0, 0, 1], "b": [0, 1, 0, 0]})
    for name in ("recomposition", "tau_additive"):
        assert decomposition_breaks(res, name, certs[name].witness)
