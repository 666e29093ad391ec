"""The linear route of the entry battery.  On an F_p-linear map
(`phi_linear`) Lie multiplicativity, idempotent preservation, almost
additivity and scalar homogeneity are decided without a pair scan; each
report must be the one an exhaustive row-major scan returns, byte for
byte.  A pure-Python scan in `rings.py` coordinate arithmetic is the
reference, on random unital rings with random linear maps and one-entry
corruptions of them, which take the scan route."""

from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from altring import (MapTable, build_map, check_almost_additivity,
                     check_map_consequences, linalg, phi_linear,
                     verify_lie_multiplicative, verify_preserves_idempotents,
                     verify_surjective)
from altring.enumeration import DEFAULT_BUDGET, Enumeration
from altring.errors import BudgetExceeded
from altring.rings import Ring
from conftest import unital_rings
from test_maps import structured_cases


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
def rebased_rings(draw, p):
    """A random unital ring of dim <= 3 over F_p in a random basis, so
    that the unit and the commutators sit anywhere in element order."""
    ring = draw(unital_rings(primes=(p,), max_dim=3))
    n, dom = ring.dim, ring.domain
    row = st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
    P = draw(st.lists(row, min_size=n, max_size=n).filter(lambda P: linalg.inverse(P, dom)))
    P_inv = linalg.inverse(P, dom)
    new_basis = [[P[k][i] for k in range(n)] for i in range(n)]      # the columns of P
    sc = [[linalg.mat_vec(P_inv, list(ring.mul_coords(a, b)), dom) for b in new_basis]
          for a in new_basis]
    return Ring(ring.name, dom, ring.basis_names, sc,
                linalg.mat_vec(P_inv, list(ring.unit_coords), dom))


@st.composite
def linear_maps(draw):
    """A random F_p-linear map between random unital rings of dim <= 3,
    p in {3, 5}, singular matrices included, and a copy of it with one
    entry changed."""
    p = draw(st.sampled_from([3, 5]))
    source = draw(rebased_rings(p))
    target = draw(st.just(source) | rebased_rings(p))
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
    return m, m.replace_entry(k, new)


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
    near_misses = [ident.replace_entry(137, [1, 2, 3, 4]), shifted, off_top]
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
        m = negtr.replace_entry(137, imgs[411]).replace_entry(411, imgs[137])
    at_count, short = (MapTable(m2, m2, Enumeration.of(m2, b), Enumeration.of(m2, b),
                                m.image_index()) for b in (625, 624))
    assert phi_linear(at_count) == (kind == "linear")
    verifier(at_count)
    with pytest.raises(BudgetExceeded):
        verifier(short)
