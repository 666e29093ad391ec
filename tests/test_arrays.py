"""Differential tests of the structure-constant arrays: the associator
array, the law reports read from it, the centre and the Peirce
projectors against the pure-Python reference, `Element` and
`Ring.mul_coords` arithmetic with `linalg.mat_mul`, on int64 rings and
on the object path (over Q, and over F_p with n*(p-1)**2 >= 2**62)."""

import re
from itertools import product

import numpy as np
import pytest
from hypothesis import given

from altring import (Subspace, associator, center, gen_m2, gen_triangular2, gen_zorn,
                     is_alternative, is_associative, is_flexible, linalg, peirce_frame,
                     zorn_idempotent)
from altring.errors import PeirceIncompatible
from altring.reports import CheckReport, coords_json
from altring.rings import associators, structure_array
from conftest import (ASSOCIATOR_LAWS, anticommuting_q_ring, broken3_ring, f2_rings,
                      unital_rings)

BIG_P = 2147483647

# each report's laws, as the old per-tuple loop ran them: (arity, [(law, places)])
LAW_PASSES = {
    "alternative": [(3, [("(x,y,z) + (y,x,z) = 0", (0, 1, 2)), ("(x,y,z) + (x,z,y) = 0", (2, 0, 1))]),
                    (2, [("(x,x,y) = 0", (0, 1)), ("(y,x,x) = 0", (0, 1))])],
    "flexible": [(3, [("(x,y,z) + (z,y,x) = 0", (0, 1, 2))]), (2, [("(x,y,x) = 0", (0, 1))])],
    "associative": [(3, [("(x,y,z) = 0", (0, 1, 2))])],
}
CHECKERS = {"alternative": is_alternative, "flexible": is_flexible, "associative": is_associative}


def fixed_rings():
    return [gen_m2(5), gen_zorn(5), gen_triangular2(5), broken3_ring(), *f2_rings(), gen_m2("Q"),
            anticommuting_q_ring(), gen_m2(BIG_P)]


def reference_law_report(r, name) -> CheckReport:
    """The first failing (tuple, law) in lexicographic tuple order and law
    list order, each law evaluated in `Element` arithmetic."""
    for arity, laws in LAW_PASSES[name]:
        for t in product(range(r.dim), repeat=arity):
            for law, places in laws:
                args = {v: r.basis_element(t[p]) for v, p in zip("xyz", places)}
                if not ASSOCIATOR_LAWS[law](**args).is_zero():
                    return CheckReport(name, False, {"law": law, **{
                        v: coords_json(r, x.coords) for v, x in args.items()}}, {})
    return CheckReport(name, True, None, {})


def reference_projectors(r, e1):
    """The four projectors L_i R_j from `Ring.left/right_mul_matrix` and
    `linalg.mat_mul`, or the law that makes the frame incompatible."""
    dom, n = r.domain, r.dim
    L, R = r.left_mul_matrix(e1.coords), r.right_mul_matrix(e1.coords)
    for lhs, rhs, law in ((linalg.mat_mul(L, R, dom), linalg.mat_mul(R, L, dom), "e1 (a e1)"),
                          (linalg.mat_mul(L, L, dom), L, "e1 (e1 a)"),
                          (linalg.mat_mul(R, R, dom), R, "(a e1) e1")):
        if lhs != rhs:
            return law
    ident = linalg.mat_identity(n, dom)

    def minus(M):
        return [[dom.sub(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(ident, M)]

    left, right = {1: L, 2: minus(L)}, {1: R, 2: minus(R)}
    return {(i, j): linalg.mat_mul(left[i], right[j], dom) for i in (1, 2) for j in (1, 2)}


def reference_centre(r):
    """The nullspace of the stacked R_b - L_b over the basis vectors b, from
    `Ring.left/right_mul_matrix`."""
    dom = r.domain
    rows = [[dom.sub(a, b) for a, b in zip(ra, rb)] for i in range(r.dim)
            for ra, rb in zip(r.right_mul_matrix(r.basis_coords(i)),
                              r.left_mul_matrix(r.basis_coords(i)))]
    return Subspace.from_vectors(r, linalg.nullspace(rows, dom))


def check_arrays(r):
    """Every associator entry, law report, the centre and, for each nontrivial
    idempotent (among all elements of a ring of at most 625, else among
    the basis vectors), the Peirce projectors equal the reference's."""
    A = associators(r)
    assert A.shape == (r.dim,) * 4
    basis = [r.basis_element(i) for i in range(r.dim)]
    for i, j, k in product(range(r.dim), repeat=3):
        assert tuple(A[i, j, k]) == associator(basis[i], basis[j], basis[k]).coords
    for name, checker in CHECKERS.items():
        assert checker(r).to_json() == reference_law_report(r, name).to_json()
    assert center(r).basis == reference_centre(r).basis
    small = r.domain.kind == "Fp" and r.domain.p ** r.dim <= 625
    candidates = [r.element(x) for x in product(range(r.domain.p), repeat=r.dim)] if small else basis
    for e in candidates:
        if (e * e).coords != e.coords or e.is_zero() or e.coords == r.unit_coords:
            continue
        want = reference_projectors(r, e)
        if isinstance(want, str):
            with pytest.raises(PeirceIncompatible, match=re.escape(want)):
                peirce_frame(r, e)
        else:
            got = peirce_frame(r, e).projectors
            assert got == want
            assert all(type(x) is type(y) for ij in want for row, ref in zip(got[ij], want[ij])
                       for x, y in zip(row, ref))


@pytest.mark.parametrize("ring", fixed_rings(), ids=lambda r: r.name)
def test_arrays_match_reference_on_fixed_rings(ring):
    check_arrays(ring)


@given(unital_rings(max_dim=3))
def test_arrays_match_reference_on_random_rings(ring):
    check_arrays(ring)


def test_zorn_frame_projectors_match_reference(zorn):
    e1 = zorn_idempotent(zorn)
    assert peirce_frame(zorn, e1).projectors == reference_projectors(zorn, e1)


def test_array_dtype_follows_the_int64_bound():
    """int64 while n*(p-1)**2 < 2**62, else dtype object: over Q, and for
    M2 over F_2147483647, where 4*(p-1)**2 passes 2**62."""
    assert structure_array(gen_m2(5)).dtype == np.int64
    assert structure_array(gen_zorn(5)).dtype == np.int64
    for ring in (gen_m2("Q"), gen_m2(BIG_P)):
        assert structure_array(ring).dtype == object
        assert associators(ring).dtype == object
    assert 4 * (BIG_P - 1) ** 2 >= 2 ** 62
