import itertools
import json
import random
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

from altring import (Subspace, center, check_main_hypotheses, check_primeness,
                     check_spade_club, check_z_of_peirce_cell, gen_direct_sum, gen_m2,
                     gen_zorn, idempotents, is_alternative, linalg, nucleus, peirce_frame,
                     structure, verify_peirce_relations, zorn_idempotent)
from altring.enumeration import DEFAULT_BUDGET, Enumeration
from altring.errors import (BudgetExceeded, NotIdempotent, ParseError, PeirceIncompatible,
                            TrivialIdempotent, UnsupportedDomain)
from altring.reports import coords_json
from altring.rings import Ring, is_k_torsion_free
from altring.scalars import PrimeField
from altring.structure import (PRIMENESS_CHUNK, _generator_classes, _principal_ideals,
                               _unit_certificates, _unit_pair)
from conftest import apply_matrix, unital_rings
from test_rings import perturbed_m2, rebase, rebased_rings

GOLDEN = json.loads((Path(__file__).parent / "data" / "primeness_golden.json").read_text())


def ints(arr):
    return [int(x) for x in arr]


def test_center_dims(m2, zorn, dsum, t2):
    assert center(m2).dim == 1
    assert center(zorn).dim == 1
    assert center(dsum).dim == 2
    assert center(t2).dim == 1
    assert center(m2).contains(m2.unit_coords)


def test_center_of_m2_is_scalars(m2):
    c = center(m2)
    assert c.basis == ((1, 0, 0, 1),)


def test_nucleus_dims(m2, zorn, t2, broken3):
    assert nucleus(m2).dim == 4          # associative: everything
    assert nucleus(zorn).dim == 1        # octonion-type: scalars only
    assert nucleus(t2).dim == 3
    nucleus(broken3)                     # total on broken input, no crash


def test_idempotent_census_m2_vs_line_pair_oracle(m2):
    # rank-1 idempotents of M2(F_q) = projections onto a line along a
    # complementary line; build them all directly and compare sets
    q = 5
    lines = []
    for x in range(q):
        lines.append((1, x))
    lines.append((0, 1))
    expected = {(0, 0, 0, 0), (1, 0, 0, 1)}
    for u in lines:
        for v in lines:
            det = (u[0] * v[1] - u[1] * v[0]) % q
            if det == 0:
                continue
            dinv = pow(det, q - 2, q)
            w = ((v[1] * dinv) % q, (-v[0] * dinv) % q)
            expected.add((u[0] * w[0] % q, u[0] * w[1] % q,
                          u[1] * w[0] % q, u[1] * w[1] % q))
    assert len(expected) == 2 + q * (q + 1)

    census = idempotents(m2)
    got = {e.coords for e in census.elements}
    assert got == expected
    assert census.count() == 32
    assert census.count("zero") == 1 and census.count("trivial") == 1
    assert census.count("nontrivial") == 30


def test_idempotent_census_triangular(t2):
    census = idempotents(t2)
    assert census.count() == 12
    assert census.count("nontrivial") == 10


def test_idempotents_always_include_zero_and_unit(m2, zorn):
    for r in (m2, zorn):
        census = idempotents(r)
        coords = {e.coords for e in census.elements}
        assert r.zero().coords in coords
        assert tuple(r.unit_coords) in coords


def test_zorn_distinguished_idempotent(zorn):
    e = zorn.basis_element(0)
    assert (e * e).coords == e.coords


def test_idempotents_over_q(m2q):
    with pytest.raises(UnsupportedDomain):
        idempotents(m2q)


def element_counts(census) -> dict:
    """The census counted from its `Element`s, each tagged from its own
    coordinates."""
    r = census.ring
    zero = sum(e.is_zero() for e in census.elements)
    trivial = sum(e.coords == tuple(r.unit_coords) for e in census.elements)
    total = len(census.elements)
    return {"total": total, "zero": zero, "trivial": trivial,
            "nontrivial": total - zero - trivial}


@pytest.mark.parametrize("name", ["m2", "t2", "zorn"])
def test_census_counts_from_mask_match_elements(name, request):
    ring = request.getfixturevalue(name)
    census = idempotents(ring)
    counts = census.counts()                # before any Element exists
    assert census.count() == counts["total"] and census.count("zero") == counts["zero"]
    assert "elements" not in vars(census) and "tags" not in vars(census)
    assert counts == element_counts(census)
    assert {t: census.count(t) for t in counts if t != "total"} == \
        {t: census.tags.count(t) for t in counts if t != "total"}
    enum = Enumeration.of(ring, DEFAULT_BUDGET)
    assert [e.coords for e in census.elements] == \
        [tuple(ints(x)) for x in enum.coords_of(np.flatnonzero(enum.idempotent_mask()))]


def test_idempotents_budget(zorn):
    with pytest.raises(BudgetExceeded):
        idempotents(zorn, budget=10**4)


def test_peirce_frame_m2(m2, m2_frame):
    dims = [m2_frame.components[ij].dim for ij in ((1, 1), (1, 2), (2, 1), (2, 2))]
    assert dims == [1, 1, 1, 1]
    assert m2_frame.components[(1, 2)].basis == ((0, 1, 0, 0),)
    assert m2_frame.components[(2, 1)].basis == ((0, 0, 1, 0),)


def test_peirce_frame_zorn_dims(zorn_frame):
    dims = [zorn_frame.components[ij].dim for ij in ((1, 1), (1, 2), (2, 1), (2, 2))]
    assert dims == [1, 3, 3, 1]


def test_peirce_frame_rejects_trivial(m2):
    with pytest.raises(TrivialIdempotent):
        peirce_frame(m2, m2.unit())
    with pytest.raises(TrivialIdempotent):
        peirce_frame(m2, m2.zero())
    with pytest.raises(NotIdempotent):
        peirce_frame(m2, m2.element([0, 1, 0, 0]))


def test_peirce_project_decomposes(m2, m2_frame):
    def project(a):
        return {ij: m2.element(apply_matrix(m2, P, a.coords))
                for ij, P in m2_frame.projectors.items()}

    parts = project(m2_frame.e1)
    assert parts[(1, 1)].coords == m2_frame.e1.coords
    assert all(parts[ij].is_zero() for ij in ((1, 2), (2, 1), (2, 2)))
    parts = project(m2.unit())
    assert parts[(1, 1)].coords == m2_frame.e1.coords
    assert parts[(2, 2)].coords == m2_frame.e2.coords
    x = m2.element([1, 2, 3, 4])
    parts = project(x)
    total = parts[(1, 1)] + parts[(1, 2)] + parts[(2, 1)] + parts[(2, 2)]
    assert total.coords == x.coords
    assert parts[(1, 2)].coords == (0, 2, 0, 0)


def test_peirce_relations_pass(m2_frame, zorn_frame):
    for frame in (m2_frame, zorn_frame):
        reports = verify_peirce_relations(frame)
        assert all(r.ok for r in reports), [r.condition for r in reports if not r.ok]
    swap = next(r for r in verify_peirce_relations(zorn_frame)
                if r.condition == "peirce_ii_swap")
    assert swap.quantifier_space["nonzero_products"] == 1


def test_peirce_relations_fail_on_perturbed_m2(m2):
    # perturbing E12*E12 from 0 to E11 keeps the unit and the projector
    # identities but breaks the off-diagonal square and swap relations
    # (site found by scanning all single-constant perturbations)
    sc = [[[int(x) for x in row] for row in plane] for plane in m2.sc]
    sc[1][1][0] = 1
    pert = Ring("pert_m2", PrimeField(5), list(m2.basis_names), sc, [1, 0, 0, 1])
    frame = peirce_frame(pert, pert.basis_element(0))
    reports = {r.condition: r for r in verify_peirce_relations(frame)}
    assert not reports["peirce_iv_a_squares"].ok
    assert reports["peirce_iv_a_squares"].witness is not None
    assert not all(r.ok for r in reports.values())


def _perturbed_zorn(zorn, site):
    sc = [[[int(x) for x in row] for row in plane] for plane in zorn.sc]
    a, b, c = site
    sc[a][b][c] += 1
    return Ring("pert_zorn", PrimeField(5), list(zorn.basis_names), sc, list(zorn.unit_coords))


@pytest.mark.parametrize("site, condition", [((1, 4, 1), "peirce_i_compose"),
                                             ((1, 2, 0), "peirce_iv_b_anticommute")],
                         ids=["compose", "anticommute"])
def test_peirce_relations_on_perturbed_zorn(zorn, site, condition):
    """One perturbed Zorn/F5 constant breaks a relation: its report
    counts every basis pair and quotes the first failing pair in loop
    order, both re-derived here in `rings.py` arithmetic."""
    pert = _perturbed_zorn(zorn, site)
    frame = peirce_frame(pert, zorn_idempotent(pert))
    comp = frame.components

    def zero(w):
        return all(x == 0 for x in w)

    if condition == "peirce_i_compose":
        cases = [((i, j), (j, l), lambda w, il=(i, l): comp[il].contains(w), "cells")
                 for i in (1, 2) for j in (1, 2) for l in (1, 2)]
    else:
        cases = [(ij, ij, None, "cell") for ij in ((1, 2), (2, 1))]
    pairs, want = 0, None
    for ca, cb, holds, key in cases:
        for u in comp[ca].basis:
            for v in comp[cb].basis:
                pairs += 1
                uv = pert.mul_coords(list(u), list(v))
                ok = holds(uv) if holds else zero(pert.add_coords(uv, pert.mul_coords(list(v), list(u))))
                if not ok and want is None:
                    want = {"left": list(u), "right": list(v),
                            key: [list(ca), list(cb)] if holds else list(ca)}
    reports = {r.condition: r for r in verify_peirce_relations(frame)}
    assert not reports[condition].ok
    assert reports[condition].quantifier_space == {"basis_pairs": pairs}
    assert reports[condition].witness == want
    assert pairs == (32 if condition == "peirce_i_compose" else 18)


def test_peirce_relations_fail_on_broken_triangular(broken3):
    # the frame itself still builds (the perturbed constant never meets an
    # e1-product) but the swap, square, and anticommutation laws all break
    frame = peirce_frame(broken3, broken3.basis_element(0))
    reports = {r.condition: r.ok for r in verify_peirce_relations(frame)}
    assert reports["peirce_i_compose"]
    assert not reports["peirce_ii_swap"]
    assert not reports["peirce_iv_a_squares"]
    assert not reports["peirce_iv_b_anticommute"]


def test_square_law_over_q_quotes_an_element_with_nonzero_square(anticommuting_q):
    # every basis square of R_12 is zero, but (u1 + u2)^2 = 2*e1 is not
    frame = peirce_frame(anticommuting_q, anticommuting_q.element([1, 0, 0, 0]))
    rep = next(r for r in verify_peirce_relations(frame) if r.condition == "peirce_iv_a_squares")
    x = anticommuting_q.element(rep.witness["element"])
    assert not rep.ok and not (x * x).is_zero()
    assert frame.components[(1, 2)].contains(x.coords) and rep.witness["cell"] == [1, 2]
    # u1, u2 and u1 + u2
    assert rep.quantifier_space == {"elements": 3}


def square_law_by_points(frame) -> tuple:
    """(iv.a) over F_p by brute force: every point of both off-diagonal
    cells, in `subspace_points` order (first basis direction fastest),
    squared in `Ring.mul_coords`.  Returns (ok, witness, quantifier space)
    as the report should give them."""
    r = frame.ring
    p = r.domain.p
    wit, count = None, 0
    for ij in ((1, 2), (2, 1)):
        basis = frame.components[ij].basis
        for idx in range(p ** len(basis)):
            coeffs = [idx // p ** a % p for a in range(len(basis))]
            x = [sum(c * int(u[m]) for c, u in zip(coeffs, basis)) % p for m in range(r.dim)]
            count += 1
            if wit is None and any(int(y) for y in r.mul_coords(x, x)):
                wit = {"element": x, "cell": list(ij)}
    return wit is None, wit, {"elements": count}


@hst.composite
def perturbed_square_frames(draw):
    """The frame of a nontrivial idempotent e1 = [[a, u], [v, 1 - a]] of M2
    or Zorn over F_p, after one structure constant b_i b_j gains a nonzero
    multiple of b_k, where i and j are off-diagonal coordinates at which
    e1 is zero.  The unit and every product with e1 keep their values, so
    the frame builds with the same cells, on which x^2 = 0 may now fail."""
    p = draw(hst.sampled_from([2, 3, 5, 7]))
    base = draw(hst.sampled_from([gen_m2, gen_zorn]))(p)
    n = base.dim
    k = (n - 2) // 2
    uv = [draw(hst.just(0) | hst.integers(0, p - 1)) for _ in range(2 * k)]
    dot = sum(a * b for a, b in zip(uv[:k], uv[k:]))
    roots = [a for a in range(p) if (a * a - a + dot) % p == 0]
    assume(roots)
    a = draw(hst.sampled_from(roots))
    e1 = [a] + uv + [(1 - a) % p]
    zeros = [i for i in range(1, n - 1) if e1[i] == 0]
    assume(zeros)
    i, j = draw(hst.sampled_from(zeros)), draw(hst.sampled_from(zeros))
    sc = [[[int(x) for x in row] for row in plane] for plane in base.sc]
    sc[i][j][draw(hst.integers(0, n - 1))] += draw(hst.integers(1, p - 1))
    ring = Ring("pert", base.domain, list(base.basis_names), sc, list(base.unit_coords))
    return peirce_frame(ring, ring.element(e1))


@given(unital_rings(), rebased_rings(), perturbed_square_frames(), hst.data())
def test_square_law_matches_every_point(ring, rebased, perturbed, data):
    """The (iv.a) report, decided from the polar form, equals a scan of
    every cell point in `subspace_points` order: verdict, first failing
    point and count.  Frames come from every nontrivial idempotent of a
    random unital ring, up to 3 drawn idempotents of M2 or Zorn in a
    random basis, and a one-constant perturbation of M2 or Zorn."""
    frames = []
    for e1 in idempotents(ring).elements:
        try:
            frames.append(peirce_frame(ring, e1))
        except (PeirceIncompatible, TrivialIdempotent):
            continue
    census = idempotents(rebased)
    nontrivial = [e for e, t in zip(census.elements, census.tags) if t == "nontrivial"]
    drawn = data.draw(hst.lists(hst.sampled_from(nontrivial), min_size=1, max_size=3, unique=True))
    frames += [peirce_frame(rebased, e1) for e1 in drawn] + [perturbed]
    for frame in frames:
        rep = next(r for r in verify_peirce_relations(frame)
                   if r.condition == "peirce_iv_a_squares")
        assert (rep.ok, rep.witness, rep.quantifier_space) == square_law_by_points(frame)


def test_square_law_quotes_the_first_point_on_perturbed_zorn():
    """Zorn/F3 at e1 = e11 + u1 + u2 + u3, whose cells have no coordinate
    basis, with b_i b_j += b_c for every pair of v coordinates and every c.
    In the 16 cases b_4 b_5 += b_c and b_5 b_4 += b_c the first failing
    point of R_12 is the sum of its first two basis vectors while the
    third fails too, so a scan of the basis vectors before the sums would
    quote another point."""
    zorn = gen_zorn(3)
    e1 = [1, 1, 1, 1, 0, 0, 0, 0]
    pair_first = 0
    for i, j, c in itertools.product((4, 5, 6), (4, 5, 6), range(8)):
        sc = [[[int(x) for x in row] for row in plane] for plane in zorn.sc]
        sc[i][j][c] += 1
        ring = Ring("pert_zorn", zorn.domain, list(zorn.basis_names), sc, list(zorn.unit_coords))
        frame = peirce_frame(ring, ring.element(e1))
        rep = next(r for r in verify_peirce_relations(frame)
                   if r.condition == "peirce_iv_a_squares")
        assert (rep.ok, rep.witness, rep.quantifier_space) == square_law_by_points(frame)
        if rep.witness:
            basis = [list(u) for u in frame.components[tuple(rep.witness["cell"])].basis]
            pair_first += rep.witness["element"] not in basis and \
                any(any(ring.mul_coords(u, u)) for u in basis)
    assert pair_first == 16


def skew_ring():
    """e x . e != e . x e for the idempotent e = basis 1: no Peirce frame."""
    sc = [[[0] * 4 for _ in range(4)] for _ in range(4)]
    for k in range(4):
        sc[0][k][k] = 1
        if k:
            sc[k][0][k] = 1
    sc[1][1][1] = 1     # e*e = e
    sc[1][2][3] = 1     # e*x = y
    sc[3][1][3] = 1     # y*e = y
    return Ring("skew", PrimeField(5), ["one", "e", "x", "y"], sc, [1, 0, 0, 0])


def test_peirce_frame_incompatible():
    # e x . e != e . x e: corner projections cannot be formed
    ring = skew_ring()
    with pytest.raises(PeirceIncompatible):
        peirce_frame(ring, ring.basis_element(1))


# -- frames against the validator they replaced ------------------------------
#
# A reference copy of the frame validation as it was before frames were
# decided from L and R alone: 4 compatibility, 4 idempotency and 12
# annihilation checks on the four corner projectors, their sum, and the
# corner dimensions, with each component the span of its projector
# applied to every basis vector.

def reference_frame(r, e1):
    """(projectors, components) of e1's frame, or None where the
    reference validation rejects it."""
    dom = r.domain
    es = {1: e1.coords, 2: r.sub_coords(r.unit_coords, e1.coords)}
    left = {i: r.left_mul_matrix(es[i]) for i in es}
    right = {j: r.right_mul_matrix(es[j]) for j in es}
    for i in (1, 2):
        for j in (1, 2):
            if linalg.mat_mul(right[j], left[i], dom) != linalg.mat_mul(left[i], right[j], dom):
                return None
    projectors = {(i, j): linalg.mat_mul(left[i], right[j], dom)
                  for i in (1, 2) for j in (1, 2)}
    for ij, P in projectors.items():
        if linalg.mat_mul(P, P, dom) != P:
            return None
        for kl, Q in projectors.items():
            if kl != ij and any(x != dom.zero for row in linalg.mat_mul(P, Q, dom) for x in row):
                return None
    acc = [[dom.zero] * r.dim for _ in range(r.dim)]
    for P in projectors.values():
        acc = [[dom.add(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(acc, P)]
    if acc != linalg.mat_identity(r.dim, dom):
        return None
    components = {ij: Subspace.from_vectors(r, [list(apply_matrix(r, P, r.basis_coords(k)))
                                                for k in range(r.dim)])
                  for ij, P in projectors.items()}
    if sum(c.dim for c in components.values()) != r.dim:
        return None
    return projectors, components


def frame_verdicts(r, candidates) -> list[bool]:
    """`peirce_frame` and `reference_frame` agree on every nontrivial
    idempotent among the candidates (the whole census of a finite ring
    when None): both reject, or both accept with equal projectors and
    components.  Returns the verdicts."""
    if candidates is None:
        found = idempotents(r).elements
    else:
        found = [e for e in map(r.element, candidates) if (e * e).coords == e.coords]
    verdicts = []
    for e1 in found:
        if e1.is_zero() or e1.coords == r.unit_coords:
            continue
        want = reference_frame(r, e1)
        try:
            frame = peirce_frame(r, e1)
        except PeirceIncompatible:
            assert want is None, (r.name, e1)
            verdicts.append(False)
            continue
        assert want == (frame.projectors, frame.components), (r.name, e1)
        verdicts.append(True)
    return verdicts


@given(unital_rings(), rebased_rings(), hst.data())
def test_frames_match_reference_on_random_rings(ring, rebased, data):
    """Random unital rings reject nearly every frame.  M2 and Zorn over
    F_2 and F_3 in a random basis are alternative, so every nontrivial
    idempotent spans a frame: up to 8 of them, drawn (Zorn/F_3 has 756),
    must be accepted by both validators."""
    frame_verdicts(ring, None)
    nontrivial = [e.coords for e in idempotents(rebased).elements
                  if not e.is_zero() and e.coords != rebased.unit_coords]
    drawn = data.draw(hst.lists(hst.sampled_from(nontrivial), min_size=1, max_size=8, unique=True))
    verdicts = frame_verdicts(rebased, drawn)
    assert len(verdicts) == len(drawn) and all(verdicts)


def test_frames_match_reference_on_fixed_rings(m2q, anticommuting_q, broken3):
    verdicts = frame_verdicts(m2q, [[1, 0, 0, 0], [0, 0, 0, 1], [1, 1, 0, 0],
                                    ["1/2", "1/2", "1/2", "1/2"]])
    verdicts += frame_verdicts(anticommuting_q, [[1, 0, 0, 0], [0, 1, 0, 0]])
    for ring in (broken3, skew_ring()):
        verdicts += frame_verdicts(ring, None)
    assert set(verdicts) == {True, False}


def test_frames_match_reference_on_perturbed_m2():
    verdicts = [v for ring in perturbed_m2() for v in frame_verdicts(ring, None)]
    assert set(verdicts) == {True, False}


def test_frames_match_reference_on_perturbed_zorn(zorn):
    """One unit of a constant of an e11 product moved to the matching e22
    product, which changes L or R of e1 = e11; those that keep the unit."""
    verdicts = []
    for left, b, c in itertools.product((True, False), range(8), range(8)):
        sc = [[[int(x) for x in row] for row in plane] for plane in zorn.sc]
        for k, step in ((0, 1), (7, -1)):
            if left:
                sc[k][b][c] += step
            else:
                sc[b][k][c] += step
        try:
            ring = Ring("pert_zorn", PrimeField(5), list(zorn.basis_names), sc,
                        list(zorn.unit_coords))
        except ParseError:          # the unit axiom broke
            continue
        verdicts += frame_verdicts(ring, [zorn_idempotent(ring).coords])
    assert set(verdicts) == {True, False}


def test_main_hypotheses_pass(m2_frame, zorn_frame):
    for frame in (m2_frame, zorn_frame):
        reports = check_main_hypotheses(frame)
        assert [r.condition for r in reports] == \
            ["condition_1", "condition_2", "condition_3", "condition_4"]
        assert all(r.ok for r in reports)


def test_condition_4_fails_on_direct_sum(dsum_frame):
    reports = {r.condition: r for r in check_main_hypotheses(dsum_frame)}
    assert reports["condition_1"].ok
    assert reports["condition_2"].ok
    assert reports["condition_3"].ok
    rep = reports["condition_4"]
    assert not rep.ok
    # first failing central element in scan order: the first block's unit
    assert rep.witness["central"] == [1, 0, 0, 1, 0, 0, 0, 0]
    assert rep.witness["rank"] == 4


def test_condition_1_fails_on_triangular(t2):
    frame = peirce_frame(t2, t2.basis_element(0))
    reports = {r.condition: r for r in check_main_hypotheses(frame)}
    # R_21 = 0, so every nonzero x_12 annihilates it vacuously
    assert not reports["condition_1"].ok
    assert reports["condition_1"].witness["element"] == [0, 1, 0]


def test_spade_club(m2_frame, zorn_frame, dsum_frame, t2):
    t2_frame = peirce_frame(t2, t2.basis_element(0))
    for frame in (m2_frame, zorn_frame, dsum_frame, t2_frame):
        hyps = check_main_hypotheses(frame)
        reports = {r.condition: r for r in check_spade_club(frame, hyps)}
        assert reports["conditions_imply_spade_club"].ok
    for frame in (m2_frame, zorn_frame):
        assert all(r.ok for r in check_spade_club(frame, check_main_hypotheses(frame)))


def test_spade_club_on_zorn_within_a_small_budget(zorn_frame):
    """Centrality by commutation with the basis: the 25 diagonal sums of
    Zorn/F5 fit a budget of 1000, and the reports are those at 10^6.  The
    sums are `subspace_points` under the budget: 25 is enough, 24 is not."""
    reports = {}
    for budget in (1000, 10**6):
        hyps = check_main_hypotheses(zorn_frame, budget)
        reports[budget] = [r.to_json() for r in check_spade_club(zorn_frame, hyps, budget)]
    assert reports[1000] == reports[10**6]
    assert reports[1000][0]["quantifier_space"] == {"diagonal_sums": 25}
    assert [r.to_json() for r in check_spade_club(zorn_frame, hyps, 25)] == reports[10**6]
    with pytest.raises(BudgetExceeded, match="needs 25 evaluations, budget is 24"):
        check_spade_club(zorn_frame, hyps, 24)


def test_z_of_peirce_cell(m2_frame, zorn_frame):
    reports = check_z_of_peirce_cell(m2_frame)
    assert all(r.ok for r in reports)
    by_name = {r.condition: r for r in reports}
    # 1-dim corners are abelian: the cell centre is the whole cell
    assert by_name["cell_centre_12"].quantifier_space["cell_centre_dim"] == 1
    for r in check_z_of_peirce_cell(zorn_frame):
        assert r.ok
        assert r.quantifier_space["cell_centre_dim"] == 0


def test_primeness_m2_and_t2(m2, t2):
    rep = check_primeness(m2)
    assert rep.prime_by_ideals and rep.prime_by_elements and rep.criterion_equiv
    assert rep.alternative and rep.torsion_free_3
    rep = check_primeness(t2)
    assert not rep.prime_by_ideals and not rep.prime_by_elements
    assert rep.criterion_equiv


def test_primeness_direct_sum_witness_is_valid(dsum):
    rep = check_primeness(dsum)
    assert not rep.prime_by_ideals and not rep.prime_by_elements
    assert rep.criterion_equiv
    # ideal route found the two block ideals (witnesses: test_primeness_witnesses_replay)
    assert rep.quantifier_space["minimal_ideals"] == 2


@pytest.mark.parametrize("ring_fixture", ["dsum", "t2"])
def test_primeness_witnesses_replay(ring_fixture, request):
    """Both witnesses of a non-prime ring, replayed in `rings.py` and
    `linalg.py` arithmetic: (a b_k) b = 0 for every basis b_k with a, b
    nonzero; two quoted bases of nonzero two-sided ideals (closed under
    multiplication by every basis vector on both sides) with zero product."""
    r = request.getfixturevalue(ring_fixture)
    dom = r.domain
    rep = check_primeness(r)
    basis = [r.basis_coords(k) for k in range(r.dim)]

    def is_zero(v):
        return all(x == dom.zero for x in v)

    a, b = ([int(x) for x in rep.element_witness[key]] for key in ("a", "b"))
    assert not is_zero(a) and not is_zero(b)
    assert all(is_zero(r.mul_coords(r.mul_coords(a, bk), b)) for bk in basis)

    w = rep.ideal_witness
    ideals = [[[int(x) for x in v] for v in w[key]] for key in ("ideal_a_basis", "ideal_b_basis")]
    for rows in ideals:
        span, pivots = linalg.rref(rows, dom)
        assert 0 < len(span) == len(rows)                  # a basis of a nonzero subspace
        for v in rows:
            for bk in basis:
                assert linalg.in_span(span, pivots, list(r.mul_coords(v, bk)), dom)
                assert linalg.in_span(span, pivots, list(r.mul_coords(bk, v)), dom)
    assert all(is_zero(r.mul_coords(u, v)) for u in ideals[0] for v in ideals[1])
    assert [w["a"], w["b"]] == [ideals[0][0], ideals[1][0]]


@pytest.mark.parametrize("key, ring_fixture", [("m2_plus_m2_f5", "dsum"),
                                               ("triangular2_f5", "t2"), ("m2_f3", None)])
def test_primeness_matches_golden(key, ring_fixture, request):
    """Reports and the order ideals are found in, as recorded before the
    unit-rank screen and the sparse kernels."""
    ring = request.getfixturevalue(ring_fixture) if ring_fixture else gen_m2(3)
    assert check_primeness(ring).to_json() == GOLDEN[key]["report"]
    enum = Enumeration(ring, 10 ** 6)
    reps, full = _generator_classes(enum)
    ideals = _principal_ideals(ring, enum, reps, full)
    assert [[list(row) for row in sub.basis] for sub in ideals] == GOLDEN[key]["ideals"]


def test_unit_rank_screen_counts(zorn, dsum):
    for ring, screened in ((zorn, 78000), (dsum, 57600)):
        reps, full = _generator_classes(Enumeration(ring, 10 ** 6))
        assert len(reps) == 97656 and int(full.sum()) == screened
        # a full-rank L_a generates R, so its principal ideal is everything
        a = [int(x) for x in reps[np.flatnonzero(full)[0]]]
        assert linalg.rank(ring.left_mul_matrix(a), ring.domain) == ring.dim


def test_screen_decides_every_element_by_its_class():
    """The certificate rounds rank nothing: for every element y of M2/F5,
    the screen's verdict on y's scalar class is the rank test on L_y in
    `linalg.py`, and y's class representative is a scalar multiple of y."""
    ring = gen_m2(5)
    enum = Enumeration(ring, DEFAULT_BUDGET)
    reps, screened = _generator_classes(enum)
    elements = list(itertools.product(range(5), repeat=4))
    pos = enum.class_position(np.array(elements))
    for y, k in zip(elements, pos.tolist()):
        full = linalg.rank(ring.left_mul_matrix(y), ring.domain) == ring.dim
        assert (k >= 0 and bool(screened[k])) == full, y
        if k >= 0:
            assert any(ring.smul_coords(lam, ints(reps[k])) == y for lam in range(1, 5))


# -- primeness against a pure-Python reference -------------------------------

def reference_generators(r):
    """Nonzero coordinate tuples whose first nonzero entry is 1, in element
    order: one per nonzero scalar class."""
    p = r.domain.p
    return [x for x in itertools.product(range(p), repeat=r.dim)
            if any(x) and next(c for c in x if c) == 1]


def reference_closure(r, x):
    """(echelon rows, step) of the ideal generated by x, grown in
    `linalg.rref` over `rings.py` products as the batched closure grows
    it: each step adds x*b_j and b_j*x for every spanning row x, and the
    step that reaches rank n or stops growing ends it."""
    basis = [r.basis_coords(j) for j in range(r.dim)]
    rows, rank = [list(x)], 1
    for step in itertools.count(1):
        stack = rows + [list(r.mul_coords(v, b)) for v in rows for b in basis] \
            + [list(r.mul_coords(b, v)) for v in rows for b in basis]
        grown, _ = linalg.rref(stack, r.domain)
        if len(grown) in (r.dim, rank):
            return grown, step
        rows, rank = grown, len(grown)


def reference_closures(r):
    """(position, echelon rows, step) of the ideal of every generator class."""
    return [(pos, *reference_closure(r, x)) for pos, x in enumerate(reference_generators(r))]


def reference_proper_ideals(closures, n, chunk):
    """Distinct proper principal ideals in the order the batched closure
    finds them with `chunk` generators per batch: chunk, then step, then
    element order."""
    ideals = []
    for _, rows in sorted(((pos // chunk, step, pos), rows)
                          for pos, rows, step in closures if len(rows) < n):
        if rows not in ideals:
            ideals.append(rows)
    return ideals


def reference_element_witness(r):
    """The element route: the first generator class a, in element order,
    whose stacked rows of L_{a b_k} have a nonzero kernel vector b."""
    for a in reference_generators(r):
        rows = [row for k in range(r.dim)
                for row in r.left_mul_matrix(r.mul_coords(a, r.basis_coords(k)))]
        null = linalg.nullspace(rows, r.domain)
        if null:
            return {"a": coords_json(r, a), "b": coords_json(r, null[0])}
    return None


def reference_primeness(r, closures, chunk, element_witness) -> dict:
    """`PrimenessReport.to_json()` in `rings.py` / `linalg.py` arithmetic:
    every generator class runs both routes, with no screen and no
    certificate.  `alternative` and `torsion_free_3` are taken from the
    library, whose own tests check them."""
    dom, n = r.domain, r.dim
    whole = [[list(r.basis_coords(j)) for j in range(n)]] \
        if any(len(rows) == n for _, rows, _ in closures) else []
    ideals = whole + reference_proper_ideals(closures, n, chunk)

    def contains(big, small):
        span, piv = linalg.rref(big, dom)
        return all(linalg.in_span(span, piv, v, dom) for v in small)

    minimal = [A for A in ideals
               if not any(len(B) < len(A) and contains(A, B) for B in ideals)]
    ideal_witness = next(
        ({"ideal_a_basis": [coords_json(r, u) for u in A],
          "ideal_b_basis": [coords_json(r, v) for v in B],
          "a": coords_json(r, A[0]), "b": coords_json(r, B[0])}
         for A in minimal for B in minimal
         if not any(any(r.mul_coords(u, v)) for u in A for v in B)), None)
    prime_ideal, prime_element = ideal_witness is None, element_witness is None
    return {"ring": r.name, "prime": prime_ideal, "prime_by_ideals": prime_ideal,
            "prime_by_elements": prime_element, "criterion_equiv": prime_ideal == prime_element,
            "ideal_witness": ideal_witness, "element_witness": element_witness,
            "quantifier_space": {"elements": dom.p ** n, "generator_classes": len(closures),
                                 "ideals_found": len(ideals), "minimal_ideals": len(minimal)},
            "alternative": is_alternative(r).ok, "torsion_free_3": is_k_torsion_free(r, 3).ok}


def check_primeness_matches_reference(r, chunk):
    """The library against the reference with its own batches and with
    `chunk` generators per batch, so that batch boundaries fall inside
    these small rings."""
    closures, element_witness = reference_closures(r), reference_element_witness(r)
    for size in (PRIMENESS_CHUNK, chunk):
        with patch.object(structure, "PRIMENESS_CHUNK", size):
            enum = Enumeration(r, DEFAULT_BUDGET)
            reps, screened = _generator_classes(enum)
            assert [tuple(ints(x)) for x in reps] == reference_generators(r)
            ideals = _principal_ideals(r, enum, reps, screened)
            proper = [[list(row) for row in sub.basis] for sub in ideals if sub.dim < r.dim]
            assert proper == reference_proper_ideals(closures, r.dim, size)
            want = reference_primeness(r, closures, size, element_witness)
            assert check_primeness(r).to_json() == want


@hst.composite
def direct_sums(draw):
    """The direct sum of two drawn unital rings over one prime: it always
    has proper ideals, so the closure runs behind the certificate."""
    p = draw(hst.sampled_from([3, 5]))
    rings = unital_rings(primes=(p,), max_dim=3 if p == 3 else 2)
    return gen_direct_sum(draw(rings), draw(rings))


@settings(max_examples=30)
@given(unital_rings(primes=(3, 5, 7)), rebased_rings(primes=(2, 3)).filter(lambda r: r.dim == 4),
       direct_sums(), hst.integers(1, 16))
def test_primeness_matches_reference(ring, rebased, dsum, chunk):
    """Reports and the proper ideals, in order, against a closure in
    `rings.py` / `linalg.py` arithmetic over every generator class: random
    unital rings, M2 over F_2 and F_3 in a random basis, and
    direct sums of two random rings, each also in batches of `chunk`
    generators."""
    for r in (ring, rebased, dsum):
        check_primeness_matches_reference(r, chunk)


def test_unit_certificates_replay_on_direct_sum(dsum):
    """Every generator of M2+M2/F5 certified by a round has y = x*u_t + v_t*x,
    recomputed in `rings.py` arithmetic, with a full-rank L_y, and no class
    (a, 0) or (0, b), whose ideal is a block, is certified."""
    enum = Enumeration(dsum, 10 ** 6)
    reps, screened = _generator_classes(enum)
    rounds = _unit_certificates(enum, reps, screened)
    assert np.array_equal(rounds == 0, screened)
    pairs = {t: [tuple(ints(P)) for P in _unit_pair(enum, t)]
             for t in set(rounds[rounds > 0].tolist())}
    for k in np.flatnonzero(rounds > 0):
        x = tuple(ints(reps[k]))
        u, v = pairs[int(rounds[k])]
        y = dsum.add_coords(dsum.mul_coords(x, u), dsum.mul_coords(v, x))
        assert linalg.rank(dsum.left_mul_matrix(y), dsum.domain) == dsum.dim, (x, u, v)
    blocks = (reps[:, :4] == 0).all(axis=1) | (reps[:, 4:] == 0).all(axis=1)
    assert int(blocks.sum()) == 312
    assert (rounds[blocks] == -1).all()
    assert int((rounds > 0).sum()) == 39744 and int((rounds == -1).sum()) == 312


def test_closure_order_across_batches():
    """M2+M2/F3 with 5 generators per batch: the 166 uncertified generators
    fill batches that straddle chunks of `reps` and stabilise at steps 2
    and 3.  The proper ideals come out in the reference order, the whole
    ring at its first (chunk, step) key, after a proper ideal, and no
    elimination sees more than 5 generators."""
    r, chunk = gen_direct_sum(gen_m2(3), gen_m2(3)), 5
    closures = reference_closures(r)
    enum = Enumeration(r, DEFAULT_BUDGET)
    reps, screened = _generator_classes(enum)
    rounds = _unit_certificates(enum, reps, screened)
    uncertified = np.flatnonzero(rounds < 0).tolist()
    assert len(uncertified) == 166
    steps = {pos: step for pos, _, step in closures}
    batches = [uncertified[lo:lo + chunk] for lo in range(0, len(uncertified), chunk)]
    assert any(len({pos // chunk for pos in b}) > 1 and len({steps[pos] for pos in b}) > 1
               for b in batches)
    # first key of each ideal: a certified generator gives the whole ring at step 0
    first = {}
    for pos, rows, step in closures:
        whole = len(rows) == r.dim
        assert whole or rounds[pos] < 0
        key = (pos // chunk, 0 if rounds[pos] >= 0 else step, -1 if whole else pos)
        ideal = None if whole else tuple(map(tuple, rows))
        first[ideal] = min(first.get(ideal, key), key)
    identity = [list(r.basis_coords(j)) for j in range(r.dim)]
    want = [identity if ideal is None else [list(row) for row in ideal]
            for ideal in sorted(first, key=first.get)]
    assert want[0] != identity

    sizes = []
    rref = Enumeration.rref_batched

    def spy(self, mats):
        sizes.append(len(mats))
        return rref(self, mats)

    with patch.object(structure, "PRIMENESS_CHUNK", chunk), \
            patch.object(Enumeration, "rref_batched", spy):
        ideals = _principal_ideals(r, enum, reps, screened)
        report = check_primeness(r)
    got = [[list(row) for row in sub.basis] for sub in ideals]
    assert got == want
    assert [rows for rows in got if len(rows) < r.dim] == \
        reference_proper_ideals(closures, r.dim, chunk)
    assert sizes and max(sizes) <= chunk
    assert report.to_json() == reference_primeness(r, closures, chunk,
                                                   reference_element_witness(r))


def first_failing_survivor(r):
    """Position of the reference element witness among the generator
    classes with a singular L_a, in element order; None for a prime ring."""
    witness = reference_element_witness(r)
    if witness is None:
        return None
    survivors = [a for a in reference_generators(r)
                 if linalg.rank(r.left_mul_matrix(a), r.domain) < r.dim]
    return survivors.index(tuple(int(x) for x in witness["a"]))


def test_element_route_doubles_its_chunks():
    """M2+M2/F2 in the first of a seeded sequence of random bases (as
    `rebased_rings` draws them) whose first failing survivor is not among
    the first 3: the element route takes 1, 2, 4, ... survivors per call,
    capped at `PRIMENESS_CHUNK`, up to the chunk that holds it, and quotes
    the reference witness under caps of 1, 3 and the default."""
    base = gen_direct_sum(gen_m2(2), gen_m2(2))
    rng = random.Random(32)
    while True:
        T = [[rng.randrange(2) for _ in range(base.dim)] for _ in range(base.dim)]
        if linalg.inverse(T, base.domain):
            r = rebase(base, T)
            if first_failing_survivor(r) >= 3:
                break
    position = first_failing_survivor(r)
    assert position == 24
    want = reference_element_witness(r)
    calls = []
    outer = Enumeration.mul_outer

    def spy(self, A, B):
        calls.append(len(A))
        return outer(self, A, B)

    for cap in (1, 3, PRIMENESS_CHUNK):
        calls.clear()
        with patch.object(structure, "PRIMENESS_CHUNK", cap), \
                patch.object(Enumeration, "mul_outer", spy):
            assert check_primeness(r).element_witness == want
        sizes, lo, size = [], 0, 1
        while lo <= position:
            sizes.append(size)
            lo, size = lo + size, min(2 * size, cap)
        assert calls == sizes + [1]         # the chunks, then the witness's own stack
