import json
from pathlib import Path

import numpy as np
import pytest

from altring import (center, check_main_hypotheses, check_primeness,
                     check_spade_club, check_z_of_peirce_cell, gen_m2, idempotents, linalg,
                     nucleus, peirce_frame, verify_peirce_relations)
from altring.enumeration import Enumeration
from altring.errors import (BudgetExceeded, NotIdempotent, PeirceIncompatible,
                            TrivialIdempotent, UnsupportedDomain)
from altring.rings import Ring
from altring.scalars import PrimeField
from altring.structure import _generator_classes, _principal_ideals

GOLDEN = json.loads((Path(__file__).parent / "data" / "primeness_golden.json").read_text())


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
    census = idempotents(m2, include_zero=False)
    assert census.count("zero") == 0


def test_zorn_distinguished_idempotent(zorn):
    e = zorn.basis_element(0)
    assert (e * e).coords == e.coords


def test_idempotents_over_q(m2q):
    with pytest.raises(UnsupportedDomain):
        idempotents(m2q)
    census = idempotents(m2q, candidates=[[1, 0, 0, 0], [0, 1, 0, 0], [1, 0, 0, 1]])
    assert census.count() == 2            # E11 and the unit; E12 is not idempotent
    assert census.count("nontrivial") == 1


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
    parts = m2_frame.project(m2_frame.e1)
    assert parts[(1, 1)].coords == m2_frame.e1.coords
    assert all(parts[ij].is_zero() for ij in ((1, 2), (2, 1), (2, 2)))
    parts = m2_frame.project(m2.unit())
    assert parts[(1, 1)].coords == m2_frame.e1.coords
    assert parts[(2, 2)].coords == m2_frame.e2.coords
    x = m2.element([1, 2, 3, 4])
    parts = m2_frame.project(x)
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


def test_peirce_relations_fail_on_broken_triangular(broken3):
    # the frame itself still builds (the perturbed constant never meets an
    # e1-product) but the swap, square, and anticommutation laws all break
    frame = peirce_frame(broken3, broken3.basis_element(0))
    reports = {r.condition: r.ok for r in verify_peirce_relations(frame)}
    assert reports["peirce_i_compose"]
    assert not reports["peirce_ii_swap"]
    assert not reports["peirce_iv_a_squares"]
    assert not reports["peirce_iv_b_anticommute"]


def test_peirce_frame_incompatible():
    # e x . e != e . x e: corner projections cannot be formed
    sc = [[[0] * 4 for _ in range(4)] for _ in range(4)]
    for k in range(4):
        sc[0][k][k] = 1
        if k:
            sc[k][0][k] = 1
    sc[1][1][1] = 1     # e*e = e
    sc[1][2][3] = 1     # e*x = y
    sc[3][1][3] = 1     # y*e = y
    ring = Ring("skew", PrimeField(5), ["one", "e", "x", "y"], sc, [1, 0, 0, 0])
    with pytest.raises(PeirceIncompatible):
        peirce_frame(ring, ring.basis_element(1))


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
    enum = Enumeration(ring)
    reps, full = _generator_classes(enum, 10 ** 6)
    ideals = _principal_ideals(ring, enum, reps, full)
    assert [[list(row) for row in sub.basis] for sub in ideals] == GOLDEN[key]["ideals"]


def test_unit_rank_screen_counts(zorn, dsum):
    for ring, screened in ((zorn, 78000), (dsum, 57600)):
        reps, full = _generator_classes(Enumeration(ring), 10 ** 6)
        assert len(reps) == 97656 and int(full.sum()) == screened
        # a full-rank L_a generates R, so its principal ideal is everything
        a = [int(x) for x in reps[np.flatnonzero(full)[0]]]
        assert linalg.rank(ring.left_mul_matrix(a), ring.domain) == ring.dim
