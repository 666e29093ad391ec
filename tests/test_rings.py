import functools
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as stn

from altring import (Subspace, associator, commutator, gen_m2, gen_zorn, is_alternative,
                     is_associative, is_flexible, is_k_torsion_free, linalg, nucleus)
from altring.errors import ParseError, RingMismatch
from altring.rings import Ring, ring_from_json, ring_to_json
from conftest import breaks_law, f2_rings, rebased_unital_rings


def test_add_identity_and_unit_split(m2):
    a = m2.element([1, 2, 3, 4])
    assert (a + m2.zero()).coords == a.coords
    e1, e2 = m2.basis_element(0), m2.basis_element(3)
    assert (e1 + e2).coords == m2.unit_coords
    b = m2.basis_element(1)
    assert (b + b).coords == (0, 2, 0, 0)


def test_mul_matrix_units(m2):
    E12, E21 = m2.basis_element(1), m2.basis_element(2)
    assert (E12 * E12).is_zero()
    assert (E12 * E21).coords == m2.basis_coords(0)
    x = m2.element([2, 0, 1, 3])
    assert (m2.unit() * x).coords == x.coords
    assert (x * m2.unit()).coords == x.coords


def test_commutator_examples(m2):
    x = m2.element([1, 2, 3, 4])
    assert commutator(x, x).is_zero()
    assert commutator(x, m2.unit()).is_zero()
    E11, E12 = m2.basis_element(0), m2.basis_element(1)
    assert commutator(E11, E12).coords == E12.coords


def test_commutator_antisymmetry(m2, zorn):
    for r in (m2, zorn):
        for i in range(r.dim):
            for j in range(r.dim):
                a, b = r.basis_element(i), r.basis_element(j)
                assert commutator(a, b).coords == (-commutator(b, a)).coords


def test_associator_vanishes_when_associative(m2):
    for i, j, k in itertools.product(range(4), repeat=3):
        assert associator(m2.basis_element(i), m2.basis_element(j),
                          m2.basis_element(k)).is_zero()


def test_zorn_alternative_but_not_associative(zorn):
    assert is_alternative(zorn).ok
    assert is_flexible(zorn).ok
    res = is_associative(zorn)
    assert not res.ok and res.witness is not None


def test_zorn_has_nonzero_associator(zorn):
    # exhaustive scan over basis triples is the oracle; freeze its first hit
    first = None
    for i, j, k in itertools.product(range(8), repeat=3):
        a = associator(zorn.basis_element(i), zorn.basis_element(j), zorn.basis_element(k))
        if not a.is_zero():
            first = (i, j, k)
            break
    assert first == (0, 1, 2)   # (e11, u1, u2) associates into the v-slot


def test_alternative_diagonal_law_on_zorn(zorn):
    # (x, x, y) = 0 directly for a few non-basis x
    x = zorn.element([1, 2, 0, 3, 4, 0, 1, 2])
    for k in range(8):
        assert associator(x, x, zorn.basis_element(k)).is_zero()
        assert associator(zorn.basis_element(k), x, x).is_zero()


def test_broken_ring_fails_checkers(broken3):
    alt = is_alternative(broken3)
    assert not alt.ok and alt.witness is not None
    assert not is_flexible(broken3).ok
    assert not is_associative(broken3).ok


def perturbed_m2():
    """Every single-constant perturbation of M2 over F_2 and F_5 that keeps
    the unit."""
    rings = []
    for p in (2, 5):
        m2 = gen_m2(p)
        for a, b, c in itertools.product(range(4), repeat=3):
            sc = [[[int(x) for x in row] for row in plane] for plane in m2.sc]
            sc[a][b][c] = (sc[a][b][c] + 1) % p
            try:
                ring = Ring("pert", m2.domain, list(m2.basis_names), sc, list(m2.unit_coords))
            except ParseError:          # the unit axiom broke
                continue
            rings.append(ring)
    return rings


def test_alternative_witness_replays(broken3):
    """Every perturbation of M2 (`perturbed_m2`) that breaks alternativity
    quotes a law its witness breaks; over F_2 a diagonal law can fail
    where both linearized ones hold."""
    rings = [broken3] + perturbed_m2()
    laws = set()
    for ring in rings:
        alt = is_alternative(ring)
        if not alt.ok:
            assert breaks_law(ring, alt.witness)
            laws.add(alt.witness["law"])
    assert len(laws) == 3 and "(x,x,y) = 0" in laws


def test_torsion_freeness(m2, m2q):
    assert is_k_torsion_free(m2, 2)
    assert is_k_torsion_free(m2, 3)
    assert not is_k_torsion_free(m2, 5)
    assert not is_k_torsion_free(m2, 10)
    for k in (1, 2, 3, 5, 60):
        assert is_k_torsion_free(m2q, k)
    rep = is_k_torsion_free(m2, 10)
    assert rep.condition == "torsion_free_10" and rep.witness == {"x": [1, 0, 0, 1]}
    x = m2.element(rep.witness["x"])
    assert not x.is_zero() and sum([x] * 10, m2.zero()).is_zero()
    with pytest.raises(ValueError):
        is_k_torsion_free(m2, 0)


def test_ring_mismatch(m2, zorn):
    with pytest.raises(RingMismatch):
        m2.basis_element(0) + zorn.basis_element(0)
    with pytest.raises(RingMismatch):
        m2.basis_element(0) * zorn.basis_element(0)


def test_element_length_checked(m2):
    with pytest.raises(ParseError):
        m2.element([1, 2, 3])


def test_ring_json_round_trip(m2, m2q, zorn):
    for r in (m2, m2q, zorn):
        obj = json.loads(json.dumps(ring_to_json(r)))
        back = ring_from_json(obj)
        assert back.sc == r.sc
        assert back.unit_coords == r.unit_coords
        assert back.basis_names == r.basis_names


def test_loader_rejects_bad_unit(m2):
    obj = ring_to_json(m2)
    obj["unit"] = [1, 1, 0, 1]
    with pytest.raises(ParseError, match="unit axiom"):
        ring_from_json(obj)


def test_loader_rejects_bad_shape(m2):
    obj = ring_to_json(m2)
    obj["mul"] = obj["mul"][:3]
    with pytest.raises(ParseError, match="structure constants"):
        ring_from_json(obj)
    obj = ring_to_json(m2)
    obj["dim"] = 5
    with pytest.raises(ParseError, match="dim"):
        ring_from_json(obj)


def test_loader_rejects_a_zero_dimensional_ring():
    """An empty basis, unit and table agree with "dim": 0, and the ring
    still has no element but 0, so it is refused by its dim field."""
    obj = {"name": "zero", "domain": {"Fp": 5}, "dim": 0, "basis": [], "unit": [], "mul": []}
    with pytest.raises(ParseError, match="field 'dim' must be a positive integer, got 0"):
        ring_from_json(obj)


@pytest.mark.parametrize("field, path", [("unit", (0,)), ("mul", (1, 2, 0))])
def test_loader_rejects_json_booleans_as_scalars(m2, field, path):
    """true in place of the scalar 1 (unit[0] is E11's coordinate, and
    mul[1][2][0] that of E11 in E12*E21) would load as 1: it is refused,
    naming the field."""
    obj = json.loads(json.dumps(ring_to_json(m2)))
    *outer, last = path
    entry = functools.reduce(lambda v, k: v[k], outer, obj[field])
    assert entry[last] in (1, "1")
    entry[last] = True
    with pytest.raises(ParseError, match=f"field '{field}' holds a JSON boolean"):
        ring_from_json(obj)


coords4 = stn.lists(stn.integers(0, 4), min_size=4, max_size=4)


@settings(max_examples=60)
@given(coords4, coords4, coords4)
def test_mul_bilinear_on_m2(a, b, c):
    from altring import gen_m2
    r = gen_m2(5)
    ea, eb, ec = r.element(a), r.element(b), r.element(c)
    assert ((ea + eb) * ec).coords == (ea * ec + eb * ec).coords
    assert (ec * (ea + eb)).coords == (ec * ea + ec * eb).coords


@settings(max_examples=60)
@given(coords4, coords4, coords4)
def test_associator_matches_definition(a, b, c):
    from altring import gen_m2
    r = gen_m2(5)
    ea, eb, ec = r.element(a), r.element(b), r.element(c)
    direct = (ea * eb) * ec - ea * (eb * ec)
    assert associator(ea, eb, ec).coords == direct.coords


# -- the laws against their definition -------------------------------------
#
# Each law decided on every element of a finite ring, with products by
# `Ring.mul_coords`, and a reference nucleus that multiplies the
# multiplication matrices with `linalg.mat_mul`.

def laws_by_elements(r):
    """Each law's verdict from its definition, over every x, y (and z)."""
    elements = list(itertools.product(range(r.domain.p), repeat=r.dim))
    prod = {(a, b): r.mul_coords(a, b) for a in elements for b in elements}

    def associates(a, b, c):
        return prod[prod[a, b], c] == prod[a, prod[b, c]]

    pairs = list(itertools.product(elements, repeat=2))
    return {"alternative": all(associates(x, x, y) and associates(y, x, x) for x, y in pairs),
            "flexible": all(associates(x, y, x) for x, y in pairs),
            "associative": all(associates(x, y, z) for (x, y), z in
                               itertools.product(pairs, elements))}


def reference_nucleus(r):
    dom, n = r.domain, r.dim

    def sub(A, B):
        return [[dom.sub(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]

    basis = [r.basis_coords(i) for i in range(n)]
    lmat = [r.left_mul_matrix(b) for b in basis]
    rmat = [r.right_mul_matrix(b) for b in basis]
    rows = []
    for i in range(n):
        for j in range(n):
            prod = r.mul_coords(basis[i], basis[j])
            rows.extend(sub(r.left_mul_matrix(prod), linalg.mat_mul(lmat[i], lmat[j], dom)))
            rows.extend(sub(linalg.mat_mul(rmat[j], lmat[i], dom),
                            linalg.mat_mul(lmat[i], rmat[j], dom)))
            rows.extend(sub(linalg.mat_mul(rmat[j], rmat[i], dom), r.right_mul_matrix(prod)))
    return Subspace.from_vectors(r, linalg.nullspace(rows, dom))


def check_laws(r):
    """Every law's verdict is its definition's on a ring of at most 27
    elements (every ring `small_rings` draws), a failing law's witness
    breaks the law it quotes, and the nucleus basis is the reference's."""
    reports = {rep.condition: rep for rep in (is_alternative(r), is_flexible(r), is_associative(r))}
    if r.domain.kind == "Fp" and r.domain.p ** r.dim <= 27:
        assert {name: rep.ok for name, rep in reports.items()} == laws_by_elements(r)
    for rep in reports.values():
        assert rep.ok or breaks_law(r, rep.witness)
    assert nucleus(r).basis == reference_nucleus(r).basis


@stn.composite
def random_bases(draw, primes=(2, 3), bases=(gen_zorn, gen_m2)):
    """(base, T): Zorn or M2 over F_p and a random invertible T = P L U,
    with P a permutation, L unit lower and U upper triangular with a
    nonzero diagonal."""
    p = draw(stn.sampled_from(primes))
    base = draw(stn.sampled_from(list(bases)))(p)
    n, dom = base.dim, base.domain

    def entry(i, j, lower):
        if i == j:
            return 1 if lower else draw(stn.integers(1, p - 1))
        return draw(stn.integers(0, p - 1)) if (i > j) == lower else 0

    L, U = ([[entry(i, j, lower) for j in range(n)] for i in range(n)] for lower in (True, False))
    return base, [linalg.mat_mul(L, U, dom)[k] for k in draw(stn.permutations(range(n)))]


def rebase(base, T):
    """base in the basis whose vector c_i is column i of T: the structure
    constants of c_i c_j and the unit are expressed in it through T^-1."""
    dom = base.domain
    T_inv = linalg.inverse(T, dom)
    cols = [list(col) for col in zip(*T)]
    sc = [[linalg.mat_vec(T_inv, list(base.mul_coords(ci, cj)), dom) for cj in cols] for ci in cols]
    return Ring(f"rebased_{base.name}", dom, list(base.basis_names), sc,
                linalg.mat_vec(T_inv, list(base.unit_coords), dom))


def rebased_rings(primes=(2, 3)):
    """Zorn or M2 over F_p in a random basis (`random_bases`): alternative
    rings, so every linearized law holds and the laws on single basis
    vectors run too."""
    return random_bases(primes).map(lambda base_T: rebase(*base_T))


small_rings = stn.one_of(rebased_unital_rings(2), rebased_unital_rings(3),
                         rebased_unital_rings(5, max_dim=2))


@given(small_rings, rebased_rings())
def test_associator_laws_match_reference(ring, rebased):
    check_laws(ring)
    check_laws(rebased)
    assert is_alternative(rebased).ok


def test_associator_laws_match_reference_on_fixed_rings(m2q, zorn, broken3):
    """Over Q, on a ring that is alternative but not associative, on a
    broken one and on every perturbation of M2, failing or not."""
    rings = [m2q, zorn, broken3] + perturbed_m2()
    for ring in rings:
        check_laws(ring)
    assert {is_alternative(r).ok for r in rings} == {True, False}


def test_laws_over_f2_check_single_basis_vectors():
    """On both `f2_rings` the linearized flexible law holds and (b0, b0,
    b0) != 0; on the first the alternative laws hold at every b_i + b_j,
    which is 0 at i = j.  Only the basis vectors themselves show the
    failure."""
    diagonal, not_flexible = f2_rings()
    for ring in (diagonal, not_flexible):
        check_laws(ring)
        assert is_flexible(ring).witness == {"law": "(x,y,x) = 0", "x": [1, 0, 0], "y": [1, 0, 0]}
    assert is_alternative(diagonal).witness == {"law": "(x,x,y) = 0", "x": [1, 0, 0], "y": [1, 0, 0]}
    assert not is_alternative(not_flexible).ok
