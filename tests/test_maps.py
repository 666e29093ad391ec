import gc
import json
import weakref

import numpy as np
import pytest

from altring import (build_map, center, check_almost_additivity,
                     check_map_consequences, check_peirce_image, gen_m2,
                     is_alternative, load_map, map_from_json, map_to_json,
                     save_map, verify_lie_multiplicative,
                     verify_preserves_idempotents, verify_surjective,
                     verify_theorem)
from altring.enumeration import Enumeration
from altring.errors import (DimensionMismatch, NotBijective,
                            NotIdempotentImage, NotInvertible,
                            OffsetNotCentral, ParseError)
from altring.maps import pair_scan


def test_identity_map_passes_everything(id_m2):
    assert verify_surjective(id_m2).ok
    assert verify_lie_multiplicative(id_m2).ok
    assert verify_preserves_idempotents(id_m2).ok
    assert check_almost_additivity(id_m2).ok
    assert all(r.ok for r in check_map_consequences(id_m2))


def test_neg_transpose_closed_form(m2, negtr):
    # phi(a,b,c,d) = (d, -c, -b, a) in matrix-unit coordinates
    enum = Enumeration(m2)
    X = enum.all_coords()
    expect = np.stack([X[:, 3], (-X[:, 2]) % 5, (-X[:, 1]) % 5, X[:, 0]], axis=1)
    assert (negtr.images() == expect).all()


def test_neg_transpose_verifies(negtr):
    assert verify_lie_multiplicative(negtr).ok
    assert verify_preserves_idempotents(negtr).ok
    assert check_almost_additivity(negtr).ok
    assert all(r.ok for r in check_map_consequences(negtr))


def test_neg_transpose_composes_to_identity(m2, negtr, id_m2):
    twice = build_map(m2, m2, {"kind": "compose",
                               "parts": [{"kind": "neg_transpose_plus_trace"},
                                         {"kind": "neg_transpose_plus_trace"}]})
    assert (twice.image_index() == id_m2.image_index()).all()


def test_conjugation_builder(m2, conj):
    assert verify_lie_multiplicative(conj).ok
    assert verify_preserves_idempotents(conj).ok
    with pytest.raises(NotInvertible):
        build_map(m2, m2, {"kind": "conjugation", "element": [0, 1, 0, 0]})


def test_conjugation_needs_associative(zorn):
    with pytest.raises(NotInvertible):
        build_map(zorn, zorn, {"kind": "conjugation", "element": list(zorn.unit_coords)})


def test_transpose_builder_rejects_non_matrix_rings(t2, zorn):
    with pytest.raises(DimensionMismatch):
        build_map(t2, t2, {"kind": "neg_transpose_plus_trace"})
    with pytest.raises(DimensionMismatch):
        build_map(zorn, zorn, {"kind": "neg_transpose_plus_trace"})


def test_square_map_fails_lie(m2):
    enum = Enumeration(m2)
    X = enum.all_coords()
    squares = enum.mul(X, X)
    m = build_map(m2, m2, {"kind": "table", "entries": [[int(v) for v in row] for row in squares]})
    rep = verify_lie_multiplicative(m)
    assert not rep.ok and rep.witness is not None


def test_structured_offset_validation(m2):
    ident = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    # trace functional with a central offset builds fine
    ok = build_map(m2, m2, {"kind": "structured", "matrix": ident,
                            "offset_functional": [1, 0, 0, 1],
                            "offset_central": [1, 0, 0, 1]})
    assert ok.kind == "structured"
    # non-central offset element
    with pytest.raises(OffsetNotCentral):
        build_map(m2, m2, {"kind": "structured", "matrix": ident,
                           "offset_functional": [1, 0, 0, 1],
                           "offset_central": [0, 1, 0, 0]})
    # functional that sees commutators ([E12, E21] = E11 - E22)
    with pytest.raises(OffsetNotCentral):
        build_map(m2, m2, {"kind": "structured", "matrix": ident,
                           "offset_functional": [1, 0, 0, 0],
                           "offset_central": [1, 0, 0, 1]})


def test_id_plus_trace_breaks_idempotent_preservation(m2):
    ident = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    m = build_map(m2, m2, {"kind": "structured", "matrix": ident,
                           "offset_functional": [1, 0, 0, 1],
                           "offset_central": [1, 0, 0, 1]})
    rep = verify_preserves_idempotents(m)
    assert not rep.ok
    # the witness pins a combination e - lam*f that is idempotent on one
    # side only; over M2 that combination has rank 1
    a = m2.element(rep.witness["a"])
    b = m2.element(rep.witness["b"])
    lam = rep.witness["lambda"]
    g = a - b.smul(lam)
    assert (g * g).coords == g.coords
    assert not g.is_zero() and g.coords != tuple(m2.unit_coords)
    img = m(g)
    assert (img * img).coords != img.coords


def test_non_bijective_map_rejected(m2):
    zero = build_map(m2, m2, {"kind": "linear",
                              "matrix": [[0] * 4 for _ in range(4)]})
    rep = verify_surjective(zero)
    assert not rep.ok and rep.witness is not None
    with pytest.raises(NotBijective):
        verify_preserves_idempotents(zero)


def test_map_json_round_trip(tmp_path, m2, negtr):
    rings = {m2.name: m2}
    path = tmp_path / "map.json"
    save_map(negtr, path)
    again = load_map(path, rings)
    assert (again.image_index() == negtr.image_index()).all()
    obj = map_to_json(negtr)
    assert obj["repr"]["kind"] == "neg_transpose_plus_trace"
    # dense tables survive the round trip too
    dense = negtr.replace_entry(0, [0, 0, 0, 0])
    obj = map_to_json(dense)
    assert len(obj["repr"]["entries"]) == 625
    back = map_from_json(json.loads(json.dumps(obj)), rings)
    assert (back.images() == dense.images()).all()


def test_dense_eval_matches_table_with_one_enumeration():
    """A dense table evaluates like the structured map it came from, and
    the per-ring artefacts are memoised once on the ring without a
    reference cycle: with the cycle collector off, dropping the last
    reference frees the ring, its Enumeration and tables included."""
    gc.disable()
    try:
        r = gen_m2(5)
        dense = build_map(r, r, {"kind": "neg_transpose_plus_trace"}).replace_entry(0, [0, 0, 0, 0])
        X = Enumeration.of(r).all_coords()
        for x, want in zip(X, dense.images()):
            assert dense(r.element([int(v) for v in x])).coords == tuple(int(v) for v in want)
        assert dense.eval_coords((6, -4, 0, 0)) == dense.eval_coords((1, 1, 0, 0))
        enum = Enumeration.of(r)
        assert Enumeration.of(r) is enum and enum.digits() is enum.digits()
        assert enum.all_coords() is not X                       # a fresh transpose each call
        assert center(r).basis is center(r).basis
        assert is_alternative(r) is is_alternative(r)
        assert verify_theorem(build_map(r, r, {"kind": "identity"}), r.basis_element(0),
                              "dagger", 10**6, 0)["all_certificates_pass"]
        ring_ref, enum_ref = weakref.ref(r), weakref.ref(enum)
        del r, dense, enum
        assert ring_ref() is None and enum_ref() is None
    finally:
        gc.enable()


def test_table_loader_validates_entry_count(m2):
    with pytest.raises(ParseError):
        build_map(m2, m2, {"kind": "table", "entries": [[0, 0, 0, 0]] * 7})


def test_almost_additivity_fails_with_noncentral_defect(negtr):
    enum = Enumeration(negtr.source)
    x0 = int(enum.index_of(np.array([1, 1, 0, 0])))
    x1 = int(enum.index_of(np.array([1, 2, 0, 0])))
    imgs = negtr.images()
    bad = negtr.replace_entry(x0, imgs[x1]).replace_entry(x1, imgs[x0])
    rep = check_almost_additivity(bad)
    assert not rep.ok and rep.witness is not None


def test_peirce_image_identity(m2, id_m2):
    reports, src, tgt = check_peirce_image(id_m2, m2.basis_element(0))
    by = {r.condition: r for r in reports}
    assert by["offdiag_image_12"].ok and by["offdiag_image_21"].ok
    assert by["diag_image_11"].quantifier_space["same_corner_shape"] == 1
    assert by["target_condition_2"].ok and by["target_condition_3"].ok
    assert tgt.e1.coords == m2.basis_coords(0)


def test_peirce_image_neg_transpose_swaps_corners(m2, negtr):
    reports, src, tgt = check_peirce_image(negtr, m2.basis_element(0))
    by = {r.condition: r for r in reports}
    # f1 = phi(E11) = E22
    assert tgt.e1.coords == (0, 0, 0, 1)
    assert by["offdiag_image_12"].ok
    assert by["diag_image_11"].ok
    assert by["diag_image_11"].quantifier_space["swapped_corner_shape"] == 1


def test_peirce_image_detects_broken_offdiagonal(m2, negtr):
    enum = Enumeration(m2)
    i1 = int(enum.index_of(np.array([0, 1, 0, 0])))   # E12, an off-diagonal point
    i2 = int(enum.index_of(np.array([1, 1, 0, 0])))
    imgs = negtr.images()
    bad = negtr.replace_entry(i1, imgs[i2]).replace_entry(i2, imgs[i1])
    reports, _, _ = check_peirce_image(bad, m2.basis_element(0))
    by = {r.condition: r for r in reports}
    assert not by["offdiag_image_12"].ok
    assert by["offdiag_image_12"].witness is not None


def test_peirce_image_rejects_bad_idempotent_image(m2, id_m2):
    enum = Enumeration(m2)
    e_idx = int(enum.index_of(np.array([1, 0, 0, 0])))
    other = int(enum.index_of(np.array([0, 1, 0, 0])))
    imgs = id_m2.images()
    bad = id_m2.replace_entry(e_idx, imgs[other]).replace_entry(other, imgs[e_idx])
    with pytest.raises(NotIdempotentImage):
        check_peirce_image(bad, m2.basis_element(0))


def test_sampled_mode_records_seed(zorn):
    ident = build_map(zorn, zorn, {"kind": "identity"})
    rep = verify_lie_multiplicative(ident, budget=400_000, seed=11)
    assert rep.ok
    assert rep.mode == "sampled"
    assert rep.seed == 11
    assert 0 < rep.coverage < 1


def row_major_first(count, failing):
    """First failing pair of a pure-Python row-major walk over all pairs."""
    for a in range(count):
        for b in range(count):
            if (a, b) in failing:
                return a, b
    return None


@pytest.mark.parametrize("failing", [set(), {(5, 3)}, {(6, 2), (4, 6), (5, 0)}, {(6, 6)}],
                         ids=["nowhere", "later_chunk", "first_of_several", "last_pair"])
def test_exhaustive_pair_scan_is_row_major(failing):
    """7 elements in chunks of 16 pairs: rows 0-1, 2-3, 4-5 and a partial
    last chunk of row 6, each passed as broadcast grids."""
    count, rows = 7, []
    codes = [a * count + b for a, b in failing]

    def fails(a_idx, b_idx):
        assert a_idx.shape == (len(a_idx), 1) and b_idx.shape == (1, count)
        assert b_idx.ravel().tolist() == list(range(count))
        rows.append(a_idx.ravel().tolist())
        return np.isin(a_idx * count + b_idx, codes)

    ok, pair, mode, cov, checked = pair_scan(count, 10 ** 6, 0, fails, chunk=16)
    want = row_major_first(count, failing)
    assert (ok, pair, mode, cov, checked) == (want is None, want, "exhaustive", None, count ** 2)
    stop = len(rows) if want is None else want[0] // 2 + 1
    assert rows == [[0, 1], [2, 3], [4, 5], [6]][:stop]


def test_sampled_pair_scan_witness_rederives():
    """The first failing draw, re-derived from default_rng(seed) with two
    draws of at most `chunk` pairs per chunk, lands in the second chunk."""
    count, budget, seed, chunk = 40, 1000, 17, 256
    rng = np.random.default_rng(seed)
    draws, left = [], budget
    while left:
        m = min(chunk, left)
        draws += zip(rng.integers(0, count, m).tolist(), rng.integers(0, count, m).tolist())
        left -= m
    target = draws[chunk + 100]
    first = draws.index(target)
    assert first >= chunk

    ok, pair, mode, cov, checked = pair_scan(
        count, budget, seed, lambda a, b: (a == target[0]) & (b == target[1]), chunk=chunk)
    assert (ok, pair, mode, cov, checked) == (False, target, "sampled", budget / count ** 2, first + 1)
