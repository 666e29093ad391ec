import gc
import importlib
import itertools
import json
import re
import weakref

import numpy as np
import pytest

from altring import (MapTable, build_map, center, check_almost_additivity,
                     check_map_consequences, check_peirce_image, gen_m2,
                     is_alternative, load_map, map_from_json, map_to_json,
                     save_map, verify_lie_multiplicative,
                     verify_preserves_idempotents, verify_surjective,
                     verify_theorem)
from altring.enumeration import DEFAULT_BUDGET, Enumeration
from altring.errors import (DimensionMismatch, NotIdempotentImage,
                            NotInvertible, OffsetNotCentral, ParseError)
from altring import maps
from altring.maps import pair_scan
from altring.rings import Ring
from conftest import apply_matrix, reordered_m2, replace_entries


def test_identity_map_passes_everything(id_m2):
    assert verify_surjective(id_m2).ok
    assert verify_lie_multiplicative(id_m2).ok
    assert verify_preserves_idempotents(id_m2).ok
    assert check_almost_additivity(id_m2).ok
    assert all(r.ok for r in check_map_consequences(id_m2))


def test_neg_transpose_closed_form(m2, negtr):
    # phi(a,b,c,d) = (d, -c, -b, a) in matrix-unit coordinates
    enum = Enumeration(m2, DEFAULT_BUDGET)
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


@pytest.mark.parametrize("parts", [[], [{"kind": "identity"}]], ids=["no_parts", "one_part"])
def test_compose_maps_a_ring_to_itself(m2, t2, parts):
    """Compose reads each part's image indices as source indices, so it
    needs one ring on both sides: with no parts, M2 -> t2 would reach
    index 624 of t2's 125 elements.  An equal ring object is accepted."""
    with pytest.raises(DimensionMismatch, match="compose map needs identical"):
        build_map(m2, t2, {"kind": "compose", "parts": parts})
    same = build_map(m2, gen_m2(5), {"kind": "compose", "parts": parts})
    assert (same.image_index() == np.arange(625)).all()


SELF_MAP_SPECS = [{"kind": "neg_transpose_plus_trace"},
                  {"kind": "conjugation", "element": [1, 1, 0, 1]}]


@pytest.mark.parametrize("spec", SELF_MAP_SPECS, ids=lambda spec: spec["kind"])
@pytest.mark.parametrize("name", ["m2_f5", "m2_f5_reordered"])
def test_self_maps_refuse_a_reordered_target(m2, spec, name):
    """The transpose and conjugation builders write source coordinates as
    target coordinates, so a target with the same dimension, or the same
    name, but another basis order is refused, as identity and compose
    refuse it."""
    with pytest.raises(DimensionMismatch, match=f"{spec['kind']} map needs identical"):
        build_map(m2, reordered_m2(name), spec)
    assert build_map(m2, gen_m2(5), spec).image_index().shape == (625,)


def test_conjugation_builder(m2, conj):
    assert verify_lie_multiplicative(conj).ok
    assert verify_preserves_idempotents(conj).ok
    with pytest.raises(NotInvertible):
        build_map(m2, m2, {"kind": "conjugation", "element": [0, 1, 0, 0]})


def test_conjugation_needs_associative(zorn):
    with pytest.raises(NotInvertible):
        build_map(zorn, zorn, {"kind": "conjugation", "element": list(zorn.unit_coords)})


def test_transpose_builder_rejects_non_matrix_rings(t2, zorn, dsum):
    """Zorn is refused as not associative; an associative ring whose
    dimension is not a square by its size; a square one whose structure
    constants are not the matrix units' by its basis order, even when
    the ring is M2 in another basis."""
    spec = {"kind": "neg_transpose_plus_trace"}
    with pytest.raises(DimensionMismatch, match="needs an associative matrix ring"):
        build_map(zorn, zorn, spec)
    for ring in (t2, dsum):
        with pytest.raises(DimensionMismatch, match=re.escape(
                f"ring {ring.name!r} is not a full matrix ring (dim {ring.dim})")):
            build_map(ring, ring, spec)
    reordered = reordered_m2()
    with pytest.raises(DimensionMismatch,
                       match="ring 'm2_f5': basis is not in matrix-unit order"):
        build_map(reordered, reordered, spec)


def test_square_map_fails_lie(m2):
    enum = Enumeration(m2, DEFAULT_BUDGET)
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


def test_non_bijective_map_reported(m2):
    """The entry verifiers report on a map that is not a bijection; only
    `decompose` refuses one."""
    zero = build_map(m2, m2, {"kind": "linear",
                              "matrix": [[0] * 4 for _ in range(4)]})
    rep = verify_surjective(zero)
    assert not rep.ok and rep.witness is not None
    rep = verify_preserves_idempotents(zero)
    assert not rep.ok and rep.quantifier_space["lambdas"] == 5
    a, b = m2.element(rep.witness["a"]), m2.element(rep.witness["b"])
    g = a - b.smul(rep.witness["lambda"])
    assert (g * g != g) and zero(g).is_zero()     # 0 is idempotent, g is not


def test_map_json_round_trip(tmp_path, m2, negtr):
    rings = {m2.name: m2}
    path = tmp_path / "map.json"
    save_map(negtr, path)
    again = load_map(path, rings)
    assert (again.image_index() == negtr.image_index()).all()
    obj = map_to_json(negtr)
    assert obj["repr"]["kind"] == "neg_transpose_plus_trace"
    # dense tables survive the round trip too
    dense = replace_entries(negtr, {0: [0, 0, 0, 0]})
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
        dense = replace_entries(build_map(r, r, {"kind": "neg_transpose_plus_trace"}),
                                {0: [0, 0, 0, 0]})
        X = Enumeration.of(r, DEFAULT_BUDGET).all_coords()
        for x, want in zip(X, dense.images()):
            assert dense(r.element([int(v) for v in x])).coords == tuple(int(v) for v in want)
        assert dense.eval_coords((6, -4, 0, 0)) == dense.eval_coords((1, 1, 0, 0))
        enum = Enumeration.of(r, DEFAULT_BUDGET)
        assert Enumeration.of(r, DEFAULT_BUDGET) is enum and enum.digits() is enum.digits()
        assert np.shares_memory(enum.all_coords(), enum.digits())     # a view, not a copy
        assert center(r).basis is center(r).basis
        assert is_alternative(r) is is_alternative(r)
        assert verify_theorem(build_map(r, r, {"kind": "identity"}), r.basis_element(0),
                              "dagger", 0)["all_certificates_pass"]
        ring_ref, enum_ref = weakref.ref(r), weakref.ref(enum)
        del r, dense, enum
        assert ring_ref() is None and enum_ref() is None
    finally:
        gc.enable()


def structured_cases(m2):
    """(builder spec, phi in `rings.py` Element arithmetic) for every
    structured builder, one with a nonzero central offset."""
    one = m2.element(m2.unit_coords)
    u, u_inv = m2.element([1, 1, 0, 1]), m2.element([1, 4, 0, 1])
    lin = [[1, 2, 0, 0], [0, 1, 0, 3], [4, 0, 1, 0], [0, 0, 2, 1]]
    ident = [[int(i == j) for j in range(4)] for i in range(4)]

    def trace(x):
        return x.coords[0] + x.coords[3]

    return {
        "identity": ({"kind": "identity"}, lambda x: x),
        "linear": ({"kind": "linear", "matrix": lin},
                   lambda x: m2.element(apply_matrix(m2, lin, x.coords))),
        "neg_transpose_plus_trace": (
            {"kind": "neg_transpose_plus_trace"},
            lambda x: one.smul(trace(x)) - m2.element([x.coords[i] for i in (0, 2, 1, 3)])),
        "conjugation": ({"kind": "conjugation", "element": [1, 1, 0, 1]},
                        lambda x: u * x * u_inv),
        "structured_offset": ({"kind": "structured", "matrix": ident,
                               "offset_functional": [1, 0, 0, 1],
                               "offset_central": [2, 0, 0, 2]},
                              lambda x: x + one.smul(2 * trace(x))),
    }


def element_index(coords, p=5):
    """Element index of reduced coordinates: their base-p digits."""
    k = 0
    for c in coords:
        k = k * p + c
    return k


def assert_map_matches(m, ring, want):
    """image_index, images, eval_coords and __call__ of m all equal the
    reference images `want`, listed in element order."""
    X = Enumeration.of(ring, DEFAULT_BUDGET).all_coords().tolist()
    assert m.image_index().tolist() == [element_index(w) for w in want]
    assert m.images().tolist() == [list(w) for w in want]
    assert [m.eval_coords(x) for x in X] == want
    assert [m(ring.element(x)).coords for x in X] == want


@pytest.mark.parametrize("name", ["identity", "linear", "neg_transpose_plus_trace",
                                  "conjugation", "structured_offset"])
def test_structured_map_index_matches_exact_arithmetic(m2, name):
    spec, ref = structured_cases(m2)[name]
    m = build_map(m2, m2, spec)
    X = Enumeration.of(m2, DEFAULT_BUDGET).all_coords().tolist()
    assert_map_matches(m, m2, [ref(m2.element(x)).coords for x in X])


def test_compose_and_replace_entry_match_their_parts(m2):
    specs = [structured_cases(m2)[k][0] for k in ("conjugation", "neg_transpose_plus_trace")]
    first, second = (build_map(m2, m2, s) for s in specs)
    both = build_map(m2, m2, {"kind": "compose", "parts": specs})
    X = Enumeration.of(m2, DEFAULT_BUDGET).all_coords().tolist()
    want = [second(first(m2.element(x))).coords for x in X]
    assert_map_matches(both, m2, want)

    # one entry changes, in the copy only
    k = 137
    new = tuple((c + 1) % 5 for c in want[k])
    bad = replace_entries(both, {k: new})
    assert (bad.image_index() != both.image_index()).nonzero()[0].tolist() == [k]
    assert_map_matches(bad, m2, want[:k] + [new] + want[k + 1:])
    assert_map_matches(both, m2, want)


def test_linear_map_into_larger_target_indexes_in_target_dtype(m2, dsum):
    """x -> (x, x) from M2 into M2+M2 over F_5: element k maps to index
    626*k, up to 390,624, past int16, which holds the 625 indices of the
    source."""
    diag = [[int(i % 4 == j) for j in range(4)] for i in range(8)]
    m = build_map(m2, dsum, {"kind": "linear", "matrix": diag})
    idx = m.image_index()
    assert idx.max() > 625
    assert idx.tolist() == [626 * k for k in range(625)]
    for x in Enumeration.of(m2, DEFAULT_BUDGET).all_coords()[::61].tolist():
        assert m(m2.element(x)).coords == tuple(x + x)


def held_arrays(obj, seen=None):
    """Every ndarray reachable from obj through containers and object
    attributes, except through rings and their Enumerations, which hold
    the per-ring tables."""
    seen = set() if seen is None else seen
    if id(obj) in seen or isinstance(obj, (Ring, Enumeration)):
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
        return
    if isinstance(obj, dict):
        items = [*obj.keys(), *obj.values()]
    elif isinstance(obj, (list, tuple, set, frozenset)):
        items = obj
    elif hasattr(obj, "__dict__"):
        items = vars(obj).values()
    else:
        return
    for item in items:
        yield from held_arrays(item, seen)


def test_map_holds_only_its_image_index_after_verify_theorem(m2):
    m = build_map(m2, m2, {"kind": "neg_transpose_plus_trace"})
    bundle = verify_theorem(m, m2.basis_element(0), "ddagger", 0)
    assert bundle["all_certificates_pass"] and "decomposition" in bundle
    count = Enumeration.of(m2, DEFAULT_BUDGET).count
    held = [a for a in held_arrays(m) if count in a.shape]
    assert len(held) == 1 and held[0] is m.image_index()
    assert held[0].shape == (count,) and held[0].dtype == np.int64


def test_table_loader_validates_entry_count(m2):
    with pytest.raises(ParseError):
        build_map(m2, m2, {"kind": "table", "entries": [[0, 0, 0, 0]] * 7})


@pytest.mark.parametrize("form", ["ints", "unreduced_ints", "past_int64", "mixed"])
def test_table_entries_parse_like_scalars(m2, negtr, form):
    """All-int tables take one array conversion, the rest go scalar by
    scalar: either way the image index is the one `dom.parse` gives entry
    by entry, and the table's own."""
    p, dom = m2.domain.p, m2.domain
    es = Enumeration.of(m2, DEFAULT_BUDGET)
    rows = es.coords_of(negtr.image_index()).tolist()
    shift = {"ints": lambda t, x: x,
             "unreduced_ints": lambda t, x: x + p * (t % 7 - 3) * 1000,
             "past_int64": lambda t, x: x + p * 2 ** 70 if t == 600 else x,
             "mixed": lambda t, x: [x, str(x), f"{2 * x}/2", x - p * 2 ** 64][t % 4]}[form]
    entries = [[shift(t, x) for x in row] for t, row in enumerate(rows)]
    per_scalar = es.index_of(np.array([[dom.parse(x) for x in row] for row in entries]))
    got = build_map(m2, m2, {"kind": "table", "entries": entries}).image_index()
    assert np.array_equal(got, per_scalar) and np.array_equal(got, negtr.image_index())


def test_almost_additivity_fails_with_noncentral_defect(negtr):
    enum = Enumeration(negtr.source, DEFAULT_BUDGET)
    x0 = int(enum.index_of(np.array([1, 1, 0, 0])))
    x1 = int(enum.index_of(np.array([1, 2, 0, 0])))
    imgs = negtr.images()
    bad = replace_entries(negtr, {x0: imgs[x1], x1: imgs[x0]})
    rep = check_almost_additivity(bad)
    assert not rep.ok and rep.witness is not None


def test_almost_additivity_builds_no_second_linear_extension(m2, monkeypatch):
    """On a table that is not linear the only `linear_index` call is the
    one `MapTable.linear()` makes: almost additivity is decided on g(0)
    and the basis rows, whether it fails (two entries swapped) or passes
    (x + 1 at one element, a defect that is always central)."""
    es = Enumeration.of(m2, DEFAULT_BUDGET)
    swapped = np.arange(es.count)
    swapped[[7, 123]] = swapped[[123, 7]]
    shifted = np.arange(es.count)
    shifted[7] = int(es.index_of(np.array(es.coords_of(7)) + np.array(m2.unit_coords)))
    calls = []
    real = Enumeration.linear_index
    monkeypatch.setattr(Enumeration, "linear_index",
                        lambda self, M: calls.append(M) or real(self, M))
    for idx, ok in ((swapped, False), (shifted, True)):
        calls.clear()
        m = MapTable(m2, m2, es, es, idx)
        assert check_almost_additivity(m).ok is ok
        assert m.linear() is None and len(calls) == 1


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
    enum = Enumeration(m2, DEFAULT_BUDGET)
    i1 = int(enum.index_of(np.array([0, 1, 0, 0])))   # E12, an off-diagonal point
    i2 = int(enum.index_of(np.array([1, 1, 0, 0])))
    imgs = negtr.images()
    bad = replace_entries(negtr, {i1: imgs[i2], i2: imgs[i1]})
    reports, _, _ = check_peirce_image(bad, m2.basis_element(0))
    by = {r.condition: r for r in reports}
    assert not by["offdiag_image_12"].ok
    assert by["offdiag_image_12"].witness is not None


def test_peirce_image_quotes_an_unreached_corner_element(m2):
    # E12 -> 0: the images of R_12 stay in R_12 but miss every nonzero point
    flat = build_map(m2, m2, {"kind": "linear", "matrix": [
        [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]})
    reports, src, tgt = check_peirce_image(flat, m2.basis_element(0))
    rep = next(r for r in reports if r.condition == "offdiag_image_12")
    elements = list(itertools.product(range(5), repeat=4))      # element order
    reached = {flat(m2.element(x)).coords for x in elements if src.components[(1, 2)].contains(x)}
    corner = [x for x in elements if tgt.components[(1, 2)].contains(x)]
    assert not rep.ok
    assert rep.witness == {"unreached": list(min(set(corner) - reached))}
    assert rep.witness == {"unreached": [0, 1, 0, 0]}


def test_peirce_image_rejects_bad_idempotent_image(m2, id_m2):
    enum = Enumeration(m2, DEFAULT_BUDGET)
    e_idx = int(enum.index_of(np.array([1, 0, 0, 0])))
    other = int(enum.index_of(np.array([0, 1, 0, 0])))
    imgs = id_m2.images()
    bad = replace_entries(id_m2, {e_idx: imgs[other], other: imgs[e_idx]})
    with pytest.raises(NotIdempotentImage):
        check_peirce_image(bad, m2.basis_element(0))


def test_peirce_image_runs_only_the_target_conditions_it_reports(m2, monkeypatch):
    """Conjugation by 1 + E12 maps E11 to E11 - E12, so the target frame
    is not the source frame.  Its target_condition_2 and _3 are those of
    `check_main_hypotheses` on the target frame, and a whole run checks
    conditions (1) and (4) on the source frame only: (4) is run by
    `check_main_hypotheses` alone, which sees the source frame once."""
    structure = importlib.import_module("altring.structure")
    real_hypotheses = structure.check_main_hypotheses
    calls = []

    def recorded(name, fn):
        def wrapper(frame, *args):
            calls.append((name, frame.e1.coords, *args[:1]))
            return fn(frame, *args)
        return wrapper

    for mod in (structure, maps):
        monkeypatch.setattr(mod, "check_annihilation",
                            recorded("annihilation", vars(mod)["check_annihilation"]))
        monkeypatch.setattr(mod, "check_main_hypotheses",
                            recorded("hypotheses", vars(mod)["check_main_hypotheses"]))
    spec = {"kind": "conjugation", "element": [1, 1, 0, 1]}
    reports, src, tgt = check_peirce_image(build_map(m2, m2, spec), m2.basis_element(0))
    e1, f1 = src.e1.coords, tgt.e1.coords
    assert f1 == (1, 4, 0, 0)
    assert calls == [("annihilation", f1, "condition_2"), ("annihilation", f1, "condition_3")]
    want = [rep.to_json() for rep in real_hypotheses(tgt)[1:3]]
    for rep in want:
        rep["condition"] = "target_" + rep["condition"]
    assert [rep.to_json() for rep in reports[-2:]] == want
    assert [rep["condition"] for rep in want] == ["target_condition_2", "target_condition_3"]

    calls.clear()
    bundle = verify_theorem(build_map(m2, m2, spec), m2.basis_element(0), "dagger", 0)
    assert bundle["all_certificates_pass"]
    assert calls == [("annihilation", f1, "condition_2"), ("annihilation", f1, "condition_3"),
                     ("hypotheses", e1, DEFAULT_BUDGET),
                     ("annihilation", e1, "condition_1"), ("annihilation", e1, "condition_2"),
                     ("annihilation", e1, "condition_3")]


def test_sampled_mode_records_seed(zorn):
    """x -> x + t(x)^2 * 1 on Zorn/F5, t(x) = x_e11 + x_e22 the trace, is
    Lie multiplicative (a commutator has trace 0 and the unit is central)
    but not linear, so its pairs are sampled past the map's budget."""
    enum = Enumeration.of(zorn, 400_000)
    X = enum.all_coords().astype(np.int64)
    t = (X[:, 0] + X[:, 7]) % 5
    unit_multiples = enum.index_of(np.outer(np.arange(5), zorn.unit_coords))
    shifted = MapTable(zorn, zorn, enum, enum,
                       enum.sum_index([np.arange(enum.count), unit_multiples[t * t % 5]]))
    assert shifted.linear() is None
    rep = verify_lie_multiplicative(shifted, seed=11)
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


@pytest.mark.parametrize("failing", [set(), {(5, 3)}, {(6, 2), (4, 6), (5, 0)}, {(6, 6)},
                                     {(0, 4), (3, 1)}],
                         ids=["nowhere", "later_chunk", "first_of_several", "last_pair",
                              "first_row"])
def test_exhaustive_pair_scan_is_row_major(failing, monkeypatch):
    """7 elements in chunks of at most 16 pairs, doubling from one row:
    row 0, then rows 1-2, 3-4 and 5-6, each passed as broadcast grids.  A
    failure in row 0 costs one call on one row."""
    count, rows = 7, []
    codes = [a * count + b for a, b in failing]

    def fails(a_idx, b_idx):
        assert a_idx.shape == (len(a_idx), 1) and b_idx.shape == (1, count)
        assert b_idx.ravel().tolist() == list(range(count))
        rows.append(a_idx.ravel().tolist())
        return np.isin(a_idx * count + b_idx, codes)

    monkeypatch.setattr(maps, "PAIR_CHUNK", 16)
    ok, pair, mode, cov, checked = pair_scan(count, 10 ** 6, 0, fails)
    want = row_major_first(count, failing)
    assert (ok, pair, mode, cov, checked) == (want is None, want, "exhaustive", None, count ** 2)
    stop = len(rows) if want is None else (want[0] + 1) // 2 + 1
    assert rows == [[0], [1, 2], [3, 4], [5, 6]][:stop]


def test_sampled_pair_scan_witness_rederives(monkeypatch):
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

    monkeypatch.setattr(maps, "PAIR_CHUNK", chunk)
    ok, pair, mode, cov, checked = pair_scan(
        count, budget, seed, lambda a, b: (a == target[0]) & (b == target[1]))
    assert (ok, pair, mode, cov, checked) == (False, target, "sampled", budget / count ** 2, first + 1)


@pytest.mark.parametrize("budget", [0, -3])
def test_pair_scan_refuses_a_budget_below_one(m2, budget):
    """A budget below 1 would pass having checked nothing: the table whose
    entry 7 breaks Lie multiplicativity fails at budget 10^6, and no map
    is built under a budget below 1."""
    spec = {"kind": "neg_transpose_plus_trace"}
    bad = replace_entries(build_map(m2, m2, spec), {7: [1, 2, 3, 4]})
    assert not verify_lie_multiplicative(bad).ok
    with pytest.raises(ValueError, match="at least 1"):
        build_map(m2, m2, spec, budget)
    with pytest.raises(ValueError, match="at least 1"):
        pair_scan(7, budget, 0, lambda a, b: np.zeros(np.broadcast_shapes(a.shape, b.shape), bool))
