import importlib
import io
import itertools
import json
import random
from collections import Counter

import numpy as np
import pytest

from altring import (build_map, center, decompose, detect_branch, gen_direct_sum, gen_m2,
                     gen_triangular2, is_alternative, linalg, map_to_json,
                     verify_decomposition, verify_theorem)
from altring.cli import main
from altring.decompose import CELLS, product_rule
from altring.reports import CheckReport, dumps
from altring.enumeration import DEFAULT_BUDGET, Enumeration
from altring.errors import (AmbiguousCentralSplit, BranchUndetermined, HypothesisFailed,
                            NotBijective)
from altring.maps import (MapTable, first_bilinear_failure, pair_report, pair_result,
                          peirce_frames)
from altring.rings import Ring
from altring.scalars import PrimeField
from altring.structure import Subspace
from conftest import apply_matrix, breaks_law, replace_entries

decompose_mod = importlib.import_module("altring.decompose")


def failures(res):
    return [c.condition for c in res.certificates if not c.ok]


def assert_element_witnesses(m, certs, psi_ref, tau_ref, psi_matrix):
    """Every element certificate quotes the lowest failing element, found
    by a scan in element order in `rings.py` arithmetic with images from
    `MapTable.__call__`; psi_ref and tau_ref give the coordinates the
    certified psi and tau take at x."""
    src, tgt = m.source, m.target

    def central(z):
        return all(z * tgt.basis_element(k) == tgt.basis_element(k) * z for k in range(tgt.dim))

    want = {}
    for x in itertools.product(range(src.domain.p), repeat=src.dim):
        psi, tau = tgt.element(psi_ref(x)), tgt.element(tau_ref(x))
        fails = {"recomposition": (psi + tau != m(src.element(x)), {}),
                 "psi_linear_matrix": (psi.coords != apply_matrix(tgt, psi_matrix, x), {}),
                 "tau_central": (not central(tau), {"tau": list(tau.coords)})}
        for name, (bad, extra) in fails.items():
            if bad and name not in want:
                want[name] = {"x": list(x), **extra}
    by = {c.condition: c for c in certs}
    for name in ("recomposition", "psi_linear_matrix", "tau_central"):
        assert by[name].witness == want.get(name), name
        assert by[name].ok == (name not in want), name


def test_detect_branch_m2_is_degenerate(m2, id_m2, negtr):
    # every corner of M2 relative to a rank-1 idempotent is 1-dimensional
    # and equals Z*f, so both corner conditions hold for any verified map
    e1 = m2.basis_element(0)
    for m in (id_m2, negtr):
        det = detect_branch(m, e1)
        assert det.dagger and det.ddagger
        assert all(r.ok for r in det.reports)


def reference_detection(m, e1) -> list:
    """The corner reports of branch detection, each corner f_i (y f_i)
    computed in `rings.py` arithmetic at the image y of every cell point,
    in the cell's point order, and tested against the span of Z*f_i."""
    src_frame, tgt_frame = peirce_frames(m, e1)
    S, T = m.source, m.target
    out = []
    for tag in ("dagger", "ddagger"):
        for i in (1, 2):
            f = tgt_frame.e1 if i == 1 else tgt_frame.e2
            zf = Subspace.from_vectors(T, [T.mul_coords(z, f.coords) for z in center(T).basis])
            cell = (3 - i, 3 - i) if tag == "dagger" else (i, i)
            pts = src_frame.components[cell].points(m.es).tolist()
            corners = ((x, f * (m(S.element(x)) * f)) for x in pts)
            wit = next(({"element": x, "corner": list(c.coords)}
                        for x, c in corners if not zf.contains(c.coords)), None)
            out.append({"condition": f"branch_{tag}_corner_{i}", "pass": wit is None,
                        "witness": wit, "quantifier_space": {"elements": len(pts)}})
    return out


def test_detect_branch_matches_the_reference_corners():
    """On M2 + t2 over F_3 the (2, 2) corner is bigger than Z*f_2, so
    ddagger fails: detection's corners, taken at the cell points' images
    only, are the reference's for the identity, a block conjugation that
    moves e1, and a table with two entries swapped."""
    m2_f3 = gen_m2("3")
    r = gen_direct_sum(m2_f3, gen_triangular2("3"))
    e1 = r.basis_element(0)
    g = build_map(m2_f3, m2_f3, {"kind": "conjugation", "element": [1, 1, 0, 1]}).matrix()
    conj = [[int(i == j) for j in range(7)] for i in range(7)]
    for row, g_row in zip(conj, g):
        row[:4] = g_row
    ident = build_map(r, r, {"kind": "identity"})
    es = ident.es
    i, j = (int(k) for k in es.index_of([[0, 0, 0, 1, 0, 1, 2], [0, 0, 0, 2, 1, 0, 1]]))
    idx = ident.image_index().copy()
    idx[[i, j]] = idx[[j, i]]
    maps = [ident, build_map(r, r, {"kind": "linear", "matrix": conj}),
            MapTable(r, r, es, es, idx)]
    assert maps[1](e1) != e1
    for m in maps:
        det = detect_branch(m, e1)
        assert [rep.to_json() for rep in det.reports] == reference_detection(m, e1)
        assert det.dagger and not det.ddagger
    assert not detect_branch(maps[2], e1).reports[3].ok


def test_both_branches_need_explicit_choice(m2, id_m2):
    with pytest.raises(BranchUndetermined):
        decompose(id_m2, m2.basis_element(0))


@pytest.mark.parametrize("dagger, ddagger", itertools.product([False, True], repeat=2))
def test_branch_undetermined_constructs_in_every_state(dagger, ddagger):
    """Each corner state has a message: a branch the detection ruled out is
    named as failing, and the one that holds as holding."""
    exc = BranchUndetermined(dagger, ddagger)
    assert (exc.dagger, exc.ddagger) == (dagger, ddagger)
    msg = str(exc)
    assert msg.startswith("cannot choose decomposition branch: ")
    if dagger != ddagger:
        held, failed = ("dagger", "ddagger") if dagger else ("ddagger", "dagger")
        assert f"the {failed} corner condition fails; only {held} holds" in msg


def test_identity_roundtrip_dagger(m2, id_m2):
    res = decompose(id_m2, m2.basis_element(0), branch="dagger")
    assert res.branch == "dagger"
    assert res.required_pass()
    assert res.psi_matrix == [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    assert (res.tau.image_index() == 0).all()


def test_conjugation_roundtrip_recovers_matrix(m2, conj):
    res = decompose(conj, m2.basis_element(0), branch="dagger")
    assert res.required_pass()
    # column j of conjugation by u = 1 + E12 is u b_j u^-1
    u, u_inv = m2.element([1, 1, 0, 1]), m2.element([1, 4, 0, 1])
    images = [(u * m2.basis_element(j) * u_inv).coords for j in range(4)]
    assert res.psi_matrix == [[img[k] for img in images] for k in range(4)]
    assert (res.tau.image_index() == 0).all()


def test_neg_transpose_roundtrip_ddagger(m2, negtr):
    enum = Enumeration(m2, DEFAULT_BUDGET)
    res = decompose(negtr, m2.basis_element(0), branch="ddagger")
    assert res.branch == "ddagger"
    assert res.required_pass()
    # psi = -x^T: swaps the off-diagonal coordinates and negates
    assert res.psi_matrix == [[4, 0, 0, 0], [0, 0, 4, 0], [0, 4, 0, 0], [0, 0, 0, 4]]
    # tau = trace * unit on every element
    X = enum.all_coords()
    tr = (X[:, 0] + X[:, 3]) % 5
    expect = np.stack([tr, np.zeros_like(tr), np.zeros_like(tr), tr], axis=1)
    assert (res.tau.images() == expect).all()
    names = [c.condition for c in res.certificates]
    assert "psi_anti_multiplicative" in names
    for case in ("case_diag_offdiag", "case_offdiag_diag", "case_diag_diag",
                 "case_offdiag_same", "case_offdiag_opposite", "sandwich_identity"):
        assert next(c for c in res.certificates if c.condition == case).ok


def test_wrong_branch_value_rejected(m2, id_m2):
    with pytest.raises(ValueError):
        decompose(id_m2, m2.basis_element(0), branch="sideways")


def test_recomposition_always_exact(m2, negtr):
    res = decompose(negtr, m2.basis_element(0), branch="ddagger")
    assert ((res.psi.images() + res.tau.images()) % 5 == negtr.images()).all()
    rec = next(c for c in res.certificates if c.condition == "recomposition")
    assert rec.ok and rec.mode == "exhaustive"


def test_bundle_tau_is_the_tau_map(m2, negtr):
    """The bundle's tau table is `map_to_json` of the tau map, entry for entry."""
    res = decompose(negtr, m2.basis_element(0), branch="ddagger")
    assert isinstance(res.psi, MapTable) and isinstance(res.tau, MapTable)
    assert res.to_json()["tau"].tolist() == map_to_json(res.tau)["repr"]["entries"]


def test_verify_decomposition_reads_budget_and_seed(m2):
    """Re-verifying a sampled decomposition draws the same pairs: the
    battery runs at the budget of the result's map and at its seed."""
    negtr = build_map(m2, m2, {"kind": "neg_transpose_plus_trace"}, 200_000)
    res = decompose(negtr, m2.basis_element(0), branch="ddagger", seed=3)
    assert (res.to_json()["budget"], res.to_json()["seed"]) == (200_000, 3)
    sampled = [c for c in res.certificates if c.mode == "sampled"]
    assert sampled and all(c.seed == 3 for c in sampled)
    assert [c.to_json() for c in verify_decomposition(res)] == \
        [c.to_json() for c in res.certificates]


def test_hypothesis_4_failure_on_direct_sum(dsum):
    ident = build_map(dsum, dsum, {"kind": "identity"})
    e_blk = dsum.element([1, 0, 0, 0, 1, 0, 0, 0])
    with pytest.raises(HypothesisFailed) as exc:
        decompose(ident, e_blk)
    assert exc.value.condition == "4"
    assert exc.value.witness["central"] == [1, 0, 0, 1, 0, 0, 0, 0]


def test_non_bijective_rejected(m2):
    zero = build_map(m2, m2, {"kind": "linear", "matrix": [[0] * 4 for _ in range(4)]})
    with pytest.raises(NotBijective):
        decompose(zero, m2.basis_element(0), branch="dagger")


def test_target_corner_meeting_the_centre_is_an_ambiguous_split(m2):
    """Onto F_5 + T_2(F_5) the image of E11 is (1, E11): its corner (1, 1)
    holds the central (1, 0), so the central part of a diagonal image is
    not unique."""
    f5 = Ring("f5", PrimeField(5), ["u"], [[[1]]], [1])
    target = gen_direct_sum(f5, gen_triangular2(5))
    phi = build_map(m2, target, {"kind": "linear",
                                 "matrix": [[1, 0, 1, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]]})
    with pytest.raises(AmbiguousCentralSplit, match=r"target corner \(1,1\) meets the centre "
                                                    r"in dimension 1"):
        decompose(phi, m2.basis_element(0), branch="dagger")


def test_corrupted_entry_breaks_exactly_one_certificate(m2, negtr):
    # swapping the images of two mixed-corner, nonzero-trace elements keeps
    # the table bijective, psi untouched, and no commutator value hit:
    # only tau can break: the swap moves it off the centre at two elements,
    # so it is neither central nor additive
    enum = Enumeration(m2, DEFAULT_BUDGET)
    x0 = int(enum.index_of(np.array([1, 1, 0, 0])))
    x1 = int(enum.index_of(np.array([1, 2, 0, 0])))
    imgs = negtr.images()
    bad = replace_entries(negtr, {x0: imgs[x1], x1: imgs[x0]})
    res = decompose(bad, m2.basis_element(0), branch="ddagger")
    assert not res.required_pass()
    assert failures(res) == ["tau_central", "tau_additive"]
    cert = next(c for c in res.certificates if c.condition == "tau_central")
    assert cert.witness["x"] == [1, 1, 0, 0]
    assert cert.witness["tau"] == [1, 0, 4, 1]
    assert res.certificates[-1].witness == {"a": [0, 0, 0, 1], "b": [1, 1, 0, 0]}

    def psi(x):
        return apply_matrix(m2, res.psi_matrix, x)

    assert_element_witnesses(bad, res.certificates, psi,
                             lambda x: (bad(m2.element(x)) - m2.element(psi(x))).coords,
                             res.psi_matrix)


def test_corrupted_psi_breaks_named_case_with_witness(m2, negtr):
    res = decompose(negtr, m2.basis_element(0), branch="ddagger")
    enum = Enumeration(m2, DEFAULT_BUDGET)
    # corrupt psi at E12 and recertify: the product cases touching R_12 fail
    i = int(enum.index_of(np.array([0, 1, 0, 0])))
    res.psi = replace_entries(res.psi, {i: (res.psi.images()[i] + np.array([1, 0, 0, 0])) % 5})
    certs = verify_decomposition(res)
    by = {c.condition: c for c in certs}
    assert not by["case_diag_offdiag"].ok
    assert by["case_diag_offdiag"].witness is not None
    assert not by["recomposition"].ok   # psi no longer matches phi - tau

    def psi(x):
        y = apply_matrix(m2, res.psi_matrix, x)
        return m2.add_coords(y, (1, 0, 0, 0)) if x == (0, 1, 0, 0) else y

    def tau(x):
        return (negtr(m2.element(x)) - m2.element(apply_matrix(m2, res.psi_matrix, x))).coords

    assert_element_witnesses(negtr, certs, psi, tau, res.psi_matrix)
    assert by["recomposition"].witness == by["psi_linear_matrix"].witness == {"x": [0, 1, 0, 0]}


@pytest.mark.parametrize("replacement", ["entry", "linear"])
def test_replaced_psi_is_checked_against_psi_matrix(m2, negtr, replacement):
    """psi replaced after `decompose`, by a one-entry corruption or by
    another linear map, is checked against psi_matrix, not against itself,
    although phi is linear and decompose built psi from that matrix:
    recomposition and psi_linear_matrix fail at the first element where
    the new psi differs, and psi_additive fails only on the corruption."""
    res = decompose(negtr, m2.basis_element(0), branch="ddagger")
    if replacement == "entry":
        i = int(Enumeration.of(m2, DEFAULT_BUDGET).index_of(np.array([0, 1, 0, 0])))
        res.psi = replace_entries(res.psi, {i: (res.psi.images()[i] + np.array([1, 0, 0, 0])) % 5})
        want = {"recomposition": (False, {"x": [0, 1, 0, 0]}),
                "psi_additive": (False, {"a": [0, 0, 0, 1], "b": [0, 1, 0, 0]}),
                "psi_linear_matrix": (False, {"x": [0, 1, 0, 0]})}
    else:
        res.psi = build_map(m2, m2, {"kind": "conjugation", "element": [1, 1, 0, 1]})
        want = {"recomposition": (False, {"x": [0, 0, 0, 1]}),
                "psi_additive": (True, None),
                "psi_linear_matrix": (False, {"x": [0, 0, 0, 1]})}
    by = {c.condition: c for c in verify_decomposition(res)}
    assert {name: (by[name].ok, by[name].witness) for name in want} == want
    assert by["psi_additive"].quantifier_space == {"pairs": 625 ** 2, "checked": 625 ** 2}


def test_psi_bijective_witness_replays(m2, negtr):
    res = decompose(negtr, m2.basis_element(0), branch="ddagger")
    assert next(c for c in res.certificates if c.condition == "psi_bijective").witness is None
    # replace psi by a singular linear map (negtr's psi with coordinate 0 dropped)
    M = [[0, 0, 0, 0]] + [list(row) for row in res.psi_matrix[1:]]
    res.psi = build_map(m2, m2, {"kind": "linear", "matrix": M})
    tau = (negtr.images().astype(np.int64) - res.psi.images()) % 5
    enum = Enumeration.of(m2, DEFAULT_BUDGET)
    res.tau = MapTable(m2, m2, enum, enum, enum.index_of(tau))
    certs = verify_decomposition(res)
    cert = next(c for c in certs if c.condition == "psi_bijective")
    assert not cert.ok
    assert_element_witnesses(
        negtr, certs, lambda x: apply_matrix(m2, M, x),
        lambda x: (negtr(m2.element(x)) - m2.element(apply_matrix(m2, M, x))).coords,
        res.psi_matrix)

    # replay in rings.py arithmetic: psi(x) = sum_i x_i psi(b_i); the witness
    # is the first image (in element order) hit twice, with its first two preimages
    cols = [m2.element([M[r][i] for r in range(4)]) for i in range(4)]

    def psi(coords):
        out = m2.zero()
        for c, col in zip(coords, cols):
            out = out + col.smul(c)
        return out.coords

    preimages = {}
    for x in itertools.product(range(5), repeat=4):
        preimages.setdefault(psi(x), []).append(list(x))
    image = min(y for y, xs in preimages.items() if len(xs) > 1)
    assert cert.witness == {"image": list(image), "a": preimages[image][0],
                            "b": preimages[image][1]}
    assert psi(cert.witness["a"]) == psi(cert.witness["b"]) == tuple(cert.witness["image"])


def test_zorn_identity_roundtrip_sampled(zorn):
    ident = build_map(zorn, zorn, {"kind": "identity"}, 400_000)
    res = decompose(ident, zorn.basis_element(0), branch="dagger", seed=7)
    assert res.required_pass()
    assert (res.tau.image_index() == 0).all()
    assert res.psi_matrix == [[1 if i == j else 0 for j in range(8)] for i in range(8)]
    sampled = [c for c in res.certificates if c.mode == "sampled"]
    assert sampled and all(c.seed == 7 for c in sampled)


@pytest.fixture(scope="module")
def zorn_identity(zorn):
    """The Zorn/F5 identity decomposed under each branch at budget 10^6, seed 0."""
    ident = build_map(zorn, zorn, {"kind": "identity"})
    return {branch: decompose(ident, zorn.basis_element(0), branch=branch)
            for branch in ("dagger", "ddagger")}


def test_zorn_identity_ddagger_closed_form(zorn, zorn_identity):
    """Under ddagger the Zorn/F5 identity splits as psi(x) = -conj(x), where
    conj swaps e11 and e22 and negates u and v, and tau(x) = t(x)*1 with
    t = x_e11 + x_e22, on all 390,625 elements."""
    res = zorn_identity["ddagger"]
    assert res.required_pass()
    enum = Enumeration.of(zorn, DEFAULT_BUDGET)
    X = enum.all_coords().astype(np.int64)
    conj = np.concatenate([X[:, 7:], -X[:, 1:7], X[:, :1]], axis=1)
    assert (res.psi.image_index() == enum.index_of(-conj)).all()
    t = X[:, 0] + X[:, 7]
    zero = np.zeros((len(X), 6), dtype=np.int64)
    assert (res.tau.image_index() == enum.index_of(np.column_stack([t, zero, t]))).all()
    assert int((res.tau.image_index() != 0).sum()) == 312_500


def reference_diagonal_psi(res):
    """psi on every point x of each diagonal source cell (i, i) by the
    per-point construction, in `rings.py` arithmetic with phi(x) from
    `MapTable.__call__`: solve f_s phi(x) f_s = z f_s for a central z
    with `linalg.solve`, then psi(x) = f_k phi(x) f_k - z f_k, where
    (s, k) = (j, i) under dagger and (i, j) under ddagger.
    Yields (x, psi(x))."""
    m, src, tgt = res.map, res.map.source, res.map.target
    dom = tgt.domain
    zc = center(tgt).basis
    f = {1: res.target_frame.e1.coords, 2: res.target_frame.e2.coords}
    for i in (1, 2):
        j = 3 - i
        s, k = (j, i) if res.branch == "dagger" else (i, j)
        cols = [tgt.mul_coords(z, f[s]) for z in zc]
        A = [[col[r] for col in cols] for r in range(tgt.dim)]
        cell = res.source_frame.components[(i, i)]
        for coeffs in itertools.product(range(dom.p), repeat=cell.dim):
            x = src.zero()
            for c, row in zip(coeffs, cell.basis):
                x = x + src.element(row).smul(c)
            y = m(x).coords
            corner = apply_matrix(tgt, res.target_frame.projectors[(s, s)], y)
            alpha, null = linalg.solve(A, list(corner), dom)
            assert alpha is not None and not null
            z = tgt.zero()
            for a, row in zip(alpha, zc):
                z = z + tgt.element(row).smul(a)
            kept = tgt.element(apply_matrix(tgt, res.target_frame.projectors[(k, k)], y))
            yield x, kept - z * tgt.element(f[k])


@pytest.mark.parametrize("name, branch", [("id_m2", "dagger"), ("conj", "dagger"),
                                          ("negtr", "ddagger"), ("negtr_table", "ddagger")])
def test_diagonal_psi_matches_per_point_solve_m2(m2, name, branch, request):
    m = (build_map(m2, m2, {"kind": "table",
                            "entries": request.getfixturevalue("negtr").images().tolist()})
         if name == "negtr_table" else request.getfixturevalue(name))
    res = decompose(m, m2.basis_element(0), branch=branch)
    assert res.required_pass()
    for x, want in reference_diagonal_psi(res):
        assert res.psi(x) == want, x


@pytest.mark.parametrize("branch", ["dagger", "ddagger"])
def test_diagonal_psi_matches_per_point_solve_zorn(zorn_identity, branch):
    res = zorn_identity[branch]
    assert res.required_pass()
    for x, want in reference_diagonal_psi(res):
        assert res.psi(x) == want, x


@pytest.mark.parametrize("branch", ["dagger", "ddagger"])
def test_non_additive_tau_fails_the_decomposition(m2, id_m2, branch, tmp_path):
    """tau's additivity is a required certificate.  The M2/F5 identity with
    the images of 2*1 and 3*1 swapped is Lie multiplicative and almost
    additive, with a central tau that is not additive: tau_additive is the
    one certificate that fails, `decompose` reports failure and the CLI
    exits 1.  Its witness is the first failing pair of a row-major scan in
    `rings.py` arithmetic, with phi written out by hand."""
    es = id_m2.es
    i, j = (int(k) for k in es.index_of(np.array([[2, 0, 0, 2], [3, 0, 0, 3]])))
    idx = id_m2.image_index().copy()
    idx[[i, j]] = idx[[j, i]]
    m = MapTable(m2, m2, es, es, idx)
    res = decompose(m, m2.basis_element(0), branch=branch)
    assert failures(res) == ["tau_additive"]
    assert not res.required_pass()

    def tau(x):
        phi = {(2, 0, 0, 2): (3, 0, 0, 3), (3, 0, 0, 3): (2, 0, 0, 2)}.get(x, x)
        return m2.element(phi) - m2.element(apply_matrix(m2, res.psi_matrix, x))

    elems = list(itertools.product(range(5), repeat=4))
    want = next({"a": list(a), "b": list(b)} for a in elems for b in elems
                if tau(tuple((u + v) % 5 for u, v in zip(a, b))) != tau(a) + tau(b))
    assert res.certificates[-1].witness == want == {"a": [0, 0, 0, 1], "b": [2, 0, 0, 1]}

    ring, phi, out = tmp_path / "m2.json", tmp_path / "swap.json", tmp_path / "dec.json"
    assert main(["gen", "m2", "--field", "5", "--out", str(ring)]) == 0
    phi.write_text(json.dumps(map_to_json(m)))
    assert main(["decompose", "--source", str(ring), "--target", str(ring), "--map", str(phi),
                 "--idempotent", "1,0,0,0", "--branch", branch, "--out", str(out)]) == 1
    obj = json.loads(out.read_text())
    assert not obj["all_required_pass"]
    assert [c["condition"] for c in obj["certificates"] if not c["pass"]] == ["tau_additive"]


def report_bytes(rep) -> bytes:
    fh = io.BytesIO()
    dumps(rep.to_json(), fh)
    return fh.getvalue()


def commutator_matrices(monkeypatch) -> list:
    """The M of every `Enumeration.commutator_index` call from now on."""
    calls, real = [], Enumeration.commutator_index

    def spy(self, a, b, M=None):
        calls.append(M)
        return real(self, a, b, M)
    monkeypatch.setattr(Enumeration, "commutator_index", spy)
    return calls


def index_predicate_report(res, budget):
    """tau_kills_commutators through tau's index, tau_idx[[a, b]] != 0: the
    sampled scan one pair below the 625**2 pairs of M2/F5, the basis grid
    at them."""
    es, tau_idx = res.map.es, res.tau.image_index()

    def fails(a_idx, b_idx):
        return tau_idx[es.commutator_index(a_idx, b_idx)] != 0
    if budget < es.count ** 2:
        return pair_report("tau_kills_commutators", res.map, res.seed, fails)
    return pair_result("tau_kills_commutators", res.map.source, es,
                       first_bilinear_failure(es, fails))


# a linear map of M2/F5 that is neither central nor zero on commutators
NONCENTRAL_TAU = [[1, 2, 0, 3], [0, 1, 4, 0], [2, 0, 1, 1], [0, 3, 0, 1]]


@pytest.mark.parametrize("budget", [390_624, 390_625])
@pytest.mark.parametrize("kept", [True, False], ids=["kept_matrix", "from_index"])
def test_additive_tau_commutator_report_equals_the_index_predicate(m2, budget, kept,
                                                                   monkeypatch):
    """The M2/F5 identity's tau replaced by a non-central linear map, built
    from its matrix (kept) or from its index (no kept matrix):
    tau_kills_commutators evaluates T [a, b] under that matrix, and its
    report is, byte for byte, the one tau's index gives, sampled one pair
    below the budget of every pair (same failing draw, checked and seed)
    and on the basis grid at it.  The witness replays in `rings.py`."""
    res = decompose(build_map(m2, m2, {"kind": "identity"}, budget), m2.basis_element(0),
                    "dagger", seed=3)
    es = res.map.es
    tau = MapTable.from_matrix(m2, m2, es, es, NONCENTRAL_TAU)
    res.tau = tau if kept else MapTable(m2, m2, es, es, tau.image_index())
    assert (res.tau.matrix() is not None) == kept
    calls = commutator_matrices(monkeypatch)
    got = {c.condition: c for c in verify_decomposition(res)}
    assert got["tau_additive"].ok and not got["tau_central"].ok
    assert calls and all(M == NONCENTRAL_TAU for M in calls)
    got = got["tau_kills_commutators"]
    want = index_predicate_report(res, budget)
    assert got.mode == ("sampled" if budget < 625 ** 2 else "exhaustive")
    assert not got.ok and report_bytes(got) == report_bytes(want)
    assert got.seed == (3 if got.mode == "sampled" else None)
    a, b = (m2.element(got.witness[k]) for k in "ab")
    assert any(apply_matrix(m2, NONCENTRAL_TAU, (a * b - b * a).coords))


def test_non_additive_tau_keeps_the_index_predicate(m2, monkeypatch):
    """The scalar-swapped M2/F5 identity at budget 390,624: tau is not
    additive, so tau_kills_commutators looks tau's index up at each
    commutator (`commutator_index` with no matrix), with that sampled
    report byte for byte."""
    ident = build_map(m2, m2, {"kind": "identity"}, 390_624)
    es = ident.es
    i, j = (int(k) for k in es.index_of(np.array([[2, 0, 0, 2], [3, 0, 0, 3]])))
    idx = ident.image_index().copy()
    idx[[i, j]] = idx[[j, i]]
    res = decompose(MapTable(m2, m2, es, es, idx), m2.basis_element(0), "dagger", seed=3)
    calls = commutator_matrices(monkeypatch)
    got = {c.condition: c for c in verify_decomposition(res)}
    assert not got["tau_additive"].ok
    assert calls and all(M is None for M in calls)
    got = got["tau_kills_commutators"]
    assert got.mode == "sampled" and got.seed == 3
    assert report_bytes(got) == report_bytes(index_predicate_report(res, 390_624))


def central_perturbation(phi0, seed):
    """phi0 + h*1 for a seeded scalar function h, nonzero on one or two
    cosets x + F_5*1 of M2/F5.  phi0 is linear and fixes 1, so
    phi0(x + t*1) = phi0(x) + t*1; on a drawn coset, with x its trace-zero
    element, phi(x + t*1) = phi0(x + pi(t)*1) for a drawn permutation pi of
    F_5.  So phi stays bijective, and pi(0) = 0 keeps it Lie multiplicative:
    the commutators of M2 are its trace-zero elements, where h vanishes."""
    rng = random.Random(seed)
    es, idx = phi0.es, phi0.image_index().copy()
    for a, b, c in rng.sample(list(itertools.product(range(5), repeat=3)), rng.choice((1, 2))):
        pi = [0, *rng.sample(range(1, 5), 4)]
        coset = es.index_of(np.array([[a + t, b, c, t - a] for t in range(5)]) % 5)
        idx[coset] = idx[coset[pi]]
    return MapTable(phi0.source, phi0.target, es, es, idx)


REACHES_DECOMPOSE = {90, 123}


@pytest.mark.parametrize("seed", range(128))
def test_theorem_holds_on_central_perturbations(m2, id_m2, negtr, seed):
    """The theorem as oracle: whenever every report before the
    decomposition passes, every decomposition certificate passes under
    both branches, tau_additive included.  The pinned seeds are the draws
    that reach `decompose` (one per phi0), so the property is never
    vacuous.  Each draws only identity permutations, as the theorem
    predicts: phi and phi0 both split into additive parts, so h*1 is
    additive, a multiple of the trace since h vanishes on trace zero, and
    idempotent preservation leaves only h = 0."""
    phi0 = (id_m2, negtr)[seed % 2]
    m, e1 = central_perturbation(phi0, seed), m2.basis_element(0)
    bundle = verify_theorem(m, e1, "dagger", seed)
    reached = all(r["pass"] for stage in bundle["stages"] for r in stage["reports"]
                  if stage["stage"] != "decomposition")
    assert ("decomposition" in bundle) == reached == (seed in REACHES_DECOMPOSE)
    if reached:
        assert bundle["all_certificates_pass"]
        assert decompose(m, e1, branch="ddagger", seed=seed).required_pass()
        assert (m.image_index() == phi0.image_index()).all()


@pytest.mark.parametrize("kind", ["identity", "conjugation", "neg_transpose_plus_trace"])
def test_decomposition_does_not_depend_on_the_idempotent(m2, kind):
    """Within one branch psi is a function of phi: two splits psi + tau =
    psi' + tau' differ by an automorphism alpha = psi'^-1 psi with alpha(x)
    - x central, and alpha fixes a non-central idempotent, which forces
    alpha = id.  So at every nontrivial idempotent e1 of M2/F5, 28 of the
    30 not basis vectors, `verify_theorem` passes with one psi_matrix and
    one tau table per branch."""
    spec = {"kind": kind, **({"element": [1, 1, 0, 1]} if kind == "conjugation" else {})}
    m = build_map(m2, m2, spec)
    es = m.es
    trivial = {0, int(es.index_of(m2.unit_coords))}
    idempotents = [m2.element(es.coords_of(k).tolist())
                   for k in np.flatnonzero(es.idempotent_mask()) if int(k) not in trivial]
    assert len(idempotents) == 30
    assert sum(sorted(e.coords) == [0, 0, 0, 1] for e in idempotents) == 2
    for branch in ("dagger", "ddagger"):
        splits = set()
        for e1 in idempotents:
            bundle = verify_theorem(m, e1, branch, 0)
            assert bundle["all_certificates_pass"], (branch, e1.coords)
            dec = bundle["decomposition"]
            splits.add((json.dumps(dec["psi_matrix"]), np.asarray(dec["tau"], np.int64).tobytes()))
        assert len(splits) == 1, branch


def test_verify_theorem_computes_each_artefact_once(m2, tmp_path, monkeypatch):
    """One M2/F5 run builds the two Peirce frames once, checks all four
    hypotheses on the source frame once, only the annihilation conditions
    (2) and (3) that the Peirce image reports on a target frame of its
    own, and detects the branch once, counted at every module binding;
    its bundle is the CLI's output byte for byte.  The identity's two
    frames are one frame of one ring, checked once, but never shared
    between two ring objects.  Both maps are linear, so
    map consequences build no scalar table x -> lam*x: the one table is
    x -> -x for the ddagger sign, and dagger builds none (tau = phi - psi
    builds none either)."""
    calls = Counter()
    smul = Enumeration.smul_index

    def counted_smul(self, *args, **kwargs):
        calls["smul_index"] += 1
        return smul(self, *args, **kwargs)

    monkeypatch.setattr(Enumeration, "smul_index", counted_smul)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for mod in (importlib.import_module(f"altring.{name}") for name in ("structure", "maps", "decompose")):
        for name in ("peirce_frame", "check_main_hypotheses", "check_annihilation",
                     "_detect_branch_frames"):
            if name in vars(mod):
                monkeypatch.setattr(mod, name, counted(name, vars(mod)[name]))
    spec = {"kind": "neg_transpose_plus_trace"}
    bundle = verify_theorem(build_map(m2, m2, spec), m2.basis_element(0), "ddagger", 0)
    assert calls == {"peirce_frame": 2, "check_main_hypotheses": 1, "check_annihilation": 5,
                     "_detect_branch_frames": 1, "smul_index": 1}
    assert bundle["all_certificates_pass"]
    for target, annihilation in ((m2, 3), (gen_m2(5), 5)):
        calls.clear()
        ident = verify_theorem(build_map(m2, target, {"kind": "identity"}),
                               m2.basis_element(0), "dagger", 0)
        assert ident["all_certificates_pass"]
        assert calls == Counter({"peirce_frame": 2, "check_main_hypotheses": 1,
                                 "check_annihilation": annihilation,
                                 "_detect_branch_frames": 1, "smul_index": 0})

    ring, phi, out = tmp_path / "m2.json", tmp_path / "negtr.json", tmp_path / "bundle.json"
    assert main(["gen", "m2", "--field", "5", "--out", str(ring)]) == 0
    phi.write_text(json.dumps({"source": "m2_f5", "target": "m2_f5", "repr": spec}))
    assert main(["verify-theorem", "--source", str(ring), "--target", str(ring), "--map", str(phi),
                 "--idempotent", "1,0,0,0", "--branch", "ddagger", "--budget", "1000000",
                 "--seed", "0", "--out", str(out)]) == 0
    encoded = io.BytesIO()
    dumps(bundle, encoded)
    assert out.read_bytes() == encoded.getvalue()


def test_ring_axioms_quote_the_broken_alternative_law(broken3):
    ident = build_map(broken3, broken3, {"kind": "identity"})
    bundle = verify_theorem(ident, broken3.basis_element(0), None, 0)
    axioms = {r["condition"]: r for r in bundle["stages"][0]["reports"]}
    for side in ("source", "target"):
        rep = axioms[f"{side}_alternative"]
        assert not rep["pass"] and rep["witness"] == is_alternative(broken3).witness
        assert breaks_law(broken3, rep["witness"])


def test_ring_axioms_quote_a_torsion_witness():
    """On M2/F3, 3*1 = 0: the failing torsion report quotes x = 1, and
    the witness replays in `rings.py` arithmetic."""
    m3 = gen_m2(3)
    bundle = verify_theorem(build_map(m3, m3, {"kind": "identity"}), m3.basis_element(0),
                            None, 0)
    axioms = {r["condition"]: r for r in bundle["stages"][0]["reports"]}
    assert axioms["source_torsion_free_2"]["pass"] and axioms["source_torsion_free_2"]["witness"] is None
    rep = axioms["source_torsion_free_3"]
    assert not rep["pass"] and rep["witness"] == {"x": [1, 0, 0, 1]}
    x = m3.element(rep["witness"]["x"])
    assert not x.is_zero() and (x + x + x).is_zero()


# -- the implied route of the per-cell cases and the sandwich identity ---------

CELL_CASES = (("case_diag_offdiag", lambda i, j: ((i, i), (i, j))),
              ("case_offdiag_diag", lambda i, j: ((i, j), (j, j))),
              ("case_diag_diag", lambda i, j: ((i, i), (i, i))),
              ("case_offdiag_same", lambda i, j: ((i, j), (i, j))),
              ("case_offdiag_opposite", lambda i, j: ((i, j), (j, i))))
IMPLIED = [name for name, _ in CELL_CASES] + ["sandwich_identity"]


def scanned_cell_reports(res):
    """The six reports of the element-grid scan: per case, every pair (a,
    b) of the cells (i, j) for i = 1 then 2, a outer, each cell's points in
    `Subspace.points` order, against psi's product rule, or psi((ab)a) =
    (psi(a)psi(b))psi(a) for the sandwich; the first failing pair is the
    witness."""
    m = res.map
    es, et = m.es, m.et
    psi_idx = res.psi.image_index()
    idx = {ij: es.index_of(res.source_frame.components[ij].points(es)) for ij in CELLS}

    def sandwich(a, b):
        pa = psi_idx[a]
        return psi_idx[es.mul_index(es.mul_index(a, b), a)] != \
            et.mul_index(et.mul_index(pa, psi_idx[b]), pa)

    reports = {}
    for name, cells_fn in CELL_CASES + (("sandwich_identity", lambda i, j: ((i, j), (j, i))),):
        cells = [cells_fn(i, 3 - i) for i in (1, 2)]
        a = np.concatenate([np.repeat(idx[ca], len(idx[cb])) for ca, cb in cells])
        b = np.concatenate([np.tile(idx[cb], len(idx[ca])) for ca, cb in cells])
        owner = np.concatenate([np.full(len(idx[ca]) * len(idx[cb]), k)
                                for k, (ca, cb) in enumerate(cells)])
        fails = sandwich if name == "sandwich_identity" else \
            product_rule(es, et, res.psi, res.branch == "ddagger")
        bad = np.flatnonzero(fails(a, b))
        wit = None
        if len(bad):
            k = int(bad[0])
            wit = {"a": list(map(int, es.coords_of(a[k]))), "b": list(map(int, es.coords_of(b[k])))}
            if name != "sandwich_identity":
                wit["cells"] = [list(c) for c in cells[owner[k]]]
        space = "triples" if name == "sandwich_identity" else "pairs"
        reports[name] = {"condition": name, "pass": wit is None, "witness": wit,
                         "quantifier_space": {space: len(a)}}
    return reports


@pytest.fixture
def scanned_names(monkeypatch):
    """The names of the reports `decompose.py` builds through `first_failure`,
    that is from a failure mask, rather than as implied passes."""
    names = []
    real = decompose_mod.first_failure

    def recording(name, *args):
        names.append(name)
        return real(name, *args)

    monkeypatch.setattr(decompose_mod, "first_failure", recording)
    return names


def test_implied_reports_equal_the_grid_scan(m2, zorn_identity, scanned_names):
    """On the four passing M2/F5 maps of the benchmark (identity and
    conjugation by 1 + E12 under dagger, neg_transpose_plus_trace and the
    dense table of their composite under ddagger) and on the Zorn/F5
    identity, psi is linear and its product rule passes: the six per-cell
    reports are implied, scan no grid, and equal the grid scan's byte for
    byte."""
    conj = {"kind": "conjugation", "element": [1, 1, 0, 1]}
    negtr = {"kind": "neg_transpose_plus_trace"}
    composite = build_map(m2, m2, {"kind": "compose", "parts": [conj, negtr]})
    table = {"kind": "table", "entries": composite.images().tolist()}
    results = [decompose(build_map(m2, m2, spec), m2.basis_element(0), branch=branch)
               for spec, branch in (({"kind": "identity"}, "dagger"), (conj, "dagger"),
                                    (negtr, "ddagger"), (table, "ddagger"))]
    for res in results + [zorn_identity["dagger"], zorn_identity["ddagger"]]:
        assert res.required_pass()
        got = {c.condition: c.to_json() for c in verify_decomposition(res) if c.condition in IMPLIED}
        assert json.dumps(got, sort_keys=True) == \
            json.dumps(scanned_cell_reports(res), sort_keys=True)
    assert not set(IMPLIED) & set(scanned_names)


@pytest.mark.parametrize("branch", ["dagger", "ddagger"])
def test_sandwich_needs_an_alternative_target_under_ddagger(m2, monkeypatch, scanned_names,
                                                            branch):
    """Under ddagger psi((ab)a) = psi(a)(psi(b)psi(a)) follows from the
    product rule, and equals (psi(a)psi(b))psi(a) only on a flexible
    target: with the target's alternative law failing, the sandwich
    identity is scanned on its grid, with the scan's report, while the
    five cases stay implied.  Under dagger it stays implied."""
    res = decompose(build_map(m2, m2, {"kind": "neg_transpose_plus_trace"}),
                    m2.basis_element(0), branch=branch)
    monkeypatch.setattr(decompose_mod, "is_alternative",
                        lambda r: CheckReport("alternative", False, {"law": "patched"}, {}))
    scanned_names.clear()
    certs = {c.condition: c.to_json() for c in verify_decomposition(res)}
    cells = [name for name in scanned_names if name in IMPLIED]
    assert cells == (["sandwich_identity"] if branch == "ddagger" else [])
    reference = scanned_cell_reports(res)
    assert all(certs[name] == reference[name] for name in IMPLIED)


def test_corrupted_psi_scans_the_case_grid_with_its_witness(m2, negtr, scanned_names):
    """psi corrupted at E12 after `decompose` is not linear, so the cases
    are scanned: case_diag_offdiag fails at the first pair of its grid,
    a = 2*E11, b = E12, as the scan reports it."""
    res = decompose(negtr, m2.basis_element(0), branch="ddagger")
    i = int(Enumeration.of(m2, DEFAULT_BUDGET).index_of(np.array([0, 1, 0, 0])))
    res.psi = replace_entries(res.psi, {i: (res.psi.images()[i] + np.array([1, 0, 0, 0])) % 5})
    scanned_names.clear()
    certs = {c.condition: c.to_json() for c in verify_decomposition(res)}
    assert set(IMPLIED) <= set(scanned_names)
    assert certs["case_diag_offdiag"] == {
        "condition": "case_diag_offdiag", "pass": False, "quantifier_space": {"pairs": 50},
        "witness": {"a": [2, 0, 0, 0], "b": [0, 1, 0, 0], "cells": [[1, 1], [1, 2]]}}
    reference = scanned_cell_reports(res)
    assert all(certs[name] == reference[name] for name in IMPLIED)


def test_linear_psi_failing_the_product_rule_scans_the_case_grids(m2, id_m2, scanned_names):
    """psi replaced after `decompose` by x -> 2x, with psi_matrix to match,
    is linear but not multiplicative (psi(E22 E22) = 2 E22, psi(E22)^2 =
    4 E22): no report is implied, the six grids are scanned with the
    scan's reports, and only case_offdiag_same passes, its products all 0."""
    res = decompose(id_m2, m2.basis_element(0), branch="dagger")
    res.psi_matrix = [[2 * (i == j) for j in range(4)] for i in range(4)]
    res.psi = build_map(m2, m2, {"kind": "linear", "matrix": res.psi_matrix})
    scanned_names.clear()
    certs = {c.condition: c.to_json() for c in verify_decomposition(res)}
    assert certs["psi_linear_matrix"]["pass"] and not certs["psi_multiplicative"]["pass"]
    assert set(IMPLIED) <= set(scanned_names)
    assert [name for name in IMPLIED if certs[name]["pass"]] == ["case_offdiag_same"]
    reference = scanned_cell_reports(res)
    assert all(certs[name] == reference[name] for name in IMPLIED)
