"""Acceptance suite: one test per criterion, each printing a status line.

Everything here runs at the default evaluation budget (10^6) unless a
criterion states otherwise; all equality checks are exact (the arithmetic
is exact, so there are no tolerances to tune).
"""

import json
import time

import numpy as np
import pytest

from altring import (build_map, check_main_hypotheses, check_map_consequences,
                     check_primeness, check_spade_club, decompose, idempotents,
                     peirce_frame, verify_lie_multiplicative,
                     verify_peirce_relations, verify_preserves_idempotents,
                     verify_surjective)
from altring.cli import main
from altring.decompose import INFORMATIONAL_CERTIFICATES
from altring.enumeration import Enumeration
from altring.errors import HypothesisFailed


def ok(criterion, detail):
    print(f"[acceptance] criterion {criterion}: PASS — {detail}")


def test_criterion_1_peirce_relation_suite(m2, zorn, m2_frame, zorn_frame):
    t0 = time.time()
    for frame in (m2_frame, zorn_frame):
        reports = verify_peirce_relations(frame)
        assert all(r.ok for r in reports), \
            [r.condition for r in reports if not r.ok]
    # iv.a ran over every off-diagonal component element, not just bases
    iva = next(r for r in verify_peirce_relations(zorn_frame)
               if r.condition == "peirce_iv_a_squares")
    assert iva.quantifier_space["elements"] == 2 * 5 ** 3
    elapsed = time.time() - t0
    assert elapsed < 5.0
    ok(1, f"all corner relations hold on M2 and Zorn in {elapsed:.2f}s")


def test_criterion_2_primeness_equivalence(m2, zorn, dsum):
    t0 = time.time()
    budget = 10 ** 6
    rep = check_primeness(m2, budget)
    assert rep.prime_by_ideals and rep.prime_by_elements and rep.criterion_equiv
    rep = check_primeness(zorn, budget)
    assert rep.prime_by_ideals and rep.prime_by_elements and rep.criterion_equiv
    rep = check_primeness(dsum, budget)
    assert not rep.prime_by_ideals and not rep.prime_by_elements
    assert rep.criterion_equiv
    assert rep.ideal_witness is not None and rep.element_witness is not None
    a = dsum.element([int(x) for x in rep.element_witness["a"]])
    b = dsum.element([int(x) for x in rep.element_witness["b"]])
    assert not a.is_zero() and not b.is_zero()
    for k in range(dsum.dim):
        assert ((a * dsum.basis_element(k)) * b).is_zero()
    elapsed = time.time() - t0
    assert elapsed < 60.0
    ok(2, f"ideal and element primeness agree on all three rings in {elapsed:.1f}s")


def test_criterion_3_idempotent_census(m2):
    t0 = time.time()
    q = 5
    oracle_count = 2 + q * (q + 1)    # 0, 1, and rank-1 projections (image, kernel) line pairs
    census = idempotents(m2)
    assert census.count() == 32 == oracle_count
    elapsed = time.time() - t0
    assert elapsed < 1.0
    ok(3, f"M2(F5) has exactly {census.count()} idempotents in {elapsed:.2f}s")


def _conjugation_matrix_oracle(a_mat):
    """Coordinate matrix of x -> A x A^-1 on M2, built from plain 2x2 ops."""
    a = np.array(a_mat) % 5
    det = (a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]) % 5
    dinv = pow(int(det), 3, 5)
    ainv = (dinv * np.array([[a[1, 1], -a[0, 1]], [-a[1, 0], a[0, 0]]])) % 5
    cols = []
    for k in range(4):
        e = np.zeros((2, 2), dtype=np.int64)
        e[divmod(k, 2)] = 1
        cols.append((a @ e @ ainv % 5).reshape(4))
    return [[int(cols[j][i]) for j in range(4)] for i in range(4)]


def test_criterion_4_roundtrip_dagger(tmp_path, m2):
    t0 = time.time()
    budget = 10 ** 6     # 625^2 pairs fit, so pair certificates run exhaustively
    conj = build_map(m2, m2, {"kind": "conjugation", "element": [1, 1, 0, 1]})
    res = decompose(conj, m2.basis_element(0), branch="dagger", budget=budget)
    assert res.required_pass()
    assert res.psi_matrix == _conjugation_matrix_oracle([[1, 1], [0, 1]])
    assert (res.tau == 0).all()
    for c in res.certificates:
        assert c.mode == "exhaustive"
    case_names = {"case_diag_offdiag", "case_offdiag_diag", "case_diag_diag",
                  "case_offdiag_same", "case_offdiag_opposite"}
    assert case_names <= {c.condition for c in res.certificates if c.ok}

    ident = build_map(m2, m2, {"kind": "identity"})
    res = decompose(ident, m2.basis_element(0), branch="dagger", budget=budget)
    assert res.required_pass()
    assert res.psi_matrix == [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    assert (res.tau == 0).all()

    # full pipeline exits 0
    ring_file = tmp_path / "m2.json"
    assert main(["gen", "m2", "--field", "5", "--out", str(ring_file)]) == 0
    map_file = tmp_path / "conj.json"
    map_file.write_text(json.dumps({"source": "m2_f5", "target": "m2_f5",
                                    "repr": {"kind": "conjugation",
                                             "element": [1, 1, 0, 1]}}))
    code = main(["verify-theorem", "--source", str(ring_file), "--target", str(ring_file),
                 "--map", str(map_file), "--idempotent", "1,0,0,0",
                 "--branch", "dagger", "--out", str(tmp_path / "bundle.json")])
    assert code == 0
    elapsed = time.time() - t0
    assert elapsed < 30.0
    ok(4, f"conjugation and identity round-trip on branch dagger in {elapsed:.1f}s")


def test_criterion_5_roundtrip_ddagger(tmp_path, m2):
    t0 = time.time()
    budget = 10 ** 6
    negtr = build_map(m2, m2, {"kind": "neg_transpose_plus_trace"})
    from altring import detect_branch
    det = detect_branch(negtr, m2.basis_element(0), budget)
    assert det.ddagger        # the anti-isomorphism corner condition is detected
    res = decompose(negtr, m2.basis_element(0), branch="ddagger", budget=budget)
    assert res.branch == "ddagger"
    assert res.required_pass()
    # psi(x) = -x^T and tau(x) = trace(x) * unit, exactly, on all 625 elements
    enum = Enumeration(m2)
    X = enum.all_coords()
    psi_expect = np.stack([(-X[:, 0]) % 5, (-X[:, 2]) % 5,
                           (-X[:, 1]) % 5, (-X[:, 3]) % 5], axis=1)
    assert (res.psi == psi_expect).all()
    tr = (X[:, 0] + X[:, 3]) % 5
    tau_expect = np.stack([tr, 0 * tr, 0 * tr, tr], axis=1)
    assert (res.tau == tau_expect).all()
    for case in ("case_diag_offdiag", "case_offdiag_diag", "case_diag_diag",
                 "case_offdiag_same", "case_offdiag_opposite", "sandwich_identity"):
        assert next(c for c in res.certificates if c.condition == case).ok

    ring_file = tmp_path / "m2.json"
    assert main(["gen", "m2", "--field", "5", "--out", str(ring_file)]) == 0
    map_file = tmp_path / "negtr.json"
    map_file.write_text(json.dumps({"source": "m2_f5", "target": "m2_f5",
                                    "repr": {"kind": "neg_transpose_plus_trace"}}))
    code = main(["verify-theorem", "--source", str(ring_file), "--target", str(ring_file),
                 "--map", str(map_file), "--idempotent", "1,0,0,0",
                 "--branch", "ddagger", "--out", str(tmp_path / "bundle.json")])
    assert code == 0
    elapsed = time.time() - t0
    assert elapsed < 30.0
    ok(5, f"neg-transpose-plus-trace round-trips on branch ddagger in {elapsed:.1f}s")


def test_criterion_6_negative_controls(m2, dsum, negtr):
    # (a) identity plus a trace offset stops preserving idempotents,
    #     witnessed by a rank-1 idempotent combination
    ident = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    idtrace = build_map(m2, m2, {"kind": "structured", "matrix": ident,
                                 "offset_functional": [1, 0, 0, 1],
                                 "offset_central": [1, 0, 0, 1]})
    rep = verify_preserves_idempotents(idtrace)
    assert not rep.ok
    g = m2.element(rep.witness["a"]) - m2.element(rep.witness["b"]).smul(rep.witness["lambda"])
    assert (g * g).coords == g.coords
    assert not g.is_zero() and g.coords != tuple(m2.unit_coords)
    img = idtrace(g)
    assert (img * img).coords != img.coords

    # (b) blockwise idempotent on the direct sum: condition (4) fails with
    #     the first block's unit as witness
    ident_ds = build_map(dsum, dsum, {"kind": "identity"})
    with pytest.raises(HypothesisFailed) as exc:
        decompose(ident_ds, dsum.element([1, 0, 0, 0, 1, 0, 0, 0]))
    assert exc.value.condition == "4"
    assert exc.value.witness["central"] == [1, 0, 0, 1, 0, 0, 0, 0]

    # (c) one corrupted table entry breaks exactly one named certificate
    enum = Enumeration(m2)
    x0 = int(enum.index_of(np.array([1, 1, 0, 0])))
    x1 = int(enum.index_of(np.array([1, 2, 0, 0])))
    imgs = negtr.images()
    bad = negtr.replace_entry(x0, imgs[x1]).replace_entry(x1, imgs[x0])
    res = decompose(bad, m2.basis_element(0), branch="ddagger", certify=False)
    failures = [c for c in res.certificates
                if not c.ok and c.condition not in INFORMATIONAL_CERTIFICATES]
    assert [c.condition for c in failures] == ["tau_central"]
    assert failures[0].witness == {"x": [1, 1, 0, 0], "tau": [1, 0, 4, 1]}
    ok(6, "idempotent-preservation, hypothesis (4), and corruption controls all trip")


def test_criterion_7_bijection_consequences(m2, id_m2, negtr, conj):
    for name, m in (("identity", id_m2), ("neg_transpose", negtr), ("conjugation", conj)):
        assert verify_surjective(m).ok
        assert verify_lie_multiplicative(m).ok
        assert verify_preserves_idempotents(m).ok
        reports = {r.condition: r for r in check_map_consequences(m)}
        assert reports["injective"].ok, name
        assert reports["maps_zero_to_zero"].ok, name
        assert reports["scalar_homogeneous"].ok, name
        assert reports["scalar_homogeneous"].quantifier_space["lambdas"] == 5
    ok(7, "injectivity, zero-fixing, and scalar homogeneity hold on every bundled map")


def test_criterion_8_conditional_never_violated(m2, zorn, t2, dsum,
                                                m2_frame, zorn_frame, dsum_frame):
    frames = [m2_frame, zorn_frame, dsum_frame,
              peirce_frame(t2, t2.basis_element(0)),
              peirce_frame(m2, m2.element([1, 1, 0, 0]))]
    for frame in frames:
        hyps = check_main_hypotheses(frame)
        conds = {r.condition: r.ok for r in hyps}
        sc = {r.condition: r.ok for r in check_spade_club(frame, hyps)}
        premise = conds["condition_1"] and conds["condition_2"] and conds["condition_3"]
        assert sc["conditions_imply_spade_club"]
        if premise:
            assert sc["spade"] and sc["club"]
    ok(8, f"the (1)-(3) => (spade)(club) implication holds on {len(frames)} frames")


def test_criterion_9_byte_identical_bundles(tmp_path):
    ring_file = tmp_path / "m2.json"
    assert main(["gen", "m2", "--field", "5", "--out", str(ring_file)]) == 0
    map_file = tmp_path / "negtr.json"
    map_file.write_text(json.dumps({"source": "m2_f5", "target": "m2_f5",
                                    "repr": {"kind": "neg_transpose_plus_trace"}}))
    argv = ["verify-theorem", "--source", str(ring_file), "--target", str(ring_file),
            "--map", str(map_file), "--idempotent", "1,0,0,0",
            "--branch", "ddagger", "--seed", "42"]
    b1, b2 = tmp_path / "b1.json", tmp_path / "b2.json"
    assert main(argv + ["--out", str(b1)]) == 0
    assert main(argv + ["--out", str(b2)]) == 0
    assert b1.read_bytes() == b2.read_bytes()
    ok(9, f"verify-theorem bundles are byte-identical ({b1.stat().st_size} bytes)")
