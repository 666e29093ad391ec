import importlib
import itertools
import json
from collections import Counter

import numpy as np
import pytest

from altring import (build_map, decompose, detect_branch, verify_decomposition,
                     verify_theorem)
from altring.cli import main
from altring.reports import dumps
from altring.decompose import INFORMATIONAL_CERTIFICATES
from altring.enumeration import Enumeration
from altring.errors import (BranchUndetermined, CertificationFailed,
                            HypothesisFailed, NotBijective)


def required_failures(res):
    return [c.condition for c in res.certificates
            if not c.ok and c.condition not in INFORMATIONAL_CERTIFICATES]


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
                 "psi_linear_matrix": (psi.coords != tgt.apply_matrix(psi_matrix, x), {}),
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


def test_both_branches_need_explicit_choice(m2, id_m2):
    with pytest.raises(BranchUndetermined):
        decompose(id_m2, m2.basis_element(0))


def test_identity_roundtrip_dagger(m2, id_m2):
    res = decompose(id_m2, m2.basis_element(0), branch="dagger")
    assert res.branch == "dagger"
    assert res.required_pass()
    assert res.psi_matrix == [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    assert (res.tau == 0).all()


def test_conjugation_roundtrip_recovers_matrix(m2, conj):
    res = decompose(conj, m2.basis_element(0), branch="dagger")
    assert res.required_pass()
    assert res.psi_matrix == conj.matrix
    assert (res.tau == 0).all()


def test_neg_transpose_roundtrip_ddagger(m2, negtr):
    enum = Enumeration(m2)
    res = decompose(negtr, m2.basis_element(0), branch="ddagger")
    assert res.branch == "ddagger"
    assert res.required_pass()
    # psi = -x^T: swaps the off-diagonal coordinates and negates
    assert res.psi_matrix == [[4, 0, 0, 0], [0, 0, 4, 0], [0, 4, 0, 0], [0, 0, 0, 4]]
    # tau = trace * unit on every element
    X = enum.all_coords()
    tr = (X[:, 0] + X[:, 3]) % 5
    expect = np.stack([tr, np.zeros_like(tr), np.zeros_like(tr), tr], axis=1)
    assert (res.tau == expect).all()
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
    assert ((res.psi + res.tau) % 5 == negtr.images()).all()
    rec = next(c for c in res.certificates if c.condition == "recomposition")
    assert rec.ok and rec.mode == "exhaustive"


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


def test_corrupted_entry_breaks_exactly_one_certificate(m2, negtr):
    # swapping the images of two mixed-corner, nonzero-trace elements keeps
    # the table bijective, psi untouched, and no commutator value hit:
    # only centrality of tau can break
    enum = Enumeration(m2)
    x0 = int(enum.index_of(np.array([1, 1, 0, 0])))
    x1 = int(enum.index_of(np.array([1, 2, 0, 0])))
    imgs = negtr.images()
    bad = negtr.replace_entry(x0, imgs[x1]).replace_entry(x1, imgs[x0])
    res = decompose(bad, m2.basis_element(0), branch="ddagger", certify=False)
    assert required_failures(res) == ["tau_central"]
    cert = next(c for c in res.certificates if c.condition == "tau_central")
    assert cert.witness["x"] == [1, 1, 0, 0]
    assert cert.witness["tau"] == [1, 0, 4, 1]

    def psi(x):
        return m2.apply_matrix(res.psi_matrix, x)

    assert_element_witnesses(bad, res.certificates, psi,
                             lambda x: (bad(m2.element(x)) - m2.element(psi(x))).coords,
                             res.psi_matrix)


def test_certify_raises_on_corruption(m2, negtr):
    enum = Enumeration(m2)
    x0 = int(enum.index_of(np.array([1, 1, 0, 0])))
    x1 = int(enum.index_of(np.array([1, 2, 0, 0])))
    imgs = negtr.images()
    bad = negtr.replace_entry(x0, imgs[x1]).replace_entry(x1, imgs[x0])
    with pytest.raises(CertificationFailed) as exc:
        decompose(bad, m2.basis_element(0), branch="ddagger")
    assert exc.value.certificate == "tau_central"


def test_corrupted_psi_breaks_named_case_with_witness(m2, negtr):
    res = decompose(negtr, m2.basis_element(0), branch="ddagger")
    enum = Enumeration(m2)
    # corrupt psi at E12 and recertify: the product cases touching R_12 fail
    i = int(enum.index_of(np.array([0, 1, 0, 0])))
    res.psi = res.psi.copy()
    res.psi[i] = (res.psi[i] + np.array([1, 0, 0, 0])) % 5
    certs = verify_decomposition(res)
    by = {c.condition: c for c in certs}
    assert not by["case_diag_offdiag"].ok
    assert by["case_diag_offdiag"].witness is not None
    assert not by["recomposition"].ok   # psi no longer matches phi - tau

    def psi(x):
        y = m2.apply_matrix(res.psi_matrix, x)
        return m2.add_coords(y, (1, 0, 0, 0)) if x == (0, 1, 0, 0) else y

    def tau(x):
        return (negtr(m2.element(x)) - m2.element(m2.apply_matrix(res.psi_matrix, x))).coords

    assert_element_witnesses(negtr, certs, psi, tau, res.psi_matrix)
    assert by["recomposition"].witness == by["psi_linear_matrix"].witness == {"x": [0, 1, 0, 0]}


def test_psi_bijective_witness_replays(m2, negtr):
    res = decompose(negtr, m2.basis_element(0), branch="ddagger")
    assert next(c for c in res.certificates if c.condition == "psi_bijective").witness is None
    # replace psi by a singular linear map (negtr's psi with coordinate 0 dropped)
    M = [[0, 0, 0, 0]] + [list(row) for row in res.psi_matrix[1:]]
    X = Enumeration(m2).all_coords()
    res.psi = X @ np.array(M, dtype=np.int64).T % 5
    res.tau = (negtr.images() - res.psi) % 5
    certs = verify_decomposition(res)
    cert = next(c for c in certs if c.condition == "psi_bijective")
    assert not cert.ok
    assert_element_witnesses(
        negtr, certs, lambda x: m2.apply_matrix(M, x),
        lambda x: (negtr(m2.element(x)) - m2.element(m2.apply_matrix(M, x))).coords,
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
    ident = build_map(zorn, zorn, {"kind": "identity"})
    res = decompose(ident, zorn.basis_element(0), branch="dagger",
                    budget=400_000, seed=7, certify=False)
    assert res.required_pass()
    assert (res.tau == 0).all()
    assert res.psi_matrix == [[1 if i == j else 0 for j in range(8)] for i in range(8)]
    sampled = [c for c in res.certificates if c.mode == "sampled"]
    assert sampled and all(c.seed == 7 for c in sampled)


def test_tau_additivity_reported_not_required(m2, negtr):
    res = decompose(negtr, m2.basis_element(0), branch="ddagger")
    tau_add = next(c for c in res.certificates if c.condition == "tau_additive")
    assert tau_add.ok    # trace*unit is additive here
    assert "tau_additive" in INFORMATIONAL_CERTIFICATES


def test_verify_theorem_computes_each_artefact_once(m2, tmp_path, monkeypatch):
    """One M2/F5 run builds the two Peirce frames once, checks the
    hypotheses once per frame and detects the branch once, counted at
    every module binding; its bundle is the CLI's output byte for byte."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for mod in (importlib.import_module(f"altring.{name}") for name in ("structure", "maps", "decompose")):
        for name in ("peirce_frame", "check_main_hypotheses", "_detect_branch_frames"):
            if name in vars(mod):
                monkeypatch.setattr(mod, name, counted(name, vars(mod)[name]))
    spec = {"kind": "neg_transpose_plus_trace"}
    bundle = verify_theorem(build_map(m2, m2, spec), m2.basis_element(0), "ddagger", 10**6, 0)
    assert calls == {"peirce_frame": 2, "check_main_hypotheses": 2, "_detect_branch_frames": 1}
    assert bundle["all_certificates_pass"]

    ring, phi, out = tmp_path / "m2.json", tmp_path / "negtr.json", tmp_path / "bundle.json"
    assert main(["gen", "m2", "--field", "5", "--out", str(ring)]) == 0
    phi.write_text(json.dumps({"source": "m2_f5", "target": "m2_f5", "repr": spec}))
    assert main(["verify-theorem", "--source", str(ring), "--target", str(ring), "--map", str(phi),
                 "--idempotent", "1,0,0,0", "--branch", "ddagger", "--budget", "1000000",
                 "--seed", "0", "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == dumps(bundle)
