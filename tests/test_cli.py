import json
from pathlib import Path

import pytest

from altring.cli import main


@pytest.fixture()
def files(tmp_path):
    """Generated ring files plus a couple of map files."""
    paths = {}
    for kind in ("m2", "zorn", "triangular2"):
        out = tmp_path / f"{kind}.json"
        assert main([f"gen", kind, "--field", "5", "--out", str(out)]) == 0
        paths[kind] = str(out)
    ds = tmp_path / "dsum.json"
    assert main(["gen", "direct_sum", paths["m2"], paths["m2"], "--out", str(ds)]) == 0
    paths["dsum"] = str(ds)
    negtr = tmp_path / "negtr.json"
    negtr.write_text(json.dumps({"source": "m2_f5", "target": "m2_f5",
                                 "repr": {"kind": "neg_transpose_plus_trace"}}))
    paths["negtr"] = str(negtr)
    ident = tmp_path / "ident.json"
    ident.write_text(json.dumps({"source": "m2_f5", "target": "m2_f5",
                                 "repr": {"kind": "identity"}}))
    paths["ident"] = str(ident)
    bad = tmp_path / "idtrace.json"
    bad.write_text(json.dumps({
        "source": "m2_f5", "target": "m2_f5",
        "repr": {"kind": "structured",
                 "matrix": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
                 "offset_functional": [1, 0, 0, 1],
                 "offset_central": [1, 0, 0, 1]}}))
    paths["idtrace"] = str(bad)
    paths["dir"] = tmp_path
    return paths


def test_gen_messages_for_small_prime(tmp_path, capsys):
    out = tmp_path / "m2_3.json"
    assert main(["gen", "m2", "--field", "3", "--out", str(out)]) == 0
    assert "torsion" in capsys.readouterr().err


def test_gen_outputs_loadable_ring(files):
    obj = json.loads(Path(files["zorn"]).read_text())
    assert obj["dim"] == 8
    assert obj["domain"] == {"Fp": 5}
    assert len(obj["mul"]) == 8


def test_analyze_json(files, tmp_path, capsys):
    assert main(["analyze", files["m2"]]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["associative"] and rep["alternative"]
    assert rep["centre_dim"] == 1 and rep["nucleus_dim"] == 4
    assert rep["idempotents"]["total"] == 32
    assert rep["primeness"]["prime"] and rep["primeness"]["criterion_equiv"]


def test_analyze_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["analyze", str(bad)]) == 2


def test_analyze_rejects_broken_unit(tmp_path, files):
    obj = json.loads(Path(files["m2"]).read_text())
    obj["unit"] = [1, 1, 0, 1]
    bad = tmp_path / "badunit.json"
    bad.write_text(json.dumps(obj))
    assert main(["analyze", str(bad)]) == 2


def test_analyze_flags_skipped_census_over_budget(files, capsys):
    assert main(["analyze", files["zorn"], "--budget", "1000"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert "skipped" in rep["idempotents"]
    assert "skipped" in rep["primeness"]


def test_idempotents_cmd(files, capsys):
    assert main(["idempotents", files["m2"]]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["total"] == 32 and rep["nontrivial"] == 30
    assert len(rep["elements"]) == 32


def test_peirce_cmd(files, capsys):
    assert main(["peirce", files["zorn"], "--idempotent", "1,0,0,0,0,0,0,0"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["component_dims"] == {"11": 1, "12": 3, "21": 3, "22": 1}
    assert all(r["pass"] for r in rep["relations"])


def test_peirce_cmd_rejects_trivial_idempotent(files):
    assert main(["peirce", files["m2"], "--idempotent", "1,0,0,1"]) == 1


def test_check_conditions_cmd(files, capsys):
    assert main(["check-conditions", files["m2"], "--idempotent", "1,0,0,0"]) == 0
    capsys.readouterr()
    assert main(["check-conditions", files["dsum"],
                 "--idempotent", "1,0,0,0,1,0,0,0"]) == 1
    rep = json.loads(capsys.readouterr().out)
    failed = [c for c in rep["conditions"] if not c["pass"]]
    assert [c["condition"] for c in failed] == ["condition_4"]
    assert failed[0]["witness"]["central"] == [1, 0, 0, 1, 0, 0, 0, 0]


def test_decompose_cmd(files, capsys):
    assert main(["decompose", "--source", files["m2"], "--target", files["m2"],
                 "--map", files["negtr"], "--idempotent", "1,0,0,0",
                 "--branch", "ddagger"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["branch"] == "ddagger"
    assert rep["all_required_pass"]
    assert rep["psi_matrix"] == [[4, 0, 0, 0], [0, 0, 4, 0], [0, 4, 0, 0], [0, 0, 0, 4]]


def test_decompose_needs_branch_on_degenerate_corners(files):
    assert main(["decompose", "--source", files["m2"], "--target", files["m2"],
                 "--map", files["ident"], "--idempotent", "1,0,0,0"]) == 1


def test_verify_theorem_pass_and_fail(files, capsys):
    assert main(["verify-theorem", "--source", files["m2"], "--target", files["m2"],
                 "--map", files["negtr"], "--idempotent", "1,0,0,0",
                 "--branch", "ddagger"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["all_certificates_pass"]
    assert rep["branch_detection"]["dagger"] and rep["branch_detection"]["ddagger"]
    assert rep["decomposition"]["branch"] == "ddagger"

    assert main(["verify-theorem", "--source", files["m2"], "--target", files["m2"],
                 "--map", files["idtrace"], "--idempotent", "1,0,0,0",
                 "--branch", "dagger"]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert not rep["all_certificates_pass"]
    entry = next(s for s in rep["stages"] if s["stage"] == "entry")
    failing = [r["condition"] for r in entry["reports"] if not r["pass"]]
    assert failing == ["preserves_idempotents"]
    assert "decomposition" not in rep     # pipeline stops before decomposing


def test_verify_theorem_deterministic_bytes(files):
    argv = ["verify-theorem", "--source", files["m2"], "--target", files["m2"],
            "--map", files["negtr"], "--idempotent", "1,0,0,0",
            "--branch", "ddagger", "--seed", "3"]
    out1 = files["dir"] / "b1.json"
    out2 = files["dir"] / "b2.json"
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_budget_env_override(files, capsys, monkeypatch):
    monkeypatch.setenv("ALTRING_BUDGET", "1000")
    assert main(["analyze", files["zorn"]]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert "skipped" in rep["idempotents"]


def test_text_format(files, capsys):
    assert main(["analyze", files["m2"], "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "alternative: True" in out
