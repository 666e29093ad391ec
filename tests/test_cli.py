import dataclasses
import hashlib
import importlib
import json
from itertools import product
from pathlib import Path

import pytest

from altring import structure as st
from altring.cli import Workspace, main
from altring.rings import save_ring
from conftest import f2_rings, reordered_m2, write_cli_files


@pytest.fixture()
def files(tmp_path):
    return write_cli_files(tmp_path)


@pytest.mark.parametrize("field, code, err", [
    ("3", 0, "warning: p = 3 is not 2,3-torsion-free\n"),
    ("Q", 0, ""),
    ("4", 2, "error: modulus 4 is not prime\n"),
    ("25", 2, "error: modulus 25 is not prime\n"),
    ("-7", 2, "error: modulus -7 is not prime\n"),
    ("abc", 2, "error: field 'abc' is neither a prime nor Q\n"),
])
def test_gen_warns_on_a_small_prime_and_refuses_other_fields(tmp_path, capsys, field, code, err):
    """The torsion warning is for a prime below 5; a field that is not
    prime, or not a number, is an input error naming it."""
    assert main(["gen", "m2", "--field", field, "--out", str(tmp_path / "m2.json")]) == code
    assert capsys.readouterr().err == err


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


def test_analyze_prints_the_library_report(files, capsys):
    """`altring analyze` prints `structure.analyze` as it stands, skipped
    census and primeness included, and the law lines in report order."""
    ring = Workspace().load_ring(files["dsum"])
    for budget in (10**6, 1000):
        report, laws = st.analyze(ring, budget)
        assert main(["analyze", files["dsum"], "--budget", str(budget)]) == 0
        assert json.loads(capsys.readouterr().out) == report
        assert [rep.condition for rep in laws] == list(report)[4:9]
    assert "skipped" in report["idempotents"] and "skipped" in report["primeness"]


def test_analyze_counts_the_census_without_elements(files, capsys, monkeypatch):
    """Zorn/F5 has 15,752 idempotents; `analyze` counts them on their
    element indices and builds no `Element` or tag for them."""
    built = []
    monkeypatch.setattr(st, "Element", lambda *args: built.append(args))
    monkeypatch.setattr(st.IdempotentCensus, "tags", property(lambda self: built.append(self)))
    assert main(["analyze", files["zorn"]]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["idempotents"] == {"total": 5**6 + 5**3 + 2, "zero": 1, "trivial": 1,
                                  "nontrivial": 5**6 + 5**3}
    assert built == []


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


def test_idempotents_cmd_output_is_pinned(files):
    """The whole `altring idempotents` JSON for M2/F5, every element with
    its tag in element order, pinned byte for byte."""
    out = files["dir"] / "census.json"
    assert main(["idempotents", files["m2"], "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "eaf8aa16f97fcd4375185d1a6d9821ac48794627565a879a8d05e054b00e8e84"


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


def test_check_conditions_on_zorn_within_a_small_budget(files, capsys):
    """Spade/club tests centrality on the diagonal sums alone, so Zorn/F5
    (390,625 elements) needs no whole-ring table: at budget 1000 the
    command passes with the output of budget 10^6."""
    outs = []
    for budget in ("1000", "1000000"):
        assert main(["check-conditions", files["zorn"], "--idempotent", "1,0,0,0,0,0,0,0",
                     "--budget", budget]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


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


@pytest.mark.parametrize("held", ["dagger", "ddagger"])
def test_verify_theorem_refuses_a_branch_detection_ruled_out(files, monkeypatch, held):
    """With detection patched to find one branch on M2/F5, `--branch` the
    other exits 1 and writes a bundle whose error names both branches."""
    dec = importlib.import_module("altring.decompose")
    real = dec.detect_branch
    monkeypatch.setattr(dec, "detect_branch", lambda m, e1: dataclasses.replace(
        real(m, e1), dagger=held == "dagger", ddagger=held == "ddagger"))
    other = "ddagger" if held == "dagger" else "dagger"
    out = files["dir"] / "bundle.json"
    assert main(["verify-theorem", "--source", files["m2"], "--target", files["m2"],
                 "--map", files["negtr"], "--idempotent", "1,0,0,0", "--branch", other,
                 "--out", str(out)]) == 1
    bundle = json.loads(out.read_text())
    assert bundle["error"] == ("BranchUndetermined: cannot choose decomposition branch: "
                               f"the {other} corner condition fails; only {held} holds")
    assert not bundle["all_certificates_pass"] and "decomposition" not in bundle


def test_verify_theorem_reports_a_non_bijective_map(files, capsys):
    """E12 -> 0 is neither onto nor one-to-one: every stage still reports,
    the entry stage quotes the unreached element, and decomposition is
    skipped."""
    e12_to_zero = files["dir"] / "e12_to_zero.json"
    e12_to_zero.write_text(json.dumps({"source": "m2_f5", "target": "m2_f5", "repr": {
        "kind": "linear", "matrix": [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}}))
    assert main(["verify-theorem", "--source", files["m2"], "--target", files["m2"],
                 "--map", str(e12_to_zero), "--idempotent", "1,0,0,0"]) == 1
    rep = json.loads(capsys.readouterr().out)
    entry = next(s for s in rep["stages"] if s["stage"] == "entry")
    surjective = next(r for r in entry["reports"] if r["condition"] == "surjective")
    assert not surjective["pass"] and surjective["witness"] == {"unreached": [0, 1, 0, 0]}
    assert "decomposition" not in rep and "skipped" in rep["error"]


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


def test_analyze_keys_are_the_law_reports_over_f2(tmp_path, capsys):
    """On the first of `f2_rings`, (b0, b0, b0) != 0: `analyze` calls it
    neither alternative nor flexible, in JSON and in text, with the five
    axiom lines in report order."""
    path = tmp_path / "f2.json"
    save_ring(f2_rings()[0], path)
    assert main(["analyze", str(path)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert {k: rep[k] for k in ("alternative", "flexible", "associative",
                                "torsion_free_2", "torsion_free_3")} == {
        "alternative": False, "flexible": False, "associative": False,
        "torsion_free_2": False, "torsion_free_3": True}
    assert main(["analyze", str(path), "--format", "text"]) == 0
    assert capsys.readouterr().out.splitlines()[1:6] == [
        "  alternative: False", "  flexible: False", "  associative: False",
        "  torsion_free_2: False", "  torsion_free_3: True"]


def m2_map(repr_, ring="m2_f5"):
    return {"source": ring, "target": ring, "repr": repr_}


M2_IDENTITY = [[int(i == j) for j in range(4)] for i in range(4)]


def m2_table_with_true():
    """The M2/F5 identity table with the 1 of element 1 = E22 written as true."""
    rows = [list(x) for x in product(range(5), repeat=4)]
    rows[1][3] = True
    return rows


@pytest.mark.parametrize("field, doc, message", [
    ("5", m2_map({"kind": "table", "entries": [[0, 0, 0]] * 625}),
     "table rows must have 4 entries"),
    ("5", m2_map({"kind": "linear", "matrix": [[1, 0, 0]] * 4}), "linear part must be 4x4"),
    ("5", m2_map({"kind": "linear"}), "map of kind 'linear' is missing field 'matrix'"),
    ("5", m2_map({"kind": "table",
                  "entries": {str(i): [0, 0, 0, 0] for i in range(626) if i != 1}}),
     "table entries is missing field '1'"),
    ("5", [m2_map("identity")], "a map file must hold a JSON object"),
    ("5", m2_map(5), "map field 'repr' must be an object, got 5"),
    ("5", m2_map("identity"), "map field 'repr' must be an object, got 'identity'"),
    ("Q", m2_map({"kind": "linear", "matrix": M2_IDENTITY}, "m2_q"),
     "finite enumeration needs a prime field"),
    ("5", m2_map({"kind": "table", "entries": 5}),
     "map field 'entries' must be an array of arrays of scalars"),
    ("5", m2_map({"kind": "linear", "matrix": 5}),
     "map field 'matrix' must be an array of arrays of scalars"),
    ("5", m2_map({"kind": "conjugation", "element": 5}),
     "map field 'element' must be an array of scalars"),
    ("5", m2_map({"kind": "compose", "parts": 5}),
     "map field 'parts' must be an array of map objects"),
    ("5", m2_map({"kind": "compose", "parts": [{"kind": "identity"}, 5]}),
     "map field 'parts' must be an array of map objects"),
    ("5", m2_map({"kind": "structured", "matrix": M2_IDENTITY, "offset_functional": 5,
                  "offset_central": [1, 0, 0, 1]}),
     "map field 'offset_functional' must be an array of scalars"),
    ("5", m2_map({"kind": "table", "entries": m2_table_with_true()}),
     "map field 'entries' holds a JSON boolean, not a scalar"),
    ("5", m2_map({"kind": "linear", "matrix": [[True, 0, 0, 0]] + M2_IDENTITY[1:]}),
     "map field 'matrix' holds a JSON boolean, not a scalar"),
    ("5", {**m2_map("identity"), "source": ["m2_f5"]}, "map field 'source' must be a ring name"),
], ids=["table_rows_of_width_3", "linear_4x3", "linear_without_matrix", "table_without_entry_1",
        "top_level_list", "repr_a_number", "repr_a_kind_name", "linear_over_q", "entries_a_number",
        "matrix_a_number", "element_a_number", "parts_a_number", "compose_part_a_number",
        "offset_functional_a_number", "table_with_true", "matrix_with_true", "source_a_list"])
def test_malformed_map_is_an_input_error(files, capsys, field, doc, message):
    ring = files["m2"]
    if field == "Q":
        ring = str(files["dir"] / "m2_q.json")
        assert main(["gen", "m2", "--field", "Q", "--out", ring]) == 0
    path = files["dir"] / "malformed.json"
    path.write_text(json.dumps(doc))
    assert main(["verify-theorem", "--source", ring, "--target", ring,
                 "--map", str(path), "--idempotent", "1,0,0,0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("edit, out, message", [
    (lambda obj: {k: v for k, v in obj.items() if k != "dim"}, [],
     "ring file is missing field 'dim'"),
    (lambda obj: {**obj, "domain": {"Fp": 6}}, [], "modulus 6 is not prime"),
    (lambda obj: [obj], [], "a ring file must hold a JSON object"),
    (None, [], "Is a directory"),
    (lambda obj: obj, ["--out", "{dir}"], "Is a directory"),
    (lambda obj: {**obj, "mul": 5}, [],
     "ring file field 'mul' must be an array of arrays of arrays of scalars"),
    (lambda obj: {**obj, "unit": 1}, [], "ring file field 'unit' must be an array of scalars"),
    (lambda obj: {**obj, "basis": 5}, [], "ring file field 'basis' must be an array of scalars"),
    (lambda obj: {**obj, "name": [1]}, [], "ring file field 'name' must be a string"),
    (lambda obj: {**obj, "dim": 0, "basis": [], "unit": [], "mul": []}, [],
     "field 'dim' must be a positive integer, got 0"),
], ids=["without_dim", "composite_modulus", "top_level_list", "ring_is_a_directory",
        "out_is_a_directory", "mul_a_number", "unit_a_number", "basis_a_number", "name_a_list",
        "zero_dim"])
def test_malformed_ring_is_an_input_error(files, capsys, edit, out, message):
    """`edit` makes the ring file from a valid one; None makes it a directory."""
    obj = json.loads(Path(files["m2"]).read_text())
    path = files["dir"] / "malformed_ring.json"
    if edit is None:
        path.mkdir()
    else:
        path.write_text(json.dumps(edit(obj)))
    assert main(["analyze", str(path), *(arg.format(**files) for arg in out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_map_across_scalar_domains_is_an_input_error(files, capsys):
    m2_f7 = files["dir"] / "m2_f7.json"
    assert main(["gen", "m2", "--field", "7", "--out", str(m2_f7)]) == 0
    path = files["dir"] / "f5_to_f7.json"
    path.write_text(json.dumps({"source": "m2_f5", "target": "m2_f7",
                                "repr": {"kind": "linear",
                                         "matrix": [[int(i == j) for j in range(4)]
                                                    for i in range(4)]}}))
    assert main(["verify-theorem", "--source", files["m2"], "--target", str(m2_f7),
                 "--map", str(path), "--idempotent", "1,0,0,0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "different scalar domains" in err


def test_compose_between_different_rings_is_an_input_error(files, capsys):
    """A compose map from M2/F5 to t2/F5 is refused when it is loaded."""
    path = files["dir"] / "m2_to_t2.json"
    path.write_text(json.dumps({"source": "m2_f5", "target": "t2_f5",
                                "repr": {"kind": "compose", "parts": []}}))
    assert main(["verify-theorem", "--source", files["m2"], "--target", files["triangular2"],
                 "--map", str(path), "--idempotent", "1,0,0,0"]) == 2
    err = capsys.readouterr().err
    assert err == "error: compose map needs identical source and target rings\n"


@pytest.mark.parametrize("spec", [{"kind": "neg_transpose_plus_trace"},
                                  {"kind": "conjugation", "element": [1, 1, 0, 1]}],
                         ids=lambda spec: spec["kind"])
def test_self_map_onto_a_reordered_ring_is_an_input_error(files, capsys, spec):
    """M2/F5 -> M2/F5 under the basis order (E22, E12, E21, E11) is
    refused when the map is loaded, for the transpose and conjugation
    builders as for compose."""
    ring = files["dir"] / "m2_reordered.json"
    save_ring(reordered_m2("m2_f5_reordered"), ring)
    path = files["dir"] / "m2_to_reordered.json"
    path.write_text(json.dumps({"source": "m2_f5", "target": "m2_f5_reordered", "repr": spec}))
    assert main(["verify-theorem", "--source", files["m2"], "--target", str(ring),
                 "--map", str(path), "--idempotent", "1,0,0,0"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {spec['kind']} map needs identical source and target rings\n"


@pytest.mark.parametrize("value", ["abc", "0", "-5", "2.5", ""])
@pytest.mark.parametrize("source", ["flag", "environment"])
def test_budget_must_be_a_positive_integer(files, monkeypatch, capsys, value, source):
    argv = ["analyze", files["m2"]]
    if source == "flag":
        argv += ["--budget", value]
    else:
        monkeypatch.setenv("ALTRING_BUDGET", value)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: argument --budget: must be a positive integer (--budget or ALTRING_BUDGET), " \
           f"got {value!r}" in captured.err


def test_each_environment_budget_is_read_in_one_process(files, monkeypatch, capsys):
    """The parser is built once per ALTRING_BUDGET value: a second `main`
    in the same process under another value runs at that budget."""
    for value, skipped in (("100", True), ("1000", False), ("100", True)):
        monkeypatch.setenv("ALTRING_BUDGET", value)
        assert main(["analyze", files["m2"]]) == 0
        census = json.loads(capsys.readouterr().out)["idempotents"]
        assert ("skipped" in census) == skipped


def test_budget_flag_overrides_the_environment(files, monkeypatch, capsys):
    monkeypatch.setenv("ALTRING_BUDGET", "100")
    assert main(["analyze", files["m2"]]) == 0
    assert "skipped" in json.loads(capsys.readouterr().out)["idempotents"]
    assert main(["analyze", files["m2"], "--budget", "1000"]) == 0
    assert json.loads(capsys.readouterr().out)["idempotents"]["total"] == 32


def test_a_second_ring_with_the_same_name_over_another_field_is_refused(files, tmp_path, capsys):
    """Two `m2_f5` files with equal structure constants, over F_5 and F_7:
    the second must not replace the first."""
    f7 = tmp_path / "m2_f7.json"
    assert main(["gen", "m2", "--field", "7", "--out", str(f7)]) == 0
    renamed = tmp_path / "m2_f7_named_f5.json"
    renamed.write_text(json.dumps({**json.loads(f7.read_text()), "name": "m2_f5"}))
    capsys.readouterr()
    assert main(["verify-theorem", "--source", files["m2"], "--target", str(renamed),
                 "--map", files["ident"], "--idempotent", "1,0,0,0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: two different rings share the name 'm2_f5'" in captured.err


def test_one_ring_file_loaded_twice_is_registered_once(files):
    ws = Workspace()
    ring = ws.load_ring(files["m2"])
    assert ws.load_ring(files["m2"]) is ring and ws.rings == {"m2_f5": ring}
