"""The `altring` command line end to end.

Each case runs `cli.main(argv)` on ring files written by `altring gen`
and checks the exit code (0 when every certificate passes, 1 on a
failure with a witness, 2 on bad input) and a predicate on the JSON the
command writes.  Input errors and the other command checks live in
`test_cli.py`; the last case runs `python -m altring.cli` in a fresh
interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import altring
from altring.cli import main
from conftest import write_cli_files


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    return write_cli_files(tmp_path_factory.mktemp("console"))


def analyze(ring) -> dict:
    """`altring analyze ring --out ...` exits 0; the report it wrote."""
    out = Path(ring).with_suffix(".analyze.json")
    assert main(["analyze", str(ring), "--out", str(out)]) == 0
    return json.loads(out.read_text())


def gen_m2(files, field) -> Path:
    ring = files["dir"] / f"m2_{field}.json"
    assert main(["gen", "m2", "--field", field, "--out", str(ring)]) == 0
    return ring


@pytest.mark.parametrize("ring, want", [("dsum", (False, True, 3, 2)),
                                        ("zorn", (True, True, 1, 1))])
def test_analyze_decides_primeness(files, ring, want):
    """M2+M2/F5 is not prime: the two block ideals and the whole ring,
    two of them minimal.  Zorn/F5 is prime: the element route runs every
    doubling batch to the end, and the ideal route all 12 certificate
    rounds."""
    p = analyze(files[ring])["primeness"]
    space = p["quantifier_space"]
    assert (p["prime"], p["criterion_equiv"], space["ideals_found"],
            space["minimal_ideals"]) == want


@pytest.mark.parametrize("p", [3, 7, 11, 13])
def test_analyze_counts_the_idempotents_of_m2(files, p):
    """M2/F_p has p^2+p+2 idempotents, p^2+p of them nontrivial; the
    census squares every element, in int8 for p = 3 and 7 and in int16
    for p = 11 and 13."""
    census = analyze(gen_m2(files, str(p)))["idempotents"]
    assert (census["total"], census["nontrivial"]) == (p * p + p + 2, p * p + p)


@pytest.mark.parametrize("field", ["2147483647", "Q"])
def test_analyze_m2_over_object_structure_constants(files, field):
    """Over F_2147483647, where 4*(p-1)**2 passes 2**62, and over Q the
    structure constants are an object array."""
    a = analyze(gen_m2(files, field))
    assert (a["alternative"], a["flexible"], a["associative"], a["centre_dim"],
            a["nucleus_dim"]) == (True, True, True, 1, 4)


def test_check_conditions_over_the_budget_is_an_input_error(files, capsys):
    """The hypotheses on Zorn/F5 enumerate their cells, 125 points each:
    at budget 10 `Enumeration` fails loudly."""
    assert main(["check-conditions", files["zorn"], "--idempotent", "1,0,0,0,0,0,0,0",
                 "--budget", "10"]) == 2
    assert capsys.readouterr().err == \
        "error: enumerating subspace points needs 125 evaluations, budget is 10\n"


def verify(files, name, *flags, map="ident", branch="dagger") -> dict:
    """`altring verify-theorem` of an M2/F5 self-map exits 0; its bundle."""
    out = files["dir"] / f"{name}.json"
    assert main(["verify-theorem", "--source", files["m2"], "--target", files["m2"],
                 "--map", files[map], "--idempotent", "1,0,0,0", "--branch", branch,
                 *flags, "--out", str(out)]) == 0
    return json.loads(out.read_text())


def tau_kills_commutators(bundle) -> dict:
    return next(r for r in bundle["decomposition"]["certificates"]
                if r["condition"] == "tau_kills_commutators")


def test_identity_bundle_records_its_budget(files):
    """A map is verified at the budget it is built under.  Additivity and
    a linear psi's product rule are exact at any budget, so below 625^2
    pairs tau_kills_commutators is the one sampled decomposition
    certificate, at the seed given."""
    bundle = verify(files, "budget_200000", "--budget", "200000", "--seed", "3")
    assert bundle["config"]["budget"] == bundle["decomposition"]["budget"] == 200000
    assert [(r["condition"], r.get("seed")) for r in bundle["decomposition"]["certificates"]
            if r.get("mode") == "sampled"] == [("tau_kills_commutators", 3)]


@pytest.mark.parametrize("flags, mode", [([], None), (["--budget", "390624"], "sampled")],
                         ids=["default", "390624"])
def test_identity_tau_commutators_are_exact_within_the_budget(files, flags, mode):
    """tau is additive, so within the budget (625^2 = 390,625 pairs)
    tau_kills_commutators is decided on the basis grid, a report with no
    "mode" key; one pair below, it is sampled."""
    bundle = verify(files, f"tau_{mode}", *flags)
    assert tau_kills_commutators(bundle).get("mode") == mode


def test_neg_transpose_tau_commutators_pass_sampled(files):
    """Under ddagger, neg_transpose_plus_trace has tau = tr(x)*1, additive
    and nonzero: one pair below the budget its commutator certificate is
    a passing sampled scan of T [a, b] through tau's matrix T."""
    bundle = verify(files, "negtr_sampled", "--budget", "390624", "--seed", "3",
                    map="negtr", branch="ddagger")
    r = tau_kills_commutators(bundle)
    assert (r.get("mode"), r["pass"], r["quantifier_space"]["checked"], r.get("seed")) == \
        ("sampled", True, 390624, 3)


def test_module_entry_point_exit_codes(tmp_path):
    """`python -m altring.cli` passes `main`'s exit code to the shell:
    0 for `gen m2`, 2 for `analyze` on a directory."""
    path = [str(Path(altring.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "altring.cli", *argv], cwd=tmp_path,
                              env=env, capture_output=True, text=True)

    gen = run("gen", "m2", "--out", "m2.json")
    assert gen.returncode == 0 and json.loads((tmp_path / "m2.json").read_text())["dim"] == 4
    refused = run("analyze", str(tmp_path))
    assert refused.returncode == 2 and refused.stderr.startswith("error: ")
