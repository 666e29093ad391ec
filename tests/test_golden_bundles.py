"""Golden `verify-theorem` bundles on M2/F5 and Zorn/F5, golden
`decompose` outputs on M2/F5, and replay of every witness they quote.

The SHA-256 digests in `tests/data/verify_theorem_golden.json` pin the
bundle bytes of three M2/F5 maps (identity, neg_transpose_plus_trace and
a dense neg_transpose_plus_trace table with one swapped pair), each at
an exhaustive budget and at a sampled one, and of the Zorn/F5 identity
at seed 0 and budget 10^6 under both branches (390,625-element tables,
40 MB bundles; under ddagger tau(x) = t(x)*1 is non-zero).  Past the
pair budget only the swapped table's Lie and idempotent scans and the
decomposition's tau_kills_commutators are sampled: additivity and
almost additivity are exact on any table, and the entry battery of a
linear map and a linear psi's product rule at any budget.
So a kernel rewrite that changes a witness, a count, a sampled draw or
a table byte shows up as a digest change.
`tests/data/decompose_golden.json` pins the output of `altring decompose`, the second emitter of the tau table, for the
identity (dagger) and neg_transpose_plus_trace (ddagger) maps at the
same two budgets.  Every failing report's witness is then re-evaluated
in the reference arithmetic of `rings.py` and `MapTable.__call__` and
must break the condition it is quoted for.

`tests/data/witness_golden.json` holds the exact JSON of every failing
report of the mask certificates and their neighbours (`run_witnesses`)
on rings and maps built to break them, so a change to a quoted witness
or a count shows up by name.

Regenerate the three files (only when an output change is intended)
with `python tests/test_golden_bundles.py`; it prints every entry it
adds, changes or drops.
"""

import hashlib
import json
import sys
import tempfile
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from altring import (build_map, check_main_hypotheses, check_map_consequences,
                     check_peirce_image, check_spade_club, decompose,
                     gen_direct_sum, gen_m2, gen_triangular2, gen_zorn,
                     peirce_frame, verify_decomposition, verify_peirce_relations,
                     verify_theorem, zorn_idempotent)
from altring.cli import main
from altring.rings import Ring
from conftest import anticommuting_q_ring, breaks_law, broken3_ring, replace_entries

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "verify_theorem_golden.json"
DECOMPOSE_GOLDEN = DATA / "decompose_golden.json"
WITNESS_GOLDEN = DATA / "witness_golden.json"
P = 5
ELEMENTS = list(product(range(P), repeat=4))      # library element order on M2/F5
SWAP = (ELEMENTS.index((1, 2, 0, 4)), ELEMENTS.index((2, 0, 3, 1)))   # trace-zero, off-corner
BUDGETS = {"exhaustive": ["--budget", "1000000"],
           "sampled": ["--budget", "200000", "--seed", "3"]}


def negtr(x):
    """-transpose(x) + trace(x)*1 on 2x2 matrices (E11, E12, E21, E22)."""
    a, b, c, d = x
    t = a + d
    return ((t - a) % P, -c % P, -b % P, (t - d) % P)


def swapped_table():
    table = [list(negtr(x)) for x in ELEMENTS]
    i, j = SWAP
    table[i], table[j] = table[j], table[i]
    return table


# neither onto nor one-to-one: E12 -> 0, every other basis element fixed
E12_TO_ZERO = {"kind": "linear", "matrix": [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}
MAPS = {"identity": ("dagger", {"kind": "identity"}),
        "negtr": ("ddagger", {"kind": "neg_transpose_plus_trace"}),
        "swapped": ("ddagger", {"kind": "table", "entries": swapped_table()})}
DECOMPOSED = ("identity", "negtr")


def run_m2(work: Path, command: str, labels) -> dict:
    """Write the M2/F5 inputs under `work` and run `command` on each map
    of `labels` at both budgets; name -> (exit code, bytes)."""
    ring = work / "m2.json"
    assert main(["gen", "m2", "--field", str(P), "--out", str(ring)]) == 0
    out = {}
    for label in labels:
        branch, spec = MAPS[label]
        mpath = work / f"{label}.json"
        mpath.write_text(json.dumps({"source": "m2_f5", "target": "m2_f5", "repr": spec}))
        for mode, flags in BUDGETS.items():
            result = work / f"{command}-{label}-{mode}.json"
            rc = main([command, "--source", str(ring), "--target", str(ring),
                       "--map", str(mpath), "--idempotent", "1,0,0,0", "--branch", branch,
                       *flags, "--out", str(result)])
            out[f"{label}-{mode}"] = (rc, result.read_bytes())
    return out


def run_decompositions(work: Path) -> dict:
    return run_m2(work, "decompose", DECOMPOSED)


def run_bundles(work: Path) -> dict:
    """Write the inputs under `work`, run every case; name -> (exit code, bytes)."""
    out = run_m2(work, "verify-theorem", MAPS)
    zorn, ident, bundle = work / "zorn.json", work / "zorn-identity.json", work / "zorn-bundle.json"
    assert main(["gen", "zorn", "--field", str(P), "--out", str(zorn)]) == 0
    ident.write_text(json.dumps({"source": "zorn_f5", "target": "zorn_f5",
                                 "repr": {"kind": "identity"}}))
    for name, branch in (("zorn-identity-sampled", "dagger"), ("zorn-identity-ddagger", "ddagger")):
        rc = main(["verify-theorem", "--source", str(zorn), "--target", str(zorn),
                   "--map", str(ident), "--idempotent", "1,0,0,0,0,0,0,0", "--branch", branch,
                   "--budget", "1000000", "--seed", "0", "--out", str(bundle)])
        out[name] = (rc, bundle.read_bytes())
    return out


@pytest.fixture(scope="module")
def bundles(tmp_path_factory):
    return run_bundles(tmp_path_factory.mktemp("golden"))


def digests(results: dict) -> dict:
    return {name: {"exit_code": rc, "sha256": hashlib.sha256(data).hexdigest()}
            for name, (rc, data) in results.items()}


def test_bundles_match_golden_digests(bundles):
    assert digests(bundles) == json.loads(GOLDEN.read_text())


def test_decompositions_match_golden_digests(tmp_path):
    assert digests(run_decompositions(tmp_path)) == json.loads(DECOMPOSE_GOLDEN.read_text())


def breaks(m, condition, w) -> bool:
    """True when witness `w` violates `condition` for a map `m` of M2/F5
    (with e1 = E11 where a frame is read), evaluated in `Element`
    arithmetic with images from `MapTable.__call__`."""
    ring = m.source
    el = ring.element

    def central(z):
        return all(z * ring.basis_element(k) == ring.basis_element(k) * z
                   for k in range(ring.dim))

    if condition == "surjective":
        y = m.target.element(w["unreached"])
        return all(m(el(x)) != y for x in ELEMENTS)
    if condition == "injective":
        a, b = el(w["a"]), el(w["b"])
        return a != b and m(a) == m(b)
    if condition == "offdiag_image_12":
        # with e1 = E11: the corner element y of the target is no image of R_12
        e1 = ring.basis_element(0)
        e2 = el(ring.unit_coords) - e1
        y = m.target.element(w["unreached"])
        return (e1 * y) * e2 == y and all(
            m(x) != y for x in map(el, ELEMENTS) if (e1 * x) * e2 == x)
    if condition == "lie_multiplicative":
        a, b = el(w["a"]), el(w["b"])
        return m(a * b - b * a) != m(a) * m(b) - m(b) * m(a)
    if condition == "preserves_idempotents":
        a, b, lam = el(w["a"]), el(w["b"]), w["lambda"]
        d, dt = a - b.smul(lam), m(a) - m(b).smul(lam)
        return (d * d == d) != (dt * dt == dt)
    if condition == "scalar_homogeneous":
        x, lam = el(w["x"]), w["lambda"]
        return m(x.smul(lam)) != m(x).smul(lam)
    if condition == "almost_additive":
        a, b = el(w["a"]), el(w["b"])
        return not central(m(a + b) - m(a) - m(b))
    raise KeyError(condition)


def test_failing_witnesses_replay(bundles):
    m2 = gen_m2(P)
    swapped = build_map(m2, m2, MAPS["swapped"][1])
    failing = {}
    for name, (rc, data) in bundles.items():
        bundle = json.loads(data)
        reports = [r for s in bundle["stages"] for r in s["reports"]]
        bad = [r for r in reports if not r["pass"]]
        assert (rc == 1) == bool(bad) == name.startswith("swapped"), name
        for rep in bad:
            assert breaks(swapped, rep["condition"], rep["witness"]), (name, rep)
            failing.setdefault(name, set()).add(rep["condition"])
    # the swapped table breaks every pair and element verifier it reaches
    assert failing["swapped-exhaustive"] == {"lie_multiplicative", "preserves_idempotents",
                                             "scalar_homogeneous", "almost_additive"}


def test_non_bijective_witnesses_replay():
    """The E12 -> 0 map is reported on, not refused: each failing report
    of its bundle replays, and the entry, consequence and Peirce image
    stages quote the element E12 that the map misses and collapses."""
    m2 = gen_m2(P)
    m = build_map(m2, m2, E12_TO_ZERO)
    prefix = "e12-to-zero-theorem/"
    failing = {name[len(prefix):]: rep["witness"]
               for name, rep in json.loads(WITNESS_GOLDEN.read_text()).items()
               if name.startswith(prefix)}
    assert set(failing) == {"surjective", "lie_multiplicative", "preserves_idempotents",
                            "injective", "offdiag_image_12"}
    for condition, w in failing.items():
        assert breaks(m, condition, w), (condition, w)


def test_golden_ring_axiom_witnesses_replay():
    """Both failing alternative reports of the broken3 bundle quote a law
    that their x, y and z break on broken3."""
    golden = json.loads(WITNESS_GOLDEN.read_text())
    broken3 = broken3_ring()
    for side in ("source", "target"):
        assert breaks_law(broken3, golden[f"broken3-theorem/{side}_alternative"]["witness"])


def perturbed(ring: Ring, site, value) -> Ring:
    """`ring` with structure constant sc[a][b][c] set to `value`."""
    sc = [[[int(x) for x in row] for row in plane] for plane in ring.sc]
    a, b, c = site
    sc[a][b][c] = value
    return Ring(f"{ring.name}_perturbed", ring.domain, list(ring.basis_names), sc,
                list(ring.unit_coords))


def run_witnesses() -> dict:
    """The exact JSON of every failing report of the scans below, keyed
    "case/condition": hypotheses (1)-(4) and (spade)/(club), map
    consequences, the Peirce image, the decomposition certificates, the
    Peirce relations and the ring axioms, each on a ring or map built to
    break some of them."""
    m2, zorn = gen_m2(P), gen_zorn(P)
    out = {}

    def record(case, reports):
        for rep in reports:
            rep = rep if isinstance(rep, dict) else rep.to_json()
            if not rep["pass"]:
                out[f"{case}/{rep['condition']}"] = rep

    t2 = gen_triangular2(P)
    # with e1 = E22, R_12 = 0 and condition (1) first fails in cell (2, 1)
    for case, ring, e1 in (("t2", t2, [1, 0, 0]), ("t2-e22", t2, [0, 0, 1]),
                           ("m2+m2", gen_direct_sum(m2, m2), [1, 0, 0, 0, 0, 0, 0, 0])):
        frame = peirce_frame(ring, ring.element(e1))
        hypotheses = check_main_hypotheses(frame)
        record(f"{case}-hypotheses", hypotheses + check_spade_club(frame, hypotheses))
    record("swapped-consequences", check_map_consequences(build_map(m2, m2, MAPS["swapped"][1])))

    table = [list(negtr(x)) for x in ELEMENTS]
    i, j = ELEMENTS.index((0, 0, 0, 2)), ELEMENTS.index((0, 1, 0, 0))
    table[i], table[j] = table[j], table[i]
    for case, spec in (("negtr-swapped-corners", {"kind": "table", "entries": table}),
                       ("e12-to-zero", E12_TO_ZERO)):
        reports = check_peirce_image(build_map(m2, m2, spec), m2.basis_element(0))[0]
        record(f"{case}-image", reports)
    record("e12-to-zero-theorem", theorem_reports(build_map(m2, m2, E12_TO_ZERO),
                                                  m2.basis_element(0)))

    res = decompose(build_map(m2, m2, MAPS["negtr"][1]), m2.basis_element(0), branch="ddagger")
    k = ELEMENTS.index((0, 1, 0, 0))
    res.psi = replace_entries(res.psi, {k: (res.psi.images()[k] + np.array([1, 0, 0, 0])) % P})
    record("corrupted-psi", verify_decomposition(res))

    # E12*E12 = E11, and E21*E21 = E11, whose square law first fails in cell (2, 1)
    for case, site in (("perturbed-m2", (1, 1, 0)), ("perturbed-m2-e21", (2, 2, 0))):
        ring = perturbed(m2, site, 1)
        frame = peirce_frame(ring, ring.basis_element(0))
        record(f"{case}-relations", verify_peirce_relations(frame))
    for a, b, c in ((1, 4, 1), (1, 2, 0)):
        ring = perturbed(zorn, (a, b, c), int(zorn.sc[a][b][c]) + 1)
        record(f"perturbed-zorn-{a}{b}{c}-relations",
               verify_peirce_relations(peirce_frame(ring, zorn_idempotent(ring))))
    ring = anticommuting_q_ring()
    record("anticommuting-q-relations",
           verify_peirce_relations(peirce_frame(ring, ring.element([1, 0, 0, 0]))))

    broken3 = broken3_ring()
    record("broken3-theorem", theorem_reports(build_map(broken3, broken3, {"kind": "identity"}),
                                              broken3.basis_element(0)))
    return json.loads(json.dumps(out))


def theorem_reports(m, e1) -> list:
    """Every stage report of `verify_theorem` for (m, e1) at budget 10^6, seed 0."""
    bundle = verify_theorem(m, e1, None, 0)
    return [rep for stage in bundle["stages"] for rep in stage["reports"]]


def test_failing_reports_match_golden():
    assert run_witnesses() == json.loads(WITNESS_GOLDEN.read_text())


def regenerate(path: Path, new: dict) -> None:
    """Rewrite one golden file with `new`, printing each entry it adds,
    changes or drops."""
    old = json.loads(path.read_text()) if path.exists() else {}
    for name in sorted(old.keys() | new.keys()):
        if old.get(name) != new.get(name):
            verb = "added" if name not in old else "dropped" if name not in new else "changed"
            print(f"{path.name}: {verb} {name}: {old.get(name)} -> {new.get(name)}")
    path.write_text(json.dumps(new, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        regenerate(GOLDEN, digests(run_bundles(Path(tmp))))
        regenerate(DECOMPOSE_GOLDEN, digests(run_decompositions(Path(tmp))))
    regenerate(WITNESS_GOLDEN, run_witnesses())
    sys.exit(0)
