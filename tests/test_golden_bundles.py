"""Golden `verify-theorem` bundles on M2/F5 and Zorn/F5, golden
`decompose` outputs on M2/F5, and replay of every witness they quote.

The SHA-256 digests in `tests/data/verify_theorem_golden.json` pin the
bundle bytes of three M2/F5 maps (identity, neg_transpose_plus_trace and
a dense neg_transpose_plus_trace table with one swapped pair), each at
an exhaustive budget and at a sampled one, and of the Zorn/F5 identity
at seed 0 and budget 10^6 under both branches (390,625-element tables,
sampled pair certificates, 40 MB bundles; under ddagger tau(x) = t(x)*1
is non-zero), so a kernel rewrite that changes a witness, a count, a
sampled draw or a table byte shows up as a digest change.  `tests/data/decompose_golden.json` pins the output of
`altring decompose`, the second emitter of the tau table, for the
identity (dagger) and neg_transpose_plus_trace (ddagger) maps at the
same two budgets.  Every failing report's witness is then re-evaluated
in the reference arithmetic of `rings.py` and `MapTable.__call__` and
must break the condition it is quoted for.

Regenerate both digest files (only when an output change is intended)
with `python tests/test_golden_bundles.py`; it prints every digest it
adds, changes or drops.
"""

import hashlib
import json
import sys
import tempfile
from itertools import product
from pathlib import Path

import pytest

from altring import build_map, gen_m2
from altring.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "verify_theorem_golden.json"
DECOMPOSE_GOLDEN = DATA / "decompose_golden.json"
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
    """True when witness `w` violates `condition` for map `m`, evaluated in
    `Element` arithmetic with images from `MapTable.__call__`."""
    ring = m.source
    el = ring.element

    def central(z):
        return all(z * ring.basis_element(k) == ring.basis_element(k) * z
                   for k in range(ring.dim))

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


def regenerate(path: Path, run) -> None:
    """Rewrite one digest file from `run`, printing each entry it adds,
    changes or drops."""
    old = json.loads(path.read_text()) if path.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        new = digests(run(Path(tmp)))
    for name in sorted(old.keys() | new.keys()):
        if old.get(name) != new.get(name):
            verb = "added" if name not in old else "dropped" if name not in new else "changed"
            print(f"{path.name}: {verb} {name}: {old.get(name)} -> {new.get(name)}")
    path.write_text(json.dumps(new, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    for path, run in ((GOLDEN, run_bundles), (DECOMPOSE_GOLDEN, run_decompositions)):
        regenerate(path, run)
    sys.exit(0)
