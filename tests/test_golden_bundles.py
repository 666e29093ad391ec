"""Golden `verify-theorem` bundles on M2/F5, and replay of every witness
they quote.

The SHA-256 digests in `tests/data/verify_theorem_golden.json` pin the
bundle bytes of three maps (identity, neg_transpose_plus_trace and a
dense neg_transpose_plus_trace table with one swapped pair), each at an
exhaustive budget and at a sampled one, so a kernel rewrite that changes
a witness, a count or a sampled draw shows up as a digest change.  Every
failing report's witness is then re-evaluated in the reference
arithmetic of `rings.py` and `MapTable.__call__` and must break the
condition it is quoted for.

Regenerate the digests (only when a bundle change is intended) with
`python tests/test_golden_bundles.py`.
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

GOLDEN = Path(__file__).parent / "data" / "verify_theorem_golden.json"
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


def run_bundles(work: Path) -> dict:
    """Write the inputs under `work`, run every case; name -> (exit code, bytes)."""
    ring = work / "m2.json"
    assert main(["gen", "m2", "--field", str(P), "--out", str(ring)]) == 0
    out = {}
    for label, (branch, spec) in MAPS.items():
        mpath = work / f"{label}.json"
        mpath.write_text(json.dumps({"source": "m2_f5", "target": "m2_f5", "repr": spec}))
        for mode, flags in BUDGETS.items():
            bundle = work / f"{label}-{mode}.json"
            rc = main(["verify-theorem", "--source", str(ring), "--target", str(ring),
                       "--map", str(mpath), "--idempotent", "1,0,0,0", "--branch", branch,
                       *flags, "--out", str(bundle)])
            out[f"{label}-{mode}"] = (rc, bundle.read_bytes())
    return out


@pytest.fixture(scope="module")
def bundles(tmp_path_factory):
    return run_bundles(tmp_path_factory.mktemp("golden"))


def test_bundles_match_golden_digests(bundles):
    golden = json.loads(GOLDEN.read_text())
    assert sorted(bundles) == sorted(golden)
    for name, (rc, data) in bundles.items():
        assert rc == golden[name]["exit_code"], name
        assert hashlib.sha256(data).hexdigest() == golden[name]["sha256"], name


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


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        got = run_bundles(Path(tmp))
    GOLDEN.write_text(json.dumps(
        {name: {"exit_code": rc, "sha256": hashlib.sha256(data).hexdigest()}
         for name, (rc, data) in got.items()}, indent=2, sort_keys=True) + "\n")
    sys.exit(0)
