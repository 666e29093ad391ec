"""Inputs and operations of the three benchmark workloads.

Every input is generated here from the workload seed.  Ring files come
from the public `altring gen` command; map files are written from closed
forms in plain Python (2x2 matrices over F_5), so the inputs and the
expected answers do not depend on the code under test.

An operation is one `altring.cli.main(argv)` call plus what its output
must show.  Element order in dense tables is the library's documented
one: the element at index k has the base-p digits of k as coordinates,
most significant digit first.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from itertools import product

P = 5
BUDGET = 1_000_000
M2 = "m2_f5"
ZORN = "zorn_f5"
DSUM = "m2_f5+m2_f5"

# 2x2 matrices over F_5 in the basis E11, E12, E21, E22.
M2_ELEMENTS = list(product(range(P), repeat=4))
U = (1, 1, 0, 1)        # 1 + E12
U_INV = (1, 4, 0, 1)    # 1 - E12


def m2_mul(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return ((a * e + b * g) % P, (a * f + b * h) % P,
            (c * e + d * g) % P, (c * f + d * h) % P)


def m2_add(x, y):
    return tuple((s + t) % P for s, t in zip(x, y))


def conjugate(x):
    return m2_mul(m2_mul(U, x), U_INV)


def neg_transpose(x):
    a, b, c, d = x
    return (-a % P, -c % P, -b % P, -d % P)


def trace_unit(x):
    t = (x[0] + x[3]) % P
    return (t, 0, 0, t)


def neg_transpose_plus_trace(x):
    return m2_add(neg_transpose(x), trace_unit(x))


def compose_conj_negtr(x):
    """compose[conjugation, neg_transpose_plus_trace]: conjugate first."""
    return neg_transpose_plus_trace(conjugate(x))


def swapped_pair(seed: int) -> tuple[int, int]:
    """Table indices swapped by the negative control.

    The first is a nonzero trace-zero matrix, hence a commutator in M2,
    so the swapped table is never Lie multiplicative and the control
    must fail.  Both lie outside the four Peirce corners of E11 (the
    lines through E11, E12, E21, E22), so the corner reports and the
    frames stay as for the unswapped map and the failures come from the
    pair and element verifiers, whose witnesses the oracle replays.
    """
    rnd = random.Random(seed)
    off_corner = [k for k, x in enumerate(M2_ELEMENTS) if sum(c != 0 for c in x) >= 2]
    x = rnd.choice([k for k in off_corner if (M2_ELEMENTS[k][0] + M2_ELEMENTS[k][3]) % P == 0])
    y = rnd.choice([k for k in off_corner if k != x])
    return x, y


def negative_control_table(seed: int) -> list[tuple]:
    table = [neg_transpose_plus_trace(x) for x in M2_ELEMENTS]
    i, j = swapped_pair(seed)
    table[i], table[j] = table[j], table[i]
    return table


@dataclass
class Expect:
    """What an operation's output must show."""

    kind: str                       # "theorem" | "control" | "analyze"
    exit_code: int
    branch: str | None = None
    psi: object = None              # closed form x -> psi(x) on M2 coordinates
    tau: object = None              # closed form x -> tau(x); None means tau = 0
    facts: dict = field(default_factory=dict)


@dataclass
class Operation:
    label: str
    argv: list
    out: str                        # file the operation writes
    expect: Expect
    ring_file: str                  # source ring, for replaying witnesses
    map_file: str | None = None


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _map_file(path, source, spec):
    _write_json(path, {"source": source, "target": source, "repr": spec})


def _table_spec(table):
    return {"kind": "table", "entries": [list(row) for row in table]}


# Zorn/F5 is simple: its only nonzero principal ideal is the whole ring.
# Nontrivial idempotents have trace 1 and norm 0; over F_q that is a
# quadric of the 7-dimensional trace-zero space, with q^6 + q^3 points.
# M2/F5 has 0, 1 and q^2 + q rank-one idempotents, 32 in all, and the
# direct sum squares that count.  Centre and nucleus dimensions follow
# from the rings being central simple (Zorn is not associative: its
# nucleus is the centre) and associative (M2 + M2: nucleus is everything).
ANALYZE_FACTS = {
    ZORN: {"prime": True, "prime_by_elements": True, "criterion_equiv": True,
           "ideals_found": 1, "minimal_ideals": 1, "centre_dim": 1, "nucleus_dim": 1,
           "alternative": True, "associative": False,
           "idempotents": {"total": P**6 + P**3 + 2, "zero": 1, "trivial": 1,
                           "nontrivial": P**6 + P**3}},
    DSUM: {"prime": False, "prime_by_elements": False, "criterion_equiv": True,
           "ideals_found": 3, "minimal_ideals": 2, "centre_dim": 2, "nucleus_dim": 8,
           "alternative": True, "associative": True,
           "idempotents": {"total": 32 * 32, "zero": 1, "trivial": 1,
                           "nontrivial": 32 * 32 - 2}},
}


def generate(name: str, seed: int, work: str) -> list[Operation]:
    """Write the workload's input files under `work`; return its operations."""
    from altring.cli import main

    def path(fname):
        return os.path.join(work, fname)

    def gen(*argv):
        if main(list(argv)) != 0:
            raise RuntimeError(f"altring {' '.join(argv)} failed")

    common = ["--budget", str(BUDGET), "--seed", str(seed)]
    ops = []
    if name == "m2-maps":
        gen("gen", "m2", "--field", str(P), "--out", path("m2.json"))
        _map_file(path("identity.json"), M2, {"kind": "identity"})
        _map_file(path("conjugation.json"), M2, {"kind": "conjugation", "element": list(U)})
        _map_file(path("negtr.json"), M2, {"kind": "neg_transpose_plus_trace"})
        _map_file(path("compose.json"), M2,
                  _table_spec(compose_conj_negtr(x) for x in M2_ELEMENTS))
        _map_file(path("control.json"), M2, _table_spec(negative_control_table(seed)))
        cases = [
            ("identity", "dagger", Expect("theorem", 0, "dagger", lambda x: x)),
            ("conjugation", "dagger", Expect("theorem", 0, "dagger", conjugate)),
            ("negtr", "ddagger", Expect("theorem", 0, "ddagger", neg_transpose, trace_unit)),
            ("compose", "ddagger",
             Expect("theorem", 0, "ddagger", lambda x: neg_transpose(conjugate(x)), trace_unit)),
            ("control", "ddagger", Expect("control", 1, "ddagger")),
        ]
        for label, branch, expect in cases:
            out = path(f"bundle-{label}.json")
            ops.append(Operation(label, [
                "verify-theorem", "--source", path("m2.json"), "--target", path("m2.json"),
                "--map", path(f"{label}.json"), "--idempotent", "1,0,0,0",
                "--branch", branch, *common, "--out", out], out, expect,
                path("m2.json"), path(f"{label}.json")))
    elif name == "zorn-theorem":
        gen("gen", "zorn", "--field", str(P), "--out", path("zorn.json"))
        _map_file(path("identity.json"), ZORN, {"kind": "identity"})
        out = path("bundle-zorn.json")
        ops.append(Operation("zorn-identity", [
            "verify-theorem", "--source", path("zorn.json"), "--target", path("zorn.json"),
            "--map", path("identity.json"), "--idempotent", "1,0,0,0,0,0,0,0",
            "--branch", "dagger", *common, "--out", out], out,
            Expect("theorem", 0, "dagger", lambda x: x), path("zorn.json")))
    elif name == "ring-analyze":
        gen("gen", "zorn", "--field", str(P), "--out", path("zorn.json"))
        gen("gen", "m2", "--field", str(P), "--out", path("m2.json"))
        gen("gen", "direct_sum", path("m2.json"), path("m2.json"), "--out", path("dsum.json"))
        for label, ring, fname in (("zorn", ZORN, "zorn.json"), ("dsum", DSUM, "dsum.json")):
            out = path(f"analyze-{label}.json")
            ops.append(Operation(f"analyze-{label}", ["analyze", path(fname), *common,
                                                      "--out", out], out,
                                 Expect("analyze", 0, facts=ANALYZE_FACTS[ring]), path(fname)))
    else:
        raise ValueError(f"unknown workload {name!r}")
    return ops


WORKLOADS = ("m2-maps", "zorn-theorem", "ring-analyze")
