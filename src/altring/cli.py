"""Command-line interface.

Commands: gen, analyze, idempotents, peirce, check-conditions, decompose,
verify-theorem.  Exit codes: 0 when every mathematical certificate
passes, 1 when a certificate fails (the report carries a witness), 2 on
input or usage errors.  All JSON output is deterministic for a fixed
(seed, budget) configuration.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field

from . import maps as maps_mod
from .decompose import decompose as run_decompose, verify_theorem
from . import structure as st
from .enumeration import DEFAULT_BUDGET
from .errors import AltringError, BudgetExceeded, ParseError, UnsupportedDomain
from .generators import GENERATORS, gen_direct_sum
from .reports import dumps
from .rings import (Ring, is_alternative, is_associative, is_flexible,
                    is_k_torsion_free, load_ring, ring_to_json)


@dataclass
class Workspace:
    rings: dict = field(default_factory=dict)
    budget: int = DEFAULT_BUDGET
    seed: int = 0

    def load_ring(self, path) -> Ring:
        ring = load_ring(path)
        if ring.name in self.rings and self.rings[ring.name].sc != ring.sc:
            raise ParseError(f"two different rings share the name {ring.name!r}")
        self.rings[ring.name] = ring
        return ring


def _emit(args, obj: dict, lines: list[str] | None) -> None:
    """Write `lines` under --format text, else `obj` as JSON (`gen`, which
    passes no lines, always writes JSON), to --out or standard output."""
    text = "\n".join(lines) + "\n" if args.format == "text" and lines is not None else dumps(obj)
    with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout) as fh:
        fh.write(text)


def _report_lines(reports: list[dict]) -> list[str]:
    """One line per report, given as its `CheckReport.to_json()` dict."""
    out = []
    for rep in reports:
        mark = "pass" if rep["pass"] else "FAIL"
        wit = "" if rep["witness"] is None else f"  witness={rep['witness']}"
        out.append(f"  [{mark}] {rep['condition']}{wit}")
    return out


def _parse_coords(ring: Ring, text: str):
    return ring.element([tok.strip() for tok in text.split(",")])


# -- commands -----------------------------------------------------------------

def cmd_gen(args, ws: Workspace) -> int:
    kind = args.kind
    if kind == "direct_sum":
        if len(args.sources) != 2:
            raise ParseError("direct_sum needs two ring files")
        ring = gen_direct_sum(ws.load_ring(args.sources[0]), ws.load_ring(args.sources[1]))
    else:
        if kind not in GENERATORS:
            raise ParseError(f"unknown generator {kind!r}")
        if args.field not in ("Q", "q") and int(args.field) < 5:
            print(f"warning: p = {args.field} is not 2,3-torsion-free", file=sys.stderr)
        ring = GENERATORS[kind](args.field)
    obj = ring_to_json(ring)
    if kind == "zorn":
        obj["notes"] = ("vector-matrix product: cross products enter the top-right "
                        "slot with a minus sign and the bottom-left with a plus; "
                        "the alternativity checker validates this convention before emission")
    _emit(args, obj, None)
    return 0


def cmd_analyze(args, ws: Workspace) -> int:
    ring = ws.load_ring(args.ring)
    alt = is_alternative(ring)
    flex = is_flexible(ring)
    assoc = is_associative(ring)
    centre = st.center(ring)
    nuc = st.nucleus(ring)
    report = {
        "ring": ring.name,
        "dim": ring.dim,
        "domain": ring.domain.to_json(),
        "unit_verified": True,
        "alternative": alt.ok,
        "flexible": flex.ok,
        "associative": assoc.ok,
        "torsion_free_2": is_k_torsion_free(ring, 2),
        "torsion_free_3": is_k_torsion_free(ring, 3),
        "centre_dim": centre.dim,
        "nucleus_dim": nuc.dim,
    }
    try:
        census = st.idempotents(ring, ws.budget)
        report["idempotents"] = census.counts()
    except (BudgetExceeded, UnsupportedDomain) as exc:
        report["idempotents"] = {"skipped": str(exc)}
    try:
        prim = st.check_primeness(ring, ws.budget)
        report["primeness"] = prim.to_json()
    except (BudgetExceeded, UnsupportedDomain) as exc:
        report["primeness"] = {"skipped": str(exc)}
    lines = [f"ring {ring.name}: dim {ring.dim}"]
    for k in ("alternative", "flexible", "associative", "torsion_free_2", "torsion_free_3"):
        lines.append(f"  {k}: {report[k]}")
    lines.append(f"  centre dim {centre.dim}, nucleus dim {nuc.dim}")
    lines.append(f"  idempotents: {report['idempotents']}")
    if "skipped" not in report["primeness"]:
        lines.append(f"  prime: {report['primeness']['prime']}"
                     f" (criterion agreement: {report['primeness']['criterion_equiv']})")
    _emit(args, report, lines)
    return 0


def cmd_idempotents(args, ws: Workspace) -> int:
    ring = ws.load_ring(args.ring)
    census = st.idempotents(ring, ws.budget)
    obj = {"ring": ring.name, **census.counts()}
    if census.count() <= 1000:
        obj["elements"] = [{"coords": [ring.domain.fmt(c) for c in e.coords], "tag": t}
                           for e, t in zip(census.elements, census.tags)]
    lines = [f"ring {ring.name}: {obj['total']} idempotents "
             f"({obj['nontrivial']} nontrivial)"]
    _emit(args, obj, lines)
    return 0


def cmd_peirce(args, ws: Workspace) -> int:
    ring = ws.load_ring(args.ring)
    e1 = _parse_coords(ring, args.idempotent)
    frame = st.peirce_frame(ring, e1)
    reports = st.verify_peirce_relations(frame, ws.budget)
    reports += st.check_z_of_peirce_cell(frame)
    obj = {
        "ring": ring.name,
        "idempotent": [ring.domain.fmt(c) for c in e1.coords],
        "component_dims": {f"{i}{j}": frame.components[(i, j)].dim
                           for i in (1, 2) for j in (1, 2)},
        "relations": [r.to_json() for r in reports],
    }
    lines = [f"peirce frame on {ring.name}: dims "
             + str([frame.components[ij].dim for ij in ((1, 1), (1, 2), (2, 1), (2, 2))])]
    lines += _report_lines(obj["relations"])
    _emit(args, obj, lines)
    return 0 if all(r.ok for r in reports) else 1


def cmd_check_conditions(args, ws: Workspace) -> int:
    ring = ws.load_ring(args.ring)
    e1 = _parse_coords(ring, args.idempotent)
    frame = st.peirce_frame(ring, e1)
    reports = st.check_main_hypotheses(frame, ws.budget)
    reports += st.check_spade_club(frame, reports, ws.budget)
    obj = {"ring": ring.name,
           "idempotent": [ring.domain.fmt(c) for c in e1.coords],
           "conditions": [r.to_json() for r in reports]}
    lines = [f"structural conditions on {ring.name}:"] + _report_lines(obj["conditions"])
    _emit(args, obj, lines)
    return 0 if all(r.ok for r in reports) else 1


def _load_map(args, ws: Workspace):
    src = ws.load_ring(args.source)
    tgt = ws.load_ring(args.target)
    m = maps_mod.load_map(args.map, ws.rings, ws.budget)
    if m.source.name != src.name or m.target.name != tgt.name:
        raise ParseError("map file source/target do not match the given rings")
    return src, tgt, m


def cmd_decompose(args, ws: Workspace) -> int:
    src, _tgt, m = _load_map(args, ws)
    e1 = _parse_coords(src, args.idempotent)
    result = run_decompose(m, e1, branch=args.branch, budget=ws.budget,
                           seed=ws.seed, certify=False)
    obj = result.to_json()
    lines = [f"branch: {result.branch}"] + _report_lines(obj["certificates"])
    _emit(args, obj, lines)
    return 0 if result.required_pass() else 1


def cmd_verify_theorem(args, ws: Workspace) -> int:
    src, _tgt, m = _load_map(args, ws)
    e1 = _parse_coords(src, args.idempotent)
    bundle = verify_theorem(m, e1, args.branch, ws.budget, ws.seed)
    ok = bundle["all_certificates_pass"]
    lines = [f"verify-theorem: branch {bundle.get('decomposition', {}).get('branch')}"]
    lines += _report_lines([r for stage in bundle["stages"] for r in stage["reports"]])
    if "error" in bundle:
        lines.append(f"error: {bundle['error']}")
    lines.append("ALL CERTIFICATES PASS" if ok else "CERTIFICATE FAILURE")
    _emit(args, bundle, lines)
    return 0 if ok else 1


# -- argument parsing -----------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="altring",
                                 description="exact structure-constant ring toolkit")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--budget", type=int, default=None,
                        help="evaluation budget for exhaustive scans "
                             "(default 10^6, env ALTRING_BUDGET)")
    common.add_argument("--seed", type=int, default=0, help="seed for sampled scans")
    common.add_argument("--format", choices=("json", "text"), default="json")
    common.add_argument("--out", default=None, help="write the report to a file")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    g = add_parser("gen", help="emit a bundled example ring")
    g.add_argument("kind", choices=["m2", "zorn", "triangular2", "direct_sum"])
    g.add_argument("sources", nargs="*", help="ring files (direct_sum only)")
    g.add_argument("--field", default="5", help="prime p or Q")
    g.set_defaults(fn=cmd_gen)

    a = add_parser("analyze", help="full structural report for a ring file")
    a.add_argument("ring")
    a.set_defaults(fn=cmd_analyze)

    i = add_parser("idempotents", help="idempotent census")
    i.add_argument("ring")
    i.set_defaults(fn=cmd_idempotents)

    p = add_parser("peirce", help="Peirce frame and corner relations")
    p.add_argument("ring")
    p.add_argument("--idempotent", required=True, help="comma-separated coordinates")
    p.set_defaults(fn=cmd_peirce)

    c = add_parser("check-conditions", help="structural hypotheses on a frame")
    c.add_argument("ring")
    c.add_argument("--idempotent", required=True)
    c.set_defaults(fn=cmd_check_conditions)

    def map_args(sp):
        sp.add_argument("--source", required=True)
        sp.add_argument("--target", required=True)
        sp.add_argument("--map", required=True)
        sp.add_argument("--idempotent", required=True)
        sp.add_argument("--branch", choices=("dagger", "ddagger"), default=None)

    d = add_parser("decompose", help="split a map into psi + tau")
    map_args(d)
    d.set_defaults(fn=cmd_decompose)

    v = add_parser("verify-theorem", help="full certificate pipeline")
    map_args(v)
    v.set_defaults(fn=cmd_verify_theorem)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    budget = args.budget
    if budget is None:
        budget = int(os.environ.get("ALTRING_BUDGET", DEFAULT_BUDGET))
    ws = Workspace(budget=budget, seed=args.seed)
    try:
        return args.fn(args, ws)
    except (ParseError, FileNotFoundError, ValueError, BudgetExceeded, UnsupportedDomain) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AltringError as exc:
        print(f"certificate failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
