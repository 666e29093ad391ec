"""altring benchmark: three closed-loop CLI workloads with an output oracle.

    python3 perfbench/run.py --workload m2-maps --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  One client in this one process calls
`altring.cli.main(argv)` for each operation of the workload, back to
back, and repeats the workload's operations until `--seconds` have
passed (at least once).  Every output is checked by the oracle.  The
last line of standard output is a JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with `--trace 0`, its per-layer metrics with `--trace 1`.
A traced run repeats the workload's operations once more with the
layer trace installed, after the untraced loop, and reports the
difference as the tracing overhead.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPS = 5

# Per-layer metrics that must be nonzero on the workloads where the layer
# carries weight (see README.md); a zero means a trace binding was missed.
_THEOREM_LAYERS = [
    "enumeration.mul.s", "enumeration.mul.rows", "enumeration.commutator.s",
    "enumeration.init.calls", "enumeration.useful_ratio", "enumeration.all_coords.s",
    "structure.center.calls", "structure.center.s", "structure.peirce_frame.calls",
    "structure.check_main_hypotheses.calls", "structure.check_main_hypotheses.s",
    "structure.hypotheses.useful_ratio", "decompose.detect_branch.calls",
    "maps.pair_scan.calls", "maps.pair_scan.pairs", "maps.pair_scan.s",
    "decompose.verify_decomposition.s", "decompose.decompose.s",
    "maps.verify_surjective.s", "maps.verify_lie_multiplicative.s",
    "maps.verify_preserves_idempotents.s", "maps.check_map_consequences.s",
    "maps.check_almost_additivity.s", "maps.check_peirce_image.s",
    "maps.MapTable.images.calls", "maps.MapTable.eval_coords.calls",
    "reports.dumps.s", "cli.bundle_bytes", "linalg.calls", "linalg.s"]
REQUIRED_NONZERO = {
    "m2-maps": _THEOREM_LAYERS,
    "zorn-theorem": _THEOREM_LAYERS + ["maps.pair_scan.sampled", "sampled_certs"],
    "ring-analyze": [
        "enumeration.mul_outer.s", "enumeration.mul_outer.rows",
        "enumeration.rank_batched.s", "enumeration.rank_batched.matrices",
        "enumeration.rank_batched.full_rank", "enumeration.rref_batched.s",
        "enumeration.rref_batched.matrices", "structure.check_primeness.s",
        "structure.idempotents.s", "structure.nucleus.s", "rings.is_alternative.s",
        "linalg.calls", "linalg.s"],
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def machine_facts() -> dict:
    import numpy
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy.__version__}


def setup(workload, seed, work: Path):
    """Import altring in a fresh interpreter and generate the inputs,
    SETUP_REPS times; returns the median seconds and the operations."""
    from workloads import generate
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, ops = [], None
    for rep in range(SETUP_REPS):
        inputs = work / f"inputs{rep}"
        inputs.mkdir()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import altring"], env=env, cwd=ROOT, check=True)
        ops = generate(workload, seed, str(inputs))
        times.append(time.perf_counter() - t0)
    return statistics.median(times), ops


def digest(path):
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return None


def run_pass(cli, ops, tracer=None):
    """Run every operation once; [(exit code or error text, seconds, sha256)]."""
    results = []
    for op in ops:
        if tracer is not None:
            tracer.op = op.label
        t0 = time.perf_counter()
        try:
            rc = cli.main(op.argv)
        except Exception:  # a crashing operation is a failed operation, not a crashed run
            rc = traceback.format_exc(limit=3)
        dt = time.perf_counter() - t0
        results.append((rc, dt, digest(op.out)))
    return results


def pass_seconds(results):
    return sum(dt for _rc, dt, _d in results)


def certificate_counts(op, obj):
    """(reports, sampled, skipped) among the certificates of one output."""
    if op.expect.kind == "analyze":
        parts = [obj.get("idempotents", {}), obj.get("primeness", {})]
        return len(parts), 0, sum("skipped" in p for p in parts)
    reports = [r for s in obj.get("stages", []) for r in s["reports"]]
    return len(reports), sum(r.get("mode") == "sampled" for r in reports), 0


def replay_for(op):
    from altring import load_map, load_ring
    from oracle import Replay
    ring = load_ring(op.ring_file)
    phi = load_map(op.map_file, {ring.name: ring}) if op.expect.kind == "control" else None
    return Replay(ring, phi)


def check_digests(workload, seed, labels_digests, problems):
    """Bundle bytes must repeat across every run of one workload and seed
    in this checkout; the digests are kept in .perfbench_out/digests.json."""
    path = OUT / "digests.json"
    try:
        known = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        known = {}
    mine = known.setdefault(workload, {}).setdefault(str(seed), {})
    bad = set()
    for label, sha in labels_digests.items():
        if mine.setdefault(label, sha) != sha:
            problems.append(f"{label}: bundle sha256 {sha} differs from an earlier run "
                            f"({mine[label]})")
            bad.add(label)
    path.write_text(json.dumps(known, indent=1, sort_keys=True), encoding="utf-8")
    return bad


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "altring" / "__init__.py").is_file():
        print(f"error: no altring sources under {SRC}", file=sys.stderr)
        return 2
    # Load comes from this one thread, and nothing outside the benchmark
    # may change the evaluation budget.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("ALTRING_BUDGET", None)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import altring
    from altring import cli
    if Path(altring.__file__).resolve().parent != SRC / "altring":
        print(f"error: altring imported from {altring.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import oracle
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {WORKLOADS}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        return measure(args, spec, cli, oracle, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, spec, cli, oracle, work) -> int:
    facts = machine_facts()
    print("machine " + json.dumps(facts, sort_keys=True))
    setup_s, ops = setup(args.workload, args.seed, work)

    passes = []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < args.seconds:
        passes.append(run_pass(cli, ops))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    run_s = statistics.median(pass_seconds(p) for p in passes)

    traced, tracer = None, None
    if args.trace:
        from layertrace import Tracer
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_pass(cli, ops, tracer)
        finally:
            tracer.uninstall()

    # -- oracle: one check per operation, then every execution against it ---
    problems, self_problems = [], []
    bad_ops = set()
    certs = [0, 0, 0]
    bundle_bytes = 0
    for k, op in enumerate(ops):
        final = passes[-1][k]
        try:
            raw = Path(op.out).read_bytes()
            obj = json.loads(raw)
        except (OSError, ValueError) as exc:
            faults = [f"no readable output: {exc}"]
        else:
            bundle_bytes += len(raw)
            replay = replay_for(op)
            faults = oracle.check(op, final[0], obj, replay)
            if not faults:
                self_problems += oracle.self_test(op, final[0], obj, replay)
            for i, n in enumerate(certificate_counts(op, obj)):
                certs[i] += n
        if any(p[k][0] != final[0] or p[k][2] != final[2] for p in passes):
            faults.append("exit code or output bytes differ between executions")
        if traced and traced[k][:3:2] != final[:3:2]:
            faults.append("the trace changed the exit code or the output bytes")
        if faults:
            bad_ops.add(op.label)
        problems += [f"{op.label}: {msg}" for msg in faults]
        print(f"op {op.label} exit={final[0]!r} sha256={final[2]} "
              f"seconds={[round(p[k][1], 3) for p in passes]}")
    bad_ops |= check_digests(args.workload, args.seed,
                             {op.label: passes[-1][k][2] for k, op in enumerate(ops)}, problems)
    executions = len(passes) + (1 if traced else 0)
    attempted = executions * len(ops)
    failed = executions * len(bad_ops)

    reports, sampled, skipped = certs
    if args.trace:
        layer = tracer.metrics()
        traced_s = pass_seconds(traced)
        layer.update({
            "cli.bundle_bytes": bundle_bytes,
            "trace.run_s": traced_s,
            "trace.untraced_run_s": run_s,
            "trace.overhead_s": traced_s - run_s,
            "failed_frac": failed / attempted,
            "sampled_certs": sampled,
        })
        for name in REQUIRED_NONZERO.get(args.workload, []):
            if not layer.get(name):
                self_problems.append(f"trace: {name} is zero on {args.workload}")
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.jsonl")
        wanted = spec["per_layer"]
        values = {m["name"]: layer.get(m["name"], 0) for m in wanted}
    else:
        wanted = spec["end_to_end"]
        values = {
            "setup_s": setup_s,
            "run_s": run_s,
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": (attempted - failed) / attempted,
            "exhaustive_frac": (reports - sampled - skipped) / reports if reports else 0.0,
        }
    for msg in problems + self_problems:
        print("problem " + msg)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": not problems and not self_problems and failed == 0,
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
