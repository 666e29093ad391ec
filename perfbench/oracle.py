"""Output oracle: decides whether one operation's output is correct.

Theorem bundles must carry the requested branch and the closed-form psi
and tau of the map's construction.  The negative control must fail, and
every witness it quotes must replay in the reference arithmetic of
`altring.rings` (Ring.mul_coords through Element) and
`MapTable.__call__`, and break the condition it is quoted for.  Analyze
reports must match the known structure of each ring, and the primeness
witnesses of a non-prime ring must replay the same way.

Each check returns a list of problems; an empty list means correct.
"""

from __future__ import annotations

import copy
from itertools import product

from altring.errors import AltringError

from workloads import P


def _matrix(psi, n):
    cols = [tuple(psi(tuple(int(i == k) for i in range(n)))) for k in range(n)]
    return [[cols[c][r] for c in range(n)] for r in range(n)]


def _rank(rows) -> int:
    """Rank over F_P by plain Gaussian elimination."""
    rows = [[x % P for x in r] for r in rows]
    rank, ncols = 0, len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], P - 2, P)
        rows[rank] = [x * inv % P for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % P for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


# -- witness replay ------------------------------------------------------------

class Replay:
    """Reference arithmetic for one ring and, optionally, one map."""

    def __init__(self, ring, phi=None):
        self.ring = ring
        self.phi = phi

    def el(self, coords):
        return self.ring.element(coords)

    def is_central(self, z) -> bool:
        return all(z * b == b * z for b in (self.ring.basis_element(k)
                                            for k in range(self.ring.dim)))

    def breaks(self, condition: str, w: dict) -> bool:
        """True when the witness is well formed and violates `condition`."""
        phi, el = self.phi, self.el
        if condition == "lie_multiplicative":
            a, b = el(w["a"]), el(w["b"])
            return phi(a * b - b * a) != phi(a) * phi(b) - phi(b) * phi(a)
        if condition == "preserves_idempotents":
            a, b, lam = el(w["a"]), el(w["b"]), w["lambda"]
            d = a - b.smul(lam)
            dt = phi(a) - phi(b).smul(lam)
            return (d * d == d) != (dt * dt == dt)
        if condition == "scalar_homogeneous":
            x, lam = el(w["x"]), w["lambda"]
            return phi(x.smul(lam)) != phi(x).smul(lam)
        if condition == "almost_additive":
            a, b = el(w["a"]), el(w["b"])
            return not self.is_central(phi(a + b) - phi(a) - phi(b))
        if condition == "element_witness":
            a, x = el(w["a"]), el(w["b"])
            return not a.is_zero() and not x.is_zero() and all(
                ((a * self.ring.basis_element(k)) * x).is_zero() for k in range(self.ring.dim))
        if condition == "ideal_witness":
            return self._zero_product_ideals(w)
        raise KeyError(condition)

    def _zero_product_ideals(self, w) -> bool:
        r = self.ring
        A = [list(v) for v in w["ideal_a_basis"]]
        B = [list(v) for v in w["ideal_b_basis"]]
        if not A or not B or _rank(A) != len(A) or _rank(B) != len(B):
            return False
        if w["a"] not in A or w["b"] not in B:
            return False
        basis = [r.basis_coords(k) for k in range(r.dim)]
        for I in (A, B):
            for v in I:
                for e in basis:
                    for prod in (r.mul_coords(v, e), r.mul_coords(e, v)):
                        if _rank(I + [list(prod)]) != len(I):
                            return False
        return all(not any(r.mul_coords(u, v)) for u in A for v in B)


def failing_reports(bundle):
    reports = [r for s in bundle.get("stages", []) for r in s["reports"]]
    reports += bundle.get("branch_detection", {}).get("corners", [])
    return [r for r in reports if not r["pass"]]


# -- per-kind checks -----------------------------------------------------------

def check_theorem(expect, rc, bundle, n) -> list[str]:
    problems = []
    if rc != expect.exit_code:
        problems.append(f"exit code {rc}, expected {expect.exit_code}")
    if bundle.get("all_certificates_pass") is not True or "error" in bundle:
        problems.append(f"certificates do not all pass: {bundle.get('error')}")
        return problems
    dec = bundle["decomposition"]
    if dec["branch"] != expect.branch or bundle["config"]["branch_request"] != expect.branch:
        problems.append(f"branch {dec['branch']}, requested {expect.branch}")
    if dec["psi_matrix"] != _matrix(expect.psi, n):
        problems.append("psi_matrix differs from the closed form")
    tau = dec["tau"]
    if len(tau) != P ** n:
        problems.append(f"tau has {len(tau)} rows, expected {P ** n}")
    elif expect.tau is None:
        if any(any(row) for row in tau):
            problems.append("tau is not identically zero")
    elif any(list(expect.tau(x)) != row for x, row in zip(product(range(P), repeat=n), tau)):
        problems.append("tau differs from the closed form")
    return problems


def check_control(expect, rc, bundle, replay) -> list[str]:
    problems = []
    if rc != expect.exit_code:
        problems.append(f"exit code {rc}, expected {expect.exit_code}")
    if bundle.get("all_certificates_pass") is not False or "decomposition" in bundle:
        problems.append("negative control was not rejected")
    failing = failing_reports(bundle)
    if not failing:
        problems.append("negative control has no failing report")
    for rep in failing:
        cond, wit = rep["condition"], rep["witness"]
        if wit is None:
            problems.append(f"{cond}: failing report without a witness")
            continue
        try:
            ok = replay.breaks(cond, wit)
        except KeyError as exc:
            problems.append(f"{cond}: witness cannot be replayed ({exc})")
            continue
        if not ok:
            problems.append(f"{cond}: witness {wit} does not break the condition")
    return problems


def check_analyze(expect, rc, report, replay) -> list[str]:
    problems = []
    if rc != expect.exit_code:
        problems.append(f"exit code {rc}, expected {expect.exit_code}")
    facts = expect.facts
    prim = report.get("primeness", {})
    got = {"prime": prim.get("prime"), "prime_by_elements": prim.get("prime_by_elements"),
           "criterion_equiv": prim.get("criterion_equiv"),
           "ideals_found": prim.get("quantifier_space", {}).get("ideals_found"),
           "minimal_ideals": prim.get("quantifier_space", {}).get("minimal_ideals"),
           **{k: report.get(k) for k in ("centre_dim", "nucleus_dim", "alternative",
                                          "associative", "idempotents")}}
    for key, want in facts.items():
        if got[key] != want:
            problems.append(f"{key} = {got[key]}, expected {want}")
    for route in ("ideal_witness", "element_witness"):
        wit = prim.get(route)
        if facts["prime"]:
            if wit is not None:
                problems.append(f"prime ring quotes a {route}")
        elif wit is None:
            problems.append(f"non-prime ring lacks a {route}")
        elif not replay.breaks(route, wit):
            problems.append(f"{route} {wit} does not break primeness")
    return problems


def check(op, rc, obj, replay) -> list[str]:
    kind = op.expect.kind
    try:
        if kind == "theorem":
            return check_theorem(op.expect, rc, obj, len(obj["config"]["idempotent"]))
        if kind == "control":
            return check_control(op.expect, rc, obj, replay)
        return check_analyze(op.expect, rc, obj, replay)
    except (KeyError, TypeError, ValueError, IndexError, AltringError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]


# -- self-tests: the oracle must be able to fail -------------------------------

def flipped_psi(bundle):
    """The bundle with one psi_matrix entry changed."""
    bad = copy.copy(bundle)
    dec = bad["decomposition"] = dict(bundle["decomposition"])
    dec["psi_matrix"] = [list(row) for row in dec["psi_matrix"]]
    dec["psi_matrix"][0][0] = (dec["psi_matrix"][0][0] + 1) % P
    return bad


def _witness_slots(obj, path=()):
    """(path, coordinate list) for every coordinate vector in a witness."""
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _witness_slots(obj[key], path + (key,))
    elif isinstance(obj, list) and obj and all(isinstance(x, int) for x in obj):
        yield path, obj
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            yield from _witness_slots(item, path + (i,))


def _set(obj, path, value):
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = value


def changed_witness(condition, witness, replay):
    """The first one-coordinate change of `witness` that no longer breaks
    `condition` in the reference arithmetic, or None if every change
    still does."""
    for path, coords in _witness_slots(witness):
        for i in range(len(coords)):
            for delta in range(1, P):
                bad = copy.deepcopy(witness)
                new = list(coords)
                new[i] = (new[i] + delta) % P
                _set(bad, path, new)
                if not replay.breaks(condition, bad):
                    return bad
    return None


def self_test(op, rc, obj, replay) -> list[str]:
    """Corrupt one output of each kind and require the oracle to reject it."""
    problems = []
    if op.expect.kind == "theorem":
        if not check(op, rc, flipped_psi(obj), replay):
            problems.append(f"{op.label}: oracle accepted a flipped psi_matrix entry")
        return problems
    if op.expect.kind == "control":
        rep = failing_reports(obj)[0]
        bad_wit = changed_witness(rep["condition"], rep["witness"], replay)
        bad = copy.deepcopy(obj)
        for r in failing_reports(bad):
            if r["condition"] == rep["condition"]:
                r["witness"] = bad_wit
    elif not op.expect.facts["prime"]:
        wit = obj["primeness"]["element_witness"]
        bad_wit = changed_witness("element_witness", wit, replay)
        bad = copy.deepcopy(obj)
        bad["primeness"]["element_witness"] = bad_wit
    else:
        return problems
    if bad_wit is None:
        problems.append(f"{op.label}: every one-coordinate change of the witness "
                        "still breaks the condition")
    elif not check(op, rc, bad, replay):
        problems.append(f"{op.label}: oracle accepted a changed witness")
    return problems
