"""Structure-constant rings and their element arithmetic.

A ring here is a finite-dimensional free module over an exact scalar
domain with multiplication given by a rank-3 array of structure
constants: basis_i * basis_j = sum_k sc[i][j][k] basis_k.  No
associativity is assumed anywhere; a verified two-sided unit is
mandatory.

The structure constants are also held once per ring as one array,
`structure_array`, int64 while n*(p-1)**2 < 2**62 and dtype object over
Q or for a larger p; `Ring.mul_coords` and `Element` stay the
pure-Python reference.  The associator laws read one array per ring,
`associators`: the n**3 basis associators (b_i, b_j, b_k), from two
contractions of the structure array, memoised on the ring (`memoised`).
By trilinearity every law these checkers quote is a sum of its entries,
so `is_alternative`, `is_flexible`, `is_associative` and
`structure.nucleus` multiply nothing themselves, and each law is
evaluated on all basis tuples at once.  The alternative and flexible
laws are quadratic in x, and a quadratic form vanishes on every element
exactly when it vanishes on each basis vector and its polar form
vanishes on each pair of them, in every characteristic; so each is
decided from its polar form (the linearized law) on basis triples and
then on single basis vectors.  Every law and torsion check returns a
`reports.CheckReport` whose witness breaks the law it quotes.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ParseError, RingMismatch
from .reports import CheckReport, coords_json, first_failure
from .scalars import Domain, Scalar, domain_from_json


class Ring:
    """Finite-dimensional unital ring given by structure constants."""

    def __init__(self, name: str, domain: Domain, basis_names: Sequence[str],
                 sc, unit: Sequence):
        self.name = name
        self.domain = domain
        self.dim = len(basis_names)
        self.basis_names = tuple(str(b) for b in basis_names)
        n = self.dim
        if len(sc) != n or any(len(p) != n for p in sc) or any(len(q) != n for p in sc for q in p):
            raise ParseError(f"ring {name!r}: structure constants are not {n}x{n}x{n}")
        self.sc = tuple(tuple(tuple(domain.parse(x) for x in row) for row in plane) for plane in sc)
        unit = tuple(domain.parse(x) for x in unit)
        if len(unit) != n:
            raise ParseError(f"ring {name!r}: unit vector has length {len(unit)}, dim is {n}")
        self.unit_coords = unit
        self._memo = {}
        self._check_unit()

    def _check_unit(self):
        dom = self.domain
        for j in range(self.dim):
            b = self.basis_coords(j)
            if self.mul_coords(self.unit_coords, b) != b:
                raise ParseError(f"ring {self.name!r}: unit axiom violated: 1*{self.basis_names[j]} != {self.basis_names[j]}")
            if self.mul_coords(b, self.unit_coords) != b:
                raise ParseError(f"ring {self.name!r}: unit axiom violated: {self.basis_names[j]}*1 != {self.basis_names[j]}")

    @property
    def key(self):
        return (self.name, self.domain, self.dim)

    def __repr__(self):
        return f"Ring({self.name!r}, dim={self.dim}, domain={self.domain!r})"

    # -- coordinate-level arithmetic ------------------------------------

    def basis_coords(self, i: int) -> tuple[Scalar, ...]:
        return tuple(self.domain.one if j == i else self.domain.zero for j in range(self.dim))

    def zero_coords(self) -> tuple[Scalar, ...]:
        return tuple(self.domain.zero for _ in range(self.dim))

    def add_coords(self, a, b):
        dom = self.domain
        return tuple(dom.add(x, y) for x, y in zip(a, b))

    def sub_coords(self, a, b):
        dom = self.domain
        return tuple(dom.sub(x, y) for x, y in zip(a, b))

    def smul_coords(self, s: Scalar, a):
        dom = self.domain
        return tuple(dom.mul(s, x) for x in a)

    def mul_coords(self, a, b) -> tuple[Scalar, ...]:
        dom = self.domain
        out = [dom.zero] * self.dim
        for i, ai in enumerate(a):
            if ai == dom.zero:
                continue
            plane = self.sc[i]
            for j, bj in enumerate(b):
                if bj == dom.zero:
                    continue
                f = dom.mul(ai, bj)
                for k, c in enumerate(plane[j]):
                    if c != dom.zero:
                        out[k] = dom.add(out[k], dom.mul(f, c))
        return tuple(out)

    def left_mul_matrix(self, v) -> list[list[Scalar]]:
        """Matrix of x -> v*x acting on coordinate columns."""
        cols = [self.mul_coords(v, self.basis_coords(j)) for j in range(self.dim)]
        return [[cols[j][k] for j in range(self.dim)] for k in range(self.dim)]

    def right_mul_matrix(self, v) -> list[list[Scalar]]:
        """Matrix of x -> x*v acting on coordinate columns."""
        cols = [self.mul_coords(self.basis_coords(j), v) for j in range(self.dim)]
        return [[cols[j][k] for j in range(self.dim)] for k in range(self.dim)]

    # -- element factories ----------------------------------------------

    def element(self, coords: Iterable) -> "Element":
        coords = tuple(self.domain.parse(x) for x in coords)
        if len(coords) != self.dim:
            raise ParseError(f"ring {self.name!r}: coordinate vector of length {len(coords)}, dim is {self.dim}")
        return Element(self, coords)

    def basis_element(self, i: int) -> "Element":
        return Element(self, self.basis_coords(i))

    def zero(self) -> "Element":
        return Element(self, self.zero_coords())

    def unit(self) -> "Element":
        return Element(self, self.unit_coords)


def memoised(fn):
    """fn(r, *args), computed once per ring and args and kept in the
    ring's memo under fn, or (fn, *args) when there are args.  The value
    must not refer back to the ring, so that no reference cycle keeps a
    ring and its tables alive after its last reference goes."""
    @functools.wraps(fn)
    def once(r, *args):
        key, memo = (fn, *args) if args else fn, r._memo
        if key not in memo:
            memo[key] = fn(r, *args)
        return memo[key]
    return once


@dataclass(frozen=True)
class Element:
    """Coordinate vector in a ring's basis; immutable and hashable."""

    ring: Ring
    coords: tuple[Scalar, ...]

    def _join(self, other: "Element") -> Ring:
        if not isinstance(other, Element) or self.ring.key != other.ring.key:
            raise RingMismatch(f"elements of {self.ring.name!r} and {getattr(getattr(other, 'ring', None), 'name', '?')!r}")
        return self.ring

    def __add__(self, other):
        r = self._join(other)
        return Element(r, r.add_coords(self.coords, other.coords))

    def __sub__(self, other):
        r = self._join(other)
        return Element(r, r.sub_coords(self.coords, other.coords))

    def __neg__(self):
        r = self.ring
        return Element(r, r.smul_coords(r.domain.neg(r.domain.one), self.coords))

    def __mul__(self, other):
        r = self._join(other)
        return Element(r, r.mul_coords(self.coords, other.coords))

    def smul(self, s) -> "Element":
        r = self.ring
        return Element(r, r.smul_coords(r.domain.parse(s), self.coords))

    def is_zero(self) -> bool:
        return all(x == self.ring.domain.zero for x in self.coords)

    def __repr__(self):
        terms = [f"{self.ring.domain.fmt(c)}*{b}" for c, b in zip(self.coords, self.ring.basis_names)
                 if c != self.ring.domain.zero]
        return " + ".join(terms) if terms else "0"


def commutator(a: Element, b: Element) -> Element:
    """[a, b] = ab - ba."""
    return a * b - b * a


def associator(x: Element, y: Element, z: Element) -> Element:
    """(x, y, z) = (xy)z - x(yz)."""
    return (x * y) * z - x * (y * z)


# -- identity checkers ----------------------------------------------------

@memoised
def structure_array(r: Ring) -> np.ndarray:
    """S[i, j, k] = sc[i][j][k] as one (n, n, n) array: int64 over F_p
    while n*(p-1)**2 < 2**62, so that a sum of n products of two entries
    in [0, p), or the difference of two such sums, is exact; else dtype
    object, holding the ring's own exact scalars."""
    dom = r.domain
    exact = dom.kind == "Fp" and r.dim * (dom.p - 1) ** 2 < 2 ** 62
    return np.array(r.sc, dtype=np.int64 if exact else object)


def reduced(r: Ring, X):
    """The array X of `structure_array`'s dtype with each entry reduced
    into [0, p) over F_p; over Q, X itself."""
    return X % r.domain.p if r.domain.kind == "Fp" else X


@memoised
def associators(r: Ring) -> np.ndarray:
    """A[i, j, k] = (b_i, b_j, b_k) = (b_i b_j) b_k - b_i (b_j b_k), reduced,
    its coordinates on the last axis: the two terms are sum_m S[i, j, m]
    S[m, k, l] and sum_m S[i, m, l] S[j, k, m] of `structure_array`."""
    S = structure_array(r)
    outer_first = np.tensordot(S, S, axes=([2], [0]))
    inner_first = np.tensordot(S, S, axes=([1], [2])).transpose(0, 2, 3, 1)
    return reduced(r, outer_first - inner_first)


def _law_report(r: Ring, name: str, arity: int, laws) -> CheckReport:
    """The report `name` of laws on basis vectors: each law is (text,
    places, value), where x, y (and z) of the text are the basis vectors
    of tuple t at t[places[0]], t[places[1]] (and t[places[2]]), and
    value(A, x, y[, z]) is the law's left side from the associator array
    A at those indices, open grids over every tuple at once.  Tuples run
    in lexicographic order and the laws of one tuple in list order; the
    first nonzero value fails the report, whose witness is the law's text
    and its x, y (and z).  A failing report is falsy, so `first and
    second` is the first pass that fails, or the second."""
    A, t = associators(r), np.ix_(*[np.arange(r.dim)] * arity)
    bad = np.stack([(reduced(r, value(A, *[t[p] for p in places])) != 0).any(axis=-1)
                    for _, places, value in laws], axis=-1)

    def quote(k):
        *tup, law = np.unravel_index(k, bad.shape)
        text, places, _ = laws[law]
        return {"law": text, **{v: coords_json(r, r.basis_coords(int(tup[p])))
                                for v, p in zip("xyz", places)}}
    return first_failure(name, bad, quote, {})


@memoised
def is_alternative(r: Ring) -> CheckReport:
    """The left and right alternative laws (x,x,y) = 0 and (y,x,x) = 0.

    For fixed y, q(x) = (x,x,y) is a quadratic form in x, so it vanishes
    on every x exactly when q(b_i) = 0 for each i and its polar form
    q(b_i + b_j) - q(b_i) - q(b_j) = (b_i,b_j,y) + (b_j,b_i,y) is 0 for
    each pair: in every characteristic, F_2 included.  The first pass
    checks both polar forms, the linearized laws, on all basis triples;
    the second checks (b_i,b_i,b_k) and (b_k,b_i,b_i).  Outside
    characteristic 2 the first pass at i = j already gives 2(b_i,b_i,y)
    = 0, so the second never fails there.
    """
    return (_law_report(r, "alternative", 3, [
                ("(x,y,z) + (y,x,z) = 0", (0, 1, 2), lambda A, x, y, z: A[x, y, z] + A[y, x, z]),
                ("(x,y,z) + (x,z,y) = 0", (2, 0, 1), lambda A, x, y, z: A[x, y, z] + A[x, z, y])])
            and _law_report(r, "alternative", 2, [
                ("(x,x,y) = 0", (0, 1), lambda A, x, y: A[x, x, y]),
                ("(y,x,x) = 0", (0, 1), lambda A, x, y: A[y, x, x])]))


def is_flexible(r: Ring) -> CheckReport:
    """The flexible law (x,y,x) = 0: quadratic in x, so decided as in
    `is_alternative` by its polar form (x,y,z) + (z,y,x) = 0 on all basis
    triples, then (b_i,b_j,b_i) = 0."""
    return (_law_report(r, "flexible", 3, [
                ("(x,y,z) + (z,y,x) = 0", (0, 1, 2), lambda A, x, y, z: A[x, y, z] + A[z, y, x])])
            and _law_report(r, "flexible", 2, [
                ("(x,y,x) = 0", (0, 1), lambda A, x, y: A[x, y, x])]))


def is_associative(r: Ring) -> CheckReport:
    """(x,y,z) = 0: trilinear, so decided on basis triples."""
    return _law_report(r, "associative", 3, [
        ("(x,y,z) = 0", (0, 1, 2), lambda A, x, y, z: A[x, y, z])])


def is_k_torsion_free(r: Ring, k: int) -> CheckReport:
    """k*x = 0 forces x = 0, i.e. k is invertible as repeated addition.
    Over F_p with p dividing k, k*1 = 0 and the witness is x = 1."""
    if k <= 0:
        raise ValueError("k must be positive")
    ok = r.domain.kind == "Q" or k % r.domain.p != 0
    return CheckReport(f"torsion_free_{k}", ok,
                       None if ok else {"x": coords_json(r, r.unit_coords)}, {})


# -- JSON ring files -------------------------------------------------------

def ring_to_json(r: Ring) -> dict:
    dom = r.domain
    return {
        "name": r.name,
        "domain": dom.to_json(),
        "dim": r.dim,
        "basis": list(r.basis_names),
        "unit": [dom.fmt(x) for x in r.unit_coords],
        "mul": [[[dom.fmt(x) for x in row] for row in plane] for plane in r.sc],
    }


def _holds_bool(value) -> bool:
    return isinstance(value, bool) or (
        isinstance(value, (list, tuple)) and any(_holds_bool(v) for v in value))


def scalar_array(value, depth: int, field: str):
    """`value` if it is an array nested `depth` deep with scalar entries (a
    bool, which json loads for true, is none), else a ParseError naming
    `field`.  The entries, 3.1 million in a Zorn/F5 table, go by type."""
    level = [value]
    for _ in range(depth):
        if not all(isinstance(v, (list, tuple)) for v in level):
            break
        level = [x for v in level for x in v]
    else:
        if not {type(x) for x in level} & {list, tuple, dict, bool}:
            return value
    raise ParseError(f"{field} holds a JSON boolean, not a scalar" if _holds_bool(value) else
                     f"{field} must be an array of {'arrays of ' * (depth - 1)}scalars")


def ring_from_json(obj: dict) -> Ring:
    if not isinstance(obj, dict):
        raise ParseError("a ring file must hold a JSON object")
    try:
        dom = domain_from_json(obj["domain"])
        for key, depth in (("basis", 1), ("unit", 1), ("mul", 3)):
            scalar_array(obj[key], depth, f"ring file field {key!r}")
        if not isinstance(obj["name"], str):
            raise ParseError("ring file field 'name' must be a string")
        ring = Ring(obj["name"], dom, obj["basis"], obj["mul"], obj["unit"])
        dim = obj["dim"]
    except KeyError as exc:
        raise ParseError(f"ring file is missing field {exc}") from exc
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise ParseError(f"ring {ring.name!r}: field 'dim' must be a positive integer, got {dim!r}")
    if ring.dim != dim:
        raise ParseError(f"ring {ring.name!r}: declared dim {dim} != basis size {ring.dim}")
    return ring


def load_ring(path) -> Ring:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: {exc}") from exc
    return ring_from_json(obj)


def save_ring(r: Ring, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ring_to_json(r), fh, indent=2, sort_keys=True)
        fh.write("\n")
