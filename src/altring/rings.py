"""Structure-constant rings and their element arithmetic.

A ring here is a finite-dimensional free module over an exact scalar
domain with multiplication given by a rank-3 array of structure
constants: basis_i * basis_j = sum_k sc[i][j][k] basis_k.  No
associativity is assumed anywhere; a verified two-sided unit is
mandatory.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Sequence

from .errors import ParseError, RingMismatch
from .linalg import mat_vec
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

    def apply_matrix(self, M, coords):
        return tuple(mat_vec(M, list(coords), self.domain))

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
    """fn(r), computed once per ring and kept in the ring's memo.  The
    value must not refer back to the ring, so that no reference cycle
    keeps a ring and its tables alive after its last reference goes."""
    @functools.wraps(fn)
    def once(r):
        memo = r._memo
        if fn not in memo:
            memo[fn] = fn(r)
        return memo[fn]
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


def add(a: Element, b: Element) -> Element:
    return a + b


def mul(a: Element, b: Element) -> Element:
    return a * b


def commutator(a: Element, b: Element) -> Element:
    """[a, b] = ab - ba."""
    return a * b - b * a


def associator(x: Element, y: Element, z: Element) -> Element:
    """(x, y, z) = (xy)z - x(yz)."""
    return (x * y) * z - x * (y * z)


# -- identity checkers ----------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    ok: bool
    witness: tuple | None = None

    def __bool__(self) -> bool:
        return self.ok


def _assoc_coords(r: Ring, a, b, c):
    return r.sub_coords(r.mul_coords(r.mul_coords(a, b), c),
                        r.mul_coords(a, r.mul_coords(b, c)))


@memoised
def is_alternative(r: Ring) -> CheckResult:
    """Left and right alternative laws, via linearization over the basis.

    The linearized forms are checked on all basis triples; the diagonal
    cases (x,x,y) and (y,x,x) are additionally checked directly with x
    ranging over sums of two basis vectors, which avoids polarization
    pitfalls in small characteristic.
    """
    dom = r.domain
    n = r.dim
    basis = [r.basis_coords(i) for i in range(n)]
    zero = r.zero_coords()
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lin_left = r.add_coords(_assoc_coords(r, basis[i], basis[j], basis[k]),
                                        _assoc_coords(r, basis[j], basis[i], basis[k]))
                if lin_left != zero:
                    return CheckResult(False, (basis[i], basis[j], basis[k]))
                lin_right = r.add_coords(_assoc_coords(r, basis[k], basis[i], basis[j]),
                                         _assoc_coords(r, basis[k], basis[j], basis[i]))
                if lin_right != zero:
                    return CheckResult(False, (basis[k], basis[i], basis[j]))
    for i in range(n):
        for j in range(i, n):
            x = r.add_coords(basis[i], basis[j])
            for k in range(n):
                if _assoc_coords(r, x, x, basis[k]) != zero or _assoc_coords(r, basis[k], x, x) != zero:
                    return CheckResult(False, (x, x, basis[k]))
    return CheckResult(True)


def _basis_law(r: Ring, law) -> CheckResult:
    """law(x, y, z) = 0 on every basis triple, the first failing triple in
    lexicographic order as the witness."""
    basis = [r.basis_coords(i) for i in range(r.dim)]
    for triple in product(basis, repeat=3):
        if law(*triple) != r.zero_coords():
            return CheckResult(False, triple)
    return CheckResult(True)


def is_flexible(r: Ring) -> CheckResult:
    """Linearized flexible law (x,y,z) + (z,y,x) = 0 on basis triples."""
    return _basis_law(r, lambda x, y, z: r.add_coords(_assoc_coords(r, x, y, z),
                                                      _assoc_coords(r, z, y, x)))


def is_associative(r: Ring) -> CheckResult:
    return _basis_law(r, lambda x, y, z: _assoc_coords(r, x, y, z))


def is_k_torsion_free(r: Ring, k: int) -> bool:
    """True when k*x = 0 forces x = 0, i.e. k is invertible as repeated addition."""
    if k <= 0:
        raise ValueError("k must be positive")
    if r.domain.kind == "Q":
        return True
    return k % r.domain.p != 0


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


def ring_from_json(obj: dict) -> Ring:
    try:
        dom = domain_from_json(obj["domain"])
        ring = Ring(obj["name"], dom, obj["basis"], obj["mul"], obj["unit"])
    except KeyError as exc:
        raise ParseError(f"ring file is missing field {exc}") from exc
    if ring.dim != obj["dim"]:
        raise ParseError(f"ring {ring.name!r}: declared dim {obj['dim']} != basis size {ring.dim}")
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
