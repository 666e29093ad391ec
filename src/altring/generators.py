"""Bundled example rings: matrix rings, the split octonions, sums.

The Zorn algebra uses the vector-matrix model: elements are 2x2 arrays
with scalars on the diagonal and 3-vectors off it,

    [[a, u], [v, b]] . [[a', u'], [v', b']] =
        [[a a' + u.v',  a u' + b' u - v x v'],
         [a' v + b v' + u x u',  b b' + v.u']]

which is alternative but not associative.  Cross-product sign conventions
vary across sources, so the generator replays the alternativity checker
before returning and refuses to emit a table that fails it.
"""

from __future__ import annotations

from .errors import InvalidField
from .rings import Ring, is_alternative, is_associative
from .scalars import Domain, PrimeField, Rationals


def _domain(field) -> Domain:
    """Q for "Q", "q" or None, else F_p for a prime p given as an int or
    a decimal string.  Any other type is refused, not converted: `int()`
    would truncate a float (2.5 -> F_2) and take True as 1."""
    if field in ("Q", "q", None):
        return Rationals()
    if type(field) is not int and not isinstance(field, str):
        raise InvalidField(f"field {field!r} is neither a prime nor Q")
    try:
        return PrimeField(int(field))
    except ValueError:
        raise InvalidField(f"field {field!r} is neither a prime nor Q") from None


def _empty_sc(n):
    return [[[0] * n for _ in range(n)] for _ in range(n)]


def gen_m2(field="5") -> Ring:
    """Full 2x2 matrix ring, basis E11, E12, E21, E22 (row-major)."""
    dom = _domain(field)
    sc = _empty_sc(4)
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for d in range(2):
                    if b == c:
                        sc[a * 2 + b][c * 2 + d][a * 2 + d] = 1
    ring = Ring(f"m2_{_suffix(dom)}", dom, ["E11", "E12", "E21", "E22"],
                sc, [1, 0, 0, 1])
    assert is_associative(ring)
    return ring


def gen_triangular2(field="5") -> Ring:
    """Upper triangular 2x2 matrices, basis E11, E12, E22."""
    dom = _domain(field)
    units = {(0, 0): 0, (0, 1): 1, (1, 1): 2}
    sc = _empty_sc(3)
    for (a, b), i in units.items():
        for (c, d), j in units.items():
            if b == c and (a, d) in units:
                sc[i][j][units[(a, d)]] = 1
    ring = Ring(f"t2_{_suffix(dom)}", dom, ["E11", "E12", "E22"], sc, [1, 0, 1])
    assert is_associative(ring)
    return ring


_CROSS = {(0, 1): (2, 1), (1, 2): (0, 1), (2, 0): (1, 1),
          (1, 0): (2, -1), (2, 1): (0, -1), (0, 2): (1, -1)}


def gen_zorn(field="5") -> Ring:
    """Zorn vector-matrix algebra (split octonions), dimension 8.

    Basis order: e11, u1, u2, u3, v1, v2, v3, e22, with u the top-right
    and v the bottom-left vector slot.  The distinguished idempotent is
    e11 = basis 0.
    """
    dom = _domain(field)
    n = 8
    A, B = 0, 7
    U = [1, 2, 3]
    V = [4, 5, 6]
    sc = _empty_sc(n)
    sc[A][A][A] += 1
    sc[B][B][B] += 1
    for i in range(3):
        sc[U[i]][V[i]][A] += 1          # top-left: u . v'
        sc[V[i]][U[i]][B] += 1          # bottom-right: v . u'
        sc[A][U[i]][U[i]] += 1          # a u'
        sc[U[i]][B][U[i]] += 1          # b' u
        sc[V[i]][A][V[i]] += 1          # a' v
        sc[B][V[i]][V[i]] += 1          # b v'
    for (i, j), (k, s) in _CROSS.items():
        sc[V[i]][V[j]][U[k]] -= s       # top-right: -(v x v')
        sc[U[i]][U[j]][V[k]] += s       # bottom-left: +(u x u')
    unit = [0] * n
    unit[A] = unit[B] = 1
    ring = Ring(f"zorn_{_suffix(dom)}", dom,
                ["e11", "u1", "u2", "u3", "v1", "v2", "v3", "e22"], sc, unit)
    if not is_alternative(ring):
        raise InvalidField("zorn generator produced a non-alternative table; sign convention broken")
    assert not is_associative(ring)
    return ring


def zorn_idempotent(ring: Ring):
    """The distinguished corner idempotent of a generated Zorn ring."""
    return ring.basis_element(0)


def gen_direct_sum(left: Ring, right: Ring) -> Ring:
    """Componentwise product of two rings over the same domain."""
    if left.domain != right.domain:
        raise InvalidField("direct sum needs a common scalar domain")
    dom = left.domain
    n1, n2 = left.dim, right.dim
    n = n1 + n2
    sc = [[[dom.zero] * n for _ in range(n)] for _ in range(n)]
    for i in range(n1):
        for j in range(n1):
            for k in range(n1):
                sc[i][j][k] = left.sc[i][j][k]
    for i in range(n2):
        for j in range(n2):
            for k in range(n2):
                sc[n1 + i][n1 + j][n1 + k] = right.sc[i][j][k]
    unit = list(left.unit_coords) + list(right.unit_coords)
    names = [f"L.{b}" for b in left.basis_names] + [f"R.{b}" for b in right.basis_names]
    return Ring(f"{left.name}+{right.name}", dom, names, sc, unit)


def _suffix(dom: Domain) -> str:
    return "q" if dom.kind == "Q" else f"f{dom.p}"


GENERATORS = {"m2": gen_m2, "zorn": gen_zorn, "triangular2": gen_triangular2}
