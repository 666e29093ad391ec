"""Exact dense linear algebra over a scalar domain.

Matrices are lists of rows of scalars.  Everything is elimination-based
with a fixed pivot order (leftmost column first, topmost row first), so
echelon bases are canonical and subspace equality is list equality.
"""

from __future__ import annotations

from .errors import DimensionMismatch
from .scalars import Domain, Scalar


def mat_identity(n: int, dom: Domain) -> list[list[Scalar]]:
    return [[dom.one if i == j else dom.zero for j in range(n)] for i in range(n)]


def mat_vec(A: list[list[Scalar]], v: list[Scalar], dom: Domain) -> list[Scalar]:
    if A and len(A[0]) != len(v):
        raise DimensionMismatch(f"matrix is {len(A)}x{len(A[0])}, vector has {len(v)}")
    out = []
    for row in A:
        acc = dom.zero
        for a, x in zip(row, v):
            acc = dom.add(acc, dom.mul(a, x))
        out.append(acc)
    return out


def mat_mul(A: list[list[Scalar]], B: list[list[Scalar]], dom: Domain) -> list[list[Scalar]]:
    if A and B and len(A[0]) != len(B):
        raise DimensionMismatch(f"cannot multiply {len(A)}x{len(A[0])} by {len(B)}x{len(B[0])}")
    cols = list(zip(*B)) if B else []
    return [[_dot(row, col, dom) for col in cols] for row in A]


def _dot(u, v, dom: Domain) -> Scalar:
    acc = dom.zero
    for a, b in zip(u, v):
        acc = dom.add(acc, dom.mul(a, b))
    return acc


def rref(rows, dom: Domain) -> tuple[list[list[Scalar]], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c] != dom.zero), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = dom.inv(m[r][c])
        m[r] = [dom.mul(inv, x) for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != dom.zero:
                f = m[i][c]
                m[i] = [dom.sub(x, dom.mul(f, y)) for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def rank(rows, dom: Domain) -> int:
    return len(rref(rows, dom)[0])


def residual(basis, pivots, v, dom: Domain) -> list[Scalar]:
    """Reduce v against an rref basis; zero residual means v is in the span."""
    out = list(v)
    for row, p in zip(basis, pivots):
        f = out[p]
        if f != dom.zero:
            out = [dom.sub(x, dom.mul(f, y)) for x, y in zip(out, row)]
    return out


def in_span(basis, pivots, v, dom: Domain) -> bool:
    return all(x == dom.zero for x in residual(basis, pivots, v, dom))


def nullspace(rows, dom: Domain) -> list[list[Scalar]]:
    """Canonical basis of {x : A x = 0}, one row per free column of A."""
    if not rows:
        return []
    ncols = len(rows[0])
    basis, pivots = rref(rows, dom)
    free = [c for c in range(ncols) if c not in pivots]
    out = []
    for fc in free:
        v = [dom.zero] * ncols
        v[fc] = dom.one
        for row, p in zip(basis, pivots):
            v[p] = dom.neg(row[fc])
        out.append(v)
    return rref(out, dom)[0]


def solve(rows, rhs, dom: Domain):
    """One solution of A x = b and the nullspace of A, or (None, nullspace)."""
    if not rows:
        return ([], [])
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    basis, pivots = rref(aug, dom)
    if ncols in pivots:
        return None, nullspace(rows, dom)
    x = [dom.zero] * ncols
    for row, p in zip(basis, pivots):
        x[p] = row[-1]
    return x, nullspace(rows, dom)


def inverse(rows, dom: Domain):
    """Inverse of a square matrix, or None when singular."""
    n = len(rows)
    if n and len(rows[0]) != n:
        raise DimensionMismatch("inverse of a non-square matrix")
    aug = [list(r) + ident for r, ident in zip(rows, mat_identity(n, dom))]
    basis, pivots = rref(aug, dom)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in basis]


def intersect_spans(basis_a, basis_b, dom: Domain) -> list[list[Scalar]]:
    """rref basis of span(A) ∩ span(B) for row-spanning sets A, B."""
    if not basis_a or not basis_b:
        return []
    ncols = len(basis_a[0])
    stacked = []
    for c in range(ncols):
        stacked.append([row[c] for row in basis_a] + [dom.neg(row[c]) for row in basis_b])
    vecs = []
    for coeff in nullspace(stacked, dom):
        alpha = coeff[: len(basis_a)]
        v = [dom.zero] * ncols
        for a, row in zip(alpha, basis_a):
            v = [dom.add(x, dom.mul(a, y)) for x, y in zip(v, row)]
        vecs.append(v)
    return rref(vecs, dom)[0]
