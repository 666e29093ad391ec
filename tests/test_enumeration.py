import itertools

import numpy as np
import pytest

from altring import linalg
from altring.enumeration import Enumeration
from altring.errors import BudgetExceeded, UnsupportedDomain
from altring.structure import Subspace


def test_lex_element_order(m2):
    enum = Enumeration(m2)
    X = enum.all_coords()
    expect = list(itertools.product(range(5), repeat=4))
    assert [tuple(row) for row in X[:10]] == expect[:10]
    assert [tuple(row) for row in X[-3:]] == expect[-3:]
    assert int(enum.index_of(np.array([0, 0, 1, 2]))) == 7
    assert tuple(enum.coords_of(7)) == (0, 0, 1, 2)


def test_requires_prime_field(m2q):
    with pytest.raises(UnsupportedDomain):
        Enumeration(m2q)


def test_budget_guards(zorn):
    enum = Enumeration(zorn)
    with pytest.raises(BudgetExceeded):
        enum.all_coords(budget=1000)
    for kernel in (enum.digits, lambda budget: enum.mul_index([0], [0], budget),
                   lambda budget: enum.commutator_index([0], [0], budget),
                   lambda budget: enum.add_index([0], [0], budget),
                   lambda budget: enum.smul_index(2, budget)):
        with pytest.raises(BudgetExceeded):
            kernel(budget=1000)        # 5^8 elements


def test_batched_mul_matches_ring(m2, zorn):
    rng = np.random.default_rng(3)
    for r in (m2, zorn):
        enum = Enumeration(r)
        A = rng.integers(0, 5, (40, r.dim))
        B = rng.integers(0, 5, (40, r.dim))
        got = enum.mul(A, B)
        for a, b, g in zip(A, B, got):
            want = r.mul_coords(tuple(int(x) for x in a), tuple(int(x) for x in b))
            assert tuple(int(x) for x in g) == want


def test_index_kernels_on_matrix_units(m2):
    enum = Enumeration(m2)
    i = int(enum.index_of(np.array([0, 1, 0, 0])))   # E12
    j = int(enum.index_of(np.array([0, 0, 1, 0])))   # E21
    assert int(enum.mul_index([i], [j])[0]) == int(enum.index_of(np.array([1, 0, 0, 0])))
    assert int(enum.add_index([i], [j])[0]) == int(enum.index_of(np.array([0, 1, 1, 0])))
    every = np.arange(enum.count)
    unit = np.full(enum.count, int(enum.index_of(enum.unit)))
    assert (enum.commutator_index(every, unit) == 0).all()
    assert (enum.commutator_index(unit, every) == 0).all()
    assert (enum.digits().T == enum.all_coords()).all()


def test_left_right_mul_matrices(m2):
    enum = Enumeration(m2)
    rng = np.random.default_rng(5)
    v = rng.integers(0, 5, 4)
    L = enum.left_mul_matrices(v[None, :])[0]
    R = enum.right_mul_matrices(v[None, :])[0]
    x = rng.integers(0, 5, 4)
    assert (L @ x % 5 == enum.mul(v[None, :], x[None, :])[0]).all()
    assert (R @ x % 5 == enum.mul(x[None, :], v[None, :])[0]).all()


def test_idempotent_mask_counts(m2):
    enum = Enumeration(m2)
    assert int(enum.idempotent_mask().sum()) == 32


def test_subspace_points_order(m2):
    enum = Enumeration(m2)
    sub = Subspace.from_vectors(m2, [[1, 0, 0, 1], [0, 1, 0, 0]])
    pts = sub.points(enum)
    assert len(pts) == 25
    assert tuple(pts[0]) == (0, 0, 0, 0)
    assert tuple(pts[1]) == (1, 0, 0, 1)      # first basis direction varies fastest
    assert tuple(pts[5]) == (0, 1, 0, 0)


def test_in_span_mask_matches_contains(m2):
    enum = Enumeration(m2)
    sub = Subspace.from_vectors(m2, [[1, 0, 0, 4], [0, 2, 0, 0]])
    X = enum.all_coords()
    mask = sub.mask(enum, X)
    for idx in (0, 1, 17, 311, 624):
        assert bool(mask[idx]) == sub.contains(tuple(int(c) for c in X[idx]))
    assert int(mask.sum()) == 25


def test_rank_batched_matches_exact(m2):
    enum = Enumeration(m2)
    rng = np.random.default_rng(11)
    mats = rng.integers(0, 5, (200, 6, 4))
    got = enum.rank_batched(mats)
    dom = m2.domain
    for M, r in zip(mats, got):
        assert linalg.rank([[int(x) for x in row] for row in M], dom) == int(r)


def test_rref_batched_spans_preserved(m2):
    enum = Enumeration(m2)
    rng = np.random.default_rng(13)
    mats = rng.integers(0, 5, (50, 7, 4))
    rows, ranks = enum.rref_batched(mats)
    dom = m2.domain
    for M, R, rk in zip(mats, rows, ranks):
        want, _ = linalg.rref([[int(x) for x in row] for row in M], dom)
        got, _ = linalg.rref([[int(x) for x in row] for row in R], dom)
        assert got == want
        assert len(want) == int(rk)
