from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as stn

from altring import linalg
from altring.scalars import PrimeField, Rationals

F5 = PrimeField(5)
Q = Rationals()


def test_rref_canonical():
    rows, piv = linalg.rref([[2, 4, 0], [1, 2, 1]], F5)
    assert piv == [0, 2]
    assert rows == [[1, 2, 0], [0, 0, 1]]


def test_rref_over_q():
    rows, piv = linalg.rref([[Fraction(1, 2), Fraction(1)], [Fraction(1), Fraction(2)]], Q)
    assert rows == [[Fraction(1), Fraction(2)]]
    assert piv == [0]


def test_rank_and_nullspace():
    A = [[1, 2, 3], [2, 4, 2], [0, 0, 0]]
    assert linalg.rank(A, F5) == 2
    null = linalg.nullspace(A, F5)
    assert len(null) == 1
    for v in null:
        assert linalg.mat_vec(A, v, F5) == [0, 0, 0]


def test_solve_particular_and_inconsistent():
    A = [[1, 0], [0, 1], [1, 1]]
    x, null = linalg.solve(A, [2, 3, 0], F5)
    assert x == [2, 3]
    assert null == []
    x, _ = linalg.solve(A, [2, 3, 1], F5)
    assert x is None


def test_inverse_round_trip():
    A = [[1, 1], [0, 1]]
    inv = linalg.inverse(A, F5)
    assert linalg.mat_mul(A, inv, F5) == linalg.mat_identity(2, F5)
    assert linalg.inverse([[1, 2], [2, 4]], F5) is None


def test_residual_membership():
    basis, piv = linalg.rref([[1, 0, 2], [0, 1, 3]], F5)
    assert linalg.in_span(basis, piv, [2, 1, 2], F5)   # 2*r0 + r1
    assert not linalg.in_span(basis, piv, [0, 0, 1], F5)


def test_intersect_spans():
    A = [[1, 0, 0], [0, 1, 0]]
    B = [[0, 1, 0], [0, 0, 1]]
    inter = linalg.intersect_spans(A, B, F5)
    assert inter == [[0, 1, 0]]
    assert linalg.intersect_spans(A, [[0, 0, 1]], F5) == []


@settings(max_examples=80)
@given(stn.lists(stn.lists(stn.integers(0, 4), min_size=4, max_size=4),
                 min_size=1, max_size=5))
def test_nullspace_annihilates_and_rank_adds_up(rows):
    null = linalg.nullspace(rows, F5)
    for v in null:
        assert all(x == 0 for x in linalg.mat_vec(rows, v, F5))
    assert linalg.rank(rows, F5) + len(null) == 4


@settings(max_examples=50)
@given(stn.lists(stn.lists(stn.integers(0, 4), min_size=3, max_size=3),
                 min_size=3, max_size=3),
       stn.lists(stn.integers(0, 4), min_size=3, max_size=3))
def test_solve_solutions_verify(rows, rhs):
    x, null = linalg.solve(rows, rhs, F5)
    if x is not None:
        assert linalg.mat_vec(rows, x, F5) == [v % 5 for v in rhs]
        for v in null:
            assert all(t == 0 for t in linalg.mat_vec(rows, v, F5))


@settings(max_examples=50)
@given(stn.lists(stn.lists(stn.integers(0, 4), min_size=4, max_size=4),
                 min_size=2, max_size=6))
def test_rref_idempotent(rows):
    r1, p1 = linalg.rref(rows, F5)
    r2, p2 = linalg.rref(r1, F5)
    assert (r1, p1) == (r2, p2)
