from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as stn

from altring.errors import InvalidField, ParseError
from altring.scalars import PrimeField, Rationals, domain_from_json, is_prime


def test_prime_detection():
    assert [n for n in range(2, 40) if is_prime(n)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 + 1)


@pytest.mark.parametrize("bad", [1, 4, 6, 9, 0, -5])
def test_prime_field_rejects_composites(bad):
    with pytest.raises(InvalidField):
        PrimeField(bad)


def test_field_basic_arithmetic():
    f = PrimeField(5)
    assert f.add(3, 4) == 2
    assert f.sub(1, 3) == 3
    assert f.mul(3, 4) == 2
    assert f.inv(2) == 3
    assert f.div(1, 4) == 4
    assert f.neg(2) == 3
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_field_parse_and_fmt():
    f = PrimeField(7)
    assert f.parse("-1") == 6
    assert f.parse("3/2") == f.div(3, 2)
    assert f.parse(10) == 3
    assert f.fmt(6) == 6
    with pytest.raises(ParseError):
        f.parse("x")
    with pytest.raises(ParseError):
        f.parse("1/7")   # denominator is 0 mod 7


def test_rationals_parse_and_fmt():
    q = Rationals()
    assert q.parse("-1/2") == Fraction(-1, 2)
    assert q.fmt(Fraction(3)) == "3"
    assert q.fmt(Fraction(-1, 2)) == "-1/2"
    assert q.inv(Fraction(2, 3)) == Fraction(3, 2)
    with pytest.raises(ParseError):
        q.parse("1/0")


def test_domain_json_round_trip():
    assert domain_from_json("Q") == Rationals()
    assert domain_from_json({"Fp": 11}) == PrimeField(11)
    with pytest.raises(ParseError):
        domain_from_json({"GF": 4})
    assert PrimeField(5).to_json() == {"Fp": 5}
    assert Rationals().to_json() == "Q"


@settings(max_examples=60)
@given(stn.sampled_from([5, 7, 11, 13]), stn.integers(0, 200))
def test_fermat_little(p, s):
    f = PrimeField(p)
    x = f.parse(s)
    acc = f.one
    for _ in range(p):
        acc = f.mul(acc, x)
    assert acc == x


@settings(max_examples=60)
@given(stn.integers(0, 4), stn.integers(0, 4), stn.integers(0, 4))
def test_field_laws_f5(a, b, c):
    f = PrimeField(5)
    assert f.add(a, b) == f.add(b, a)
    assert f.mul(a, b) == f.mul(b, a)
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    if a != 0:
        assert f.mul(a, f.inv(a)) == 1


@settings(max_examples=40)
@given(stn.fractions(max_denominator=50), stn.fractions(max_denominator=50))
def test_rationals_match_fraction_reference(x, y):
    q = Rationals()
    assert q.add(x, y) == x + y
    assert q.mul(x, y) == x * y
    assert q.sub(x, y) == x - y
    assert q.parse(q.fmt(x)) == x
