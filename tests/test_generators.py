import pytest

from altring import (center, gen_direct_sum, gen_m2, gen_triangular2,
                     gen_zorn, is_alternative, is_associative, is_flexible,
                     zorn_idempotent)
from altring.errors import InvalidField


def test_m2_flags(m2):
    assert is_associative(m2).ok
    assert is_alternative(m2).ok
    assert is_flexible(m2).ok
    assert m2.dim == 4
    assert m2.unit_coords == (1, 0, 0, 1)


def test_zorn_flags(zorn):
    assert is_alternative(zorn).ok
    assert is_flexible(zorn).ok        # alternative implies flexible
    assert not is_associative(zorn).ok
    assert zorn.dim == 8
    e = zorn_idempotent(zorn)
    assert (e * e).coords == e.coords
    assert e.coords != tuple(zorn.unit_coords)


def test_triangular_flags(t2):
    assert is_associative(t2).ok
    assert t2.dim == 3


def test_direct_sum_structure(m2, dsum):
    assert dsum.dim == 8
    assert is_associative(dsum).ok
    # componentwise products: (x, 0) * (0, y) = 0
    left = dsum.element([0, 1, 0, 0, 0, 0, 0, 0])
    right = dsum.element([0, 0, 0, 0, 0, 1, 0, 0])
    assert (left * right).is_zero()
    # blocks multiply like the factors
    a = dsum.element([1, 2, 3, 4, 0, 0, 0, 0])
    b = dsum.element([0, 1, 1, 0, 0, 0, 0, 0])
    want = m2.element([1, 2, 3, 4]) * m2.element([0, 1, 1, 0])
    assert (a * b).coords == want.coords + (0, 0, 0, 0)
    assert center(dsum).dim == 2


def test_direct_sum_needs_common_domain(m2, m2q):
    with pytest.raises(InvalidField):
        gen_direct_sum(m2, m2q)


def test_generators_over_q():
    m2q = gen_m2("Q")
    assert is_associative(m2q).ok
    zq = gen_zorn("Q")
    assert is_alternative(zq).ok and not is_associative(zq).ok
    t2q = gen_triangular2("Q")
    assert is_associative(t2q).ok


def test_generators_other_primes():
    for p in (7, 11):
        assert is_alternative(gen_zorn(p)).ok
        assert is_associative(gen_m2(p)).ok


def test_invalid_field_rejected():
    with pytest.raises(InvalidField):
        gen_m2(4)
    with pytest.raises(InvalidField):
        gen_zorn(15)


@pytest.mark.parametrize("field", [2.5, 7.9, True], ids=repr)
def test_field_that_is_not_an_int_or_a_string_is_refused(field):
    """A float is not truncated to a prime, and a bool is not the modulus
    1: the error names the value given."""
    with pytest.raises(InvalidField, match=f"field {field!r} is neither a prime nor Q"):
        gen_m2(field)


@pytest.mark.parametrize("field", [7, "7"], ids=repr)
def test_prime_field_as_int_or_string(field):
    assert gen_m2(field).name == "m2_f7"


def test_alternative_implies_flexible_on_bundled(m2, zorn, t2, dsum, m2q):
    for ring in (m2, zorn, t2, dsum, m2q):
        if is_alternative(ring).ok:
            assert is_flexible(ring).ok
