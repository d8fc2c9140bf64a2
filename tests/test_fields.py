from fractions import Fraction

import pytest
import sympy

from drazin import NonPrimeModulusError, ParseError, PrimeField, Q, is_prime


def test_is_prime_matches_sympy_up_to_2000():
    for n in range(2000):
        assert is_prime(n) == sympy.isprime(n), n


def test_is_prime_large_values():
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 + 1)
    assert is_prime(999999937)


def test_rationals_arithmetic():
    assert Q.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert Q.sub(Fraction(1), Fraction(1, 4)) == Fraction(3, 4)
    assert Q.mul(Fraction(2, 3), Fraction(3, 2)) == 1
    assert Q.neg(Fraction(5)) == -5
    assert Q.inv(Fraction(-4, 7)) == Fraction(-7, 4)
    assert Q.from_int(3) == Fraction(3)
    assert Q.zero == 0 and Q.one == 1


def test_rationals_inverse_of_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        Q.inv(Fraction(0))


def test_rationals_scalar_json_round_trip():
    values = [Fraction(0), Fraction(-3, 7), Fraction(22, 4), Fraction(10**12, 13)]
    for v in values:
        encoded = Q.scalar_to_json(v)
        assert isinstance(encoded, str) and "/" in encoded
        assert Q.scalar_from_json(encoded) == v
    # The parser is liberal: plain ints and undivided strings also load.
    assert Q.scalar_from_json(5) == Fraction(5)
    assert Q.scalar_from_json("5") == Fraction(5)
    assert Q.scalar_from_json("-2/6") == Fraction(-1, 3)
    assert Q.scalar_from_json("2.5") == Fraction(5, 2)


@pytest.mark.parametrize("text", ["1e50", "1E5", "2.5e3", "-3e-2"])
def test_rationals_refuse_decimal_exponents(text):
    with pytest.raises(ParseError):
        Q.scalar_from_json(text)


def test_prime_field_arithmetic():
    f5 = PrimeField(5)
    assert f5.p == 5
    assert f5.add(3, 4) == 2
    assert f5.sub(1, 3) == 3
    assert f5.mul(2, 4) == 3
    assert f5.neg(2) == 3
    assert f5.inv(3) == 2
    assert f5.from_int(-1) == 4
    assert f5.from_int(12) == 2


def test_prime_field_inverse_table():
    for p in (2, 3, 5, 7, 11, 13):
        field = PrimeField(p)
        for a in range(1, p):
            assert field.mul(a, field.inv(a)) == 1


def test_prime_field_inverse_of_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        PrimeField(7).inv(0)
    with pytest.raises(ZeroDivisionError):
        PrimeField(7).inv(14)


def test_non_prime_modulus_rejected():
    for bad in (0, 1, 4, 6, 9, 12, 100):
        with pytest.raises(NonPrimeModulusError):
            PrimeField(bad)


def test_field_descriptor_round_trip():
    from drazin.fields import Field

    assert Q.descriptor() == {"field": "Q"}
    assert Field.from_descriptor({"field": "Q"}) is Q
    f7 = PrimeField(7)
    assert f7.descriptor() == {"field": "Fp", "p": 7}
    back = Field.from_descriptor({"field": "Fp", "p": 7})
    assert isinstance(back, PrimeField) and back.p == 7


def test_scalar_parse_errors():
    from drazin import ParseError

    with pytest.raises(ParseError):
        Q.scalar_from_json("1/0")
    with pytest.raises(ParseError):
        Q.scalar_from_json(True)
    with pytest.raises(ParseError):
        Q.scalar_from_json([1, 2])
    with pytest.raises(ParseError):
        PrimeField(5).scalar_from_json("3")
    with pytest.raises(ParseError):
        PrimeField(5).scalar_from_json(False)


def test_dot_products():
    assert Q.dot([Fraction(1, 2), Fraction(3)], [Fraction(4), Fraction(1, 3)]) == 3
    assert PrimeField(5).dot([2, 3], [4, 4]) == 0
    assert Q.dot([], []) == 0
