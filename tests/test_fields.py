from fractions import Fraction
from functools import partial

import pytest
import sympy

from drazin import (
    Matrix,
    NonPrimeModulusError,
    ParseError,
    PrimeField,
    Q,
    SingularMatrixError,
    invert_matrix,
    is_prime,
)


def test_is_prime_matches_sympy_up_to_2000():
    for n in range(2000):
        assert is_prime(n) == sympy.isprime(n), n


def test_is_prime_large_values():
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 + 1)
    assert is_prime(999999937)


def scalar(field, a):
    """a as a 1x1 matrix: scalar arithmetic runs through Matrix."""
    return Matrix(field, [[a]])


def test_rationals_arithmetic():
    q = partial(scalar, Q)
    assert q(Fraction(1, 2)) + q(Fraction(1, 3)) == q(Fraction(5, 6))
    assert q(Fraction(1)) - q(Fraction(1, 4)) == q(Fraction(3, 4))
    assert q(Fraction(2, 3)) * q(Fraction(3, 2)) == q(1)
    assert q(Fraction(2, 3)).scale(Fraction(3, 2)) == q(1)
    assert -q(Fraction(5)) == q(-5)
    assert invert_matrix(q(Fraction(-4, 7))) == q(Fraction(-7, 4))
    assert Q.from_int(3) == Fraction(3)
    assert Q.zero == 0 and Q.one == 1


def test_rationals_inverse_of_zero_rejected():
    with pytest.raises(SingularMatrixError):
        invert_matrix(scalar(Q, Fraction(0)))


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
    f = partial(scalar, f5)
    assert f5.p == 5
    assert f(3) + f(4) == f(2)
    assert f(1) - f(3) == f(3)
    assert f(2) * f(4) == f(3)
    assert f(2).scale(4) == f(3)
    assert -f(2) == f(3)
    assert invert_matrix(f(3)) == f(2)
    assert f5.from_int(-1) == 4
    assert f5.from_int(12) == 2


def test_prime_field_inverse_table():
    for p in (2, 3, 5, 7, 11, 13):
        field = PrimeField(p)
        for a in range(1, p):
            assert scalar(field, a) * invert_matrix(scalar(field, a)) == scalar(field, 1)


def test_prime_field_inverse_of_zero_rejected():
    with pytest.raises(SingularMatrixError):
        invert_matrix(scalar(PrimeField(7), 0))
    with pytest.raises(SingularMatrixError):
        invert_matrix(scalar(PrimeField(7), 14))


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
