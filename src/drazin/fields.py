"""Exact field contexts: the rationals Q and prime fields F_p.

Scalars are plain Python values (fractions.Fraction for Q, ints in [0, p)
for F_p), so canonical form is automatic and the arithmetic on them is the
native operators, applied a whole matrix at a time in linalg. A Field
object supplies what is left: the constants zero and one, parsing and JSON
encoding of scalars, the field descriptor, and from_int and dot.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from operator import mul

from .exceptions import NonPrimeModulusError, ParseError

# Witnesses making Miller-Rabin deterministic for every n < 3.3 * 10^24,
# which is far beyond any modulus this library will meet.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _digit_limit():
    """Python's limit on the digits of an int converted to or from text (0: none).

    It caps Q scalars in JSON both ways: a longer numerator or denominator
    can be neither parsed nor written.
    """
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


class Field:
    """Common interface; use the Q singleton or PrimeField(p)."""

    def dot(self, xs, ys):
        """Sum of products of two scalar sequences."""
        return self.from_int(sum(map(mul, xs, ys)))

    def from_int(self, n):
        raise NotImplementedError

    def scalar_to_json(self, a):
        raise NotImplementedError

    def scalar_from_json(self, obj):
        raise NotImplementedError

    def descriptor(self):
        raise NotImplementedError

    @staticmethod
    def from_descriptor(obj):
        """Build a field from {"field": "Q"} or {"field": "Fp", "p": p}."""
        if not isinstance(obj, dict) or "field" not in obj:
            raise ParseError("field descriptor must be an object with a 'field' key")
        tag = obj["field"]
        if tag == "Q":
            return Q
        if tag == "Fp":
            if "p" not in obj:
                raise ParseError("F_p descriptor needs a 'p' entry")
            p = obj["p"]
            if not isinstance(p, int) or isinstance(p, bool):
                raise ParseError("'p' must be an integer")
            return PrimeField(p)
        raise ParseError("unknown field tag %r" % (tag,))


class Rationals(Field):
    zero = Fraction(0)
    one = Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def scalar_to_json(self, a):
        return "%d/%d" % (a.numerator, a.denominator)

    def scalar_from_json(self, obj):
        if isinstance(obj, bool):
            raise ParseError("booleans are not Q scalars")
        if isinstance(obj, int):
            return Fraction(obj)
        if isinstance(obj, str):
            if "e" in obj or "E" in obj:
                # Fraction expands "1eN" to 10**N, so a short string could
                # ask for any amount of memory
                raise ParseError(
                    "Q scalar %r has a decimal exponent; write it as 'num/den'" % (obj,)
                )
            try:
                return Fraction(obj)
            except (ValueError, ZeroDivisionError) as exc:
                limit = _digit_limit()
                if limit and any(sum(map(str.isdigit, part)) > limit for part in obj.split("/")):
                    raise ParseError(
                        "input Q scalar over the %d-digit limit on a numerator or "
                        "denominator" % limit
                    ) from exc
                raise ParseError("bad Q scalar %r" % (obj,)) from exc
        raise ParseError("Q scalar must be an int or 'num/den' string, got %r" % (obj,))

    def descriptor(self):
        return {"field": "Q"}

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


class PrimeField(Field):
    def __init__(self, p):
        if not isinstance(p, int) or isinstance(p, bool) or not is_prime(p):
            raise NonPrimeModulusError("p must be a prime integer, got %r" % (p,))
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def from_int(self, n):
        return n % self.p

    def scalar_to_json(self, a):
        return a

    def scalar_from_json(self, obj):
        if isinstance(obj, bool) or not isinstance(obj, int):
            raise ParseError("F_p scalar must be an integer, got %r" % (obj,))
        return obj % self.p

    def descriptor(self):
        return {"field": "Fp", "p": self.p}

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return "F%d" % self.p


Q = Rationals()
