"""Drazin inverses outside matrices: endofunctions on finite sets and
elements of finite monoids given by callbacks.

An endofunction stabilizes: the image chain im(f) ⊇ im(f²) ⊇ ... becomes
constant at some k and f permutes the stable set, so inverting there and
pushing through f^k gives the Drazin inverse. A finite-monoid element
repeats a power, x^m = x^{m+c}, and the inverse is read off the (m, c) of
the first repeat. Every power walk is bounded: by max_steps when given,
else by the monoid size capped at _WALK_LIMIT, and a walk that finds no
repeat within its budget raises CycleNotFoundError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .exceptions import CycleNotFoundError, ParseError

__all__ = [
    "EndoFun",
    "Monoid",
    "MonoidElement",
    "all_endofunctions",
    "endo_drazin",
    "eventual_image",
    "fp_matrix_monoid",
    "int_mod_monoid",
    "monoid_drazin",
    "power_cycle",
    "transformation_monoid",
]

# Default step limit of every power walk. A walk keeps every power, about
# 140 MB per million steps, so a monoid's size alone (p^(n^2) for matrices)
# bounds nothing in practice.
_WALK_LIMIT = 10 ** 6


@dataclass(frozen=True)
class EndoFun:
    """A function {0..n-1} -> {0..n-1} as a lookup table."""

    n: int
    table: tuple

    def __post_init__(self):
        object.__setattr__(self, "table", tuple(self.table))
        if len(self.table) != self.n:
            raise ParseError("table length %d != n=%d" % (len(self.table), self.n))
        for v in self.table:
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < self.n:
                raise ParseError("table entry %r out of range [0,%d)" % (v, self.n))

    @classmethod
    def identity(cls, n):
        return cls(n, tuple(range(n)))

    def __call__(self, i):
        return self.table[i]

    def __mul__(self, other):
        """Composition, apply other first: (f*g)(x) = f(g(x))."""
        if not isinstance(other, EndoFun):
            return NotImplemented
        if other.n != self.n:
            raise ParseError("composing endofunctions on %d and %d points" % (self.n, other.n))
        return EndoFun(self.n, tuple(self.table[v] for v in other.table))

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a natural number")
        result = EndoFun.identity(self.n)
        for _ in range(k):
            result = self * result
        return result

    def to_json(self):
        return {"n": self.n, "table": list(self.table)}

    @classmethod
    def from_json(cls, obj):
        if isinstance(obj, list):
            obj = {"n": len(obj), "table": obj}
        if not isinstance(obj, dict) or "n" not in obj or "table" not in obj:
            raise ParseError("endofunction needs n and table")
        n, table = obj["n"], obj["table"]
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise ParseError("n must be a natural number")
        if not isinstance(table, list):
            raise ParseError("table must be an array")
        return cls(n, tuple(table))


def all_endofunctions(n):
    for table in product(range(n), repeat=n):
        yield EndoFun(n, table)


def eventual_image(f):
    """(stable_set, k): the first image set with im(f^k) = im(f^{k+1}).

    f restricted to the stable set is a bijection of it.
    """
    current = frozenset(range(f.n))
    k = 0
    while True:
        nxt = frozenset(f.table[i] for i in current)
        if nxt == current:
            return tuple(sorted(current)), k
        current = nxt
        k += 1


def endo_drazin(f):
    """(f^D, index): push x through f^k, then undo the stable permutation.

    f restricted to its eventual image is a permutation sigma, and
    f^D(x) = sigma^{-(k+1)}(f^k(x)). The k+1 undo steps (not just one)
    are what make f^{k+1} o f^D = f^k land back on f^k(x) exactly.
    """
    stable, k = eventual_image(f)
    sigma_inverse = {f.table[i]: i for i in stable}
    fk = f ** k
    table = []
    for i in range(f.n):
        v = fk.table[i]
        for _ in range(k + 1):
            v = sigma_inverse[v]
        table.append(v)
    return EndoFun(f.n, tuple(table)), k


class Monoid:
    """A monoid given by callbacks: mul, identity, and an optional key.

    Two values are equal when their keys are equal; key defaults to the
    value itself, so the values (or their keys) must be hashable and the
    power walk can index them in a dictionary. size, when given, is the
    number of elements and, capped at _WALK_LIMIT, serves as the default
    step budget for power walks.
    """

    def __init__(self, mul, identity, *, key=None, name=None, size=None):
        self.mul = mul
        self.identity = identity
        self.key = key if key is not None else _itself
        self.name = name or "monoid"
        self.size = size

    def eq(self, a, b):
        return self.key(a) == self.key(b)

    def element(self, value):
        return MonoidElement(value, self)

    def __repr__(self):
        return "Monoid(%s)" % self.name


def _itself(value):
    return value


@dataclass
class MonoidElement:
    value: object
    monoid: Monoid = field(repr=False)


def _first_repeat(mon, x, max_steps):
    """Walk x^0, x^1, ... to its first repeat x^{m+c} = x^m, keyed by mon.key.

    Returns (powers, m, c) with powers = [x^0 .. x^{m+c-1}]: m is the tail
    length and c the cycle length.
    """
    powers = [mon.identity]
    key = mon.key
    seen = {key(mon.identity): 0}
    for step in range(1, max_steps + 1):
        nxt = mon.mul(powers[-1], x)
        k = key(nxt)
        if k in seen:
            m = seen[k]
            return powers, m, step - m
        seen[k] = step
        powers.append(nxt)
    # A numpy matrix (fp_matrix_monoid) is named by its rows, on one line.
    shown = x.tolist() if hasattr(x, "tolist") else x
    raise CycleNotFoundError(
        "no repeated power of %r within %d steps" % (shown, max_steps)
    )


def power_cycle(x, max_steps=None):
    """(m, c) of the first repeated power x^m = x^{m+c}."""
    return _cycle_drazin(x, max_steps)[1:]


def _resolve_steps(mon, max_steps):
    if max_steps is not None:
        return max_steps
    if mon.size is None:
        raise ValueError("max_steps required for a monoid of unknown size")
    return min(mon.size, _WALK_LIMIT)


def monoid_drazin(x, max_steps=None):
    """(x^D, index) for a finite-monoid element, by power-cycle detection.

    max_steps defaults to min(monoid size, _WALK_LIMIT). With x^m = x^{m+c}
    the first repeat: x^D is x^{c-1} if m = 0, x^m if c = 1, and x^{mc-1}
    otherwise. The index is the tail length m: x*x^D is a power in the
    cycle, so x^i * x * x^D lies in the cycle too, and for i < m it differs
    from x^i, which lies outside it.
    """
    return _cycle_drazin(x, max_steps)[:2]


def _cycle_drazin(x, max_steps):
    """(x^D, m, c), all read off one walk to the first repeat x^m = x^{m+c}."""
    mon = x.monoid
    powers, m, c = _first_repeat(mon, x.value, _resolve_steps(mon, max_steps))
    if m == 0:
        exponent = c - 1
    elif c == 1:
        exponent = m
    else:
        exponent = m * c - 1
    if exponent >= len(powers):
        exponent = m + (exponent - m) % c
    return mon.element(powers[exponent]), m, c


def int_mod_monoid(modulus):
    """The multiplicative monoid of Z/modulus."""
    if not isinstance(modulus, int) or modulus <= 0:
        raise ValueError("modulus must be a positive integer")
    return Monoid(
        mul=lambda a, b: (a * b) % modulus,
        identity=1 % modulus,
        name="Z/%d under multiplication" % modulus,
        size=modulus,
    )


def transformation_monoid(n):
    """All endofunction tables on n points under applicative composition."""
    return Monoid(
        mul=lambda a, b: tuple(a[v] for v in b),
        identity=tuple(range(n)),
        name="transformations of %d points" % n,
        size=n ** n,
    )


def fp_matrix_monoid(p, n):
    """n x n matrices over F_p as int64 numpy arrays.

    Exists for the Route C matrix walk: power cycles in GL(n, p) reach
    thousands of steps, so the walk multiplies numpy arrays and keys the
    table by raw bytes. An entry of a product sums n terms below (p-1)^2
    before the reduction, so n*(p-1)^2 must stay below 2^63.
    """
    if n * (p - 1) ** 2 >= 2 ** 63:
        raise ValueError(
            "%dx%d matrices over F_%d overflow int64 products: n*(p-1)^2 must be below 2^63"
            % (n, n, p)
        )
    import numpy as np

    return Monoid(
        mul=lambda a, b: (a @ b) % p,
        identity=np.eye(n, dtype=np.int64),
        key=lambda a: a.tobytes(),
        name="%dx%d matrices over F_%d" % (n, n, p),
        size=p ** (n * n),
    )
