"""Drazin inverses outside matrices: endofunctions on finite sets and
elements of finite monoids given by callbacks.

An endofunction stabilizes: the image chain im(f) ⊇ im(f²) ⊇ ... becomes
constant at some k and f permutes the stable set, so inverting there and
pushing through f^k gives the Drazin inverse. A finite-monoid element
repeats a power, x^m = x^{m+c}, and x^D = x^j for the one j in [m, m+c)
with c | j + 1. The walk to that first repeat stores the keys of x^0 ..
x^T only, T a bound on the tail m, so its memory does not grow with it.
Its length is bounded by max_steps when given, else by the monoid size
capped at _WALK_LIMIT; past it the walk raises CycleNotFoundError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import product

from .exceptions import CycleNotFoundError, ParseError

# Default step limit of every power walk: a time budget, since a monoid's
# size (p^(n^2) for matrices) bounds nothing in practice. A walk's memory is
# bounded by the monoid's tail bound, not by its length.
_WALK_LIMIT = 10 ** 6


def _power(x, k, mul, one):
    """x^k by square-and-multiply, with no product by the identity: one() is
    called only for k = 0."""
    if not isinstance(k, int) or k < 0:
        raise ValueError("exponent must be a natural number")
    result = None
    while k:
        if k & 1:
            result = x if result is None else mul(result, x)
        k >>= 1
        if k:
            x = mul(x, x)
    return one() if result is None else result


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
        return _power(self, k, EndoFun.__mul__, partial(EndoFun.identity, self.n))

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
    undo = list(range(f.n))  # sigma^{-1} on the stable set, the identity off it
    for i in stable:
        undo[f.table[i]] = i
    return EndoFun(f.n, undo) ** (k + 1) * f ** k, k


class Monoid:
    """A monoid given by callbacks: mul, identity, and an optional key.

    Two values are equal when their keys are equal; key defaults to the
    value itself, so the values (or their keys) must be hashable and the
    power walk can index them in a dictionary. size, when given, is the
    number of elements and, capped at _WALK_LIMIT, serves as the default
    step budget for power walks.
    """

    _tail = None  # bounds every element's tail m; the constructors below set it

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

    Returns (kept, m, c): m is the tail length, c the cycle length, and kept
    maps e to x^e for e <= T and for e = m + c - 1. Past x^T the walk only
    looks keys up; the first hit is still x^{m+c}, since m <= T. T is the
    monoid's tail bound, or the budget when it sets none.
    """
    if max_steps is None:
        if mon.size is None:
            raise ValueError("max_steps required for a monoid of unknown size")
        max_steps = min(mon.size, _WALK_LIMIT)
    tail = max_steps if mon._tail is None else mon._tail
    key = mon.key
    power = mon.identity
    kept = {0: power}
    seen = {key(power): 0}
    for step in range(1, max_steps + 1):
        nxt = mon.mul(power, x)
        k = key(nxt)
        m = seen.get(k)
        if m is not None:
            kept[step - 1] = power
            return kept, m, step - m
        if step <= tail:
            seen[k] = step
            kept[step] = nxt
        power = nxt
    # A numpy matrix (fp_matrix_monoid) is named by its rows, on one line.
    shown = x.tolist() if hasattr(x, "tolist") else x
    raise CycleNotFoundError(
        "no repeated power of %r within %d steps" % (shown, max_steps)
    )


def power_cycle(x, max_steps=None):
    """(m, c) of the first repeated power x^m = x^{m+c}."""
    return _first_repeat(x.monoid, x.value, max_steps)[1:]


def monoid_drazin(x, max_steps=None):
    """(x^D, index) for a finite-monoid element, by power-cycle detection.

    max_steps defaults to min(monoid size, _WALK_LIMIT). With x^m = x^{m+c}
    the first repeat, x^D = x^j for j = m + (-1 - m) mod c: c divides j + 1,
    so x*x^D = x^{j+1} is the identity of the cycle. The index is the tail
    length m: x*x^D is a power in the cycle, so x^i * x * x^D lies in the
    cycle too, and for i < m it differs from x^i, which lies outside it.
    """
    return _cycle_drazin(x, max_steps)[:2]


def _cycle_drazin(x, max_steps):
    """(x^D, m, c), all read off one walk to the first repeat x^m = x^{m+c}."""
    mon = x.monoid
    kept, m, c = _first_repeat(mon, x.value, max_steps)
    j = m + (-1 - m) % c
    value = kept[j] if j in kept else _power(x.value, j, mon.mul, lambda: mon.identity)
    return mon.element(value), m, c


def int_mod_monoid(modulus):
    """The multiplicative monoid of Z/modulus."""
    if not isinstance(modulus, int) or modulus <= 0:
        raise ValueError("modulus must be a positive integer")
    monoid = Monoid(
        mul=lambda a, b: (a * b) % modulus,
        identity=1 % modulus,
        name="Z/%d under multiplication" % modulus,
        size=modulus,
    )
    monoid._tail = modulus.bit_length()  # m <= the largest prime exponent of modulus
    return monoid


def transformation_monoid(n):
    """All endofunction tables on n points under applicative composition."""
    monoid = Monoid(
        mul=lambda a, b: tuple(a[v] for v in b),
        identity=tuple(range(n)),
        name="transformations of %d points" % n,
        size=n ** n,
    )
    monoid._tail = n  # the image shrinks at each step of the tail
    return monoid


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

    monoid = Monoid(
        mul=lambda a, b: (a @ b) % p,
        identity=np.eye(n, dtype=np.int64),
        key=lambda a: a.tobytes(),
        name="%dx%d matrices over F_%d" % (n, n, p),
        size=p ** (n * n),
    )
    monoid._tail = n  # the index of an n x n matrix
    return monoid
