"""Drazin inverses outside matrices: endofunctions on finite sets and
elements of finite monoids given by callbacks.

An endofunction stabilizes: the image chain im(f) ⊇ im(f²) ⊇ ... becomes
constant at some k and f permutes the stable set, so inverting there and
pushing through f^k gives the Drazin inverse. A finite-monoid element
repeats a power, x^m = x^{m+c}, and x^D = x^j for every j >= m with
c | j + 1. With T a bound on the tail m, a linear prefix of T + _PREFIX
steps looks each power up among the keys of x^0 .. x^T; most cycles close
there. Past it, a monoid that records an exponent E, a multiple of every
cycle length, takes j = tE - 1 >= T (monoid_drazin); otherwise x^T lies on
the cycle, and the walk keeps one power until it meets x^T again
(_first_repeat). Then m is the least k <= T with x^k·x^s = x^k for a
multiple s of c (_absorption_index). Memory stays at the prefix's
T + _PREFIX powers. The budget max_steps, by default the monoid size capped at
_WALK_LIMIT, bounds m + c for the walk, and the prefix's steps plus the
products of x^(j+1) for the closed form; past it, CycleNotFoundError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import product
from math import lcm

from .exceptions import CycleNotFoundError, ParseError

# Default step limit of every power walk: a time budget, since a monoid's
# size (p^(n^2) for matrices) bounds nothing in practice. A walk's memory is
# bounded by the monoid's tail bound, not by its length.
_WALK_LIMIT = 10 ** 6

# Steps past the tail bound that every search takes one power at a time.
# Most fp-audit cycles close within them, and there a walk is cheaper than
# the closed form's square-and-multiply.
_PREFIX = 32


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


def _absorption_index(x, e, cap, mul, one, eq):
    """Least k in [0, cap] with x^k * e == x^k, else None.

    Absorption at k holds at every higher power; for n x n matrices the row
    space of x^k is constant from k = n on, so cap = n decides every power.
    """
    if cap >= 0 and eq(e, one):  # x^0 * e == e: no product needed
        return 0
    power = x
    for k in range(1, cap + 1):
        if eq(mul(power, e), power):
            return k
        power = mul(power, x)
    return None


def _fp_exponent(p, n, bits):
    """E = lcm(p - 1, p^2 - 1, ..., p^n - 1)·p^e with p^e >= n, a multiple of
    the cycle length of every n x n matrix over F_p (docs/concordance.md), or
    None once it has more than bits bits."""
    exponent = 1
    while exponent < n:
        exponent *= p
    for i in range(1, n + 1):
        exponent = lcm(exponent, p ** i - 1)
        if exponent.bit_length() > bits:
            return None
    return exponent


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
    _exponent = None  # bits -> a multiple of every cycle length, or None past bits bits

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


def _budget(mon, max_steps):
    """max_steps, or by default the monoid's size capped at _WALK_LIMIT."""
    if max_steps is not None:
        return max_steps
    if mon.size is None:
        raise ValueError("max_steps required for a monoid of unknown size")
    return min(mon.size, _WALK_LIMIT)


def _first_repeat(mon, x, max_steps):
    """Find the first repeat x^{m+c} = x^m among the powers of x, keyed by mon.key.

    Returns (kept, m, c): m is the tail length, c the cycle length, and kept
    maps e to x^e for every e the linear prefix reached. T is the monoid's
    tail bound, or the budget when it sets none, which leaves the prefix the
    whole walk. The prefix looks keys up among those of x^0 .. x^T only;
    the first hit is still x^{m+c}, since m <= T. Past it the walk keeps
    only its last power and stops when it is x^T again.
    """
    max_steps = _budget(mon, max_steps)
    tail = max_steps if mon._tail is None else mon._tail
    prefix = min(max_steps, tail + _PREFIX)
    key, mul, one = mon.key, mon.mul, mon.identity
    power = one
    kept = {0: power}
    seen = {key(power): 0}
    for step in range(1, prefix + 1):
        power = kept[step] = mul(power, x)
        k = key(power)
        m = seen.get(k)
        if m is not None:
            return kept, m, step - m
        if step <= tail:
            seen[k] = step
    if prefix < max_steps:
        # x^T lies on the cycle, and x^T·x^1 .. x^T·x^_PREFIX are not x^T.
        anchor = key(kept[tail])
        for c in range(_PREFIX + 1, max_steps + 1):
            power = mul(power, x)
            if key(power) == anchor:
                m = _absorption_index(x, _power(x, c, mul, lambda: one), tail, mul, one, mon.eq)
                if m + c <= max_steps:
                    return kept, m, c
                break
    # A numpy matrix (fp_matrix_monoid) is named by its rows, on one line.
    shown = x.tolist() if hasattr(x, "tolist") else x
    raise CycleNotFoundError("no repeated power of %r within %d steps" % (shown, max_steps))


def power_cycle(x, max_steps=None):
    """(m, c) of the first repeated power x^m = x^{m+c}."""
    return _first_repeat(x.monoid, x.value, max_steps)[1:]


def monoid_drazin(x, max_steps=None):
    """(x^D, index) for a finite-monoid element, by power-cycle detection.

    max_steps defaults to min(monoid size, _WALK_LIMIT). With x^m = x^{m+c}
    the first repeat, x^D = x^j for any j >= m that c divides j + 1: then
    x*x^D = x^{j+1} is the identity of the cycle. The index is the tail
    length m: x*x^D is a power in the cycle, so x^i * x * x^D lies in the
    cycle too, and for i < m it differs from x^i, which lies outside it.
    Past the linear prefix, a monoid with an exponent E takes j = tE - 1
    for the least t with j >= T, its tail bound, and m is the least k <= T
    with x^k * x^{j+1} = x^k.
    """
    mon = x.monoid
    if mon._exponent is None:
        return _cycle_drazin(x, max_steps)[:2]
    max_steps = _budget(mon, max_steps)
    prefix = min(max_steps, mon._tail + _PREFIX)
    try:
        return _cycle_drazin(x, prefix)[:2]
    except CycleNotFoundError:
        if prefix == max_steps:
            raise
    # x^(j+1) takes bitlen(j) + popcount(j) - 1 products, at least bitlen(E) - 1
    # as j >= E - 1: an E of more bits than the steps left plus one is past the budget.
    exponent = mon._exponent(max_steps - prefix + 1)
    j = exponent and -(-(mon._tail + 1) // exponent) * exponent - 1
    if j is None or prefix + j.bit_length() + bin(j).count("1") - 1 > max_steps:
        raise CycleNotFoundError("x^D as a power of x takes more than the budget of %d steps" % max_steps)
    mul, one = mon.mul, mon.identity
    inverse = _power(x.value, j, mul, lambda: one)
    index = _absorption_index(x.value, mul(inverse, x.value), mon._tail, mul, one, mon.eq)
    return mon.element(inverse), index


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

    Exists for Route C: power cycles in GL(n, p) reach thousands of steps,
    so the walk multiplies numpy arrays and keys its linear prefix by raw
    bytes. The monoid records T = n and the exponent E (_fp_exponent), so
    monoid_drazin answers in closed form past the prefix. An entry of a
    product sums n terms below (p-1)^2 before the reduction, so
    n*(p-1)^2 must stay below 2^63.
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
    monoid._exponent = partial(_fp_exponent, p, n)
    return monoid
