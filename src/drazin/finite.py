"""Drazin inverses outside matrices: endofunctions on finite sets and
elements of finite monoids given by callbacks.

An endofunction stabilizes: the image chain im(f) ⊇ im(f²) ⊇ ... becomes
constant at some k and f permutes the stable set, so inverting there and
pushing through f^k gives the Drazin inverse. A finite-monoid element
repeats a power, x^m = x^{m+c}, and x^D = x^j for the one j in [m, m+c)
with c | j + 1. The search for that first repeat has two steps, T a bound
on the tail m:

- a linear prefix of T + _PREFIX steps looks each power up among the keys
  of x^0 .. x^T, which is where most cycles close;
- past it, y = x^T lies on the cycle, so c is the first j with y·x^j = y.
  Blocks of consecutive powers, starting with the prefix's last _PREFIX
  and doubling up to _BLOCK, are multiplied at once and compared with y
  only, and m is the least k <= T with x^k·x^c = x^k.

Neither step holds more than about T + _PREFIX + 2·_BLOCK powers at a
time, so memory does not grow with the cycle. The search covers
m + c <= max_steps when max_steps is given, else the monoid size capped
at _WALK_LIMIT; past it it raises CycleNotFoundError.
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

# Steps past the tail bound that the walk takes one power at a time, and the
# most powers one block of the anchored search multiplies. Set by measuring
# fp-audit: with no prefix, blocks slowed the short cycles that most answers
# have; a larger block raised the peak memory and gained no speed.
_PREFIX = 32
_BLOCK = 128


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

    def _block(self, powers, step, anchor, grow):
        """One block of the anchored search in _first_repeat, element by element.

        Returns (block, offset): offset indexes the first of the products
        z·step, z in powers, equal to anchor, or is None; block is those
        products, after powers when grow is true. The products stop at the
        first hit, after which the search needs no block. fp_matrix_monoid
        sets a numpy version on its instance.
        """
        mul, key = self.mul, self.key
        goal = key(anchor)
        products = []
        for z in powers:
            product = mul(z, step)
            if key(product) == goal:
                return products, len(products)
            products.append(product)
        return (powers + products if grow else products), None

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
    """Find the first repeat x^{m+c} = x^m among the powers of x, keyed by mon.key.

    Returns (kept, m, c): m is the tail length, c the cycle length, and kept
    maps e to x^e for every e the linear prefix reached, and for e = c - 1
    when the repeat is found past it. T is the monoid's tail
    bound, or the budget when it sets none, which leaves the prefix the
    whole walk. The prefix looks keys up among those of x^0 .. x^T only;
    the first hit is still x^{m+c}, since m <= T.
    """
    if max_steps is None:
        if mon.size is None:
            raise ValueError("max_steps required for a monoid of unknown size")
        max_steps = min(mon.size, _WALK_LIMIT)
    tail = max_steps if mon._tail is None else mon._tail
    prefix = min(max_steps, tail + _PREFIX)
    key = mon.key
    power = mon.identity
    kept = {0: power}
    seen = {key(power): 0}
    for step in range(1, prefix + 1):
        power = kept[step] = mon.mul(power, x)
        k = key(power)
        m = seen.get(k)
        if m is not None:
            return kept, m, step - m
        if step <= tail:
            seen[k] = step
    if prefix < max_steps:
        # The prefix ends with x^T·x^1 .. x^T·x^_PREFIX; x^_PREFIX moves them on.
        block = [kept[e] for e in range(tail + 1, prefix + 1)]
        c = _anchored_cycle(mon, block, kept[_PREFIX], kept[tail], max_steps)
        if c is not None:
            if c - 1 not in kept:  # kept holds every power up to the prefix's end
                q, r = divmod(c - 1, prefix)
                kept[c - 1] = mon.mul(_power(kept[prefix], q, mon.mul, lambda: mon.identity), kept[r])
            x_c = mon.mul(kept[c - 1], x)
            m = next(k for k in range(tail + 1) if key(mon.mul(kept[k], x_c)) == key(kept[k]))
            if m + c <= max_steps:
                return kept, m, c
    # A numpy matrix (fp_matrix_monoid) is named by its rows, on one line.
    shown = x.tolist() if hasattr(x, "tolist") else x
    raise CycleNotFoundError(
        "no repeated power of %r within %d steps" % (shown, max_steps)
    )


def _anchored_cycle(mon, block, step, anchor, max_steps):
    """The least c with anchor·x^c = anchor, or None if c > max_steps.

    block holds anchor·x^1 .. anchor·x^w, none of them anchor, and step is
    x^w. Each _block call moves the block on by its width, so it always
    holds the powers anchor·x^i for the last width exponents i up to j;
    the width doubles up to _BLOCK, then the block slides.
    """
    j = width = len(block)
    while j < max_steps:
        grow = width < _BLOCK
        block, offset = mon._block(block, step, anchor, grow)
        if offset is not None:
            return j + 1 + offset
        j += width
        if grow:
            step = mon.mul(step, step)
            width *= 2
    return None


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
    thousands of steps, so the walk multiplies numpy arrays and keys its
    linear prefix by raw bytes. Past the prefix, one block of up to _BLOCK
    consecutive powers is a (b, n, n) array: one broadcast product moves it
    on and one comparison finds x^T in it, so memory stays constant however
    long the cycle. An entry of a product sums n terms below (p-1)^2 before
    the reduction, so n*(p-1)^2 must stay below 2^63.
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

    def block(powers, step, anchor, grow):
        products = np.matmul(powers, step) % p  # powers: (b, n, n), or a list of b arrays
        equal = (products == anchor).all(axis=(1, 2))
        offset = int(equal.argmax())
        return (
            np.concatenate((powers, products)) if grow else products,
            offset if equal[offset] else None,
        )

    monoid._block = block
    return monoid
