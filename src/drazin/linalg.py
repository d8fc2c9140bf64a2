"""Immutable exact matrices and the elimination toolkit.

A Matrix stores its entries as a tuple of int rows over one positive
denominator: entry (i, j) is ints[i][j] / den. Over Q the pair is kept
canonical, gcd(den, every entry) = 1, so == and hash compare the ints and
den as tuples and no Fraction is built until a caller reads entries,
m[i, j] or to_json. Over F_p the ints are residues in [0, p) and den is 1.
Every operation that can leave a common factor (a product, a sum, a
scaling, a selection of rows or columns) divides it out once at the end.

Sums, differences, negation, scaling and kernel bases map one operator
over the ints (reduced once mod p over F_p). The product and the reduced
row echelon form run on plain Python ints, one kernel per field:

* Over Q, a product is the integer product of the two int matrices over
  the product of the two denominators. From _PACK_GATE rows and columns
  on, it runs on packed slots (a signed Kronecker substitution): each row
  of the right factor becomes one int of signed slots, s bits each, the
  narrowest of 8, 16, 32 and 64 that holds both the largest entry of the
  right factor and the bound inner * max|a| * max|b| on every dot product,
  and one sum of int products forms a whole output row. A bias of
  2**(s - 1) in every slot makes the slots nonnegative, so none borrows
  from the next, and XOR with the same bias leaves each dot product's two's
  complement, which memoryview.cast reads back in C. Below the gate, or
  when a dot product needs more than 63 bits, one sum per entry runs.
  rref runs Bareiss's fraction-free Gauss-Jordan on the stored ints and
  ends with R as the eliminated ints over the last pivot. The stored rows
  are the matrix's rows times den, and scaling by a nonzero number changes
  neither a row's zero pattern nor the row space, so the pivots and R are
  those of Gauss-Jordan over Fractions, entry for entry.
* Over F_p, both kernels rely on the entries being residues in [0, p).
  When a whole dot product fits in one byte, cols * (p - 1)**2 < 256, a
  product packs each row of the right factor into one int, one byte per
  entry (a Kronecker substitution), so one sum of int products forms a
  whole output row with no carry between bytes, and bytes.translate
  through a table of residues mod p unpacks it. When p * (p - 1) < 256
  (p <= 13), rref keeps each row as bytes, scales the pivot row P as the
  int P * inv and clears a row R as the int R + (p - a) * P, whose bytes
  are at most p * (p - 1), each reduced by the same table. Past either
  bound the same loops run on tuples of ints, reducing mod p once per dot
  product and once per entry of an eliminated row.

rank runs the same kernels by forward elimination only (Bareiss's
original scheme over Q): each pivot clears only the rows below it, over Q
only the columns right of it, and R is never formed; the pivots, hence
the rank, are those of rref.

Pivoting is deterministic (the first row with a nonzero entry in the
current column), and the canonical bases and factorizations are read off
the rref. Degenerate shapes (0-by-n, n-by-0, 0-by-0) are legal throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import chain
from math import gcd, lcm
from operator import add, mul, neg, sub
from sys import byteorder

from .exceptions import (
    FieldMismatchError,
    InternalInconsistencyError,
    NotSquareError,
    ParseError,
    ShapeMismatchError,
    SingularMatrixError,
)
from .fields import Rationals, _digit_limit
from .finite import _power


def _coerce(field, v):
    if isinstance(field, Rationals):
        if isinstance(v, Fraction) or (isinstance(v, int) and not isinstance(v, bool)):
            return v
        raise TypeError("Q entries must be Fraction or int, got %r" % (v,))
    if isinstance(v, int) and not isinstance(v, bool):
        return v % field.p
    raise TypeError("F_p entries must be int, got %r" % (v,))


def _over_common_den(field, grid):
    """(ints, den) for a grid of scalars: over Q, den is the lcm of the denominators.

    The result is canonical: a prime's highest power in den divides the
    denominator of some entry exactly, and that entry's numerator is prime
    to it.
    """
    if not isinstance(field, Rationals):
        return grid, 1
    den = lcm(*[v.denominator for row in grid for v in row])
    return tuple(tuple([v.numerator * (den // v.denominator) for v in row]) for row in grid), den


def _map_entries(field, op, *grids):
    """op over the entries of same-shaped row tuples, reduced once mod p over F_p."""
    if isinstance(field, Rationals):
        return tuple(tuple(map(op, *rows)) for rows in zip(*grids))
    p = field.p
    return tuple(tuple([v % p for v in map(op, *rows)]) for rows in zip(*grids))


def _over(m, den):
    """m's ints rescaled to the denominator den, a multiple of m's own."""
    if m._den == den:
        return m._ints
    k = den // m._den
    return tuple(tuple([k * v for v in row]) for row in m._ints)


# The most rows, and the most columns, Matrix.from_json accepts: it bounds
# the work an input can ask for, since a product of two n x n matrices costs
# n**3 scalar steps and one answer takes dozens of products.
_DIMENSION_LIMIT = 100

# v % p for every byte v, one table per prime that either byte kernel takes:
# both bounds allow p <= 16 only.
_RESIDUES = {p: bytes(v % p for v in range(256)) for p in (2, 3, 5, 7, 11, 13)}


def _ratio(v, den):
    """The reduced "num/den" text of v / den."""
    g = gcd(v, den)
    return "%d/%d" % (v // g, den // g)


class Matrix:
    """A rows-by-cols matrix over a Field: int rows over one positive denominator."""

    __slots__ = ("field", "rows", "cols", "_ints", "_den")

    def __init__(self, field, entries, cols=None):
        grid = tuple(tuple(_coerce(field, v) for v in row) for row in entries)
        if grid:
            width = len(grid[0])
            if any(len(row) != width for row in grid):
                raise ShapeMismatchError("ragged rows")
            if cols is not None and cols != width:
                raise ShapeMismatchError("cols=%d but rows have %d entries" % (cols, width))
            cols = width
        else:
            if cols is None:
                cols = 0
        ints, den = _over_common_den(field, grid)
        _set_field(self, field)
        _set_rows(self, len(ints))
        _set_cols(self, cols)
        _set_ints(self, ints)
        _set_den(self, den)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def _raw(cls, field, ints, cols, den=1):
        """Internal constructor for ints over den, brought to canonical form.

        den may be negative or share a factor with every entry; both are
        divided out here, the one place that does so.
        """
        if den != 1:
            g = gcd(den, *chain.from_iterable(ints))
            if den < 0:
                g = -g
            if g != 1:
                ints = tuple(tuple([v // g for v in row]) for row in ints)
                den //= g
        m = object.__new__(cls)
        _set_field(m, field)
        _set_rows(m, len(ints))
        _set_cols(m, cols)
        _set_ints(m, ints)
        _set_den(m, den)
        return m

    @classmethod
    def identity(cls, field, n):
        return cls._raw(field, tuple((0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n)), n)

    @classmethod
    def zeros(cls, field, rows, cols):
        return cls._raw(field, tuple((0,) * cols for _ in range(rows)), cols)

    @property
    def entries(self):
        """The entries as row tuples: reduced Fractions over Q, ints in [0, p) over F_p."""
        if not isinstance(self.field, Rationals):
            return self._ints
        den = self._den
        return tuple(tuple([Fraction(v, den) for v in row]) for row in self._ints)

    @property
    def is_square(self):
        return self.rows == self.cols

    def __getitem__(self, key):
        i, j = key
        v = self._ints[i][j]
        return Fraction(v, self._den) if isinstance(self.field, Rationals) else v

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.field == other.field
            and self.cols == other.cols
            and self._den == other._den
            and self._ints == other._ints
        )

    def __hash__(self):
        return hash((self.field, self.cols, self._den, self._ints))

    def __repr__(self):
        return "Matrix(%r, %dx%d, %r)" % (self.field, self.rows, self.cols, self.entries)

    def _check_field(self, other):
        if self.field is not other.field and self.field != other.field:
            raise FieldMismatchError(
                "mixed fields %r and %r" % (self.field, other.field)
            )

    def __add__(self, other):
        return self._entrywise(other, add)

    def __sub__(self, other):
        return self._entrywise(other, sub)

    def _entrywise(self, other, op):
        """self op other in one pass; both operators raise the errors of +."""
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatchError(
                "add %dx%d to %dx%d" % (self.rows, self.cols, other.rows, other.cols)
            )
        den = lcm(self._den, other._den)
        rows = _map_entries(self.field, op, _over(self, den), _over(other, den))
        return Matrix._raw(self.field, rows, self.cols, den)

    def __neg__(self):
        return Matrix._raw(self.field, _map_entries(self.field, neg, self._ints), self.cols, self._den)

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_field(other)
        if self.cols != other.rows:
            raise ShapeMismatchError(
                "multiply %dx%d by %dx%d"
                % (self.rows, self.cols, other.rows, other.cols)
            )
        if self.rows == 0 or self.cols == 0 or other.cols == 0:
            return Matrix.zeros(self.field, self.rows, other.cols)
        if isinstance(self.field, Rationals):
            rows = None
            if self.rows >= _PACK_GATE and other.cols >= _PACK_GATE:
                rows = _packed_product(self._ints, other._ints, other.cols)
            if rows is None:
                bt = tuple(zip(*other._ints))
                rows = tuple(tuple([sum(map(mul, row, col)) for col in bt]) for row in self._ints)
            return Matrix._raw(self.field, rows, other.cols, self._den * other._den)
        p = self.field.p
        if self.cols * (p - 1) ** 2 < 256:
            rows = _byte_product(self._ints, other._ints, other.cols, _RESIDUES[p])
        else:
            bt = tuple(zip(*other._ints))
            rows = tuple(tuple([sum(map(mul, row, col)) % p for col in bt]) for row in self._ints)
        return Matrix._raw(self.field, rows, other.cols)

    def __pow__(self, k):
        if not self.is_square:
            raise NotSquareError("power of a %dx%d matrix" % (self.rows, self.cols))
        return _power(self, k, Matrix.__mul__, partial(Matrix.identity, self.field, self.rows))

    def transpose(self):
        rows = tuple(zip(*self._ints)) if self._ints else ((),) * self.cols
        return Matrix._raw(self.field, rows, self.rows, self._den)

    def scale(self, c):
        c = _coerce(self.field, c)
        rows = _map_entries(self.field, partial(mul, c.numerator), self._ints)
        return Matrix._raw(self.field, rows, self.cols, self._den * c.denominator)

    def is_zero(self):
        return not any(map(any, self._ints))

    def take_rows(self, indices):
        rows = tuple(self._ints[i] for i in indices)
        return Matrix._raw(self.field, rows, self.cols, self._den)

    def take_cols(self, indices):
        rows = tuple(tuple([row[j] for j in indices]) for row in self._ints)
        return Matrix._raw(self.field, rows, len(indices), self._den)

    def to_json(self):
        """{"rows", "cols", "entries"}: "num/den" strings over Q, ints over F_p.

        A Q entry whose reduced numerator or denominator has more digits than
        Python converts to text (sys.get_int_max_str_digits) raises a
        ValueError that names the limit and none of the digits.
        """
        if isinstance(self.field, Rationals):
            den = self._den
            try:
                entries = [[_ratio(v, den) for v in row] for row in self._ints]
            except ValueError as exc:
                raise ValueError(
                    "answer entry over the %d-digit limit: its numerator or denominator "
                    "has more digits than Python converts to text" % _digit_limit()
                ) from exc
        else:
            entries = [list(row) for row in self._ints]
        return {"rows": self.rows, "cols": self.cols, "entries": entries}

    @classmethod
    def from_json(cls, field, obj):
        if isinstance(obj, list):
            # bare array-of-rows form, shape inferred
            cols = len(obj[0]) if obj and isinstance(obj[0], list) else 0
            obj = {"rows": len(obj), "cols": cols, "entries": obj}
        if not isinstance(obj, dict):
            raise ParseError("matrix must be an object or array of rows")
        try:
            rows, cols, entries = obj["rows"], obj["cols"], obj["entries"]
        except (KeyError, TypeError) as exc:
            raise ParseError("matrix needs rows, cols, entries") from exc
        if not isinstance(entries, list) or not all(isinstance(r, list) for r in entries):
            raise ParseError("entries must be an array of rows, each an array")
        for name, size in (("rows", rows), ("cols", cols)):
            if not isinstance(size, int) or isinstance(size, bool) or size < 0:
                raise ParseError("%s must be a natural number, got %r" % (name, size))
            if size > _DIMENSION_LIMIT:
                raise ParseError(
                    "matrix has %d %s, over the limit of %d rows and %d columns"
                    % (size, name, _DIMENSION_LIMIT, _DIMENSION_LIMIT)
                )
        if len(entries) != rows:
            raise ParseError("entries has %r rows, expected %r" % (len(entries), rows))
        dec = field.scalar_from_json
        grid = []
        for row in entries:
            if len(row) != cols:
                raise ParseError("row of length %r, expected %r" % (len(row), cols))
            grid.append(tuple(dec(a) for a in row))
        ints, den = _over_common_den(field, tuple(grid))
        return cls._raw(field, ints, cols, den)


# The slots' own setters, which fill a new Matrix without the attribute
# lookup of object.__setattr__; Matrix.__setattr__ refuses every assignment.
_set_field, _set_rows, _set_cols, _set_ints, _set_den = (
    getattr(Matrix, name).__set__ for name in Matrix.__slots__
)


def _byte_product(a, b, ncols, table):
    """a * b over F_p for residues with len(b) * (p - 1)**2 < 256, table = _RESIDUES[p].

    Row t of b packs into one int with entry j in byte j. The sum over t of
    a[i][t] times pack t holds the dot product of row i and column j in byte
    j, below 256, so no byte carries into the next.
    """
    packs = [int.from_bytes(bytes(row), "little") for row in b]
    return tuple(
        tuple(sum(map(mul, row, packs)).to_bytes(ncols, "little").translate(table)) for row in a
    )


# The fewest rows, and the fewest columns, of a Q product that runs on packed
# slots. On a 2-core Xeon VM with Python 3.11.7, against one sum per entry,
# n x n products of 4- to 24-bit entries took 0.79-1.05x the time at n = 6
# and 7, 0.57-0.79x at n = 8 and 0.36-0.40x at n = 16, and 8 x 8 outputs
# 0.70-0.79x for every inner size from 1 to 12; with 4 rows or 4 columns,
# up to 1.7x.
_PACK_GATE = 8

# (bits, typecode) of the packed product's signed slots, narrowest first:
# the codes of array and memoryview.cast for 1-, 2-, 4- and 8-byte ints.
_SLOTS = ((8, "b"), (16, "h"), (32, "i"), (64, "q"))


def _packed_product(a, b, ncols):
    """The integer product a * b on packed signed slots, or None past 63 bits.

    The slot width s is the narrowest in _SLOTS with
    max(len(b) * max|a| * max|b|, max|b|) < 2**(s - 1): every entry of b
    and every dot product fits a signed slot. array writes row t of b as
    two's complement slots; XOR with the bias, 2**(s - 1) in every slot,
    makes each slot its entry plus 2**(s - 1), so subtracting the bias
    leaves sum_j b[t][j] * 2**(s*j). The sum over t of a[i][t] times pack t
    holds dot product j of row i in slot j, and the same two steps reversed
    turn it back into two's complement slots.
    """
    amax = max(map(abs, chain.from_iterable(a)))
    bmax = max(map(abs, chain.from_iterable(b)))
    bound = max(len(b) * amax * bmax, bmax)
    for bits, code in _SLOTS:
        if bound >> (bits - 1) == 0:
            break
    else:
        return None
    from array import array

    width = bits // 8 * ncols
    bias = int.from_bytes((b"\0" * (bits // 8 - 1) + b"\x80") * ncols, "little")
    packs = [(int.from_bytes(array(code, row), byteorder) ^ bias) - bias for row in b]
    return tuple(
        tuple(memoryview(((t + bias) ^ bias).to_bytes(width, byteorder)).cast(code).tolist())
        for t in (sum(map(mul, row, packs)) for row in a)
    )


def hstack(a, b):
    a._check_field(b)
    if a.rows != b.rows:
        raise ShapeMismatchError("hstack %d rows with %d rows" % (a.rows, b.rows))
    den = lcm(a._den, b._den)
    rows = tuple(ra + rb for ra, rb in zip(_over(a, den), _over(b, den)))
    return Matrix._raw(a.field, rows, a.cols + b.cols, den)


def vstack(a, b):
    a._check_field(b)
    if a.cols != b.cols:
        raise ShapeMismatchError("vstack %d cols with %d cols" % (a.cols, b.cols))
    den = lcm(a._den, b._den)
    return Matrix._raw(a.field, _over(a, den) + _over(b, den), a.cols, den)


def block_diag(a, b):
    a._check_field(b)
    den = lcm(a._den, b._den)
    top = tuple(row + (0,) * b.cols for row in _over(a, den))
    bottom = tuple((0,) * a.cols + row for row in _over(b, den))
    return Matrix._raw(a.field, top + bottom, a.cols + b.cols, den)


def rref(m):
    """Reduced row echelon form.

    Returns (R, pivots, rank) with R a Matrix of the same shape, pivots the
    tuple of pivot column indices, and rank = len(pivots). Pivoting is
    deterministic: first row with a nonzero entry in the current column.
    """
    rows, pivots, den = _eliminate(m)
    reduced = Matrix._raw(m.field, tuple(map(tuple, rows)), m.cols, den)
    return reduced, tuple(pivots), len(pivots)


def rank(m):
    """len(rref(m)[1]), by forward elimination only: R is never formed."""
    return len(_eliminate(m, True)[1])


def _eliminate(m, forward=False):
    """(rows, pivots, den) of m's field's kernel: Gauss-Jordan, or forward only.

    forward clears only the rows below each pivot. _pivots reads nothing
    else, so the pivots are those of Gauss-Jordan, but the rows are not R.
    """
    if isinstance(m.field, Rationals):
        return _q_rref(m._ints, m.cols, forward)
    return (*_fp_rref(m._ints, m.cols, m.field.p, forward), 1)


def _pivots(rows, ncols):
    """Yield (r, c) for each pivot of Gauss-Jordan on rows, in place.

    Columns are scanned left to right; the first row at or below r with a
    nonzero entry in column c is swapped up to row r before the yield. The
    caller clears column c outside row r before asking for the next pivot.
    """
    r = 0
    for c in range(ncols):
        if r == len(rows):
            return
        for i in range(r, len(rows)):
            if rows[i][c]:
                rows[r], rows[i] = rows[i], rows[r]
                yield r, c
                r += 1
                break


def _fp_rref(entries, ncols, p, forward=False):
    """Gauss-Jordan over F_p on ints in [0, p), reducing each entry once per step;
    forward clears only the rows below each pivot."""
    if p * (p - 1) < 256:
        return _byte_rref(entries, ncols, p, _RESIDUES[p], forward)
    rows = [list(row) for row in entries]
    pivots = []
    for r, c in _pivots(rows, ncols):
        prow = rows[r]
        inv = pow(prow[c], -1, p)
        if inv != 1:
            prow = rows[r] = [x * inv % p for x in prow]
        for i in range(r + 1 if forward else 0, len(rows)):
            row = rows[i]
            a = row[c]
            if a and i != r:
                rows[i] = [(x - a * y) % p for x, y in zip(row, prow)]
        pivots.append(c)
    return rows, pivots


def _byte_rref(entries, ncols, p, table, forward=False):
    """_fp_rref with each row as bytes, for p * (p - 1) < 256.

    With P the scaled pivot row as an int, one byte per entry, a row R with
    a in the pivot column becomes the bytes of R + (p - a) * P: each byte is
    at most (p - 1) + (p - 1)**2 = p * (p - 1) < 256, so none carries, and
    table reduces them mod p.
    """
    rows = list(map(bytes, entries))
    pivots = []
    for r, c in _pivots(rows, ncols):
        pivot = int.from_bytes(rows[r], "little")
        inv = pow(rows[r][c], -1, p)
        if inv != 1:
            rows[r] = (pivot * inv).to_bytes(ncols, "little").translate(table)
            pivot = int.from_bytes(rows[r], "little")
        for i in range(r + 1 if forward else 0, len(rows)):
            row = rows[i]
            a = row[c]
            if a and i != r:
                clear = int.from_bytes(row, "little") + (p - a) * pivot
                rows[i] = clear.to_bytes(ncols, "little").translate(table)
        pivots.append(c)
    return rows, pivots


def _q_rref(ints, ncols, forward=False):
    """Bareiss's fraction-free Gauss-Jordan on a matrix's stored ints.

    Returns (rows, pivots, den) with R = rows / den. Every row other than
    the pivot row becomes (p*row - a*prow) // prev, with p the pivot, a the
    row's entry in the pivot column and prev the previous pivot (1 at
    first). Sylvester's identity makes each division exact. A row with
    a = 0 takes the same formula: p*row is a multiple of prev, while p
    itself need not be. Every row stays a nonzero multiple of its
    counterpart in Gauss-Jordan over Fractions, so the zero pattern, hence
    the pivots, is the same. Each pivot row ends with the last pivot in its
    pivot column, so R is the rows over that pivot.

    forward clears only the rows below each pivot, and only the columns
    right of it: the rows below a pivot are zero up to its column, and
    Gauss-Jordan computes them from themselves and the pivot rows alone, so
    they are its rows below, entry for entry.
    """
    rows = list(ints)
    pivots = []
    prev = 1
    for r, c in _pivots(rows, ncols):
        prow = rows[r]
        p = prow[c]
        lead = c + 1 if forward else 0
        head, tail = [0] * lead, prow[lead:]
        for i in range(r + 1 if forward else 0, len(rows)):
            if i != r:
                row = rows[i]
                a = row[c]
                rows[i] = head + [(p * x - a * y) // prev for x, y in zip(row[lead:], tail)]
        prev = p
        pivots.append(c)
    return rows, pivots, prev


def kernel_basis(m):
    """Canonical kernel basis as a cols-by-nullity matrix.

    Column j of the result is the standard rref basis vector for the j-th
    free column (free entry set to one, pivot entries filled from the
    reduced rows, ordered by ascending free column index).
    """
    reduced, pivots, rk = rref(m)
    field, n, den = reduced.field, reduced.cols, reduced._den
    free = sorted(set(range(n)).difference(pivots))
    # for the i-th pivot pc, row pc is minus row i of R at the free columns;
    # for the j-th free column fc, row fc is row j of the identity (den over den)
    rows = [None] * n
    block = [[row[fc] for fc in free] for row in reduced._ints[:rk]]
    for pc, row in zip(pivots, _map_entries(field, neg, block)):
        rows[pc] = row
    for j, fc in enumerate(free):
        rows[fc] = (0,) * j + (den,) + (0,) * (len(free) - 1 - j)
    return Matrix._raw(field, tuple(rows), len(free), den)


def image_basis(m):
    """Canonical image basis: the pivot columns of m itself (rows-by-rank)."""
    _, pivots, _ = rref(m)
    return m.take_cols(pivots)


@dataclass(frozen=True)
class RankFactorization:
    left: Matrix
    right: Matrix
    rank: int


def full_rank_factorization(m):
    """m = left * right with left of full column rank, right of full row rank.

    left is the pivot columns of m (rows-by-rank), right the nonzero rows of
    rref(m) (rank-by-cols); the pivot columns of right form an identity
    block, which later constructions rely on.
    """
    return _factor(m, rref(m))


def _factor(m, triple):
    """full_rank_factorization of m from its finished rref triple."""
    reduced, pivots, rk = triple
    left = m.take_cols(pivots)
    right = reduced.take_rows(range(rk))
    return RankFactorization(left=left, right=right, rank=rk)


def invert_matrix(m):
    """Exact inverse of a square matrix; SingularMatrixError if rank drops."""
    if not m.is_square:
        raise NotSquareError("invert a %dx%d matrix" % (m.rows, m.cols))
    n = m.rows
    aug = hstack(m, Matrix.identity(m.field, n))
    reduced, pivots, _ = rref(aug)
    rk = sum(1 for p in pivots if p < n)  # [m | I] has rank n; m's pivots lie left of n
    if rk < n:
        raise SingularMatrixError("matrix of rank %d is singular" % rk)
    return reduced.take_cols(range(n, 2 * n))


def _invert_or_bug(m, why):
    """invert_matrix(m) where a singular m means a library bug, reported as why."""
    try:
        return invert_matrix(m)
    except SingularMatrixError as exc:
        raise InternalInconsistencyError(why) from exc
