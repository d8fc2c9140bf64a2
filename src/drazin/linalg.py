"""Immutable exact matrices and the elimination toolkit.

All matrix arithmetic runs on the plain scalars with the native operators,
without a Field method call per scalar: each operation looks at the field
once. Sums, differences, negation, scaling and kernel bases map one operator
over the entries (reduced once mod p over F_p). The product and the reduced
row echelon form run on plain Python ints, one kernel per field:

* Over Q, each row of the left factor and each column of the right one is
  scaled by the lcm of its denominators; an entry of the product is the
  integer dot product over the two scales, one Fraction per entry. rref
  scales each row the same way and runs Bareiss's fraction-free
  Gauss-Jordan on the integers, dividing by the last pivot once at the end.
  Scaling a row by a nonzero number changes neither its zero pattern nor
  its row space, so the pivots and R are those of Gauss-Jordan over
  Fractions, entry for entry.
* Over F_p, the same loops reduce mod p: once per dot product, and once per
  entry of an eliminated row.

Pivoting is deterministic (the first row with a nonzero entry in the
current column), and the canonical bases and factorizations are read off
the rref. Degenerate shapes (0-by-n, n-by-0, 0-by-0) are legal throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import lcm
from operator import add, mul, neg, sub

from .exceptions import (
    FieldMismatchError,
    InternalInconsistencyError,
    NotSquareError,
    ParseError,
    ShapeMismatchError,
    SingularMatrixError,
)
from .fields import Rationals


def _coerce(field, v):
    if isinstance(field, Rationals):
        if isinstance(v, Fraction):
            return v
        if isinstance(v, int) and not isinstance(v, bool):
            return Fraction(v)
        raise TypeError("Q entries must be Fraction or int, got %r" % (v,))
    if isinstance(v, int) and not isinstance(v, bool):
        return v % field.p
    raise TypeError("F_p entries must be int, got %r" % (v,))


def _map_entries(field, op, *grids):
    """op over the entries of same-shaped row tuples, reduced once mod p over F_p."""
    if isinstance(field, Rationals):
        return tuple(tuple(map(op, *rows)) for rows in zip(*grids))
    p = field.p
    return tuple(tuple([v % p for v in map(op, *rows)]) for rows in zip(*grids))


class Matrix:
    """A rows-by-cols matrix over a Field, stored as a tuple of row tuples."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field, entries, cols=None):
        entries = tuple(tuple(_coerce(field, v) for v in row) for row in entries)
        if entries:
            width = len(entries[0])
            if any(len(row) != width for row in entries):
                raise ShapeMismatchError("ragged rows")
            if cols is not None and cols != width:
                raise ShapeMismatchError("cols=%d but rows have %d entries" % (cols, width))
            cols = width
        else:
            if cols is None:
                cols = 0
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", len(entries))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def _raw(cls, field, entries, cols):
        """Internal constructor for already-canonical entries."""
        m = object.__new__(cls)
        object.__setattr__(m, "field", field)
        object.__setattr__(m, "rows", len(entries))
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "entries", entries)
        return m

    @classmethod
    def identity(cls, field, n):
        one, zero = (field.one,), (field.zero,)
        rows = tuple(zero * i + one + zero * (n - 1 - i) for i in range(n))
        return cls._raw(field, rows, n)

    @classmethod
    def zeros(cls, field, rows, cols):
        zero = field.zero
        return cls._raw(field, tuple((zero,) * cols for _ in range(rows)), cols)

    @property
    def is_square(self):
        return self.rows == self.cols

    def __getitem__(self, key):
        i, j = key
        return self.entries[i][j]

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.field == other.field
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.field, self.cols, self.entries))

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
        rows = _map_entries(self.field, op, self.entries, other.entries)
        return Matrix._raw(self.field, rows, self.cols)

    def __neg__(self):
        return Matrix._raw(self.field, _map_entries(self.field, neg, self.entries), self.cols)

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
            rows = _q_product(self.entries, other.entries)
        else:
            p = self.field.p
            bt = tuple(zip(*other.entries))
            rows = tuple(
                tuple([sum(map(mul, row, col)) % p for col in bt]) for row in self.entries
            )
        return Matrix._raw(self.field, rows, other.cols)

    def __pow__(self, k):
        if not self.is_square:
            raise NotSquareError("power of a %dx%d matrix" % (self.rows, self.cols))
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a natural number")
        result = None
        base = self
        while k:
            if k & 1:
                result = base if result is None else result * base
            base = base * base if k > 1 else base
            k >>= 1
        return Matrix.identity(self.field, self.rows) if result is None else result

    def transpose(self):
        rows = tuple(zip(*self.entries)) if self.entries else ((),) * self.cols
        return Matrix._raw(self.field, rows, self.rows)

    def scale(self, c):
        rows = _map_entries(self.field, partial(mul, _coerce(self.field, c)), self.entries)
        return Matrix._raw(self.field, rows, self.cols)

    def is_zero(self):
        zero = self.field.zero
        return all(a == zero for row in self.entries for a in row)

    def take_rows(self, indices):
        rows = tuple(self.entries[i] for i in indices)
        return Matrix._raw(self.field, rows, self.cols)

    def take_cols(self, indices):
        rows = tuple(tuple(row[j] for j in indices) for row in self.entries)
        return Matrix._raw(self.field, rows, len(indices))

    def to_json(self):
        enc = self.field.scalar_to_json
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[enc(a) for a in row] for row in self.entries],
        }

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
        if len(entries) != rows:
            raise ParseError("entries has %r rows, expected %r" % (len(entries), rows))
        dec = field.scalar_from_json
        out = []
        for row in entries:
            if len(row) != cols:
                raise ParseError("row of length %r, expected %r" % (len(row), cols))
            out.append(tuple(dec(a) for a in row))
        return cls._raw(field, tuple(out), cols)


def hstack(a, b):
    a._check_field(b)
    if a.rows != b.rows:
        raise ShapeMismatchError("hstack %d rows with %d rows" % (a.rows, b.rows))
    rows = tuple(ra + rb for ra, rb in zip(a.entries, b.entries))
    return Matrix._raw(a.field, rows, a.cols + b.cols)


def vstack(a, b):
    a._check_field(b)
    if a.cols != b.cols:
        raise ShapeMismatchError("vstack %d cols with %d cols" % (a.cols, b.cols))
    return Matrix._raw(a.field, a.entries + b.entries, a.cols)


def block_diag(a, b):
    a._check_field(b)
    zero = a.field.zero
    top = tuple(row + (zero,) * b.cols for row in a.entries)
    bottom = tuple((zero,) * a.cols + row for row in b.entries)
    return Matrix._raw(a.field, top + bottom, a.cols + b.cols)


def rref(m):
    """Reduced row echelon form.

    Returns (R, pivots, rank) with R a Matrix of the same shape, pivots the
    tuple of pivot column indices, and rank = len(pivots). Pivoting is
    deterministic: first row with a nonzero entry in the current column.
    """
    if isinstance(m.field, Rationals):
        rows, pivots = _q_rref(m.entries, m.cols)
    else:
        rows, pivots = _fp_rref(m.entries, m.cols, m.field.p)
    reduced = Matrix._raw(m.field, tuple(map(tuple, rows)), m.cols)
    return reduced, tuple(pivots), len(pivots)


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


def _fp_rref(entries, ncols, p):
    """Gauss-Jordan over F_p on ints in [0, p), reducing each entry once per step."""
    rows = [list(row) for row in entries]
    pivots = []
    for r, c in _pivots(rows, ncols):
        prow = rows[r]
        inv = pow(prow[c], -1, p)
        if inv != 1:
            prow = rows[r] = [x * inv % p for x in prow]
        for i, row in enumerate(rows):
            a = row[c]
            if a and i != r:
                rows[i] = [(x - a * y) % p for x, y in zip(row, prow)]
        pivots.append(c)
    return rows, pivots


def _q_rref(entries, ncols):
    """Bareiss's fraction-free Gauss-Jordan on the row-cleared integers.

    Every row other than the pivot row becomes (p*row - a*prow) // prev,
    with p the pivot, a the row's entry in the pivot column and prev the
    previous pivot (1 at first). Sylvester's identity makes each division
    exact. A row with a = 0 takes the same formula: p*row is a multiple of
    prev, while p itself need not be. Every row stays a nonzero multiple of
    its counterpart in Gauss-Jordan over Fractions, so the zero pattern,
    hence the pivots, is the same. Each pivot row ends with the last pivot
    in its pivot column, so one division by it gives R.
    """
    rows = [row for row, _ in _cleared(entries)]
    pivots = []
    prev = 1
    for r, c in _pivots(rows, ncols):
        prow = rows[r]
        p = prow[c]
        for i, row in enumerate(rows):
            if i != r:
                a = row[c]
                rows[i] = [(p * x - a * y) // prev for x, y in zip(row, prow)]
        prev = p
        pivots.append(c)
    return [[Fraction(x, prev) for x in row] for row in rows], pivots


def _cleared(vectors):
    """Each vector of rationals as (ints, d): the vector times d, its denominators' lcm."""
    out = []
    for v in vectors:
        d = lcm(*[x.denominator for x in v])
        out.append(([x.numerator * (d // x.denominator) for x in v], d))
    return out


def _q_product(a, b):
    """Entries of a*b over Q: integer dot products of cleared rows of a and columns of b."""
    cols = _cleared(zip(*b))
    return tuple(
        tuple([Fraction(sum(map(mul, row, col)), d * e) for col, e in cols])
        for row, d in _cleared(a)
    )


def rank(m):
    return rref(m)[2]


def kernel_basis(m):
    """Canonical kernel basis as a cols-by-nullity matrix.

    Column j of the result is the standard rref basis vector for the j-th
    free column (free entry set to one, pivot entries filled from the
    reduced rows, ordered by ascending free column index).
    """
    return _kernel(rref(m))


def _kernel(triple):
    """kernel_basis read off a finished rref triple."""
    reduced, pivots, rk = triple
    field, n = reduced.field, reduced.cols
    free = sorted(set(range(n)).difference(pivots))
    # for the i-th pivot pc, row pc is minus row i of R at the free columns;
    # for the j-th free column fc, row fc is row j of the identity
    rows = [None] * n
    block = [[row[fc] for fc in free] for row in reduced.entries[:rk]]
    for pc, row in zip(pivots, _map_entries(field, neg, block)):
        rows[pc] = row
    for fc, unit in zip(free, Matrix.identity(field, len(free)).entries):
        rows[fc] = unit
    return Matrix._raw(field, tuple(rows), len(free))


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
