import random
from fractions import Fraction
from functools import partial
from itertools import chain
from math import gcd
from operator import add, mul, neg, sub

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from drazin import (
    DrazinError,
    FieldMismatchError,
    Matrix,
    NotSquareError,
    ParseError,
    PrimeField,
    Q,
    ShapeMismatchError,
    SingularMatrixError,
    block_diag,
    full_rank_factorization,
    hstack,
    image_basis,
    invert_matrix,
    kernel_basis,
    linalg,
    rank,
    rref,
    vstack,
)

from oracles import (
    frac_identity,
    frac_matmul,
    frac_rank,
    frac_rref,
    identity_tuple,
    modp_matmul,
    modp_rank,
    modp_rref,
)

F5 = PrimeField(5)


def q(entries):
    return Matrix(Q, entries)


def random_q_matrix(rng, rows, cols, span=6):
    return q([[Fraction(rng.randint(-span, span)) for _ in range(cols)] for _ in range(rows)])


def random_fp_matrix(rng, field, rows, cols):
    return Matrix(field, [[rng.randrange(field.p) for _ in range(cols)] for _ in range(rows)])


def test_construction_and_coercion():
    m = q([[1, Fraction(1, 2)], [0, 3]])
    assert m.rows == 2 and m.cols == 2
    assert m[0, 1] == Fraction(1, 2)
    assert isinstance(m[0, 0], Fraction)
    f = Matrix(F5, [[7, -1], [0, 2]])
    assert f[0, 0] == 2 and f[0, 1] == 4


def test_ragged_rows_rejected():
    with pytest.raises(ShapeMismatchError):
        q([[1, 2], [3]])


def test_zero_dimensional_shapes():
    e = Matrix(Q, [], cols=3)
    assert e.rows == 0 and e.cols == 3
    t = e.transpose()
    assert t.rows == 3 and t.cols == 0
    assert (t * e).rows == 3 and (t * e).cols == 3
    assert (t * e).is_zero()
    square = Matrix(Q, [], cols=0)
    assert square.is_square
    assert square**5 == square
    assert invert_matrix(square) == square


def test_arithmetic_against_sympy():
    rng = random.Random(101)
    for _ in range(25):
        rows, inner, cols = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        a = random_q_matrix(rng, rows, inner)
        b = random_q_matrix(rng, inner, cols)
        c = random_q_matrix(rng, rows, inner)
        sa = sympy.Matrix(a.entries)
        sb = sympy.Matrix(b.entries)
        sc = sympy.Matrix(c.entries)
        assert (a * b).entries == tuple(map(tuple, (sa * sb).tolist()))
        assert (a + c).entries == tuple(map(tuple, (sa + sc).tolist()))
        assert (a - c).entries == tuple(map(tuple, (sa - sc).tolist()))
        assert (-a).entries == tuple(map(tuple, (-sa).tolist()))
        assert a.transpose().entries == tuple(map(tuple, sa.T.tolist()))


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        q([[1, 2]]) * q([[1, 2]])
    with pytest.raises(ShapeMismatchError):
        q([[1, 2]]) + q([[1], [2]])


def test_mixed_fields_rejected():
    with pytest.raises(FieldMismatchError):
        q([[1]]) * Matrix(F5, [[1]])


def test_powers():
    m = q([[1, 1], [0, 1]])
    assert m**0 == Matrix.identity(Q, 2)
    assert m**7 == q([[1, 7], [0, 1]])
    with pytest.raises(NotSquareError):
        q([[1, 2]]) ** 2
    with pytest.raises(ValueError):
        m ** (-1)


def test_rank_against_both_oracles():
    rng = random.Random(202)
    for _ in range(40):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        a = random_q_matrix(rng, rows, cols, span=3)
        assert rank(a) == sympy.Matrix(a.entries).rank()
        assert rank(a) == frac_rank(a.entries)
        f = random_fp_matrix(rng, F5, rows, cols)
        assert rank(f) == modp_rank(f.entries, 5)


def test_rref_is_reduced_and_consistent():
    rng = random.Random(303)
    for _ in range(30):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = random_q_matrix(rng, rows, cols, span=4)
        reduced, pivots, rk = rref(m)
        sym_rref, sym_pivots = sympy.Matrix(m.entries).rref()
        assert reduced.entries == tuple(map(tuple, sym_rref.tolist()))
        assert pivots == tuple(sym_pivots)
        assert rk == len(pivots)


def test_kernel_and_image():
    rng = random.Random(404)
    for _ in range(30):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = random_q_matrix(rng, rows, cols, span=3)
        ker = kernel_basis(m)
        assert ker.rows == cols and ker.cols == cols - rank(m)
        assert (m * ker).is_zero()
        assert rank(ker) == ker.cols
        img = image_basis(m)
        assert img.rows == rows and img.cols == rank(m)
        assert rank(img) == img.cols
        assert rank(hstack(img, m)) == rank(m)


def test_full_rank_factorization():
    rng = random.Random(505)
    for _ in range(30):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = random_q_matrix(rng, rows, cols, span=3)
        fact = full_rank_factorization(m)
        assert fact.left * fact.right == m
        assert fact.left.cols == fact.rank == fact.right.rows
        assert rank(fact.left) == fact.rank
        assert rank(fact.right) == fact.rank


def test_invert_matrix():
    rng = random.Random(606)
    produced = 0
    while produced < 20:
        n = rng.randint(1, 4)
        m = random_q_matrix(rng, n, n, span=5)
        if rank(m) < n:
            with pytest.raises(SingularMatrixError):
                invert_matrix(m)
            continue
        inv = invert_matrix(m)
        assert m * inv == Matrix.identity(Q, n)
        assert inv * m == Matrix.identity(Q, n)
        produced += 1
    with pytest.raises(NotSquareError):
        invert_matrix(q([[1, 2]]))


def test_stacking():
    a = q([[1, 2], [3, 4]])
    b = q([[5], [6]])
    assert hstack(a, b) == q([[1, 2, 5], [3, 4, 6]])
    assert vstack(a, q([[7, 8]])) == q([[1, 2], [3, 4], [7, 8]])
    assert block_diag(q([[1]]), q([[2]])) == q([[1, 0], [0, 2]])
    with pytest.raises(ShapeMismatchError):
        hstack(a, q([[1, 2]]))
    with pytest.raises(ShapeMismatchError):
        vstack(a, b)


def test_take_rows_and_cols():
    m = q([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert m.take_rows([2, 0]) == q([[7, 8, 9], [1, 2, 3]])
    assert m.take_cols([1]) == q([[2], [5], [8]])


def test_json_round_trip_q():
    m = q([[Fraction(1, 2), -3], [0, Fraction(7, 4)]])
    payload = m.to_json()
    assert payload["rows"] == 2 and payload["cols"] == 2
    assert payload["entries"][0][0] == "1/2"
    assert Matrix.from_json(Q, payload) == m
    # bare array-of-rows form with mixed int and string scalars
    assert Matrix.from_json(Q, [["1/2", -3], [0, "7/4"]]) == m


def test_json_round_trip_fp():
    m = Matrix(F5, [[0, 4], [2, 3]])
    payload = m.to_json()
    assert payload["entries"] == [[0, 4], [2, 3]]
    assert Matrix.from_json(F5, payload) == m
    assert Matrix.from_json(F5, [[0, 4], [2, 3]]) == m


def test_json_zero_dims():
    e = Matrix(Q, [], cols=2)
    assert Matrix.from_json(Q, e.to_json()) == e


def test_json_parse_errors():
    with pytest.raises(ParseError):
        Matrix.from_json(Q, {"rows": 1, "cols": 2})
    with pytest.raises(ParseError):
        Matrix.from_json(Q, {"rows": 2, "cols": 1, "entries": [[1]]})
    with pytest.raises(ParseError):
        Matrix.from_json(Q, {"rows": 1, "cols": 2, "entries": [[1]]})
    with pytest.raises(ParseError):
        Matrix.from_json(Q, "nope")


def test_immutability():
    m = q([[1]])
    with pytest.raises(AttributeError):
        m.rows = 2


# Property tests: the integer kernels behind Matrix.__mul__ and rref against
# the Fraction and mod-p oracles, on every shape up to 7, including 0-by-n
# and n-by-0, on low-rank products, and on negative and fractional entries.

DIMS = st.integers(0, 7)
Q_ENTRIES = st.one_of(
    st.integers(-9, 9), st.fractions(min_value=-50, max_value=50, max_denominator=12)
)
FP_ENTRIES = st.integers(-300, 300)
PRIMES = st.sampled_from([2, 3, 5, 101])


def grid(draw, entry, rows, cols):
    return tuple(tuple(draw(entry) for _ in range(cols)) for _ in range(rows))


@st.composite
def factor_pairs(draw, entry):
    """(a, b, inner, cols): a is rows-by-inner and b inner-by-cols."""
    rows, inner, cols = draw(DIMS), draw(DIMS), draw(DIMS)
    return grid(draw, entry, rows, inner), grid(draw, entry, inner, cols), inner, cols


@st.composite
def reducible(draw, entry, matmul):
    """(m, cols): a random matrix, or a product L*R of rank at most k."""
    rows, cols = draw(DIMS), draw(DIMS)
    if draw(st.booleans()):
        return grid(draw, entry, rows, cols), cols
    k = draw(st.integers(0, min(rows, cols)))
    if k == 0:
        return grid(draw, st.just(0), rows, cols), cols
    return matmul(grid(draw, entry, rows, k), grid(draw, entry, k, cols)), cols


def expected_product(matmul, a, b, inner, cols):
    if inner == 0:  # the oracles read the width of b off its first row
        return tuple((0,) * cols for _ in a)
    return matmul(a, b)


@settings(max_examples=200, deadline=None)
@given(factor_pairs(Q_ENTRIES))
def test_q_product_matches_oracle(case):
    a, b, inner, cols = case
    got = Matrix(Q, a, cols=inner) * Matrix(Q, b, cols=cols)
    assert (got.rows, got.cols) == (len(a), cols)
    assert got.entries == expected_product(frac_matmul, a, b, inner, cols)
    assert all(type(v) is Fraction for row in got.entries for v in row)


@settings(max_examples=200, deadline=None)
@given(PRIMES, factor_pairs(FP_ENTRIES))
def test_fp_product_matches_oracle(p, case):
    a, b, inner, cols = case
    field = PrimeField(p)
    got = Matrix(field, a, cols=inner) * Matrix(field, b, cols=cols)
    assert (got.rows, got.cols) == (len(a), cols)
    assert got.entries == expected_product(lambda x, y: modp_matmul(x, y, p), a, b, inner, cols)


@settings(max_examples=200, deadline=None)
@given(reducible(Q_ENTRIES, frac_matmul))
def test_q_rref_matches_oracle(case):
    m, cols = case
    reduced, pivots, rk = rref(Matrix(Q, m, cols=cols))
    want, want_pivots = frac_rref(m)
    assert pivots == want_pivots and rk == len(want_pivots)
    assert (reduced.rows, reduced.cols) == (len(m), cols)
    assert reduced.entries == want
    assert all(type(v) is Fraction for row in reduced.entries for v in row)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_fp_rref_matches_oracle(data):
    p = data.draw(PRIMES)
    assert_fp_rref_matches(p, *data.draw(reducible(FP_ENTRIES, lambda x, y: modp_matmul(x, y, p))))


def assert_fp_rref_matches(p, m, cols):
    reduced, pivots, rk = rref(Matrix(PrimeField(p), m, cols=cols))
    want, want_pivots = modp_rref(m, p)
    assert pivots == want_pivots and rk == len(want_pivots)
    assert (reduced.rows, reduced.cols) == (len(m), cols)
    assert reduced.entries == want
    assert all(type(v) is int for row in reduced.entries for v in row)


# Property tests at the bounds of the F_p byte kernels: a product packs bytes
# when inner * (p - 1)**2 < 256, and rref when p * (p - 1) < 256, that is
# p <= 13. Entries lean to -1, that is p - 1, the residue that fills a byte
# the most, and the inner sizes straddle the product bound.

BOUND_PRIMES = st.sampled_from([7, 11, 13, 17])
BOUND_ENTRIES = st.one_of(st.just(-1), st.integers(-300, 300))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_fp_product_matches_oracle_across_the_byte_bound(data):
    p = data.draw(BOUND_PRIMES)
    edge = 255 // (p - 1) ** 2  # the largest inner size that packs bytes
    inner = data.draw(st.integers(max(edge - 1, 0), edge + 2))
    rows, cols = data.draw(DIMS), data.draw(DIMS)
    a, b = grid(data.draw, BOUND_ENTRIES, rows, inner), grid(data.draw, BOUND_ENTRIES, inner, cols)
    field = PrimeField(p)
    got = Matrix(field, a, cols=inner) * Matrix(field, b, cols=cols)
    assert got.entries == expected_product(lambda x, y: modp_matmul(x, y, p), a, b, inner, cols)
    assert all(type(v) is int for row in got.entries for v in row)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_fp_rref_matches_oracle_across_the_byte_bound(data):
    p = data.draw(BOUND_PRIMES)
    assert_fp_rref_matches(p, *data.draw(reducible(BOUND_ENTRIES, lambda x, y: modp_matmul(x, y, p))))


@pytest.mark.parametrize("p, inner", [(2, 255), (3, 63), (5, 15), (7, 7), (11, 2)])
def test_fp_product_of_top_residues_at_the_byte_bound(p, inner):
    """Every byte of an all-(p - 1) product at the largest inner size that
    packs bytes holds inner * (p - 1)**2, the most below 256; one size more
    takes the tuple kernel."""
    field = PrimeField(p)
    for k in (inner, inner + 1):
        a, b = ((p - 1,) * k,) * 3, ((p - 1,) * 4,) * k
        assert (Matrix(field, a) * Matrix(field, b)).entries == modp_matmul(a, b, p)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17])
def test_fp_rref_of_top_residues_at_the_byte_bound(p):
    """Clearing row 1 by row 0 adds (p - 1) * (p - 1) to p - 1 in every byte
    but the first: p * (p - 1), the most a byte of the row reduction holds."""
    top = p - 1
    m = ((1,) + (top,) * 5, (1,) + (top,) * 5, (top,) * 6, (top, 0) * 3)
    assert_fp_rref_matches(p, m, 6)
    assert_fp_rref_matches(p, tuple(row + unit for row, unit in zip(m, identity_tuple(4))), 10)


def test_small_fp_kernels_take_the_byte_path(monkeypatch):
    """A 6 x 6 product and rref over F_5 run on bytes."""
    calls = []

    def count(name):
        kernel = getattr(linalg, name)

        def counted(*args):
            calls.append(name)
            return kernel(*args)

        monkeypatch.setattr(linalg, name, counted)

    count("_byte_product")
    count("_byte_rref")
    a = random_fp_matrix(random.Random(5), F5, 6, 6)
    assert (a * a).entries == modp_matmul(a.entries, a.entries, 5)
    assert rref(a)[0].entries == modp_rref(a.entries, 5)[0]
    assert calls == ["_byte_product", "_byte_rref"]


# Property tests: +, -, unary - and scale against Fraction and mod-p
# arithmetic on every shape up to 7, the errors of mismatched shapes and
# fields, and the defining properties of the canonical kernel basis.

ARITH_FIELDS = st.sampled_from([Q, PrimeField(2), PrimeField(3), PrimeField(101), PrimeField(4294967311)])
WIDE_ENTRIES = st.integers(-(10**12), 10**12)


def entries_of(field):
    return Q_ENTRIES if field == Q else WIDE_ENTRIES


def entrywise(field, f, *grids):
    """f on matching entries, in Fractions over Q and reduced mod p over F_p."""
    if field == Q:
        return tuple(tuple(f(*map(Fraction, vs)) for vs in zip(*rows)) for rows in zip(*grids))
    return tuple(tuple(f(*vs) % field.p for vs in zip(*rows)) for rows in zip(*grids))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_entrywise_arithmetic_matches_oracle(data):
    field = data.draw(ARITH_FIELDS)
    entry = entries_of(field)
    rows, cols = data.draw(DIMS), data.draw(DIMS)
    a, b = grid(data.draw, entry, rows, cols), grid(data.draw, entry, rows, cols)
    c = data.draw(entry)
    ma, mb = Matrix(field, a, cols=cols), Matrix(field, b, cols=cols)
    c_scalar = Fraction(c) if field == Q else c
    cases = [
        (ma + mb, entrywise(field, add, a, b)),
        (ma - mb, entrywise(field, sub, a, b)),
        (-ma, entrywise(field, neg, a)),
        (ma.scale(c), entrywise(field, partial(mul, c_scalar), a)),
    ]
    for got, want in cases:
        assert got.field == field and (got.rows, got.cols) == (rows, cols)
        assert got.entries == want
        if field == Q:
            assert all(type(v) is Fraction for row in got.entries for v in row)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_entrywise_mismatch_errors(data):
    fa, fb = data.draw(ARITH_FIELDS), data.draw(ARITH_FIELDS)
    (ra, ca), (rb, cb) = (data.draw(DIMS), data.draw(DIMS)), (data.draw(DIMS), data.draw(DIMS))
    assume((fa, ra, ca) != (fb, rb, cb))
    ma = Matrix(fa, grid(data.draw, entries_of(fa), ra, ca), cols=ca)
    mb = Matrix(fb, grid(data.draw, entries_of(fb), rb, cb), cols=cb)
    if fa != fb:
        error, message = FieldMismatchError, "mixed fields %r and %r" % (fa, fb)
    else:
        error, message = ShapeMismatchError, "add %dx%d to %dx%d" % (ra, ca, rb, cb)
    for op, sym in ((add, "+"), (sub, "-")):
        with pytest.raises(error) as info:
            op(ma, mb)
        assert str(info.value) == message
        with pytest.raises(TypeError) as info:
            op(ma, 1)
        assert str(info.value) == "unsupported operand type(s) for %s: 'Matrix' and 'int'" % sym


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_kernel_basis_properties(data):
    field = data.draw(ARITH_FIELDS)
    if field == Q:
        m, cols = data.draw(reducible(Q_ENTRIES, frac_matmul))
        _, pivots = frac_rref(m)
    else:
        p = field.p
        m, cols = data.draw(reducible(WIDE_ENTRIES, lambda x, y: modp_matmul(x, y, p)))
        _, pivots = modp_rref(m, p)
    matrix = Matrix(field, m, cols=cols)
    ker = kernel_basis(matrix)
    free = [c for c in range(cols) if c not in pivots]
    assert (ker.rows, ker.cols) == (cols, cols - len(pivots))
    assert (matrix * ker).is_zero()
    assert ker.take_rows(free) == Matrix.identity(field, len(free))


# Property tests: Q matrices are stored as int rows over one positive
# denominator prime to every entry. Every path that builds a matrix must
# reach that canonical form, so that == and hash agree with the same matrix
# built from the oracles' Fractions; zero matrices and entries sharing a
# factor are where a missed gcd would show.


@st.composite
def shared_factor_grid(draw, rows, cols):
    """Fractions with a common factor g drawn per matrix, or all zeros."""
    if draw(st.integers(0, 5)) == 0:
        return tuple((Fraction(0),) * cols for _ in range(rows))
    g = draw(st.sampled_from((1, 2, 3, 6)))
    entry = st.builds(
        lambda a, b: Fraction(a * g, b), st.integers(-4, 4), st.sampled_from((1, 2, 3, 4, 6, 12))
    )
    return grid(draw, entry, rows, cols)


def assert_canonical(got, want, cols):
    """got equals, and hashes like, Matrix(Q, want), and reads back want."""
    expected = Matrix(Q, want, cols=cols)
    assert got == expected and hash(got) == hash(expected)
    assert (got.rows, got.cols) == (len(want), cols)
    assert got.entries == tuple(map(tuple, want))
    for v in chain.from_iterable(got.entries):
        assert type(v) is Fraction and v.denominator > 0 and gcd(v.numerator, v.denominator) == 1
    assert got._den > 0 and gcd(got._den, *chain.from_iterable(got._ints)) == 1


SMALL_DIMS = st.integers(0, 6)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_every_q_constructor_is_canonical(data):
    r, c, k = data.draw(SMALL_DIMS), data.draw(SMALL_DIMS), data.draw(SMALL_DIMS)
    a_grid = data.draw(shared_factor_grid(r, c))
    b_grid = data.draw(shared_factor_grid(c, k))
    d_grid = data.draw(shared_factor_grid(r, c))
    a, b, d = Matrix(Q, a_grid, cols=c), Matrix(Q, b_grid, cols=k), Matrix(Q, d_grid, cols=c)
    scalar = data.draw(st.fractions(-6, 6, max_denominator=12))
    rows = data.draw(st.lists(st.integers(0, r - 1), max_size=4)) if r else []
    cols = data.draw(st.lists(st.integers(0, c - 1), max_size=4)) if c else []
    # the same entries as ints where integral, and as unreduced "num/den" text
    ints = [[int(v) if v.denominator == 1 else v for v in row] for row in a_grid]
    text = [["%d/%d" % (2 * v.numerator, 2 * v.denominator) for v in row] for row in a_grid]
    reduced, pivots = frac_rref(a_grid)
    cases = [
        (Matrix(Q, ints, cols=c), a_grid, c),
        (Matrix.from_json(Q, {"rows": r, "cols": c, "entries": text}), a_grid, c),
        (a * b, expected_product(frac_matmul, a_grid, b_grid, c, k), k),
        (rref(a)[0], reduced, c),
        (a.take_rows(rows), tuple(a_grid[i] for i in rows), c),
        (a.take_cols(cols), tuple(tuple(row[j] for j in cols) for row in a_grid), len(cols)),
        (a.transpose(), tuple(zip(*a_grid)) if r else ((),) * c, r),
        (a.scale(scalar), entrywise(Q, partial(mul, scalar), a_grid), c),
        (a.scale(0), entrywise(Q, partial(mul, 0), a_grid), c),
        (a + d, entrywise(Q, add, a_grid, d_grid), c),
        (a - d, entrywise(Q, sub, a_grid, d_grid), c),
        (-a, entrywise(Q, neg, a_grid), c),
        (hstack(a, d), tuple(x + y for x, y in zip(a_grid, d_grid)), 2 * c),
        (vstack(a, d), a_grid + d_grid, c),
        (block_diag(a, b), block_diag_grid(a_grid, b_grid, c, k), c + k),
        (Matrix.identity(Q, r), frac_identity(r), r),
        (Matrix.zeros(Q, r, c), tuple((Fraction(0),) * c for _ in range(r)), c),
        (kernel_basis(a), kernel_grid(reduced, pivots, c), c - len(pivots)),
    ]
    for got, want, width in cases:
        assert_canonical(got, want, width)
    n = data.draw(SMALL_DIMS)
    s_grid = data.draw(shared_factor_grid(n, n))
    reduced, pivots = frac_rref(tuple(row + unit for row, unit in zip(s_grid, frac_identity(n))))
    if pivots[:n] == tuple(range(n)):
        assert_canonical(invert_matrix(Matrix(Q, s_grid, cols=n)), tuple(row[n:] for row in reduced), n)
    else:
        with pytest.raises(SingularMatrixError):
            invert_matrix(Matrix(Q, s_grid, cols=n))


def block_diag_grid(a, b, a_cols, b_cols):
    zero = Fraction(0)
    return tuple(row + (zero,) * b_cols for row in a) + tuple((zero,) * a_cols + row for row in b)


def kernel_grid(reduced, pivots, cols):
    """The canonical kernel basis read off an oracle rref."""
    free = [j for j in range(cols) if j not in pivots]
    rows = []
    for j in range(cols):
        if j in pivots:
            rows.append(tuple(-reduced[pivots.index(j)][f] for f in free))
        else:
            rows.append(tuple(Fraction(int(f == j)) for f in free))
    return tuple(rows)


# Arbitrary JSON, and square rows of scalars that are malformed, unreduced,
# or past Python's int/str digit limit: from_json answers with a Matrix that
# round-trips through to_json, or raises a DrazinError, never anything else.

ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["rows", "cols", "entries", ""]), inner),
    max_leaves=16,
)
JSON_SCALARS = st.integers(-10, 10) | st.text(max_size=8) | st.sampled_from(
    ["2/4", "-6/9", "0/5", "1/0", "0.25", "1e5", "1" + "0" * 5000, "1/" + "7" * 5000, 0.5, None, True]
)
JSON_SQUARES = st.integers(0, 4).flatmap(
    lambda n: st.lists(st.lists(JSON_SCALARS, min_size=n, max_size=n), min_size=n, max_size=n)
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([Q, F5, PrimeField(2)]), ANY_JSON | JSON_SQUARES)
def test_from_json_raises_only_drazin_errors(field, obj):
    try:
        m = Matrix.from_json(field, obj)
    except DrazinError:
        return
    assert Matrix.from_json(field, m.to_json()) == m
