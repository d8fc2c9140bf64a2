import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drazin import (
    DrazinData,
    Matrix,
    NotSquareError,
    PrimeField,
    Q,
    WitnessInvalidError,
    core_nilpotent,
    drazin_from_pi_witnesses,
    drazin_index,
    drazin_inverse,
    group_inverse,
    verify_drazin_data,
)

from oracles import (
    frac_matmul,
    min_matrix_index_frac,
    min_matrix_index_modp,
    modp_matmul,
    nilpotency_degree,
)

F5 = PrimeField(5)


def q(entries):
    return Matrix(Q, entries)


def test_index_of_invertible_is_zero():
    assert drazin_index(q([[1, 1], [0, 1]])) == 0


def test_index_of_nilpotent_is_nilpotency_degree():
    assert drazin_index(q([[0, 1], [0, 0]])) == 2
    shift = q([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert drazin_index(shift) == 3


def test_index_of_idempotent_is_one():
    assert drazin_index(q([[1, 1], [0, 0]])) == 1


def test_index_matches_rank_stabilization_oracle():
    rng = random.Random(1001)
    for _ in range(60):
        n = rng.randint(1, 4)
        m = Matrix(F5, [[rng.randrange(5) for _ in range(n)] for _ in range(n)])
        assert drazin_index(m) == min_matrix_index_modp(m.entries, 5)
    # Over Q and F_5 up to n = 6: nilpotent Jordan blocks beside a random
    # block, conjugated by transvections. core_nilpotent's index is the
    # nilpotent part's degree, the least j with N^j = 0.
    fields = (
        (Q, min_matrix_index_frac, frac_matmul, [-2, -1, 0, 1, 2, Fraction(1, 2)]),
        (F5, lambda m: min_matrix_index_modp(m, 5), lambda a, b: modp_matmul(a, b, 5), range(5)),
    )
    for field, oracle, matmul, scalars in fields:
        for _ in range(60):
            n = rng.randint(0, 6)
            rows = [[0] * n for _ in range(n)]
            start, end = 0, rng.randint(0, n)  # Jordan blocks fill [0, end)
            while start < end:
                size = rng.randint(1, end - start)
                for i in range(start, start + size - 1):
                    rows[i][i + 1] = 1
                start += size
            for i in range(end, n):
                rows[i][end:] = [rng.choice(scalars) for _ in range(end, n)]
            steps = [(i, j, rng.choice(scalars)) for i in range(n) for j in range(n) if i != j]
            p, p_inv = _transvections(field, n, rng.sample(steps, min(len(steps), 2 * n)))
            x = p * Matrix(field, rows, cols=n) * p_inv
            assert drazin_index(x) == oracle(x.entries)
            nilpotent = core_nilpotent(x, drazin_inverse(x))
            degree = nilpotency_degree(nilpotent.nilpotent_part.entries, matmul)
            assert nilpotent.nilpotent_index == degree


def _transvections(field, n, steps):
    """(P, P^{-1}) for P the product of the transvections I + c*E_ij, (i, j, c)
    in steps, i != j; each factor's inverse is I - c*E_ij, so P^{-1} is exact."""
    p = p_inv = Matrix.identity(field, n)
    for i, j, c in steps:
        rows = [[int(r == s) for s in range(n)] for r in range(n)]
        rows[i][j] = c
        step = Matrix(field, rows)
        rows[i][j] = -c
        p, p_inv = p * step, Matrix(field, rows) * p_inv
    return p, p_inv


def test_drazin_inverse_frozen_diagonal():
    d = drazin_inverse(q([[2, 0], [0, 0]]))
    assert d.inverse == q([[Fraction(1, 2), 0], [0, 0]])
    assert d.index == 1
    assert d.idempotent == q([[1, 0], [0, 0]])
    assert d.route == "RankFactorization"


def test_drazin_inverse_frozen_nilpotent():
    d = drazin_inverse(q([[0, 1], [0, 0]]))
    assert d.inverse == Matrix.zeros(Q, 2, 2)
    assert d.index == 2
    assert d.idempotent == Matrix.zeros(Q, 2, 2)


def test_drazin_inverse_frozen_rank_one():
    d = drazin_inverse(q([[2, 1], [0, 0]]))
    assert d.inverse == q([[Fraction(1, 2), Fraction(1, 4)], [0, 0]])
    assert d.index == 1


def test_drazin_inverse_of_invertible_is_plain_inverse():
    x = q([[1, 1], [0, 1]])
    d = drazin_inverse(x)
    assert d.index == 0
    assert d.inverse == q([[1, -1], [0, 1]])
    assert d.idempotent == Matrix.identity(Q, 2)


def test_drazin_inverse_of_idempotent_is_itself():
    e = q([[1, 1], [0, 0]])
    d = drazin_inverse(e)
    assert d.inverse == e
    assert d.index == 1
    assert d.idempotent == e


def test_drazin_inverse_zero_dim():
    x = Matrix(Q, [], cols=0)
    d = drazin_inverse(x)
    assert d.index == 0
    assert d.inverse == x
    assert d.idempotent == x


def test_drazin_inverse_requires_square():
    with pytest.raises(NotSquareError):
        drazin_inverse(q([[1, 2]]))
    with pytest.raises(NotSquareError):
        drazin_index(q([[1], [2]]))


def test_group_inverse_exists_iff_index_at_most_one():
    assert group_inverse(q([[2, 0], [0, 0]])) == q([[Fraction(1, 2), 0], [0, 0]])
    assert group_inverse(q([[0, 1], [0, 0]])) is None
    assert group_inverse(q([[1, 1], [0, 1]])) == q([[1, -1], [0, 1]])


def test_pi_witnesses_commuting():
    x = q([[2, 0], [0, 0]])
    w = q([[Fraction(1, 2), 0], [0, 0]])
    assert drazin_from_pi_witnesses(x, w, 1, w, 1) == w


def test_pi_witnesses_non_commuting():
    # the left witness does not commute with x, yet the assembled
    # inverse is still the unique Drazin inverse
    x = q([[1, 1], [0, 0]])
    y = q([[1, 5], [0, 7]])
    z = q([[0, 0], [1, 1]])
    assert x * y != y * x
    assert drazin_from_pi_witnesses(x, y, 1, z, 1) == drazin_inverse(x).inverse == x


def test_pi_witnesses_rejected_when_equations_fail():
    x = q([[0, 1], [0, 0]])
    ident = Matrix.identity(Q, 2)
    with pytest.raises(WitnessInvalidError):
        drazin_from_pi_witnesses(x, ident, 1, ident, 1)
    with pytest.raises(WitnessInvalidError):
        drazin_from_pi_witnesses(x, ident, 0, ident, 0)
    # y = 0 passes for p = 2 (y*x^3 = 0 = x^2); z = I fails for q = 1 (x^2*z = 0 != x)
    with pytest.raises(WitnessInvalidError, match=r"x\^\{q\+1\}\*z"):
        drazin_from_pi_witnesses(x, Matrix.zeros(Q, 2, 2), 2, ident, 1)
    with pytest.raises(ValueError):
        drazin_from_pi_witnesses(x, ident, -1, ident, 1)


def test_pi_witnesses_shape_and_field_checks():
    from drazin import FieldMismatchError, ShapeMismatchError

    x = q([[1, 0], [0, 1]])
    with pytest.raises(ShapeMismatchError):
        drazin_from_pi_witnesses(x, q([[1]]), 0, x, 0)
    with pytest.raises(FieldMismatchError):
        drazin_from_pi_witnesses(x, Matrix(F5, [[1, 0], [0, 1]]), 0, x, 0)


def test_verify_drazin_data_accepts_fresh_data():
    x = q([[2, 1], [0, 0]])
    verify_drazin_data(x, drazin_inverse(x))


def test_verify_drazin_data_rejects_tampering():
    x = q([[2, 0], [0, 0]])
    d = drazin_inverse(x)
    wrong_inverse = dataclasses.replace(d, inverse=q([[1, 0], [0, 0]]))
    with pytest.raises(ValueError):
        verify_drazin_data(x, wrong_inverse)
    wrong_index = dataclasses.replace(d, index=0)
    with pytest.raises(ValueError):
        verify_drazin_data(x, wrong_index)
    wrong_idem = dataclasses.replace(d, idempotent=Matrix.identity(Q, 2))
    with pytest.raises(ValueError):
        verify_drazin_data(x, wrong_idem)
    with pytest.raises(ValueError):
        verify_drazin_data(x, "not data")
    with pytest.raises(ValueError, match="shape or field"):
        verify_drazin_data(Matrix(F5, [[2, 0], [0, 0]]), d)
    with pytest.raises(ValueError, match="shape or field"):
        verify_drazin_data(Matrix.zeros(Q, 3, 3), d)


def test_drazin_data_is_frozen():
    d = drazin_inverse(q([[1, 0], [0, 1]]))
    assert isinstance(d, DrazinData)
    with pytest.raises(dataclasses.FrozenInstanceError):
        d.index = 5


# Mostly-zero entries, and products of two such matrices, so that singular
# inputs of every index up to n turn up, not just invertible ones.
SPARSE = {
    "Q": st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 4)]),
    "Fp": st.sampled_from([0, 0, 0, 1, 2, 3, 4]),
}


def _sparse_square(data):
    """(field, x): x of size 0..6 over Q or F_2, F_3, F_5, SPARSE or a product of two."""
    field = data.draw(st.sampled_from([Q, PrimeField(2), PrimeField(3), F5]))
    n = data.draw(st.integers(0, 6))
    entry = SPARSE["Q" if field is Q else "Fp"]

    def square():
        return Matrix(field, [[data.draw(entry) for _ in range(n)] for _ in range(n)])

    return field, square() * square() if data.draw(st.booleans()) else square()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_drazin_inverse_commutes_with_transpose(data):
    """(x^T)^D = (x^D)^T, with the same index, over Q and F_2, F_3, F_5."""
    _, x = _sparse_square(data)
    d, dt = drazin_inverse(x), drazin_inverse(x.transpose())
    assert dt.inverse == d.inverse.transpose()
    assert dt.index == d.index


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_drazin_inverse_commutes_with_conjugation(data):
    """(P*x*P^{-1})^D = P*x^D*P^{-1}, with the same index, over Q and F_2, F_3,
    F_5; P is a product of transvections, so P^{-1} needs no inversion."""
    field, x = _sparse_square(data)
    n = x.rows
    coeff = st.sampled_from([1, -1, 2, Fraction(1, 2)]) if field is Q else st.integers(1, field.p - 1)
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    steps = data.draw(st.lists(st.tuples(st.sampled_from(pairs), coeff), max_size=2 * n)) if pairs else []
    p, p_inv = _transvections(field, n, [(i, j, c) for (i, j), c in steps])
    assert p * p_inv == Matrix.identity(field, n)
    d, dp = drazin_inverse(x), drazin_inverse(p * x * p_inv)
    assert dp.inverse == p * d.inverse * p_inv
    assert dp.index == d.index
