import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drazin import (
    InternalInconsistencyError,
    Matrix,
    NotIdempotentError,
    NotSquareError,
    PrimeField,
    Q,
    RankFactorization,
    block_diag,
    complement_formula_check,
    core_nilpotent,
    drazin_from_fitting,
    drazin_inverse,
    eventuating_family,
    fitting_decomposition,
    image_kernel_drazin,
    invert_matrix,
    munn_power_iso_check,
    rank,
    split_idempotent,
    splitting_iso,
    verify_drazin_data,
    vstack,
)

from test_core import _sparse_square

F5 = PrimeField(5)


def q(entries):
    return Matrix(Q, entries)


DIAG = q([[2, 0], [0, 0]])
NILP = q([[0, 1], [0, 0]])
MIXED = q([[2, 0, 0], [0, 0, 1], [0, 0, 0]])
IDEM = q([[1, 1], [0, 0]])


def test_split_idempotent_frozen():
    sp = split_idempotent(IDEM)
    assert sp.through_dim == 1
    assert sp.section == q([[1], [0]])
    assert sp.retraction == q([[1, 1]])
    assert sp.section * sp.retraction == IDEM
    assert sp.retraction * sp.section == Matrix.identity(Q, 1)


def test_split_identity_and_zero():
    ident = Matrix.identity(Q, 3)
    sp = split_idempotent(ident)
    assert sp.through_dim == 3
    assert sp.section == ident and sp.retraction == ident
    zero = Matrix.zeros(Q, 2, 2)
    sp0 = split_idempotent(zero)
    assert sp0.through_dim == 0
    assert sp0.section.cols == 0 and sp0.retraction.rows == 0
    assert sp0.section * sp0.retraction == zero


def test_split_rejects_non_idempotent():
    with pytest.raises(NotIdempotentError):
        split_idempotent(q([[1, 1], [0, 1]]))
    with pytest.raises(NotSquareError):
        split_idempotent(q([[1, 0]]))


def test_split_refuses_a_factorization_that_does_not_reproduce_e(monkeypatch):
    """R*L = I alone is not a splitting: L*R must also be e. Everything built
    on the splitting (alpha, the Fitting blocks) relies on both halves."""
    import drazin.decompositions as decompositions

    def wrong(e):  # R*L = [[1]], but L*R = [[1, 0], [1, 0]] != diag(1, 0)
        return RankFactorization(left=q([[1], [1]]), right=q([[1, 0]]), rank=1)

    monkeypatch.setattr(decompositions, "full_rank_factorization", wrong)
    with pytest.raises(InternalInconsistencyError):
        split_idempotent(q([[1, 0], [0, 0]]))


def test_splitting_iso_frozen():
    d = drazin_inverse(DIAG)
    assert splitting_iso(DIAG, d) == q([[2]])
    x = q([[2, 1], [0, 0]])
    assert splitting_iso(x, drazin_inverse(x)) == q([[2]])


def test_splitting_iso_random_round_trip():
    rng = random.Random(707)
    for _ in range(20):
        n = rng.randint(1, 4)
        x = Matrix(F5, [[rng.randrange(5) for _ in range(n)] for _ in range(n)])
        d = drazin_inverse(x)
        alpha = splitting_iso(x, d)
        assert alpha.rows == alpha.cols == rank(x ** max(d.index, 1))
        assert rank(alpha) == alpha.rows


def test_core_nilpotent_frozen_diagonal():
    cn = core_nilpotent(DIAG, drazin_inverse(DIAG))
    assert cn.core == DIAG
    assert cn.nilpotent_part.is_zero()
    assert cn.nilpotent_index == 1


def test_core_nilpotent_frozen_nilpotent():
    cn = core_nilpotent(NILP, drazin_inverse(NILP))
    assert cn.core.is_zero()
    assert cn.nilpotent_part == NILP
    assert cn.nilpotent_index == 2


def test_core_nilpotent_frozen_mixed():
    cn = core_nilpotent(MIXED, drazin_inverse(MIXED))
    assert cn.core == q([[2, 0, 0], [0, 0, 0], [0, 0, 0]])
    assert cn.nilpotent_part == q([[0, 0, 0], [0, 0, 1], [0, 0, 0]])
    assert cn.nilpotent_index == 2


def test_core_nilpotent_separation_axioms():
    rng = random.Random(808)
    for _ in range(25):
        n = rng.randint(1, 4)
        x = Matrix(F5, [[rng.randrange(5) for _ in range(n)] for _ in range(n)])
        d = drazin_inverse(x)
        cn = core_nilpotent(x, d)
        assert cn.core + cn.nilpotent_part == x
        assert (cn.core * cn.nilpotent_part).is_zero()
        assert (cn.nilpotent_part * cn.core).is_zero()
        assert (cn.nilpotent_part ** cn.nilpotent_index).is_zero()
        core_d = drazin_inverse(cn.core)
        assert core_d.index <= 1
        assert core_d.inverse == d.inverse


def test_fitting_frozen_mixed():
    d = drazin_inverse(MIXED)
    f = fitting_decomposition(MIXED, d)
    assert f.invertible_block == q([[2]])
    assert rank(f.invertible_block) == f.invertible_block.rows
    eta = f.nilpotent_block
    assert (eta ** max(eta.rows, 1)).is_zero()
    p = f.change_of_basis
    from drazin import block_diag, invert_matrix

    assert p * block_diag(f.invertible_block, eta) * invert_matrix(p) == MIXED
    assert drazin_from_fitting(MIXED, f) == d.inverse


def test_fitting_round_trip_random():
    rng = random.Random(909)
    for _ in range(20):
        n = rng.randint(1, 4)
        x = Matrix(F5, [[rng.randrange(5) for _ in range(n)] for _ in range(n)])
        d = drazin_inverse(x)
        f = fitting_decomposition(x, d)
        assert drazin_from_fitting(x, f) == d.inverse


def test_image_kernel_route_agrees():
    for x in (DIAG, NILP, MIXED, IDEM, q([[1, 1], [0, 1]])):
        a = drazin_inverse(x)
        b = image_kernel_drazin(x)
        assert b.route == "ImageKernel"
        assert b.inverse == a.inverse
        assert b.index == a.index
        assert b.idempotent == a.idempotent


def test_image_kernel_zero_dim():
    x = Matrix(Q, [], cols=0)
    d = image_kernel_drazin(x)
    assert d.index == 0 and d.inverse == x


def test_eventuating_family_axioms():
    for x in (DIAG, MIXED, IDEM, NILP):
        d = drazin_inverse(x)
        fam = eventuating_family(x, d)
        N = d.index + 2
        assert fam.window == tuple(range(-N, N + 1))
        assert fam.index == d.index
        ident_e = None
        for s, r in zip(fam.sections, fam.retractions):
            if ident_e is None:
                ident_e = Matrix.identity(x.field, s.cols)
            assert r * s == ident_e
            assert s * r == d.idempotent
        for pos in range(len(fam.window) - 1):
            assert x * fam.sections[pos] == fam.sections[pos + 1]
            assert fam.retractions[pos + 1] * x == fam.retractions[pos]


def test_eventuating_family_window_validation():
    d = drazin_inverse(DIAG)
    fam = eventuating_family(DIAG, d, N=1)
    assert fam.window == (-1, 0, 1)
    with pytest.raises(ValueError):
        eventuating_family(DIAG, d, N=0)
    with pytest.raises(ValueError):
        eventuating_family(DIAG, d, N=-2)


def test_complement_and_munn_hold():
    rng = random.Random(111)
    cases = [DIAG, NILP, MIXED, IDEM]
    for _ in range(15):
        n = rng.randint(1, 4)
        cases.append(Matrix(F5, [[rng.randrange(5) for _ in range(n)] for _ in range(n)]))
    for x in cases:
        d = drazin_inverse(x)
        assert complement_formula_check(x, d)
        assert munn_power_iso_check(x, d)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.booleans())
def test_shifted_sum_is_inverted_by_the_drazin_power(data, raise_index):
    """(x^{k+1} + (I - e_x))^{-1} = (x^D)^{k+1} + (I - e_x) for a bundle that
    verifies at k: the computed index, or one more. So the sum the complement
    formula and the Munn check invert is never singular.

    The entries check none of the identities below, since [D.1-3] and the
    splittings prove them; this checks each one directly."""
    _, x = _sparse_square(data)
    d = drazin_inverse(x)
    if raise_index:
        d = dataclasses.replace(d, index=d.index + 1)
    verify_drazin_data(x, d)
    k, xd, e = d.index, d.inverse, d.idempotent
    n = x.rows
    eye = Matrix.identity(x.field, n)
    comp = eye - e
    xk = x ** k
    xk1 = xk * x
    inv = invert_matrix(xk1 + comp)
    assert inv == xd ** (k + 1) + comp
    assert complement_formula_check(x, d) and munn_power_iso_check(x, d)
    # The complement formula, in both orders, and Munn absorption.
    assert xk * inv == xd and inv * xk == xd
    assert e * xk1 == xk1 and xk1 * e == xk1
    # The splitting iso: r*x^D*s inverts alpha, both squares commute, and
    # x^k factors through the retract.
    sp = split_idempotent(e)
    r, s = sp.retraction, sp.section
    alpha = splitting_iso(x, d)
    one = Matrix.identity(x.field, sp.through_dim)
    alpha_inv = r * xd * s
    assert alpha * alpha_inv == one and alpha_inv * alpha == one
    assert r * x == alpha * r and x * s == s * alpha
    assert e * xk == xk and xk * e == xk
    # The Fitting similarity: the stacked retractions invert p, and the
    # blocks reassemble x.
    fit = fitting_decomposition(x, d)
    sp_c = split_idempotent(comp)
    p_inv = vstack(r, sp_c.retraction)
    assert fit.change_of_basis * p_inv == eye
    assert fit.change_of_basis * block_diag(fit.invertible_block, fit.nilpotent_block) * p_inv == x
    # The nilpotent part vanishes at the k-th power (it is 0 when k = 0).
    cn = core_nilpotent(x, d)
    assert (cn.nilpotent_part ** max(k, 1)).is_zero()
    assert cn.nilpotent_index <= max(k, 1)


# -- the certified context: one validation per (x, d) --------------------------

ENTRIES = (
    splitting_iso,
    core_nilpotent,
    fitting_decomposition,
    eventuating_family,
    complement_formula_check,
    munn_power_iso_check,
)


def test_six_entries_validate_once(monkeypatch):
    import drazin.decompositions as decompositions

    calls = []
    real = decompositions.verify_drazin_data

    def counting(x, d):
        calls.append(1)
        return real(x, d)

    monkeypatch.setattr(decompositions, "verify_drazin_data", counting)
    d = drazin_inverse(MIXED)
    for entry in ENTRIES:
        entry(MIXED, d)
    assert len(calls) == 1
    # An equal matrix that is another object is validated again.
    twin = q([[2, 0, 0], [0, 0, 1], [0, 0, 0]])
    splitting_iso(twin, d)
    assert len(calls) == 2


def test_tampered_copy_of_a_used_bundle_still_raises():
    d = drazin_inverse(MIXED)
    for entry in ENTRIES:
        entry(MIXED, d)
    tampered = (
        dataclasses.replace(d, inverse=q([[1, 0, 0], [0, 0, 0], [0, 0, 0]])),
        dataclasses.replace(d, index=1),
        dataclasses.replace(d, idempotent=Matrix.identity(Q, 3)),
    )
    for bad in tampered:
        with pytest.raises(ValueError) as want:
            verify_drazin_data(MIXED, bad)
        for entry in ENTRIES:
            with pytest.raises(ValueError) as got:
                entry(MIXED, bad)
            assert type(got.value) is type(want.value)
            assert str(got.value) == str(want.value)


def test_validated_bundle_with_another_matrix_raises():
    d = drazin_inverse(MIXED)
    splitting_iso(MIXED, d)
    other = q([[2, 0, 0], [0, 0, 1], [0, 0, 3]])
    for entry in ENTRIES:
        with pytest.raises(ValueError):
            entry(other, d)


@st.composite
def drazin_inputs(draw):
    """Square matrices over Q, F_2 and F_3: random, invertible or nilpotent."""
    field = draw(st.sampled_from([Q, PrimeField(2), PrimeField(3)]))
    n = draw(st.integers(1, 6))
    entry = st.integers(-3, 3)

    def grid(keep):
        return [[draw(entry) if keep(i, j) else int(i == j) for j in range(n)] for i in range(n)]

    kind = draw(st.sampled_from(["random", "invertible", "nilpotent"]))
    if kind == "random":
        return Matrix(field, grid(lambda i, j: True))
    lower = Matrix(field, grid(lambda i, j: j < i))  # unit lower triangular
    upper = Matrix(field, grid(lambda i, j: j > i))  # unit upper triangular
    if kind == "invertible":
        return lower * upper
    strict = upper - Matrix.identity(field, n)
    return lower * strict * invert_matrix(lower)


@settings(max_examples=120, deadline=None)
@given(drazin_inputs())
def test_entries_agree_on_route_a_and_route_b_bundles(x):
    a, b = drazin_inverse(x), image_kernel_drazin(x)
    want = [entry(x, a) for entry in ENTRIES]
    # Route B's bundle is consumed in the opposite order, so every shared
    # part of its context is built by a different entry first.
    got = [entry(x, b) for entry in reversed(ENTRIES)][::-1]
    assert got == want
