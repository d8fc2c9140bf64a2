import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drazin import (
    Matrix,
    NotSquareError,
    OpposingPair,
    PrimeField,
    Q,
    ShapeMismatchError,
    check_binary_idempotent,
    check_pair_group,
    cline,
    drazin_inverse,
    moore_penrose,
    mp_drazin_check,
    mp_via_pair_drazin,
    pair_drazin,
    verify_pair_data,
)

F2 = PrimeField(2)
F3 = PrimeField(3)
F7 = PrimeField(7)


def q(entries):
    return Matrix(Q, entries)


def random_matrix(rng, field, rows, cols, span=4):
    if field is Q:
        return q([[Fraction(rng.randint(-span, span)) for _ in range(cols)] for _ in range(rows)])
    return Matrix(field, [[rng.randrange(field.p) for _ in range(cols)] for _ in range(rows)])


def test_pair_shape_validation():
    with pytest.raises(ShapeMismatchError):
        OpposingPair(q([[1, 2]]), q([[1, 2]]))
    OpposingPair(q([[1, 2]]), q([[1], [2]]))


def test_pair_drazin_frozen_projection_pair():
    f = q([[1, 0], [0, 0], [0, 0]])
    g = q([[1, 0, 0], [0, 1, 0]])
    d = pair_drazin(OpposingPair(f, g))
    assert d.index == 1
    assert d.f_over_g == q([[1, 0, 0], [0, 0, 0]])
    assert d.g_over_f == f
    assert d.idem_fg == q([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    assert d.idem_gf == q([[1, 0], [0, 0]])
    assert check_pair_group(OpposingPair(f, g), d)
    assert not check_binary_idempotent(OpposingPair(f, g))


def test_pair_drazin_invertible_pair_gives_plain_inverses():
    f = q([[1, 1], [0, 1]])
    g = q([[2, 0], [0, 1]])
    d = pair_drazin(OpposingPair(f, g))
    assert d.index == 0
    assert d.f_over_g == q([[1, -1], [0, 1]])
    assert d.g_over_f == q([[Fraction(1, 2), 0], [0, 1]])
    assert d.idem_fg == Matrix.identity(Q, 2)
    assert d.idem_gf == Matrix.identity(Q, 2)


def test_pair_with_identity_recovers_plain_drazin():
    x = q([[2, 0], [0, 0]])
    d = pair_drazin(OpposingPair(x, Matrix.identity(Q, 2)))
    xd = drazin_inverse(x)
    assert d.f_over_g == xd.inverse
    assert d.g_over_f == x * xd.inverse
    assert d.index == xd.index


def test_pair_axioms_on_random_pairs():
    rng = random.Random(2002)
    for _ in range(40):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        field = F7 if rng.random() < 0.5 else Q
        f = random_matrix(rng, field, n, m, span=2)
        g = random_matrix(rng, field, m, n, span=2)
        pair = OpposingPair(f, g)
        d = pair_drazin(pair)
        u, v = d.f_over_g, d.g_over_f
        fg_k = (f * g) ** d.index
        gf_k = (g * f) ** d.index
        assert fg_k * f * u == fg_k
        assert gf_k * g * v == gf_k
        assert u * f * u == u and v * g * v == v
        assert f * u == v * g and u * f == g * v
        assert d.idem_fg * d.idem_fg == d.idem_fg
        assert d.idem_gf * d.idem_gf == d.idem_gf
        # check_pair_group answers from the index alone: [DV.1-3] at index
        # at most 1 imply the group absorption [GV.1].
        assert check_pair_group(pair, d) == (d.index <= 1)
        if d.index <= 1:
            assert f * u * (f * g) == f * g and g * v * (g * f) == g * f


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_pair_idempotents_have_both_expressions(data):
    """idem_fg = f*u = v*g and idem_gf = u*f = g*v on pair_drazin's output.

    pair_drazin builds f*u and u*f only: once its two formulas for u and
    for v agree, associativity gives v*g = f*u and g*v = u*f. This checks
    both identities directly, on sparse pairs, many of index above 1."""
    field = data.draw(st.sampled_from([Q, F2, F3, F7]))
    n, m = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    entry = st.one_of(st.just(0), st.integers(-2, 2))
    f = Matrix(field, [[data.draw(entry) for _ in range(m)] for _ in range(n)])
    g = Matrix(field, [[data.draw(entry) for _ in range(n)] for _ in range(m)])
    d = pair_drazin(OpposingPair(f, g))
    u, v = d.f_over_g, d.g_over_f
    assert d.idem_fg == f * u == v * g
    assert d.idem_gf == u * f == g * v


def test_pair_swap_symmetry():
    rng = random.Random(2003)
    for _ in range(20):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        f = random_matrix(rng, F7, n, m)
        g = random_matrix(rng, F7, m, n)
        d = pair_drazin(OpposingPair(f, g))
        swapped = pair_drazin(OpposingPair(g, f))
        assert swapped.f_over_g == d.g_over_f
        assert swapped.g_over_f == d.f_over_g
        assert swapped.index == d.index
        assert swapped.idem_fg == d.idem_gf
        assert swapped.idem_gf == d.idem_fg


def test_cline_frozen_nilpotent_identity():
    f = q([[0, 1], [0, 0]])
    fg_D, gf_D = cline(f, Matrix.identity(Q, 2))
    assert fg_D.is_zero() and gf_D.is_zero()


def test_cline_matches_direct_on_randoms():
    rng = random.Random(2004)
    for _ in range(25):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        f = random_matrix(rng, F7, n, m)
        g = random_matrix(rng, F7, m, n)
        fg_D, gf_D = cline(f, g)
        assert fg_D == drazin_inverse(f * g).inverse
        assert gf_D == drazin_inverse(g * f).inverse


def test_binary_idempotent_pair_is_its_own_pair_inverse():
    f = q([[1], [0]])
    g = q([[1, 0]])
    pair = OpposingPair(f, g)
    assert check_binary_idempotent(pair)
    d = pair_drazin(pair)
    assert d.f_over_g == g
    assert d.g_over_f == f
    assert d.index <= 1


def test_moore_penrose_frozen_rank_one():
    f = q([[1, 1], [0, 0]])
    mp = moore_penrose(f)
    assert mp.exists and mp.witness is None
    assert mp.pseudo == q([[Fraction(1, 2), 0], [Fraction(1, 2), 0]])


def test_moore_penrose_frozen_column():
    f = q([[1], [1]])
    mp = moore_penrose(f)
    assert mp.pseudo == q([[Fraction(1, 2), Fraction(1, 2)]])


def test_moore_penrose_axioms_over_q():
    rng = random.Random(2005)
    for _ in range(30):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        f = random_matrix(rng, Q, n, m, span=3)
        mp = moore_penrose(f)
        assert mp.exists  # over Q the Gram ranks never drop
        p = mp.pseudo
        assert f * p * f == f
        assert p * f * p == p
        assert (f * p).transpose() == f * p
        assert (p * f).transpose() == p * f


def test_moore_penrose_f2_nonexistence():
    f = Matrix(F2, [[1], [1]])
    mp = moore_penrose(f)
    assert not mp.exists and mp.pseudo is None
    assert mp.witness == "rank(f^T*f)=0 < rank(f)=1"
    via_pair = mp_via_pair_drazin(f)
    assert not via_pair.exists
    assert via_pair.witness == "pair index 2 > 1"


def test_moore_penrose_f3_nonexistence():
    f = Matrix(F3, [[1, 1, 1]])
    mp = moore_penrose(f)
    assert not mp.exists
    assert mp.witness == "rank(f*f^T)=0 < rank(f)=1"
    assert not mp_via_pair_drazin(f).exists


def test_moore_penrose_double_gram_drop():
    f = Matrix(F2, [[1, 1], [1, 1]])
    mp = moore_penrose(f)
    assert not mp.exists
    assert mp.witness == "rank(f*f^T)=0 and rank(f^T*f)=0 < rank(f)=1"


def test_mp_routes_agree():
    rng = random.Random(2006)
    for _ in range(30):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        field = Q if rng.random() < 0.5 else F7
        f = random_matrix(rng, field, n, m, span=3)
        direct = moore_penrose(f)
        via_pair = mp_via_pair_drazin(f)
        assert direct.exists == via_pair.exists
        if direct.exists:
            assert direct.pseudo == via_pair.pseudo


def test_dagger_pair_coherence():
    rng = random.Random(2007)
    for _ in range(25):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        f = random_matrix(rng, Q, n, m, span=3)
        d = pair_drazin(OpposingPair(f, f.transpose()))
        assert d.g_over_f == d.f_over_g.transpose()
        assert d.idem_fg.transpose() == d.idem_fg
        assert d.idem_gf.transpose() == d.idem_gf


def test_transpose_pair_is_binary_idempotent():
    rng = random.Random(2008)
    cases = [q([[1, 1], [0, 0]])]
    cases += [random_matrix(rng, Q, rng.randint(1, 4), rng.randint(1, 4), span=2) for _ in range(20)]
    for f in cases:
        g = moore_penrose(f).pseudo
        assert check_binary_idempotent(OpposingPair(f, g))
        # Associativity makes both composites idempotent; check_binary_idempotent relies on it.
        fg, gf = f * g, g * f
        assert fg * fg == fg and gf * gf == gf


def test_mp_drazin_check_frozen_cases():
    nil = mp_drazin_check(q([[0, 1], [0, 0]]))
    assert not nil.is_mp_drazin and nil.witness == "index 2 > 1"
    skew = mp_drazin_check(q([[1, 1], [0, 0]]))
    assert not skew.is_mp_drazin and skew.witness == "idempotent not symmetric"
    sym = mp_drazin_check(q([[1, 0], [0, 0]]))
    assert sym.is_mp_drazin and sym.witness == "drazin-equals-mp"
    invertible = mp_drazin_check(q([[1, 1], [0, 1]]))
    assert invertible.is_mp_drazin
    with pytest.raises(NotSquareError):
        mp_drazin_check(q([[1, 2]]))


def test_mp_drazin_check_never_disagrees_on_small_sweep():
    from itertools import product

    for combo in product(range(2), repeat=4):
        x = Matrix(F2, [combo[:2], combo[2:]])
        mp_drazin_check(x)  # raises InternalInconsistencyError on any split


def test_verify_pair_data_accepts_fresh_and_rejects_tampering():
    f = q([[2, 0, 0], [0, 0, 1]])
    g = q([[1, 0], [0, 1], [0, 0]])
    pair = OpposingPair(f, g)
    d = pair_drazin(pair)
    assert d.index == 2
    assert d.f_over_g == q([[Fraction(1, 2), 0], [0, 0], [0, 0]])
    verify_pair_data(pair, d)
    verify_pair_data(pair, dataclasses.replace(d, index=3))
    half = Fraction(1, 2)
    stale = [
        (dataclasses.replace(d, index=1), r"\[DV\.1\]"),
        (dataclasses.replace(d, index=-1), r"\[DV\.1\]"),
        (dataclasses.replace(d, f_over_g=q([[1, 0], [0, 0], [0, 0]])), r"\[DV\.1\]"),
        (dataclasses.replace(d, f_over_g=q([[half, 0], [0, 1], [0, 0]])), r"\[DV\.2\]"),
        (dataclasses.replace(d, f_over_g=q([[half, 0], [0, 0], [0, 1]])), r"\[DV\.3\]"),
        (dataclasses.replace(d, g_over_f=q([[1, 0, 0], [0, 1, 0]])), r"\[DV\.3\]"),
        (dataclasses.replace(d, f_over_g=q([[half, 0], [0, 0]])), "shapes"),
        (dataclasses.replace(d, g_over_f=d.f_over_g), "shapes"),
    ]
    for bad, reason in stale:
        with pytest.raises(ValueError, match=reason):
            verify_pair_data(pair, bad)


def test_differing_one_sided_indices_are_logged(caplog):
    # f*g = [[0,1],[0,0]] has index 2 and g*f = [[0]] index 1.
    f, g = q([[1], [0]]), q([[0, 1]])
    with caplog.at_level("INFO", logger="drazin.pairs"):
        data = pair_drazin(OpposingPair(f, g))
    assert data.index == 2
    assert [(r.name, r.getMessage()) for r in caplog.records] == [
        ("drazin.pairs", "one-sided pair indices differ: 2 vs 1")
    ]
