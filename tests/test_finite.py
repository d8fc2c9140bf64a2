import random
import tracemalloc
from math import lcm
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from drazin import (
    CycleNotFoundError,
    DrazinError,
    EndoFun,
    Matrix,
    Monoid,
    ParseError,
    PrimeField,
    all_endofunctions,
    check_monoid_axioms,
    drazin_inverse,
    endo_drazin,
    eventual_image,
    fp_matrix_monoid,
    int_mod_monoid,
    invert_matrix,
    monoid_cycle_drazin,
    monoid_drazin,
    power_cycle,
    transformation_monoid,
)

from oracles import brute_drazin_endo, brute_drazin_zmod, compose, modp_matmul, reference_cycle


def test_endofun_basics():
    f = EndoFun(3, (1, 2, 1))
    assert f(0) == 1 and f(2) == 1
    g = EndoFun(3, (0, 0, 2))
    # applicative order: (f*g)(x) = f(g(x))
    assert (f * g).table == (1, 1, 1)
    assert (g * f).table == (0, 2, 0)
    assert (f ** 2).table == tuple(compose(f.table, f.table))
    assert (f ** 0) == EndoFun.identity(3)


def test_endofun_validation():
    with pytest.raises(ParseError):
        EndoFun(2, (0, 5))
    with pytest.raises(ParseError):
        EndoFun(2, (0,))


def test_endofun_json_round_trip():
    f = EndoFun(3, (2, 0, 1))
    assert EndoFun.from_json(f.to_json()) == f
    assert EndoFun.from_json([2, 0, 1]) == f
    assert EndoFun.from_json({"n": 3, "table": [2, 0, 1]}) == f


def test_endofun_json_errors():
    with pytest.raises(ParseError):
        EndoFun.from_json({"n": 3})
    with pytest.raises(ParseError):
        EndoFun.from_json({"n": 2, "table": [0, 1, 0]})
    with pytest.raises(ParseError):
        EndoFun.from_json({"n": 2, "table": [0, "x"]})
    with pytest.raises(ParseError):
        EndoFun.from_json("nope")


# Arbitrary JSON, with small ints and the keys "n" and "table" common enough
# that some payloads are valid endofunctions: from_json answers with an
# EndoFun that round-trips through to_json, or raises a DrazinError.
ENDO_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.integers() | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.sampled_from(["n", "table", ""]), inner),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(ENDO_JSON)
def test_endofun_from_json_raises_only_drazin_errors(obj):
    try:
        f = EndoFun.from_json(obj)
    except DrazinError:
        return
    assert EndoFun.from_json(f.to_json()) == f


def test_all_endofunctions_counts():
    assert len(list(all_endofunctions(0))) == 1
    assert len(set(all_endofunctions(3))) == 27


def test_eventual_image_frozen():
    assert eventual_image(EndoFun.identity(3)) == ((0, 1, 2), 0)
    assert eventual_image(EndoFun(3, (0, 0, 0))) == ((0,), 1)
    assert eventual_image(EndoFun(3, (1, 2, 1))) == ((1, 2), 1)
    tower = EndoFun(4, (0, 0, 1, 2))
    assert eventual_image(tower) == ((0,), 3)


def test_eventual_image_restriction_is_bijective():
    rng = random.Random(3001)
    for _ in range(50):
        n = rng.randint(1, 7)
        f = EndoFun(n, tuple(rng.randrange(n) for _ in range(n)))
        stable, k = eventual_image(f)
        image = {f(i) for i in stable}
        assert image == set(stable)
        assert len({f(i) for i in stable}) == len(stable)


def test_endo_drazin_frozen():
    ident = EndoFun.identity(4)
    assert endo_drazin(ident) == (ident, 0)
    const = EndoFun(3, (1, 1, 1))
    assert endo_drazin(const) == (const, 1)
    swap_tail = EndoFun(3, (1, 2, 1))
    assert endo_drazin(swap_tail) == (swap_tail, 1)


def test_endo_drazin_of_bijection_is_inverse():
    f = EndoFun(3, (1, 2, 0))
    d, k = endo_drazin(f)
    assert k == 0
    assert d.table == (2, 0, 1)
    assert d * f == EndoFun.identity(3)


def test_endo_drazin_matches_brute_force_n_up_to_3():
    for n in (1, 2, 3):
        for f in all_endofunctions(n):
            d, k = endo_drazin(f)
            assert d.table == brute_drazin_endo(f.table), f.table
            # k is the minimal absorption exponent
            fk = f ** k
            assert fk * f * d == fk
            if k > 0:
                prev = f ** (k - 1)
                assert prev * f * d != prev


def test_endo_drazin_random_larger():
    rng = random.Random(3002)
    for _ in range(40):
        n = rng.randint(4, 8)
        f = EndoFun(n, tuple(rng.randrange(n) for _ in range(n)))
        d, k = endo_drazin(f)
        assert d * f == f * d
        assert d * f * d == d
        fk = f ** k
        assert fk * f * d == fk
        if k > 0:
            prev = f ** (k - 1)
            assert prev * f * d != prev


def test_monoid_drazin_frozen_z8():
    mon = int_mod_monoid(8)
    x = mon.element(2)
    assert power_cycle(x) == (3, 1)
    d, index = monoid_drazin(x)
    assert d.value == 0
    assert index == 3
    assert brute_drazin_zmod(2, 8) == 0


def test_monoid_drazin_frozen_z12():
    mon = int_mod_monoid(12)
    x = mon.element(2)
    assert power_cycle(x) == (2, 2)
    d, index = monoid_drazin(x)
    assert d.value == 8
    assert index == 2
    assert brute_drazin_zmod(2, 12) == 8


def test_monoid_drazin_identity_element():
    mon = int_mod_monoid(12)
    d, index = monoid_drazin(mon.element(1))
    assert d.value == 1 and index == 0


def test_monoid_drazin_zero_element():
    mon = int_mod_monoid(5)
    d, index = monoid_drazin(mon.element(0))
    assert d.value == 0 and index == 1


def test_monoid_drazin_exhaustive_zmod():
    for modulus in range(1, 25):
        mon = int_mod_monoid(modulus)
        for value in range(modulus):
            d, index = monoid_drazin(mon.element(value))
            assert d.value == brute_drazin_zmod(value, modulus), (value, modulus)
            # minimality of the returned index
            assert pow(value, index + 1, modulus) * d.value % modulus == pow(
                value, index, modulus
            )
            if index > 0:
                assert pow(value, index, modulus) * d.value % modulus != pow(
                    value, index - 1, modulus
                )


def test_cycle_not_found_with_tiny_budget():
    mon = int_mod_monoid(8)
    with pytest.raises(CycleNotFoundError):
        power_cycle(mon.element(2), max_steps=1)


def test_power_cycle_default_limit(monkeypatch):
    import drazin.finite as finite

    x = int_mod_monoid(11).element(2)  # 2 has order 10 modulo 11
    monkeypatch.setattr(finite, "_WALK_LIMIT", 3)
    with pytest.raises(CycleNotFoundError, match="within 3 steps"):
        power_cycle(x)
    assert power_cycle(x, max_steps=20) == (0, 10)


def test_unknown_size_requires_max_steps():
    mon = Monoid(mul=lambda a, b: a * b, identity=1)
    with pytest.raises(ValueError):
        power_cycle(mon.element(2))
    assert power_cycle(mon.element(1), max_steps=5) == (0, 1)


def test_transformation_monoid_agrees_with_endo_drazin():
    rng = random.Random(3003)
    mon = transformation_monoid(4)
    for _ in range(30):
        table = tuple(rng.randrange(4) for _ in range(4))
        d, index = monoid_drazin(mon.element(table))
        ed, ek = endo_drazin(EndoFun(4, table))
        assert d.value == ed.table
        assert index == ek


def test_fp_matrix_monoid_agrees_with_rank_route():
    import numpy as np

    rng = random.Random(3004)
    f5 = PrimeField(5)
    mon = fp_matrix_monoid(5, 3)
    for _ in range(6):
        entries = [[rng.randrange(5) for _ in range(3)] for _ in range(3)]
        d, index = monoid_drazin(mon.element(np.array(entries, dtype=np.int64)))
        ref = drazin_inverse(Matrix(f5, entries))
        assert index == ref.index
        assert [[int(v) for v in row] for row in d.value] == [
            list(row) for row in ref.inverse.entries
        ]


def test_fp_matrix_monoid_refuses_int64_overflow():
    fp_matrix_monoid(3037000493, 1)
    with pytest.raises(ValueError, match="2\\^63"):
        fp_matrix_monoid(3037000493, 2)
    with pytest.raises(ValueError, match="2\\^63"):
        fp_matrix_monoid(4294967311, 2)


def test_monoid_index_is_the_tail_length():
    import numpy as np

    rng = random.Random(3005)
    cases = [(int_mod_monoid(m), range(m), m) for m in range(1, 100)]
    cases += [
        (transformation_monoid(n), product(range(n), repeat=n), n) for n in range(1, 5)
    ]
    for p, n in ((2, 3), (3, 2), (5, 3)):
        samples = [
            np.array([[rng.randrange(p) for _ in range(n)] for _ in range(n)], dtype=np.int64)
            for _ in range(40)
        ]
        cases.append((fp_matrix_monoid(p, n), samples, n))
    for mon, values, cap in cases:
        for value in values:
            x = mon.element(value)
            d, index = monoid_drazin(x)
            assert index == power_cycle(x)[0]
            report = check_monoid_axioms(mon, value, d.value, cap)
            assert report.passed and report.witnessed_index == index


def test_walk_agrees_with_a_walk_that_keeps_every_power():
    """(m, c, x^D) on every element of Z/m for m < 300 and on every
    transformation of at most 4 points, against the oracle's plain walk."""
    cases = [(int_mod_monoid(m), range(m)) for m in range(1, 300)]
    cases += [(transformation_monoid(n), product(range(n), repeat=n)) for n in range(5)]
    for mon, values in cases:
        for value in values:
            x = mon.element(value)
            m, c, inverse = reference_cycle(mon.mul, mon.identity, value)
            assert power_cycle(x) == (m, c), (mon, value)
            assert monoid_drazin(x) == (mon.element(inverse), m), (mon, value)


def test_walk_memory_does_not_grow_with_its_length():
    """2 has order 1,000,002 modulo the prime 1,000,003. The walk stores the
    keys of x^0 .. x^20 only (20 bits in the modulus), so a million steps
    stay within a few MB; storing every power took over 100 MB."""
    x = int_mod_monoid(1000003).element(2)
    tracemalloc.start()
    try:
        assert power_cycle(x, max_steps=10 ** 6 + 2) == (0, 1000002)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20, peak


def _companion(p, coeffs):
    """The companion matrix over F_p of t^n - (c_0 + c_1 t + ... + c_{n-1} t^{n-1})."""
    n = len(coeffs)
    return [[int(j == i - 1) for j in range(n - 1)] + [coeffs[i] % p] for i in range(n)]


# t^6 - 2t^5 - 2 over F_5 and t^6 - 2t^5 - 3t^4 - 2 over F_7 are primitive, so
# their companion matrices have order p^6 - 1: c = 15,624 and c = 117,648.
PRIMITIVE_F5 = _companion(5, (2, 0, 0, 0, 0, 2))
PRIMITIVE_F7 = _companion(7, (2, 0, 0, 0, 3, 2))


def _tail_and_cycle(n, m, c):
    """(p, rows): the n x n matrix diag(J_m, g, 1, ..., 1) over the least F_p
    with an element g of order c. J_m is the nilpotent Jordan block, so the
    powers have tail m and cycle c; m = n gives J_n alone."""
    p = next(q for q in range(c + 1, 10 ** 6, c) if all(q % d for d in range(2, int(q ** 0.5) + 1)))
    g = next(
        g for g in (pow(a, (p - 1) // c, p) for a in range(1, p))
        if len({pow(g, e, p) for e in range(c)}) == c
    )
    rows = [[int(j == i + 1 < m or i == j > m) for j in range(n)] for i in range(n)]
    if m < n:
        rows[m][m] = g
    return p, rows


def _agrees_with_reference(p, rows):
    import numpy as np

    n = len(rows)
    identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    m, c, inverse = reference_cycle(
        lambda a, b: modp_matmul(a, b, p), identity, tuple(map(tuple, rows))
    )
    x = fp_matrix_monoid(p, n).element(np.array(rows, dtype=np.int64))
    assert power_cycle(x) == (m, c), (p, rows)
    d, index = monoid_drazin(x)
    assert index == m and d.value.tolist() == [list(row) for row in inverse], (p, rows)
    return m, c


def test_matrix_walk_agrees_with_the_reference_on_every_branch():
    """(m, c, x^D) against the oracle's plain walk on 6 x 6 matrices, whose
    tail bound is T = 6. The linear prefix covers m + c <= T + 32, at its
    edges here; past it power_cycle walks on from x^T, up to c = 15,624, and
    monoid_drazin answers in closed form. Tails run over m = 0 .. 6."""
    shapes = [(m, 6 + 32 + k - m) for m in (0, 3, 5) for k in (-1, 0, 1)]
    edges = (34, 64, 65, 128, 129, 256, 257, 384, 385, 1000)
    shapes += [(5 - i % 6, c) for i, c in enumerate(edges)]
    shapes += [(m, 1) for m in range(1, 7)]
    for m, c in shapes:
        assert _agrees_with_reference(*_tail_and_cycle(6, m, c)) == (m, c)
    assert _agrees_with_reference(5, PRIMITIVE_F5) == (0, 15624)


def test_matrix_walk_budget_counts_tail_and_cycle():
    """Past the linear prefix the budget of the walk still bounds m + c, as on
    it: for diag(J_2, PRIMITIVE_F5), and for a cycle of 257."""
    import numpy as np

    rows = [[int(j == i + 1 < 2) for j in range(8)] for i in range(8)]
    for i in range(6):
        rows[2 + i][2:] = PRIMITIVE_F5[i]
    cases = [(5, rows, 2, 15624), _tail_and_cycle(6, 0, 257) + (0, 257)]
    for p, rows, m, c in cases:
        x = fp_matrix_monoid(p, len(rows)).element(np.array(rows, dtype=np.int64))
        assert power_cycle(x, max_steps=m + c) == (m, c)
        for budget in (m + c - 1, 100):
            with pytest.raises(CycleNotFoundError, match="within %d steps" % budget):
                power_cycle(x, max_steps=budget)


def test_matrix_walk_memory_does_not_grow_with_the_cycle():
    """A cycle of 117,648 powers of a 6 x 6 matrix is walked keeping one power
    past the prefix, so the peak stays far below the 117,648 x 288 bytes that
    keeping every power would take."""
    import numpy as np

    x = fp_matrix_monoid(7, 6).element(np.array(PRIMITIVE_F7, dtype=np.int64))
    tracemalloc.start()
    try:
        assert power_cycle(x) == (0, 117648)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak


@st.composite
def _route_c_inputs(draw):
    """(p, rows): a random matrix over F_2, F_3, F_5, F_7 or F_13 with n <= 6,
    or one whose powers first repeat past the linear prefix of n + 32 steps:
    diag(J_m, g, 1, ..., 1) with g of order 33..400 (_tail_and_cycle), or a
    primitive companion over F_5 or F_7 in a random basis."""
    kind = draw(st.sampled_from(["random", "tail_and_cycle", "primitive"]))
    if kind == "tail_and_cycle":
        n = draw(st.integers(2, 6))
        return _tail_and_cycle(n, draw(st.integers(0, n - 1)), draw(st.integers(33, 400)))
    if kind == "random":
        p, n = draw(st.sampled_from([2, 3, 5, 7, 13])), draw(st.integers(1, 6))
    else:
        p, n = draw(st.sampled_from([5, 7])), 6
    rows = draw(st.lists(st.lists(st.integers(0, p - 1), min_size=n, max_size=n), min_size=n, max_size=n))
    if kind == "random":
        return p, rows
    field = PrimeField(p)
    basis = Matrix(field, rows)
    assume(drazin_inverse(basis).index == 0)  # invertible
    x = basis * Matrix(field, PRIMITIVE_F5 if p == 5 else PRIMITIVE_F7) * invert_matrix(basis)
    return p, [list(row) for row in x.entries]


@settings(max_examples=150, deadline=None)
@given(_route_c_inputs())
def test_route_c_equals_route_a(case):
    """Route C, by the linear prefix or past it in closed form, gives route A's
    inverse, index and idempotent."""
    p, rows = case
    x = Matrix(PrimeField(p), rows)
    c, a = monoid_cycle_drazin(x), drazin_inverse(x)
    assert (c.inverse, c.index, c.idempotent) == (a.inverse, a.index, a.idempotent)


def test_route_c_closed_form_counts_against_the_budget():
    """Past the prefix of n + 32 steps, the closed form x^D = x^(E-1) spends
    the products of x^E from the same budget: one step short of them, or an
    E longer than the steps left, raises CycleNotFoundError naming the budget.
    E is computed here from its definition, with p^e the least power >= n."""
    for p, rows in ((5, PRIMITIVE_F5), (2 ** 61 - 1, [[0, 1], [1, 1]])):
        n = len(rows)
        unipotent = next(p ** e for e in range(n) if p ** e >= n)
        j = lcm(*(p ** i - 1 for i in range(1, n + 1))) * unipotent - 1
        budget = n + 32 + j.bit_length() + bin(j).count("1") - 1
        x = Matrix(PrimeField(p), rows)
        assert monoid_cycle_drazin(x, max_steps=budget).inverse == drazin_inverse(x).inverse
        for short in (budget - 1, n + 33):
            with pytest.raises(CycleNotFoundError, match="the budget of %d steps" % short):
                monoid_cycle_drazin(x, max_steps=short)
