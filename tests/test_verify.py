import dataclasses
import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drazin import (
    AxiomReport,
    CycleNotFoundError,
    EndoFun,
    EnumerationTooLargeError,
    InternalInconsistencyError,
    Matrix,
    NotSquareError,
    OpposingPair,
    PrimeField,
    Q,
    all_endofunctions,
    all_matrices,
    brute_force_drazin,
    check_axioms,
    check_monoid_axioms,
    core_nilpotent,
    cross_route_audit,
    drazin_inverse,
    endo_drazin,
    eventuating_family,
    image_kernel_drazin,
    int_mod_monoid,
    monoid_cycle_drazin,
    moore_penrose,
    pair_drazin,
    transformation_monoid,
)
from oracles import frac_matmul, modp_matmul

F2 = PrimeField(2)
F5 = PrimeField(5)


def q(entries):
    return Matrix(Q, entries)


IDEM = q([[1, 1], [0, 0]])
NILP = q([[0, 1], [0, 0]])
MIXED = q([[2, 0, 0], [0, 0, 1], [0, 0, 0]])


def test_axiom_report_invariant():
    AxiomReport(system="D", passed=True, failed_axioms=())
    AxiomReport(system="D", passed=False, failed_axioms=("D.2",))
    with pytest.raises(AssertionError):
        AxiomReport(system="D", passed=True, failed_axioms=("D.2",))
    with pytest.raises(AssertionError):
        AxiomReport(system="D", passed=False, failed_axioms=())


def test_axiom_report_json():
    rep = check_axioms("D", x=IDEM, inverse=IDEM)
    payload = rep.to_json()
    assert payload["system"] == "D"
    assert payload["passed"] is True
    assert payload["failed_axioms"] == []
    assert payload["witnessed_index"] == 1


def test_check_d_idempotent_passes_with_index_one():
    rep = check_axioms("D", x=IDEM, inverse=IDEM)
    assert rep.passed and rep.failed_axioms == ()
    assert rep.witnessed_index == 1


def test_check_d_nilpotent_as_own_inverse_fails_d2():
    rep = check_axioms("D", x=NILP, inverse=NILP)
    assert not rep.passed
    assert rep.failed_axioms == ("D.2",)


def test_check_d_wrong_commutation():
    rep = check_axioms("D", x=q([[1, 1], [0, 0]]), inverse=q([[1, 0], [1, 0]]))
    assert not rep.passed
    assert "D.3" in rep.failed_axioms


def test_check_d_on_endofunctions():
    f = EndoFun(3, (1, 2, 1))
    fd, k = endo_drazin(f)
    rep = check_axioms("D", x=f, inverse=fd)
    assert rep.passed and rep.witnessed_index == k


def test_check_g_examples():
    rep = check_axioms("G", x=IDEM, inverse=IDEM)
    assert rep.passed and rep.witnessed_index is None
    bad = check_axioms("G", x=NILP, inverse=Matrix.zeros(Q, 2, 2))
    assert not bad.passed
    assert bad.failed_axioms == ("G.1",)


def test_check_dv_on_computed_pair():
    f = q([[1, 0], [0, 0], [0, 0]])
    g = q([[1, 0, 0], [0, 1, 0]])
    d = pair_drazin(OpposingPair(f, g))
    rep = check_axioms(
        "DV", f=f, g=g, f_over_g=d.f_over_g, g_over_f=d.g_over_f
    )
    assert rep.passed
    assert rep.witnessed_index == d.index == 1
    gv = check_axioms(
        "GV", f=f, g=g, f_over_g=d.f_over_g, g_over_f=d.g_over_f
    )
    assert gv.passed


def _f2_mul(a, b):
    return modp_matmul(a, b, 2)


def _failed_tags(system, holds):
    return tuple("%s.%d" % (system, i) for i, ok in enumerate(holds, 1) if not ok)


def test_check_g_exhaustive_2x2_f2():
    # Every x and every claim: the report against the G equations evaluated
    # on plain tuples, and the frozen tally of outcomes.
    mm = _f2_mul
    tally = Counter()
    matrices = list(all_matrices(F2, 2, 2))
    for x in matrices:
        for claim in matrices:
            a, c = x.entries, claim.entries
            want = _failed_tags(
                "G", [mm(mm(a, c), a) == a, mm(mm(c, a), c) == c, mm(c, a) == mm(a, c)]
            )
            rep = check_axioms("G", x=x, inverse=claim)
            assert (rep.failed_axioms, rep.passed) == (want, not want)
            assert rep.witnessed_index is None
            tally[want] += 1
    assert tally == {
        (): 13,
        ("G.1",): 21,
        ("G.2",): 21,
        ("G.3",): 30,
        ("G.1", "G.2"): 33,
        ("G.1", "G.3"): 30,
        ("G.2", "G.3"): 30,
        ("G.1", "G.2", "G.3"): 78,
    }


def test_check_gv_exhaustive_f2_column_row_pairs():
    # f: 2x1, g: 1x2, f^{D/g}: 1x2 and g^{D/f}: 2x1, all over F_2.
    mm = _f2_mul
    tally = Counter()
    columns = list(all_matrices(F2, 2, 1))
    rows = list(all_matrices(F2, 1, 2))
    for f, g, u, v in product(columns, rows, rows, columns):
        a, b, c, e = f.entries, g.entries, u.entries, v.entries
        fg, gf = mm(a, b), mm(b, a)
        want = _failed_tags("GV", [
            mm(mm(b, e), gf) == gf and mm(mm(a, c), fg) == fg,
            mm(mm(c, a), c) == c and mm(mm(e, b), e) == e,
            mm(a, c) == mm(e, b) and mm(c, a) == mm(b, e),
        ])
        rep = check_axioms("GV", f=f, g=g, f_over_g=u, g_over_f=v)
        assert (rep.failed_axioms, rep.passed) == (want, not want)
        assert rep.witnessed_index is None
        tally[want] += 1
    assert tally == {
        (): 13,
        ("GV.1",): 9,
        ("GV.2",): 33,
        ("GV.3",): 48,
        ("GV.1", "GV.2"): 3,
        ("GV.1", "GV.3"): 30,
        ("GV.2", "GV.3"): 66,
        ("GV.1", "GV.2", "GV.3"): 54,
    }


def _absorbs_at(x, e, bound, mm):
    """Least k <= bound with x^k * e = x^k on plain tuples, else None."""
    power = tuple(tuple(int(i == j) for j in range(len(x))) for i in range(len(x)))
    for k in range(bound + 1):
        if mm(power, e) == power:
            return k
        power = mm(power, x)
    return None


def test_check_d_exhaustive_2x2_f2():
    # Every x and every claim. The oracle searches two powers past the
    # dimension, so a cap of n in the library must miss nothing.
    mm = _f2_mul
    tally = Counter()
    matrices = list(all_matrices(F2, 2, 2))
    for x in matrices:
        for claim in matrices:
            a, c = x.entries, claim.entries
            k = _absorbs_at(a, mm(a, c), 4, mm)
            want = _failed_tags(
                "D", [k is not None, mm(mm(c, a), c) == c, mm(c, a) == mm(a, c)]
            )
            rep = check_axioms("D", x=x, inverse=claim)
            assert (rep.failed_axioms, rep.passed, rep.witnessed_index) == (want, not want, k)
            tally[want, k] += 1
    # Exactly 16 claims pass: the true inverse of each x.
    assert tally == {
        ((), 0): 6,
        ((), 1): 7,
        ((), 2): 3,
        (("D.2",), 1): 21,
        (("D.2",), 2): 9,
        (("D.3",), 1): 6,
        (("D.3",), 2): 12,
        (("D.2", "D.3"), 1): 6,
        (("D.2", "D.3"), 2): 24,
        (("D.1",), None): 18,
        (("D.1", "D.2"), None): 24,
        (("D.1", "D.3"), None): 42,
        (("D.1", "D.2", "D.3"), None): 78,
    }


@pytest.mark.parametrize("n, m", [(2, 1), (1, 2)])
def test_check_dv_exhaustive_f2(n, m):
    # f: n x m, g: m x n, f^{D/g}: m x n and g^{D/f}: n x m, all over F_2.
    # With (n, m) = (2, 1) one composite is 1x1 and the other 2x2, so the
    # pair index is searched up to each composite's own dimension.
    mm = _f2_mul
    tally = Counter()
    forward = list(all_matrices(F2, n, m))
    backward = list(all_matrices(F2, m, n))
    for f, g, u, v in product(forward, backward, backward, forward):
        a, b, c, e = f.entries, g.entries, u.entries, v.entries
        k1 = _absorbs_at(mm(a, b), mm(a, c), 4, mm)
        k2 = _absorbs_at(mm(b, a), mm(b, e), 4, mm)
        k = None if None in (k1, k2) else max(k1, k2)
        want = _failed_tags("DV", [
            k is not None,
            mm(mm(c, a), c) == c and mm(mm(e, b), e) == e,
            mm(a, c) == mm(e, b) and mm(c, a) == mm(b, e),
        ])
        rep = check_axioms("DV", f=f, g=g, f_over_g=u, g_over_f=v)
        assert (rep.failed_axioms, rep.passed, rep.witnessed_index) == (want, not want, k)
        tally[want, k] += 1
    # Both orientations give the same tally.
    assert tally == {
        ((), 1): 13,
        ((), 2): 3,
        (("DV.2",), 1): 33,
        (("DV.2",), 2): 3,
        (("DV.3",), 1): 18,
        (("DV.3",), 2): 24,
        (("DV.2", "DV.3"), 1): 60,
        (("DV.2", "DV.3"), 2): 18,
        (("DV.1",), None): 6,
        (("DV.1", "DV.3"), None): 36,
        (("DV.1", "DV.2", "DV.3"), None): 42,
    }


def test_check_gv_fails_at_high_pair_index():
    f = Matrix(F2, [[1], [1]])
    d = pair_drazin(OpposingPair(f, f.transpose()))
    assert d.index == 2
    rep = check_axioms(
        "GV", f=f, g=f.transpose(), f_over_g=d.f_over_g, g_over_f=d.g_over_f
    )
    assert not rep.passed
    assert "GV.1" in rep.failed_axioms


def test_check_mp_frozen():
    pseudo = q([[Fraction(1, 2), 0], [Fraction(1, 2), 0]])
    rep = check_axioms("MP", f=IDEM, pseudo=pseudo)
    assert rep.passed
    bad = check_axioms("MP", f=IDEM, pseudo=IDEM)
    assert not bad.passed
    assert "MP.3" in bad.failed_axioms


def test_check_cnd_on_computed_decomposition():
    d = drazin_inverse(MIXED)
    cn = core_nilpotent(MIXED, d)
    rep = check_axioms(
        "CND",
        x=MIXED,
        core=cn.core,
        nilpotent_part=cn.nilpotent_part,
        nilpotent_index=cn.nilpotent_index,
    )
    assert rep.passed
    swapped = check_axioms(
        "CND", x=MIXED, core=cn.nilpotent_part, nilpotent_part=cn.core
    )
    assert not swapped.passed
    assert "CND.2" in swapped.failed_axioms


def test_check_cnd_flags_each_tag_alone():
    """Each of CND.2 (with the index given), CND.3 and CND.4 fires on its own."""
    zero = q([[0, 0], [0, 0]])
    shift = q([[0, 1], [0, 0]])
    cases = {
        # shift^1 != 0, so the recorded nilpotency index is too small
        "CND.2": dict(x=shift, core=zero, nilpotent_part=shift, nilpotent_index=1),
        # core * nilpotent_part = shift != 0, though the two sum to x
        "CND.3": dict(x=q([[1, 1], [0, 0]]), core=q([[1, 0], [0, 0]]), nilpotent_part=shift, nilpotent_index=2),
        # 0 + 0 != I
        "CND.4": dict(x=Matrix.identity(Q, 2), core=zero, nilpotent_part=zero, nilpotent_index=1),
    }
    for tag, subject in cases.items():
        assert check_axioms("CND", **subject).failed_axioms == (tag,)


def test_check_ev_on_computed_family():
    d = drazin_inverse(MIXED)
    fam = eventuating_family(MIXED, d)
    rep = check_axioms("EV", x=MIXED, family=fam)
    assert rep.passed
    broken = dataclasses.replace(
        fam, sections=(fam.sections[0],) * len(fam.sections)
    )
    bad = check_axioms("EV", x=MIXED, family=broken)
    assert not bad.passed


def test_check_axioms_unknown_system():
    with pytest.raises(ValueError):
        check_axioms("XX", x=IDEM, inverse=IDEM)


def test_check_axioms_rejects_unexpected_subject_keys():
    with pytest.raises(TypeError):
        check_axioms("D", x=IDEM, inverse=IDEM, index=1)
    with pytest.raises(TypeError):
        check_axioms("G", x=IDEM)
    # A misspelt optional key must not quietly check CND without the index.
    d = drazin_inverse(MIXED)
    cn = core_nilpotent(MIXED, d)
    with pytest.raises(TypeError):
        check_axioms(
            "CND",
            x=MIXED,
            core=cn.core,
            nilpotent_part=cn.nilpotent_part,
            nilpotent_idx=cn.nilpotent_index,
        )


def test_negative_control_perturbations():
    # changing any single entry of a true inverse must break an axiom
    for x in (MIXED, IDEM, NILP):
        xd = drazin_inverse(x).inverse
        n = x.rows
        for i in range(n):
            for j in range(n):
                bumped = [list(row) for row in xd.entries]
                bumped[i][j] = bumped[i][j] + 1
                rep = check_axioms("D", x=x, inverse=q(bumped))
                assert not rep.passed, (x, i, j)


def test_negative_control_perturbations_fp():
    rng = random.Random(4001)
    for _ in range(5):
        n = rng.randint(1, 3)
        x = Matrix(F5, [[rng.randrange(5) for _ in range(n)] for _ in range(n)])
        xd = drazin_inverse(x).inverse
        for i in range(n):
            for j in range(n):
                bumped = [list(row) for row in xd.entries]
                bumped[i][j] = (bumped[i][j] + rng.randint(1, 4)) % 5
                rep = check_axioms("D", x=x, inverse=Matrix(F5, bumped))
                assert not rep.passed


def test_check_monoid_axioms():
    mon = int_mod_monoid(8)
    rep = check_monoid_axioms(mon, 2, 0, cap=8)
    assert rep.passed and rep.witnessed_index == 3
    bad = check_monoid_axioms(mon, 2, 4, cap=8)
    assert not bad.passed


def test_check_monoid_axioms_matches_check_d_on_endofunctions():
    for n in range(4):
        mon = transformation_monoid(n)
        funs = list(all_endofunctions(n))
        for f in funs:
            for claim in funs:
                assert check_monoid_axioms(mon, f.table, claim.table, cap=n) == check_axioms(
                    "D", x=f, inverse=claim
                )


def test_brute_force_endofunctions():
    f = EndoFun(3, (1, 2, 1))
    winner = brute_force_drazin(f, all_endofunctions(3))
    assert winner == endo_drazin(f)[0]
    assert winner.table == (1, 2, 1)


def test_brute_force_f2_involution_is_self_inverse():
    x = Matrix(F2, [[1, 1], [0, 1]])
    winner = brute_force_drazin(x, all_matrices(F2, 2, 2))
    assert winner == x


def test_brute_force_f2_nilpotent_is_zero():
    x = Matrix(F2, [[0, 1], [0, 0]])
    winner = brute_force_drazin(x, all_matrices(F2, 2, 2))
    assert winner == Matrix.zeros(F2, 2, 2)


def test_brute_force_returns_none_without_winner():
    x = q([[0, 1], [0, 0]])
    assert brute_force_drazin(x, [x, q([[1, 0], [0, 1]])]) is None


def test_brute_force_limit():
    x = Matrix(F2, [[0, 1], [0, 0]])
    with pytest.raises(EnumerationTooLargeError):
        brute_force_drazin(x, all_matrices(F2, 2, 2), limit=3)


def test_brute_force_duplicate_survivor_is_inconsistency():
    e = IDEM
    with pytest.raises(InternalInconsistencyError):
        brute_force_drazin(e, [e, e])


def test_all_matrices():
    mats = list(all_matrices(F2, 2, 2))
    assert len(mats) == 16 and len(set(mats)) == 16
    with pytest.raises(ValueError):
        list(all_matrices(Q, 1, 1))
    small = list(all_matrices(Q, 1, 2, scalars=[Fraction(0), Fraction(1)]))
    assert len(small) == 4


def test_monoid_cycle_route_matches_rank_route():
    rng = random.Random(4002)
    for _ in range(10):
        n = rng.randint(1, 3)
        x = Matrix(F5, [[rng.randrange(5) for _ in range(n)] for _ in range(n)])
        c = monoid_cycle_drazin(x)
        a = drazin_inverse(x)
        assert c.route == "MonoidCycle"
        assert c.inverse == a.inverse
        assert c.index == a.index
        assert c.idempotent == a.idempotent


def test_monoid_cycle_route_builds_one_monoid_per_shape(monkeypatch):
    """Route C keeps one monoid per (p, n), and fp_matrix_monoid itself still
    returns a fresh one. Where int64 products would overflow, fp_matrix_monoid
    raises once and route C answers over a monoid of Matrix values, which is
    kept too."""
    import drazin.finite as finite
    import drazin.verify as verify

    calls = []
    real = finite.fp_matrix_monoid

    def counting(p, n):
        calls.append((p, n))
        return real(p, n)

    monkeypatch.setattr(verify, "fp_matrix_monoid", counting)
    verify._matrix_monoid.cache_clear()
    try:
        rng = random.Random(4003)
        for n in (2, 3, 2, 3):
            x = Matrix(F5, [[rng.randrange(5) for _ in range(n)] for _ in range(n)])
            assert monoid_cycle_drazin(x).inverse == drazin_inverse(x).inverse
        assert calls == [(5, 2), (5, 3)]
        big = PrimeField(4294967311)
        x = Matrix(big, [[big.p - 1, 5], [0, 1]])  # order 2
        for _ in range(2):
            d = monoid_cycle_drazin(x)
            assert (d.inverse, d.index, d.idempotent) == (x, 0, Matrix.identity(big, 2))
        assert calls[2:] == [(4294967311, 2)]
    finally:
        verify._matrix_monoid.cache_clear()
    assert real(5, 2) is not real(5, 2)


def test_monoid_cycle_route_rejects_q():
    with pytest.raises(ValueError):
        monoid_cycle_drazin(q([[1]]))


def test_monoid_cycle_route_rejects_non_square():
    with pytest.raises(NotSquareError):
        monoid_cycle_drazin(Matrix(F5, [[1, 2]]))


def test_monoid_cycle_route_budget():
    x = Matrix(F5, [[1, 1], [0, 1]])  # order 5 in GL(2, 5)
    with pytest.raises(CycleNotFoundError):
        monoid_cycle_drazin(x, max_steps=2)
    assert monoid_cycle_drazin(x).inverse == drazin_inverse(x).inverse


def test_cross_route_audit_answers_past_the_walk_limit(monkeypatch):
    """The powers of [[0,1],[1,1]] over F_1000003 do not repeat within 1000
    steps, yet route C answers within that budget in closed form, over numpy
    for p = 1000003 and over Matrix values for the larger primes."""
    import drazin.finite as finite

    monkeypatch.setattr(finite, "_WALK_LIMIT", 1000)
    for p in (1000003, 4294967311, 2 ** 61 - 1):
        report = cross_route_audit(Matrix(PrimeField(p), [[0, 1], [1, 1]]))
        assert report.agree and report.indices == {"A": 0, "B": 0, "C": 0}, p


def test_cross_route_audit_fp():
    rng = random.Random(4003)
    for _ in range(8):
        n = rng.randint(1, 3)
        x = Matrix(F5, [[rng.randrange(5) for _ in range(n)] for _ in range(n)])
        report = cross_route_audit(x)
        assert sorted(report.inverses) == ["A", "B", "C"]
        assert report.agree
        assert set(report.pairwise_equal) == {("A", "B"), ("A", "C"), ("B", "C")}


def test_cross_route_audit_q():
    report = cross_route_audit(MIXED)
    assert sorted(report.inverses) == ["A", "B"]
    assert report.agree
    payload = report.to_json()
    assert payload["agree"] is True
    assert payload["routes"] == ["A", "B"]
    assert "A=B" in payload["pairwise_equal"]


def test_cross_route_audit_sees_a_faulty_power_walk(monkeypatch):
    """Route B's power walk made to report one index too many: route A reads
    its own rank chain, so the audit over Q, where there is no route C,
    reports the disagreement, and A still finds the constructed index."""
    walk = sys.modules["drazin.decompositions"]._power_walk

    def faulty(x):
        k, *rest = walk(x)
        return (k + 1, *rest)

    for name, module in list(sys.modules.items()):
        if name == "drazin" or name.startswith("drazin."):
            for attr, value in list(vars(module).items()):
                if value is walk:
                    monkeypatch.setattr(module, attr, faulty)
    x = q([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 3]])  # index 3
    report = cross_route_audit(x)
    assert report.indices["A"] == 3
    assert report.agree is False
    assert report.pairwise_equal[("A", "B")] is False


@st.composite
def _square_inputs(draw):
    """(field, rows): a square matrix of size 0..6 over Q or F_2, F_3, F_5,
    random, a low-rank product L*R, or a nilpotent block beside a random one."""
    field = draw(st.sampled_from([Q, F2, PrimeField(3), F5]))
    entry = st.fractions(-5, 5, max_denominator=6) if field == Q else st.integers(0, field.p - 1)
    n = draw(st.integers(0, 6))

    def block(rows, cols):
        return [[draw(entry) for _ in range(cols)] for _ in range(rows)]

    kind = draw(st.sampled_from(["random", "low_rank", "nilpotent"]))
    if kind == "random" or n == 0:
        return field, block(n, n)
    if kind == "low_rank":
        k = draw(st.integers(1, n))
        matmul = frac_matmul if field == Q else (lambda a, b: modp_matmul(a, b, field.p))
        return field, [list(row) for row in matmul(block(n, k), block(k, n))]
    k = draw(st.integers(1, n))
    rows = [[0] * n for _ in range(n)]
    for i in range(k):
        for j in range(i + 1, k):
            rows[i][j] = draw(entry)
    for i, row in enumerate(block(n - k, n - k), start=k):
        rows[i][k:] = row
    return field, rows


@settings(max_examples=150, deadline=None)
@given(_square_inputs())
def test_cross_route_audit_agrees_on_every_small_shape(case):
    """Routes A and B (and C over F_p) agree, and A's answer passes the D axioms."""
    field, rows = case
    x = Matrix(field, rows, cols=len(rows))
    report = cross_route_audit(x)
    assert sorted(report.inverses) == (["A", "B"] if field == Q else ["A", "B", "C"])
    assert report.agree
    axioms = check_axioms("D", x=x, inverse=report.inverses["A"])
    assert axioms.passed and axioms.witnessed_index == report.indices["A"]


def test_cross_route_audit_zero_dim():
    report = cross_route_audit(Matrix(Q, [], cols=0))
    assert report.agree


def test_mp_existence_sweep_is_consistent_f2():
    # over F_2 every 2x1 candidate: the Gram-rank criterion and the
    # pair-index criterion must agree on existence
    from drazin import mp_via_pair_drazin

    for combo in product(range(2), repeat=2):
        f = Matrix(F2, [[combo[0]], [combo[1]]])
        assert moore_penrose(f).exists == mp_via_pair_drazin(f).exists


# Property: routes A and B agree, and agree with route C over F_p, on every
# square shape up to 6x6, on random matrices and on low-rank products; the D
# report passes and witnesses the index the routes report.


@st.composite
def square_cases(draw):
    """(field, entries, n): a random n x n matrix, or a product L*R of rank at most k."""
    field = draw(st.sampled_from([Q, F2, PrimeField(3), F5]))
    entry = st.integers(-4, 4) if field == Q else st.integers(0, field.p - 1)
    n = draw(st.integers(0, 6))

    def grid(rows, cols):
        return [[draw(entry) for _ in range(cols)] for _ in range(rows)]

    if draw(st.booleans()):
        return field, grid(n, n), n
    k = draw(st.integers(0, n))
    if k == 0:
        return field, [[0] * n for _ in range(n)], n
    matmul = frac_matmul if field == Q else (lambda a, b: modp_matmul(a, b, field.p))
    return field, matmul(grid(n, k), grid(k, n)), n


@settings(max_examples=150, deadline=None)
@given(square_cases())
def test_routes_agree_property(case):
    field, entries, n = case
    x = Matrix(field, entries, cols=n)
    a = drazin_inverse(x)
    routes = [image_kernel_drazin(x)]
    if field != Q:
        routes.append(monoid_cycle_drazin(x))
    for d in routes:
        assert (d.inverse, d.index, d.idempotent) == (a.inverse, a.index, a.idempotent)
    report = check_axioms("D", x=x, inverse=a.inverse)
    assert report.passed and report.witnessed_index == a.index
