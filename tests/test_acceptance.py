"""Acceptance suite: seven criteria, one test per criterion.

Every case list is generated from a fixed seed, so each run exercises the
same matrices, endofunctions, and pairs. Criteria with a stated wall-clock
budget assert it with time.monotonic; each test ends by printing one
CRITERION line (visible with pytest -s).
"""

import json
import random
import time
from fractions import Fraction

from drazin import (
    DrazinData,
    EndoFun,
    Matrix,
    OpposingPair,
    PrimeField,
    Q,
    all_endofunctions,
    all_matrices,
    brute_force_drazin,
    check_axioms,
    cline,
    complement_formula_check,
    core_nilpotent,
    cross_route_audit,
    drazin_from_pi_witnesses,
    drazin_inverse,
    endo_drazin,
    eventuating_family,
    invert_matrix,
    moore_penrose,
    mp_drazin_check,
    mp_via_pair_drazin,
    munn_power_iso_check,
    pair_drazin,
    rank,
)
from drazin.cli import main as cli_main

from oracles import brute_drazin_endo, brute_drazin_matrix_modp, min_matrix_index_modp

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)

_cache = {}


def ceil_div(a, b):
    return -(-a // b)


def f2_candidates(n):
    key = ("f2cand", n)
    if key not in _cache:
        _cache[key] = list(all_matrices(F2, n, n))
    return _cache[key]


def f2_results():
    """(x, DrazinData) for every 2x2 and 3x3 matrix over F_2."""
    if "f2" not in _cache:
        _cache["f2"] = [
            (x, drazin_inverse(x)) for n in (2, 3) for x in f2_candidates(n)
        ]
    return _cache["f2"]


def endo_results():
    """(f, f_drazin, index) for every endofunction on at most 4 points."""
    if "endo" not in _cache:
        out = []
        for n in range(5):
            for f in all_endofunctions(n):
                fd, k = endo_drazin(f)
                out.append((f, fd, k))
        _cache["endo"] = out
    return _cache["endo"]


def audit_results():
    """Cross-route audits: 1000 matrices per size 2..6 over F_5 and 500
    per size 2..5 over Q with entries in [-5, 5]. Returns the audited
    cases as (x, DrazinData) plus the elapsed wall-clock time."""
    if "audit" not in _cache:
        rng = random.Random(33033)
        cases = []
        start = time.monotonic()
        for n in range(2, 7):
            for _ in range(1000):
                x = Matrix(F5, [[rng.randrange(5) for _ in range(n)] for _ in range(n)])
                report = cross_route_audit(x)
                assert sorted(report.inverses) == ["A", "B", "C"]
                assert report.agree, (x, report.pairwise_equal)
                inv = report.inverses["A"]
                cases.append(
                    (x, DrazinData(inverse=inv, index=report.indices["A"],
                                   idempotent=x * inv, route="RankFactorization"))
                )
        for n in range(2, 6):
            for _ in range(500):
                x = Matrix(
                    Q, [[Fraction(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)]
                )
                report = cross_route_audit(x)
                assert sorted(report.inverses) == ["A", "B"]
                assert report.agree, (x, report.pairwise_equal)
                inv = report.inverses["A"]
                cases.append(
                    (x, DrazinData(inverse=inv, index=report.indices["A"],
                                   idempotent=x * inv, route="RankFactorization"))
                )
        _cache["audit"] = {"cases": cases, "elapsed": time.monotonic() - start}
    return _cache["audit"]


def conjugators(field, n):
    """20 invertible n x n conjugators with their inverses, per field."""
    key = ("conj", repr(field), n)
    if key not in _cache:
        seed = 9000 + 17 * n + (0 if field == Q else field.p)
        rng = random.Random(seed)
        pool = []
        while len(pool) < 20:
            if field == Q:
                # product of unit triangular matrices: determinant 1, so the
                # inverse is integral and conjugates stay cheap to reduce
                lower = [
                    [Fraction(1) if i == j else Fraction(rng.randint(-1, 1)) if i > j else Fraction(0)
                     for j in range(n)]
                    for i in range(n)
                ]
                upper = [
                    [Fraction(1) if i == j else Fraction(rng.randint(-1, 1)) if i < j else Fraction(0)
                     for j in range(n)]
                    for i in range(n)
                ]
                p = Matrix(Q, lower) * Matrix(Q, upper)
            else:
                p = Matrix(field, [[rng.randrange(field.p) for _ in range(n)] for _ in range(n)])
                if rank(p) < n:
                    continue
            pool.append((p, invert_matrix(p)))
        _cache[key] = pool
    return _cache[key]


def assert_absorption_laws(x, xd, k, ident):
    """The power-absorption identity families, checked exactly:
    x^{n+m} xd^m = x^n = xd^m x^{n+m} for n in [k, k+3], m in [1, 3],
    and x^n xd^{n+1} = xd = xd^{n+1} x^n for n in [0, k+3]."""
    top = k + 3
    xp = [ident]
    for _ in range(top + 3):
        xp.append(xp[-1] * x)
    xdp = [ident]
    for _ in range(top + 1):
        xdp.append(xdp[-1] * xd)
    for n in range(k, top + 1):
        for m in range(1, 4):
            left = xp[n + m] * xdp[m]
            assert left == xp[n], (n, m)
            assert xdp[m] * xp[n + m] == xp[n], (n, m)
    for n in range(top + 1):
        assert xp[n] * xdp[n + 1] == xd, n
        assert xdp[n + 1] * xp[n] == xd, n
    return xp, xdp


def assert_matrix_laws(x, d, rng):
    k, xd = d.index, d.inverse
    xp, xdp = assert_absorption_laws(x, xd, k, Matrix.identity(x.field, x.rows))

    # iteration: (x^n)^D = (x^D)^n with index ceil(k / n)
    for n in range(2, 5):
        dn = drazin_inverse(xp[n])
        assert dn.inverse == xdp[n], n
        assert dn.index == ceil_div(k, n), n

    # transpose functoriality
    dt = drazin_inverse(x.transpose())
    assert dt.inverse == xd.transpose()
    assert dt.index == k

    # conjugation invariance under 20 invertible conjugators
    for p, p_inv in conjugators(x.field, x.rows):
        dy = drazin_inverse(p * x * p_inv)
        assert dy.inverse == p * xd * p_inv
        assert dy.index == k

    # core-nilpotent axioms, then uniqueness via single-entry perturbations
    cn = core_nilpotent(x, d)
    rep = check_axioms(
        "CND",
        x=x,
        core=cn.core,
        nilpotent_part=cn.nilpotent_part,
        nilpotent_index=cn.nilpotent_index,
    )
    assert rep.passed
    size = x.rows
    one = x.field.one
    for _ in range(3):
        i, j = rng.randrange(size), rng.randrange(size)
        bump = [[one if (a, b) == (i, j) else x.field.zero for b in range(size)]
                for a in range(size)]
        core2 = cn.core + Matrix(x.field, bump)
        rep2 = check_axioms("CND", x=x, core=core2, nilpotent_part=x - core2)
        assert not rep2.passed, (i, j)

    # the complement formula and the power-isomorphism check
    assert complement_formula_check(x, d)
    assert munn_power_iso_check(x, d)

    # eventuating family on the default window radius k + 2
    fam = eventuating_family(x, d)
    assert fam.window[-1] == k + 2
    assert check_axioms("EV", x=x, family=fam).passed


def assert_endo_laws(f, fd, k, rng):
    assert_absorption_laws(f, fd, k, EndoFun.identity(f.n))
    fp = [EndoFun.identity(f.n)]
    fdp = [EndoFun.identity(f.n)]
    for _ in range(4):
        fp.append(fp[-1] * f)
        fdp.append(fdp[-1] * fd)
    for n in range(2, 5):
        dn, kn = endo_drazin(fp[n])
        assert dn == fdp[n]
        assert kn == ceil_div(k, n)
    # conjugation by relabelings (the only invertible maps available here)
    for _ in range(20):
        table = rng.sample(range(f.n), f.n)
        p = EndoFun(f.n, tuple(table))
        inv = [0] * f.n
        for i, v in enumerate(table):
            inv[v] = i
        p_inv = EndoFun(f.n, tuple(inv))
        dy, ky = endo_drazin(p * f * p_inv)
        assert dy == p * fd * p_inv
        assert ky == k


def test_criterion_1_exhaustive_f2_sweep():
    start = time.monotonic()
    checked = 0
    for x, d in f2_results():
        winner = brute_force_drazin(x, f2_candidates(x.rows))
        assert winner is not None
        assert winner == d.inverse, x
        assert d.index == min_matrix_index_modp(x.entries, 2), x
        checked += 1
    assert checked == 16 + 512

    # independent oracle spot checks, no library code involved
    rng = random.Random(11011)
    two_by_two = [x for x, _ in f2_results() if x.rows == 2]
    three_by_three = [x for x, _ in f2_results() if x.rows == 3]
    sample = two_by_two + rng.sample(three_by_three, 40)
    for x in sample:
        expected = brute_drazin_matrix_modp(x.entries, 2)
        assert drazin_inverse(x).inverse.entries == expected

    elapsed = time.monotonic() - start
    assert elapsed < 60, elapsed
    print("CRITERION 1 PASS (%d matrices, %.1fs, budget 60s)" % (checked, elapsed))


def test_criterion_2_exhaustive_endofunction_sweep():
    start = time.monotonic()
    pools = {n: list(all_endofunctions(n)) for n in range(5)}
    checked = 0
    for f, fd, k in endo_results():
        winner = brute_force_drazin(f, pools[f.n])
        assert winner == fd, f.table
        fk = f ** k
        assert fk * f * fd == fk
        if k > 0:
            prev = f ** (k - 1)
            assert prev * f * fd != prev
        checked += 1
    assert checked == 1 + 1 + 4 + 27 + 256

    rng = random.Random(22022)
    small = [(f, fd) for f, fd, _ in endo_results() if f.n <= 3]
    big = [(f, fd) for f, fd, _ in endo_results() if f.n == 4]
    for f, fd in small + rng.sample(big, 60):
        assert brute_drazin_endo(f.table) == fd.table

    elapsed = time.monotonic() - start
    assert elapsed < 30, elapsed
    print("CRITERION 2 PASS (%d endofunctions, %.1fs, budget 30s)" % (checked, elapsed))


def test_criterion_3_cross_route_audit():
    audit = audit_results()
    assert len(audit["cases"]) == 5 * 1000 + 4 * 500
    assert audit["elapsed"] < 300, audit["elapsed"]
    print(
        "CRITERION 3 PASS (%d audits, %.1fs, budget 300s)"
        % (len(audit["cases"]), audit["elapsed"])
    )


def test_criterion_4_axiom_law_suite():
    start = time.monotonic()
    rng = random.Random(44044)
    matrix_cases = f2_results() + audit_results()["cases"]
    for x, d in matrix_cases:
        assert_matrix_laws(x, d, rng)
    # endofunctions carry the monoid-level laws; transpose and the additive
    # decompositions need matrix structure and are covered above
    for f, fd, k in endo_results():
        assert_endo_laws(f, fd, k, rng)
    elapsed = time.monotonic() - start
    assert elapsed < 120, elapsed
    print(
        "CRITERION 4 PASS (%d matrix cases + %d endofunction cases, %.1fs, budget 120s)"
        % (len(matrix_cases), len(endo_results()), elapsed)
    )


def test_criterion_5_pair_and_cline_suite():
    start = time.monotonic()
    rng = random.Random(55055)
    checked = 0
    for field in (F7, Q):
        for _ in range(500):
            n, m = rng.randint(1, 5), rng.randint(1, 5)
            if field == Q:
                f = Matrix(Q, [[Fraction(rng.randint(-5, 5)) for _ in range(m)] for _ in range(n)])
                g = Matrix(Q, [[Fraction(rng.randint(-5, 5)) for _ in range(n)] for _ in range(m)])
            else:
                f = Matrix(field, [[rng.randrange(7) for _ in range(m)] for _ in range(n)])
                g = Matrix(field, [[rng.randrange(7) for _ in range(n)] for _ in range(m)])
            pair = OpposingPair(f, g)
            d = pair_drazin(pair)

            rep = check_axioms("DV", f=f, g=g, f_over_g=d.f_over_g, g_over_f=d.g_over_f)
            assert rep.passed and rep.witnessed_index == d.index

            fg_D, gf_D = cline(f, g)
            cline_rep = check_axioms("D", x=g * f, inverse=gf_D)
            assert cline_rep.passed
            assert check_axioms("D", x=f * g, inverse=fg_D).passed

            swapped = pair_drazin(OpposingPair(g, f))
            assert swapped.f_over_g == d.g_over_f
            assert swapped.g_over_f == d.f_over_g
            assert swapped.index == d.index

            assert d.idem_fg == f * d.f_over_g == d.g_over_f * g
            assert d.idem_gf == d.f_over_g * f == g * d.g_over_f
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 180, elapsed
    print("CRITERION 5 PASS (%d pairs, %.1fs, budget 180s)" % (checked, elapsed))


def test_criterion_6_moore_penrose_suite():
    start = time.monotonic()
    rng = random.Random(66066)
    square_pool = []
    for _ in range(300):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        f = Matrix(Q, [[Fraction(rng.randint(-5, 5)) for _ in range(m)] for _ in range(n)])
        direct = moore_penrose(f)
        via_pair = mp_via_pair_drazin(f)
        assert direct.exists and via_pair.exists
        assert direct.pseudo == via_pair.pseudo
        assert check_axioms("MP", f=f, pseudo=direct.pseudo).passed
        # existence equivalence, checked from the pair data itself
        pd = pair_drazin(OpposingPair(f, f.transpose()))
        assert direct.exists == (pd.index <= 1 and f * pd.f_over_g * f == f)
        if n == m:
            square_pool.append(f)

    # constructed nonexistence instances, one per small field
    f2_case = Matrix(F2, [[1], [1]])
    assert not moore_penrose(f2_case).exists
    assert not mp_via_pair_drazin(f2_case).exists
    f3_case = Matrix(F3, [[1, 1, 1]])
    assert not moore_penrose(f3_case).exists
    assert not mp_via_pair_drazin(f3_case).exists

    # existence answers must agree pairwise on exhaustive small sweeps
    for field, size in ((F2, 2), (F3, 2)):
        for x in all_matrices(field, size, size):
            assert moore_penrose(x).exists == mp_via_pair_drazin(x).exists

    # the three equivalent characterizations of Drazin-equals-MP never
    # split; mp_drazin_check raises on any disagreement
    for x in square_pool:
        mp_drazin_check(x)
    for x in f2_candidates(2) + f2_candidates(3):
        mp_drazin_check(x)
    for x in all_matrices(F3, 2, 2):
        mp_drazin_check(x)

    elapsed = time.monotonic() - start
    assert elapsed < 120, elapsed
    print("CRITERION 6 PASS (300 rectangles + sweeps, %.1fs, budget 120s)" % elapsed)


def run_cli_json(capsys, argv):
    code = cli_main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_criterion_7_known_value_cli_spot_checks(capsys):
    start = time.monotonic()

    # invertible matrix: index 0, the inverse is the plain inverse
    code, resp = run_cli_json(capsys, ["drazin", "--matrix", "[[1,1],[0,1]]"])
    assert code == 0 and resp["index"] == 0
    assert resp["inverse"]["entries"] == [["1/1", "-1/1"], ["0/1", "1/1"]]

    # nilpotent matrix: inverse zero, index = nilpotency degree
    code, resp = run_cli_json(capsys, ["drazin", "--matrix", "[[0,1],[0,0]]"])
    assert code == 0 and resp["index"] == 2
    assert resp["inverse"]["entries"] == [["0/1", "0/1"], ["0/1", "0/1"]]
    code, resp = run_cli_json(capsys, ["decompose", "--matrix", "[[0,1],[0,0]]"])
    assert code == 0
    assert resp["core_nilpotent"]["core"]["entries"] == [["0/1", "0/1"], ["0/1", "0/1"]]
    assert resp["core_nilpotent"]["nilpotent_index"] == 2 == resp["index"]

    # idempotent matrix: its own inverse at index 1, core is the matrix itself
    code, resp = run_cli_json(capsys, ["drazin", "--matrix", "[[1,1],[0,0]]"])
    assert code == 0 and resp["index"] == 1
    assert resp["inverse"]["entries"] == [["1/1", "1/1"], ["0/1", "0/1"]]
    code, resp = run_cli_json(capsys, ["decompose", "--matrix", "[[1,1],[0,0]]"])
    assert code == 0
    assert resp["core_nilpotent"]["core"]["entries"] == [["1/1", "1/1"], ["0/1", "0/1"]]

    # group inverse: of an invertible matrix the inverse, of an idempotent itself
    code, resp = run_cli_json(capsys, ["group", "--matrix", "[[1,1],[0,1]]"])
    assert code == 0 and resp["exists"] and resp["index"] == 0
    assert resp["inverse"]["entries"] == [["1/1", "-1/1"], ["0/1", "1/1"]]
    code, resp = run_cli_json(capsys, ["group", "--matrix", "[[1,1],[0,0]]"])
    assert code == 0 and resp["exists"]
    assert resp["inverse"]["entries"] == [["1/1", "1/1"], ["0/1", "0/1"]]

    # witness assembly on an idempotent with itself as both witnesses
    e = Matrix(Q, [[1, 1], [0, 0]])
    assert drazin_from_pi_witnesses(e, e, 1, e, 1) == e
    code, resp = run_cli_json(
        capsys,
        ["verify", "--matrix", "[[1,1],[0,0]]", "--claim", "[[1,1],[0,0]]"],
    )
    assert code == 0 and resp["report"]["passed"] is True
    assert resp["report"]["witnessed_index"] == 1

    # Cline on a nilpotent against the identity: both composites invert to zero
    code, resp = run_cli_json(
        capsys, ["pair", "--f", "[[0,1],[0,0]]", "--g", "[[1,0],[0,1]]"]
    )
    assert code == 0
    zero2 = [["0/1", "0/1"], ["0/1", "0/1"]]
    assert resp["cline"]["fg_inverse"]["entries"] == zero2
    assert resp["cline"]["gf_inverse"]["entries"] == zero2
    assert resp["f_over_g"]["entries"] == zero2

    # pair of two invertibles: componentwise plain inverses at index 0
    code, resp = run_cli_json(
        capsys, ["pair", "--f", "[[1,1],[0,1]]", "--g", "[[2,0],[0,1]]"]
    )
    assert code == 0 and resp["index"] == 0
    assert resp["f_over_g"]["entries"] == [["1/1", "-1/1"], ["0/1", "1/1"]]
    assert resp["g_over_f"]["entries"] == [["1/2", "0/1"], ["0/1", "1/1"]]

    # pair against the identity: one component is the plain Drazin inverse,
    # the other the induced idempotent
    code, resp = run_cli_json(
        capsys, ["pair", "--f", "[[2,0],[0,0]]", "--g", "[[1,0],[0,1]]"]
    )
    assert code == 0
    assert resp["f_over_g"]["entries"] == [["1/2", "0/1"], ["0/1", "0/1"]]
    assert resp["g_over_f"]["entries"] == [["1/1", "0/1"], ["0/1", "0/1"]]

    # a binary idempotent pair is its own pair inverse
    code, resp = run_cli_json(capsys, ["pair", "--f", "[[1],[0]]", "--g", "[[1,0]]"])
    assert code == 0 and resp["is_binary_idempotent"] is True
    assert resp["f_over_g"]["entries"] == [["1/1", "0/1"]]
    assert resp["g_over_f"]["entries"] == [["1/1"], ["0/1"]]

    # (f, f-pseudo) is a binary idempotent
    code, resp = run_cli_json(capsys, ["mp", "--matrix", "[[1,1],[0,0]]"])
    assert code == 0 and resp["exists"]
    pseudo = json.dumps(resp["pseudo"])
    code, resp = run_cli_json(
        capsys, ["pair", "--f", "[[1,1],[0,0]]", "--g", pseudo]
    )
    assert code == 0 and resp["is_binary_idempotent"] is True

    # a bijection inverts to its inverse permutation at index 0
    code, resp = run_cli_json(capsys, ["endofun", "--table", "[1,2,0]"])
    assert code == 0 and resp["index"] == 0
    assert resp["inverse_table"] == [2, 0, 1]

    # nilpotent over F_2: the zero matrix, also found by brute force elsewhere
    code, resp = run_cli_json(
        capsys, ["drazin", "--field", "Fp", "--p", "2", "--matrix", "[[0,1],[0,0]]"]
    )
    assert code == 0 and resp["index"] == 2
    assert resp["inverse"]["entries"] == [[0, 0], [0, 0]]

    elapsed = time.monotonic() - start
    print("CRITERION 7 PASS (known-value CLI checks, %.1fs)" % elapsed)
