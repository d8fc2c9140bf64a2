"""The benchmark's workloads: seeded cases, the program calls they time and
the checks their answers must pass.

A case is one input. Its op calls the library (or drazin.cli.main) and is
the only code the benchmark times; answer reduces the result to plain
tuples outside the timed region, and check hands those to the independent
checker. The library is reached through module attributes at call time,
so the traced run's wrappers see every call.
"""

import contextlib
import importlib
import io
import json
from fractions import Fraction

import checker as ck
import gen


class Case:
    __slots__ = ("op", "answer", "check")

    def __init__(self, op, answer, check):
        self.op = op
        self.answer = answer
        self.check = check


def _mm(a, b, p=None):
    return ck.matmul(a, b, p)


# -- fp-audit: routes A, B and C on small F_p matrices -------------------------


def fp_audit(dz, rng, primes=(2, 3, 5), sizes=range(2, 7), reps=360):
    """Per (p, n): reps random matrices and reps constructed with index 1..n-1."""
    cases = []
    for p in primes:
        field = dz.PrimeField(p)
        for n in sizes:
            for i in range(reps):
                cases.append(_audit_case(dz, field, p, gen.random_matrix(rng, n, n, p), None))
                k = 1 + i % (n - 1)
                c = gen.constructed(rng, n, k, rng.randint(k, n), p)
                cases.append(_audit_case(dz, field, p, c["x"], c))
    return cases


def _audit_case(dz, field, p, rows, construction):
    x = dz.Matrix(field, rows)
    plain = ck.matrix(rows, p)

    def op():
        report = dz.cross_route_audit(x)
        return report, dz.check_axioms("D", x=x, inverse=report.inverses["A"])

    def answer(raw):
        report, axioms = raw
        routes = sorted(report.inverses)
        return (
            report.agree,
            tuple((r, report.indices[r], report.inverses[r].entries) for r in routes),
            axioms.passed,
            axioms.witnessed_index,
        )

    return Case(op, answer, lambda ans: check_audit(plain, construction, p, ans))


def check_audit(x, construction, p, ans):
    agree, routes, passed, witnessed = ans
    if [r for r, _, _ in routes] != ["A", "B", "C"]:
        ck.fail("routes", "expected A, B and C")
    _, index, inverse = routes[0]
    if not agree or any((k, m) != (index, inverse) for _, k, m in routes):
        ck.fail("routes", "disagree")
    if not passed or witnessed != index:
        ck.fail("report")
    ck.check_drazin(x, inverse, index, p)
    if construction is not None:
        ck.check_constructed(construction, inverse, index, p)


# -- q-high-index: routes A and B, pairs and Moore-Penrose over Q --------------


def q_high_index(dz, rng, sizes=range(8, 17), reps=4):
    """Per n, reps times: a route answer of index n/2, a pair answer, another
    route answer and an MP answer.

    Four of each per n, all distinct, so that the percentiles fall among
    many inputs: with one of each they moved by 5-7 % from seed to seed.
    """
    cases = []
    for n in sizes:
        k = n // 2
        for _ in range(reps):
            cases.append(_route_case(dz, gen.constructed(rng, n, k, k + 1)))
            cases.append(_pair_case(dz, gen.low_rank(rng, n, n - 2, k), gen.low_rank(rng, n - 2, n, k)))
            cases.append(_route_case(dz, gen.constructed(rng, n, k, k + 1)))
            cases.append(_mp_case(dz, gen.low_rank(rng, n, n - 3, k)))
    return cases


def _route_case(dz, construction):
    x = dz.Matrix(dz.Q, construction["x"])
    plain = ck.matrix(construction["x"], None)

    def op():
        a = dz.drazin_inverse(x)
        b = dz.image_kernel_drazin(x)
        return a, b, dz.check_axioms("D", x=x, inverse=a.inverse)

    def answer(raw):
        a, b, report = raw
        return (
            a.inverse.entries,
            a.index,
            a.idempotent.entries,
            b.inverse.entries,
            b.index,
            report.passed,
            report.witnessed_index,
        )

    return Case(op, answer, lambda ans: check_routes(plain, construction, ans))


def check_routes(x, construction, ans):
    inverse, index, idem, inverse_b, index_b, passed, witnessed = ans
    if (inverse_b, index_b) != (inverse, index):
        ck.fail("routes", "A and B disagree")
    if not passed or witnessed != index:
        ck.fail("report")
    if idem != _mm(x, inverse):
        ck.fail("idempotent")
    ck.check_constructed(construction, inverse, index, None)
    ck.check_drazin(x, inverse, index, None)


def _pair_case(dz, fc, gc):
    f, g = dz.Matrix(dz.Q, fc["f"]), dz.Matrix(dz.Q, gc["f"])
    pf, pg = ck.matrix(fc["f"], None), ck.matrix(gc["f"], None)

    def op():
        return dz.pair_drazin(dz.OpposingPair(f, g)), dz.cline(f, g)

    def answer(raw):
        d, cline = raw
        return (
            d.f_over_g.entries,
            d.g_over_f.entries,
            d.index,
            d.idem_fg.entries,
            d.idem_gf.entries,
        ) + tuple(m.entries for m in cline)

    def check(ans):
        u, v, index, e_fg, e_gf, fg_d, gf_d = ans
        check_pair_answer(pf, pg, u, v, index, e_fg, e_gf, fg_d, gf_d, None)

    return Case(op, answer, check)


def check_pair_answer(f, g, u, v, index, e_fg, e_gf, fg_d, gf_d, p):
    ck.check_pair(f, g, u, v, index, p)
    if e_fg != _mm(f, u, p) or e_gf != _mm(u, f, p):
        ck.fail("idempotent")
    for base, inverse in ((_mm(f, g, p), fg_d), (_mm(g, f, p), gf_d)):
        failed, _ = ck.drazin_failures(base, inverse, p)
        if failed:
            ck.fail("cline " + failed[0])


def _mp_case(dz, fc):
    f = dz.Matrix(dz.Q, fc["f"])
    plain = ck.matrix(fc["f"], None)

    def op():
        return dz.moore_penrose(f), dz.mp_via_pair_drazin(f)

    def answer(raw):
        return tuple((m.exists, m.pseudo.entries if m.pseudo else None) for m in raw)

    def check(ans):
        (exists, pseudo), (exists_b, pseudo_b) = ans
        if not (exists and exists_b) or pseudo != pseudo_b:
            ck.fail("mp routes")
        if pseudo != ck.mp_from_factors(fc["L"], fc["R"], None):
            ck.fail("pseudo", "differs from R^T (R R^T)^-1 (L^T L)^-1 L^T")
        ck.check_penrose(plain, pseudo, None)

    return Case(op, answer, check)


# -- q-decompose: the whole decompose bundle over Q -----------------------------


def q_decompose(dz, rng, sizes=range(6, 11), reps=2):
    return [
        _decompose_case(dz, gen.constructed(rng, n, n // 2, n // 2 + 1))
        for _ in range(reps)
        for n in sizes
    ]


def _decompose_case(dz, construction):
    x = dz.Matrix(dz.Q, construction["x"])
    plain = ck.matrix(construction["x"], None)

    def op():
        d = dz.drazin_inverse(x)
        cn = dz.core_nilpotent(x, d)
        fit = dz.fitting_decomposition(x, d)
        alpha = dz.splitting_iso(x, d)
        family = dz.eventuating_family(x, d)
        complement = dz.complement_formula_check(x, d)
        munn = dz.munn_power_iso_check(x, d)
        reports = (
            dz.check_axioms("D", x=x, inverse=d.inverse),
            dz.check_axioms(
                "CND",
                x=x,
                core=cn.core,
                nilpotent_part=cn.nilpotent_part,
                nilpotent_index=cn.nilpotent_index,
            ),
            dz.check_axioms("EV", x=x, family=family),
        )
        return d, cn, fit, alpha, family, complement, munn, reports

    def answer(raw):
        d, cn, fit, alpha, family, complement, munn, reports = raw
        return {
            "inverse": d.inverse.entries,
            "index": d.index,
            "idempotent": d.idempotent.entries,
            "core": cn.core.entries,
            "nilpotent_part": cn.nilpotent_part.entries,
            "nilpotent_index": cn.nilpotent_index,
            "change_of_basis": fit.change_of_basis.entries,
            "invertible_block": fit.invertible_block.entries,
            "nilpotent_block": fit.nilpotent_block.entries,
            "splitting_iso": alpha.entries,
            "window": family.window,
            "sections": tuple(s.entries for s in family.sections),
            "retractions": tuple(r.entries for r in family.retractions),
            "complement": complement,
            "munn": munn,
            "reports": tuple((r.passed, r.witnessed_index) for r in reports),
        }

    def check(ans):
        check_decompose(plain, construction, ans, None)
        if [passed for passed, _ in ans["reports"]] != [True] * 3:
            ck.fail("report")
        if ans["reports"][0][1] != ans["index"]:
            ck.fail("report", "witnessed index")

    return Case(op, answer, check)


def check_decompose(x, construction, a, p):
    """Everything decompose returns, given plain matrices in a dict."""
    inverse, index = a["inverse"], a["index"]
    ck.check_constructed(construction, inverse, index, p)
    ck.check_drazin(x, inverse, index, p)
    if a["idempotent"] != _mm(x, inverse, p):
        ck.fail("idempotent")
    ck.check_cnd(x, a["core"], a["nilpotent_part"], a["nilpotent_index"], p)
    ck.check_fitting(x, a["change_of_basis"], a["invertible_block"], a["nilpotent_block"], p)
    if a["splitting_iso"] != a["invertible_block"]:
        ck.fail("splitting_iso", "differs from the invertible Fitting block")
    radius = index + 2
    if tuple(a["window"]) != tuple(range(-radius, radius + 1)):
        ck.fail("ev window")
    ck.check_ev(x, inverse, a["sections"], a["retractions"], index, p)
    if a["complement"] is not True or a["munn"] is not True:
        ck.fail("complement/munn", "a true Drazin inverse satisfies both")


# -- cli-mixed: drazin.cli.main in-process across all subcommands ---------------

MALFORMED = ("[1,2]", '{"rows":2,"cols":2,"entries":5}', "[[1,2],3]")


def cli_mixed(dz, rng, reps=8):
    """reps seeded calls of each kind below, then the three malformed payloads."""
    cli = importlib.import_module("drazin.cli")
    kinds = (
        _cli_drazin_q_a,
        _cli_drazin_fp_c,
        _cli_drazin_q_b,
        _cli_drazin_fp_a,
        _cli_drazin_fp_b,
        _cli_group_exists,
        _cli_group_missing,
        _cli_mp_q,
        _cli_mp_fp,
        _cli_pair,
        _cli_endofun,
        _cli_monoid,
        _cli_decompose,
        _cli_verify_wrong,
        _cli_verify_right,
        _cli_verify_mp_wrong,
        _cli_verify_group,
    )
    cases = [_cli_case(cli, *kind(rng)) for _ in range(reps) for kind in kinds]
    cases += [_cli_case(cli, ["drazin", "--matrix", text], _check_user_error) for text in MALFORMED]
    return cases


def _cli_case(cli, argv, check):
    def op():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def answer(raw):
        return raw

    def check_answer(ans):
        code, text = ans
        check(code, json.loads(text))

    return Case(op, answer, check_answer)


def _fp(p):
    return ["--field", "Fp", "--p", str(p)]


def _parse(mj, p):
    return tuple(tuple(Fraction(v) if p is None else v for v in row) for row in mj["entries"])


def _json_matrix(m):
    return json.dumps([[str(v) for v in row] for row in m])


def _expect_ok(code, resp):
    if code != 0 or "error" in resp:
        ck.fail("exit", "code %r: %r" % (code, resp.get("error")))


def _check_cli_drazin(construction, rows, p, route):
    x = ck.matrix(rows, p)

    def check(code, resp):
        _expect_ok(code, resp)
        inverse, index = _parse(resp["inverse"], p), resp["index"]
        if resp["route"] != route:
            ck.fail("route")
        ck.check_drazin(x, inverse, index, p)
        if construction is not None:
            ck.check_constructed(construction, inverse, index, p)
        if _parse(resp["idempotent"], p) != _mm(x, inverse, p):
            ck.fail("idempotent")
        axioms = resp["axioms"]
        if not axioms["passed"] or axioms["witnessed_index"] != index:
            ck.fail("report")

    return check


def _cli_drazin_q_a(rng):
    c = gen.constructed(rng, 4, 2, 3)
    argv = ["drazin", "--matrix", json.dumps(c["x"])]
    return argv, _check_cli_drazin(c, c["x"], None, "RankFactorization")


def _cli_drazin_q_b(rng):
    c = gen.constructed(rng, 3, 1, 1)
    argv = ["drazin", "--route", "B", "--matrix", json.dumps(c["x"])]
    return argv, _check_cli_drazin(c, c["x"], None, "ImageKernel")


def _cli_drazin_fp_a(rng):
    c = gen.constructed(rng, 4, rng.randint(1, 3), 3, 7)
    argv = ["drazin", "--matrix", json.dumps(c["x"])] + _fp(7)
    return argv, _check_cli_drazin(c, c["x"], 7, "RankFactorization")


def _cli_drazin_fp_b(rng):
    c = gen.constructed(rng, 3, rng.randint(1, 2), 2, 3)
    argv = ["drazin", "--route", "B", "--matrix", json.dumps(c["x"])] + _fp(3)
    return argv, _check_cli_drazin(c, c["x"], 3, "ImageKernel")


def _cli_drazin_fp_c(rng):
    rows = gen.random_matrix(rng, 3, 3, 5)
    argv = ["drazin", "--route", "C", "--matrix", json.dumps(rows)] + _fp(5)
    return argv, _check_cli_drazin(None, rows, 5, "MonoidCycle")


def _check_group(c, p):
    x = ck.matrix(c["x"], p)

    def check(code, resp):
        _expect_ok(code, resp)
        k = c["k"]
        if resp["index"] != k or resp["exists"] != (k <= 1):
            ck.fail("group", "index or existence")
        if resp["exists"]:
            a = _parse(resp["inverse"], p)
            xa = _mm(x, a, p)
            if _mm(xa, x, p) != x or _mm(_mm(a, x, p), a, p) != a or _mm(a, x, p) != xa:
                ck.fail("G axioms")
            ck.check_constructed(c, a, k, p)
        if not resp["axioms"]["passed"]:
            ck.fail("report")

    return check


def _cli_group_exists(rng):
    c = gen.constructed(rng, 3, 1, 1)
    return ["group", "--matrix", json.dumps(c["x"])], _check_group(c, None)


def _cli_group_missing(rng):
    c = gen.constructed(rng, 4, 2, 3, 3)
    return ["group", "--matrix", json.dumps(c["x"])] + _fp(3), _check_group(c, 3)


def _check_mp(rows, p):
    f = ck.matrix(rows, p)

    def check(code, resp):
        _expect_ok(code, resp)
        exists = ck.mp_exists(f, p)
        if resp["exists"] != exists:
            ck.fail("mp existence")
        if exists:
            ck.check_penrose(f, _parse(resp["pseudo"], p), p)
            if not resp["axioms"]["passed"]:
                ck.fail("report")
        elif resp["axioms"] is not None or not resp["witness"]:
            ck.fail("mp witness")

    return check


def _cli_mp_q(rng):
    rows = gen.low_rank(rng, 3, 2, 1)["f"]
    return ["mp", "--matrix", json.dumps(rows)], _check_mp(rows, None)


def _cli_mp_fp(rng):
    """f = u v^T over F_5 with u.u = 0, so f^T f = 0 and no MP inverse exists.

    A random input takes either path depending on the seed, and the two
    differ enough in cost to move the median operation time by 10 %.
    """
    t = rng.randint(1, 4)
    u = [t, 2 * t % 5]
    v = [rng.randint(1, 4) for _ in range(3)]
    rows = [[a * b % 5 for b in v] for a in u]
    return ["mp", "--matrix", json.dumps(rows)] + _fp(5), _check_mp(rows, 5)


def _cli_pair(rng):
    fr, gr = gen.low_rank(rng, 3, 2, 1)["f"], gen.low_rank(rng, 2, 3, 1)["f"]
    f, g = ck.matrix(fr, None), ck.matrix(gr, None)

    def check(code, resp):
        _expect_ok(code, resp)
        u, v, index = _parse(resp["f_over_g"], None), _parse(resp["g_over_f"], None), resp["index"]
        cline = resp["cline"]
        check_pair_answer(
            f,
            g,
            u,
            v,
            index,
            _parse(resp["idem_fg"], None),
            _parse(resp["idem_gf"], None),
            _parse(cline["fg_inverse"], None),
            _parse(cline["gf_inverse"], None),
            None,
        )
        binary = _mm(_mm(f, g), f) == f and _mm(_mm(g, f), g) == g
        if resp["is_binary_idempotent"] != binary or resp["is_group_pair"] != (index <= 1):
            ck.fail("pair flags")
        if not resp["axioms"]["passed"] or resp["axioms"]["witnessed_index"] != index:
            ck.fail("report")

    return ["pair", "--f", json.dumps(fr), "--g", json.dumps(gr)], check


def _cli_endofun(rng):
    n = rng.randint(5, 8)
    table = [rng.randrange(n) for _ in range(n)]

    def check(code, resp):
        _expect_ok(code, resp)
        failed, k = ck.endo_failures(table, resp["inverse_table"])
        if failed or resp["index"] != k:
            ck.fail("endofun " + (failed[0] if failed else "index"))
        image = set(range(n))
        for _ in range(k):
            image = {table[i] for i in image}
        if resp["eventual_image"] != sorted(image) or not resp["axioms"]["passed"]:
            ck.fail("endofun image")

    return ["endofun", "--table", json.dumps(table)], check


def _cli_monoid(rng):
    modulus = rng.randint(12, 400)
    element = rng.randrange(modulus)

    def check(code, resp):
        _expect_ok(code, resp)
        failed, k = ck.zmod_failures(element, resp["inverse"], modulus)
        if failed or resp["index"] != k:
            ck.fail("monoid " + (failed[0] if failed else "index"))
        seen, power = {}, 1 % modulus
        while power not in seen:
            seen[power] = len(seen)
            power = power * element % modulus
        m = seen[power]
        if resp["first_repeat"] != {"m": m, "k": len(seen) - m}:
            ck.fail("monoid first repeat")

    return ["monoid", "--modulus", str(modulus), "--element", str(element)], check


def _cli_decompose(rng):
    c = gen.constructed(rng, 4, 2, 3)
    x = ck.matrix(c["x"], None)

    def check(code, resp):
        _expect_ok(code, resp)
        family = resp["eventuating_family"]
        a = {
            "inverse": _parse(resp["inverse"], None),
            "index": resp["index"],
            "idempotent": _parse(resp["idempotent"], None),
            "core": _parse(resp["core_nilpotent"]["core"], None),
            "nilpotent_part": _parse(resp["core_nilpotent"]["nilpotent_part"], None),
            "nilpotent_index": resp["core_nilpotent"]["nilpotent_index"],
            "change_of_basis": _parse(resp["fitting"]["change_of_basis"], None),
            "invertible_block": _parse(resp["fitting"]["invertible_block"], None),
            "nilpotent_block": _parse(resp["fitting"]["nilpotent_block"], None),
            "splitting_iso": _parse(resp["splitting_iso"], None),
            "window": family["window"],
            "sections": tuple(_parse(s, None) for s in family["sections"]),
            "retractions": tuple(_parse(r, None) for r in family["retractions"]),
            "complement": resp["complement_formula"],
            "munn": resp["munn_power_iso"],
        }
        check_decompose(x, c, a, None)
        if not all(r["passed"] for r in resp["axioms"].values()):
            ck.fail("report")

    return ["decompose", "--matrix", json.dumps(c["x"])], check


def _check_verify(expected):
    """expected() gives the failed axioms and the witnessed index of the claim."""

    def check(code, resp):
        _expect_ok(code, resp)
        expected_failed, expected_witness = expected()
        report = resp["report"]
        if report["passed"] != (not expected_failed) or report["failed_axioms"] != expected_failed:
            ck.fail(
                "verify",
                "passed %r failing %r, expected failing %r"
                % (report["passed"], report["failed_axioms"], expected_failed),
            )
        if report.get("witnessed_index") != expected_witness:
            ck.fail("verify", "witnessed index")

    return check


def _cli_verify_wrong(rng):
    c = gen.constructed(rng, 3, rng.randint(1, 2), 2)
    x = ck.matrix(c["x"], None)
    claim = [list(row) for row in ck.constructed_answer(c, None)[1]]
    claim[0][0] += 1
    argv = ["verify", "--matrix", json.dumps(c["x"]), "--claim", _json_matrix(claim)]
    return argv, _check_verify(lambda: ck.drazin_failures(x, ck.matrix(claim, None), None))


def _cli_verify_right(rng):
    c = gen.constructed(rng, 3, rng.randint(1, 2), 2, 5)
    claim = ck.constructed_answer(c, 5)[1]
    argv = ["verify", "--matrix", json.dumps(c["x"]), "--claim", json.dumps(claim)] + _fp(5)
    return argv, _check_verify(lambda: ([], c["k"]))


def _cli_verify_mp_wrong(rng):
    rows = gen.low_rank(rng, 3, 2, 1)["f"]
    claim = ck.transpose(ck.matrix(rows, None))
    argv = ["verify", "--system", "MP", "--matrix", json.dumps(rows), "--claim", _json_matrix(claim)]
    return argv, _check_verify(lambda: (ck.penrose_failures(ck.matrix(rows, None), claim, None), None))


def _cli_verify_group(rng):
    c = gen.constructed(rng, 3, 1, 1, 5)
    claim = ck.constructed_answer(c, 5)[1]
    argv = ["verify", "--system", "G", "--matrix", json.dumps(c["x"]), "--claim", json.dumps(claim)]
    return argv + _fp(5), _check_verify(lambda: ([], None))


def _check_user_error(code, resp):
    if code != 1 or "error" not in resp:
        ck.fail("malformed input", "expected exit 1 with an error object")


# name -> (maker of the seeded cases, maker of the fixed warm-up cases)
WORKLOADS = {
    "fp-audit": (fp_audit, lambda dz, rng: fp_audit(dz, rng, (5,), (3,), 1)),
    "q-high-index": (q_high_index, lambda dz, rng: q_high_index(dz, rng, (6,), 1)),
    "q-decompose": (q_decompose, lambda dz, rng: q_decompose(dz, rng, (4,), 1)),
    "cli-mixed": (cli_mixed, lambda dz, rng: cli_mixed(dz, rng, 1)),
}
