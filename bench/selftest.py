"""Self-test for the independent checker; it needs neither drazin nor numpy.

A right answer must pass, and one corrupted entry, a wrong index or a
swapped route output must each be flagged. run.py runs this before every
measurement; by hand: python3 bench/selftest.py (exit 0 when all hold).
"""

import random
import sys

import checker as ck
import gen
import workloads as wl


def _corrupt(m, p):
    rows = [list(row) for row in m]
    rows[0][0] = rows[0][0] + 1 if p is None else (rows[0][0] + 1) % p
    return tuple(tuple(row) for row in rows)


def run():
    """Names of the self-test cases that misbehaved; empty when all hold."""
    rng = random.Random("selftest")
    problems = []

    def expect(label, flagged, check, *args):
        try:
            check(*args)
            raised = False
        except ck.CheckError:
            raised = True
        if raised != flagged:
            problems.append(label)

    for p in (None, 5):
        c = gen.constructed(rng, 5, 2, 3, p)
        x = ck.matrix(c["x"], p)
        k, inv = ck.constructed_answer(c, p)
        other = ck.constructed_answer(gen.constructed(rng, 5, 2, 3, p), p)[1]
        bad = _corrupt(inv, p)
        field = "Q" if p is None else "F%d" % p
        expect(field + " right answer", False, ck.check_drazin, x, inv, k, p)
        expect(field + " corrupted entry", True, ck.check_drazin, x, bad, k, p)
        expect(field + " wrong index", True, ck.check_drazin, x, inv, k + 1, p)
        expect(field + " lower index", True, ck.check_constructed, c, inv, k - 1, p)
        expect(field + " other input's inverse", True, ck.check_constructed, c, other, k, p)

    p = 3
    c = gen.constructed(rng, 4, 2, 3, p)
    x = ck.matrix(c["x"], p)
    k, inv = ck.constructed_answer(c, p)
    other = ck.constructed_answer(gen.constructed(rng, 4, 2, 3, p), p)[1]

    def audit(a, b, cc, index=k):
        routes = (("A", index, a), ("B", index, b), ("C", index, cc))
        return (True, routes, True, index)

    expect("audit right answer", False, wl.check_audit, x, c, p, audit(inv, inv, inv))
    expect("audit swapped route C", True, wl.check_audit, x, c, p, audit(inv, inv, other))
    expect("audit corrupted entry", True, wl.check_audit, x, c, p, audit(*[_corrupt(inv, p)] * 3))
    expect("audit wrong index", True, wl.check_audit, x, c, p, audit(inv, inv, inv, k + 1))

    c = gen.constructed(rng, 6, 3, 4)
    x = ck.matrix(c["x"], None)
    k, inv = ck.constructed_answer(c, None)
    other = ck.constructed_answer(gen.constructed(rng, 6, 3, 4), None)[1]
    idem = ck.matmul(x, inv, None)
    expect("routes right answer", False, wl.check_routes, x, c, (inv, k, idem, inv, k, True, k))
    expect("routes swapped B", True, wl.check_routes, x, c, (inv, k, idem, other, k, True, k))
    expect("routes both swapped", True, wl.check_routes, x, c, (other, k, idem, other, k, True, k))
    expect("routes wrong index", True, wl.check_routes, x, c, (inv, k + 1, idem, inv, k + 1, True, k + 1))

    fc = gen.low_rank(rng, 5, 3, 2)
    f = ck.matrix(fc["f"], None)
    pseudo = ck.mp_from_factors(fc["L"], fc["R"], None)
    expect("MP right answer", False, ck.check_penrose, f, pseudo, None)
    expect("MP corrupted entry", True, ck.check_penrose, f, _corrupt(pseudo, None), None)
    return problems


if __name__ == "__main__":
    bad = run()
    for label in bad:
        print("checker self-test failed: " + label, file=sys.stderr)
    print("checker self-test: %s" % ("FAILED" if bad else "ok"))
    sys.exit(1 if bad else 0)
