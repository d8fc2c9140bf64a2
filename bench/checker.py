"""Independent answer checker for the benchmark.

Nothing here imports drazin. Matrices are tuples of row tuples whose
entries are fractions.Fraction over Q (written p=None) or ints in [0, p)
over F_p, in the spirit of tests/oracles.py. Every check raises CheckError
naming the axiom or the fact that failed, and returns normally otherwise.
"""

from fractions import Fraction


class CheckError(Exception):
    """An answer failed an axiom or disagreed with its construction."""


def fail(label, detail=""):
    raise CheckError(label + (": " + detail if detail else ""))


# -- arithmetic over Q (p is None) and F_p -----------------------------------


def scalar(v, p):
    return Fraction(v) if p is None else v % p


def matrix(rows, p):
    return tuple(tuple(scalar(v, p) for v in row) for row in rows)


def identity(n, p):
    one, zero = scalar(1, p), scalar(0, p)
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def zeros(rows, cols, p):
    return tuple((scalar(0, p),) * cols for _ in range(rows))


def matmul(a, b, p):
    cols = tuple(zip(*b))
    if p is None:
        zero = Fraction(0)
        return tuple(
            tuple(sum((x * y for x, y in zip(row, col)), zero) for col in cols) for row in a
        )
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) % p for col in cols) for row in a)


def add(a, b, p):
    if p is None:
        return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))
    return tuple(tuple((x + y) % p for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def transpose(a):
    return tuple(zip(*a))


def is_zero(a):
    return all(v == 0 for row in a for v in row)


def block_diag(a, b, p):
    zero = scalar(0, p)
    wa, wb = len(a[0]) if a else 0, len(b[0]) if b else 0
    return tuple(row + (zero,) * wb for row in a) + tuple((zero,) * wa + row for row in b)


def _reduce(m, p):
    """Gauss-Jordan on a copy of m; returns (rows, pivot columns)."""
    work = [list(row) for row in m]
    cols = len(m[0]) if m else 0
    pivots = []
    for c in range(cols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = 1 / work[r][c] if p is None else pow(work[r][c], -1, p)
        work[r] = [v * inv if p is None else v * inv % p for v in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                if p is None:
                    work[i] = [a - f * b for a, b in zip(work[i], work[r])]
                else:
                    work[i] = [(a - f * b) % p for a, b in zip(work[i], work[r])]
        pivots.append(c)
    return work, pivots


def rank(m, p):
    return len(_reduce(m, p)[1])


def inverse(m, p):
    n = len(m)
    aug = tuple(row + ident for row, ident in zip(m, identity(n, p)))
    work, pivots = _reduce(aug, p)
    if pivots[:n] != list(range(n)):
        fail("singular", "matrix of size %d has no inverse" % n)
    return tuple(tuple(row[n:]) for row in work[:n])


def nilpotency_index(m, p):
    """Least t with m^t = 0, or None if m is not nilpotent."""
    power = identity(len(m), p)
    for t in range(len(m) + 1):
        if is_zero(power):
            return t
        power = matmul(power, m, p)
    return None


# -- axiom systems --------------------------------------------------------------


def absorption_index(base, absorber, p):
    """Least k <= dim with base^k * absorber == base^k, else None."""
    power = identity(len(base), p)
    for k in range(len(base) + 1):
        if matmul(power, absorber, p) == power:
            return k
        power = matmul(power, base, p)
    return None


def drazin_failures(x, xd, p):
    """(failed labels among D.1-D.3, minimal k witnessing D.1 or None)."""
    failed = []
    x_xd = matmul(x, xd, p)
    k = absorption_index(x, x_xd, p)
    if k is None:
        failed.append("D.1")
    if matmul(matmul(xd, x, p), xd, p) != xd:
        failed.append("D.2")
    if matmul(xd, x, p) != x_xd:
        failed.append("D.3")
    return failed, k


def check_drazin(x, xd, index, p):
    """D.1-D.3 hold for xd and index is the minimal k in D.1."""
    failed, k = drazin_failures(x, xd, p)
    if failed:
        fail(failed[0])
    if k != index:
        fail("index", "claimed %r, minimal k is %d" % (index, k))


def check_constructed(case, xd, index, p):
    """x = P (N + G) P^-1 has index k and inverse P (0 + G^-1) P^-1."""
    expected_index, expected_inverse = constructed_answer(case, p)
    if index != expected_index:
        fail("index", "claimed %r, constructed with %d" % (index, expected_index))
    if xd != expected_inverse:
        fail("inverse", "differs from P (0 + G^-1) P^-1")


def constructed_answer(case, p):
    g_inv = inverse(matrix(case["G"], p), p)
    middle = block_diag(zeros(case["m"], case["m"], p), g_inv, p)
    pm, pinv = matrix(case["P"], p), matrix(case["Pinv"], p)
    return case["k"], matmul(matmul(pm, middle, p), pinv, p)


def check_pair(f, g, f_over_g, g_over_f, index, p):
    """DV.1-DV.3, with index the larger of the two minimal absorption indices."""
    fg, gf = matmul(f, g, p), matmul(g, f, p)
    k1 = absorption_index(fg, matmul(f, f_over_g, p), p)
    k2 = absorption_index(gf, matmul(g, g_over_f, p), p)
    if k1 is None or k2 is None:
        fail("DV.1")
    if (
        matmul(matmul(f_over_g, f, p), f_over_g, p) != f_over_g
        or matmul(matmul(g_over_f, g, p), g_over_f, p) != g_over_f
    ):
        fail("DV.2")
    if matmul(f, f_over_g, p) != matmul(g_over_f, g, p) or matmul(f_over_g, f, p) != matmul(
        g, g_over_f, p
    ):
        fail("DV.3")
    if index != max(k1, k2):
        fail("index", "claimed %r, minimal pair index is %d" % (index, max(k1, k2)))


def penrose_failures(f, a, p):
    failed = []
    fa, af = matmul(f, a, p), matmul(a, f, p)
    if matmul(fa, f, p) != f:
        failed.append("MP.1")
    if matmul(af, a, p) != a:
        failed.append("MP.2")
    if transpose(fa) != fa:
        failed.append("MP.3")
    if transpose(af) != af:
        failed.append("MP.4")
    return failed


def check_penrose(f, a, p):
    failed = penrose_failures(f, a, p)
    if failed:
        fail(failed[0])


def mp_from_factors(left, right, p):
    """R^T (R R^T)^-1 (L^T L)^-1 L^T for f = L R with full-rank factors."""
    left, right = matrix(left, p), matrix(right, p)
    lt, rt = transpose(left), transpose(right)
    gram_r = inverse(matmul(right, rt, p), p)
    gram_l = inverse(matmul(lt, left, p), p)
    return matmul(matmul(matmul(rt, gram_r, p), gram_l, p), lt, p)


def mp_exists(f, p):
    """The transpose Moore-Penrose inverse exists iff rank f f^T = rank f = rank f^T f."""
    ft = transpose(f)
    r = rank(f, p)
    return rank(matmul(f, ft, p), p) == r == rank(matmul(ft, f, p), p)


def check_cnd(x, core, nil, nil_index, p):
    """CND.1-4: core of index <= 1, nilpotent part of the stated index, both
    products zero, and core + nilpotent part = x."""
    if rank(core, p) != rank(matmul(core, core, p), p):
        fail("CND.1")
    if nilpotency_index(nil, p) != nil_index:
        fail("CND.2")
    z = zeros(len(x), len(x), p)
    if matmul(core, nil, p) != z or matmul(nil, core, p) != z:
        fail("CND.3")
    if add(core, nil, p) != x:
        fail("CND.4")


def check_ev(x, xd, sections, retractions, index, p):
    """ev.1-4 for a window of sections s_i and retractions r_i splitting x xd."""
    through = len(retractions[0])
    eye = identity(through, p)
    if any(matmul(r, s, p) != eye for s, r in zip(sections, retractions)):
        fail("ev.1")
    e = matmul(x, xd, p)
    if any(matmul(s, r, p) != e for s, r in zip(sections, retractions)):
        fail("ev.2")
    for j in range(len(sections) - 1):
        if matmul(x, sections[j], p) != sections[j + 1]:
            fail("ev.3")
        if matmul(retractions[j + 1], x, p) != retractions[j]:
            fail("ev.3")
    xk1 = identity(len(x), p)
    for _ in range(index + 1):
        xk1 = matmul(xk1, x, p)
    if matmul(xk1, e, p) != xk1 or matmul(e, xk1, p) != xk1:
        fail("ev.4")


def check_fitting(x, change, alpha, eta, p):
    """x = P diag(alpha, eta) P^-1 with alpha invertible and eta nilpotent."""
    inverse(alpha, p)
    if nilpotency_index(eta, p) is None:
        fail("fitting", "nilpotent block is not nilpotent")
    if matmul(matmul(change, block_diag(alpha, eta, p), p), inverse(change, p), p) != x:
        fail("fitting", "blocks do not reassemble x")


def endo_failures(table, inv):
    """D.1-D.3 for finite maps composed applicatively; (failed, minimal k)."""
    table, inv = tuple(table), tuple(inv)
    n = len(table)

    def comp(f, g):
        return tuple(f[v] for v in g)

    failed = []
    x_xd = comp(table, inv)
    power, k = tuple(range(n)), None
    for t in range(n + 1):
        if comp(power, x_xd) == power:
            k = t
            break
        power = comp(power, table)
    if k is None:
        failed.append("D.1")
    if comp(comp(inv, table), inv) != inv:
        failed.append("D.2")
    if comp(inv, table) != x_xd:
        failed.append("D.3")
    return failed, k


def zmod_failures(x, inv, modulus):
    """D.1-D.3 in multiplicative Z/modulus; (failed, minimal k)."""
    failed = []
    power, k = 1 % modulus, None
    for t in range(modulus + 1):
        if power * x * inv % modulus == power:
            k = t
            break
        power = power * x % modulus
    if k is None:
        failed.append("D.1")
    if inv * x * inv % modulus != inv:
        failed.append("D.2")
    return failed, k
