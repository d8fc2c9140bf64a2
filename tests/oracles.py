"""Independent oracles for the test suite.

Nothing in this file imports the library under test. Matrices are plain
tuples of tuples (Fractions over Q, ints over F_p), endofunctions are
tuples, and the Drazin searches are direct translations of the axioms.
Frozen expected values in the tests were produced and certified by these
functions.
"""

from fractions import Fraction
from itertools import product


def frac_matmul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    assert all(len(r) == inner for r in a) or not a
    return tuple(
        tuple(sum((a[i][t] * b[t][j] for t in range(inner)), Fraction(0)) for j in range(cols))
        for i in range(rows)
    )


def modp_matmul(a, b, p):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(inner)) % p for j in range(cols))
        for i in range(rows)
    )


def identity_tuple(n, one=1, zero=0):
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def frac_identity(n):
    return identity_tuple(n, Fraction(1), Fraction(0))


def _rref(work, inv, norm):
    """Gauss-Jordan on a list of rows whose entries are in normal form.

    Pivoting takes the first row with a nonzero entry in the current column;
    inv inverts a nonzero scalar and norm brings a scalar to normal form.
    Returns (R, pivots) as tuples.
    """
    cols = len(work[0]) if work else 0
    pivots = []
    for col in range(cols):
        rank = len(pivots)
        below = [r for r in range(rank, len(work)) if work[r][col] != 0]
        if not below:
            continue
        work[rank], work[below[0]] = work[below[0]], work[rank]
        scale = inv(work[rank][col])
        work[rank] = [norm(v * scale) for v in work[rank]]
        for r in range(len(work)):
            factor = work[r][col]
            if r != rank and factor != 0:
                work[r] = [norm(work[r][j] - factor * work[rank][j]) for j in range(cols)]
        pivots.append(col)
    return tuple(tuple(row) for row in work), tuple(pivots)


def frac_rref(m):
    """Reduced row echelon form over Q, written independently of the library."""
    return _rref([[Fraction(v) for v in row] for row in m], lambda v: 1 / v, lambda v: v)


def modp_rref(m, p):
    """Reduced row echelon form over F_p, written independently of the library."""
    return _rref([[v % p for v in row] for row in m], lambda v: pow(v, -1, p), lambda v: v % p)


def modp_rank(m, p):
    return len(modp_rref(m, p)[1])


def frac_rank(m):
    return len(frac_rref(m)[1])


def drazin_axioms_hold(x, c, matmul, ident):
    """The three Drazin axioms for candidate c, index search up to dim."""
    n = len(x)
    if matmul(c, x) != matmul(x, c):
        return False
    if matmul(matmul(c, x), c) != c:
        return False
    power = ident
    t = matmul(x, c)
    for _ in range(n + 1):
        if matmul(power, t) == power:
            return True
        power = matmul(power, x)
    return False


def brute_drazin_matrix_modp(x, p):
    """Unique Drazin inverse of x over F_p by full enumeration."""
    n = len(x)
    mm = lambda a, b: modp_matmul(a, b, p)
    ident = identity_tuple(n)
    found = None
    for combo in product(range(p), repeat=n * n):
        c = tuple(tuple(combo[i * n : (i + 1) * n]) for i in range(n))
        if drazin_axioms_hold(x, c, mm, ident):
            assert found is None, "uniqueness violated"
            found = c
    assert found is not None, "Drazin inverse must exist over a field"
    return found


def compose(f, g):
    """Apply g first: (f o g)(x) = f(g(x))."""
    return tuple(f[v] for v in g)


def endo_axioms_hold(x, c):
    n = len(x)
    if compose(c, x) != compose(x, c):
        return False
    if compose(compose(c, x), c) != c:
        return False
    power = tuple(range(n))
    t = compose(x, c)
    for _ in range(n + 1):
        if compose(power, t) == power:
            return True
        power = compose(power, x)
    return False


def brute_drazin_endo(table):
    """Unique Drazin inverse of an endofunction by full enumeration."""
    n = len(table)
    found = None
    for c in product(range(n), repeat=n):
        if endo_axioms_hold(table, c):
            assert found is None, "uniqueness violated"
            found = c
    assert found is not None
    return found


def brute_drazin_zmod(x, modulus):
    """Unique Drazin inverse of x in multiplicative Z/modulus."""
    x %= modulus
    found = None
    for c in range(modulus):
        if (c * x - x * c) % modulus != 0:
            continue
        if (c * x * c) % modulus != c:
            continue
        power = 1 % modulus
        ok = False
        for _ in range(modulus + 1):
            if (power * x * c) % modulus == power:
                ok = True
                break
            power = (power * x) % modulus
        if ok:
            assert found is None, "uniqueness violated"
            found = c
    assert found is not None
    return found


def min_matrix_index(x, matmul, rank):
    """Least k with rank(x^k) = rank(x^{k+1}), the rank-stabilization index,
    for the product matmul and the rank function rank of one field."""
    n = len(x)
    power = identity_tuple(n)
    prev = n
    for k in range(n + 1):
        power = matmul(power, x)
        now = rank(power)
        if now == prev:
            return k
        prev = now
    raise AssertionError("rank chain must stabilize within n steps")


def min_matrix_index_modp(x, p):
    return min_matrix_index(x, lambda a, b: modp_matmul(a, b, p), lambda m: modp_rank(m, p))


def min_matrix_index_frac(x):
    return min_matrix_index(x, frac_matmul, frac_rank)


def nilpotency_degree(x, matmul):
    """Least j with x^j = 0, or None when x is not nilpotent (no j <= n works)."""
    power = identity_tuple(len(x))
    for j in range(len(x) + 1):
        if not any(v for row in power for v in row):
            return j
        power = matmul(power, x)
    return None


def reference_cycle(mul, identity, x):
    """(m, c, x^D) for the first repeat x^m = x^{m+c}, keeping every power.

    The plain walk: store x^0, x^1, ... with a dictionary of all of them,
    stop at the first power seen before, and read x^D off the stored list
    as x^{c-1} when m = 0, x^m when c = 1 and x^{mc-1} otherwise, folded
    back into the cycle when mc - 1 lies past the walk.
    """
    powers = [identity]
    seen = {identity: 0}
    while True:
        nxt = mul(powers[-1], x)
        if nxt in seen:
            m = seen[nxt]
            c = len(powers) - m
            break
        seen[nxt] = len(powers)
        powers.append(nxt)
    if m == 0:
        exponent = c - 1
    elif c == 1:
        exponent = m
    else:
        exponent = m * c - 1
    if exponent >= len(powers):
        exponent = m + (exponent - m) % c
    return m, c, powers[exponent]
