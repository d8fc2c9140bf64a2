"""Seeded inputs for the benchmark, built in plain integer arithmetic.

A constructed input is x = P (N + G) P^-1: N is nilpotent with Jordan
blocks whose largest is k, G is invertible with small integer entries, and
P is a product of elementary transvections I + c e_ij with c in +-1, +-2,
so P and P^-1 are both integer matrices. Over F_p the same integers are
reduced mod p. The construction data travel with x so the checker can
predict the index k and the inverse P (0 + G^-1) P^-1 without the library.
"""

COEFFS = (-2, -1, 1, 2)


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def transvections(rng, n, count):
    ops = []
    for _ in range(count if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        ops.append((i, j, rng.choice(COEFFS)))
    return ops


def unimodular(rng, n, count):
    """(P, P^-1) for P the product of count random transvections."""
    p, p_inv = identity(n), identity(n)
    for i, j, c in transvections(rng, n, count):
        for row in p:  # P <- P (I + c e_ij): column j += c column i
            row[j] += c * row[i]
        p_inv[i] = [a - c * b for a, b in zip(p_inv[i], p_inv[j])]  # P^-1 <- (I - c e_ij) P^-1
    return p, p_inv


def matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def nilpotent(sizes):
    """Direct sum of Jordan shift blocks of the given sizes."""
    m = sum(sizes)
    out = [[0] * m for _ in range(m)]
    start = 0
    for s in sizes:
        for i in range(start, start + s - 1):
            out[i][i + 1] = 1
        start += s
    return out


def invertible(rng, r, p):
    """Small-integer invertible r x r matrix (units mod p on the diagonal)."""
    units = COEFFS if p is None else [u for u in range(1, min(p, 5))]
    g = [[0] * r for _ in range(r)]
    for i in range(r):
        g[i][i] = rng.choice(units)
    for i, j, c in transvections(rng, r, r):
        g[i] = [a + c * b for a, b in zip(g[i], g[j])]
    return g


def block_diag(a, b):
    wa, wb = len(a), len(b)
    return [row + [0] * wb for row in a] + [[0] * wa + row for row in b]


def mod_p(m, p):
    return [[v % p for v in row] for row in m] if p is not None else m


def constructed(rng, n, k, m, p=None):
    """x = P (N + G) P^-1 of index k (0 when m = 0) with an m x m nilpotent N.

    N has one Jordan block of size k and the other m - k rows in blocks of
    at most k, so its nilpotency index, and the index of x, is exactly k.
    """
    sizes = [k] if m else []
    rest = m - k if m else 0
    while rest:
        s = rng.randint(1, min(k, rest))
        sizes.append(s)
        rest -= s
    g = invertible(rng, n - m, p)
    big, big_inv = unimodular(rng, n, 2 * n)
    x = matmul(matmul(big, block_diag(nilpotent(sizes), g)), big_inv)
    return {
        "x": mod_p(x, p),
        "P": mod_p(big, p),
        "Pinv": mod_p(big_inv, p),
        "G": mod_p(g, p),
        "m": m,
        "k": k if m else 0,
    }


def random_matrix(rng, rows, cols, p):
    return [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]


def low_rank(rng, rows, cols, r, p=None):
    """f = L R of rank exactly r: L the first r columns of a unimodular
    rows x rows matrix, R the first r rows of a unimodular cols x cols one."""
    left = [row[:r] for row in unimodular(rng, rows, 2 * rows)[0]]
    right = unimodular(rng, cols, 2 * cols)[0][:r]
    return {"f": mod_p(matmul(left, right), p), "L": mod_p(left, p), "R": mod_p(right, p)}
