"""Frozen library outputs: one sha256 per field over every Matrix operation.

The inputs are seeded and built in plain integers and Fractions. For each
field (Q, F_2, F_3, F_5) and each n = 0..10 the test runs every public
Matrix operation, routes A and B, the whole decompose bundle, pair_drazin
and moore_penrose, and serialises each result through to_json (plus the
repr of the entries, so a change of scalar type shows). The digests were
generated before Q matrices were stored over one common denominator, so a
change to the storage or to the kernels must leave every output unchanged.
To regenerate after a deliberate change of output, print _digest(field)
for each field.
"""

import dataclasses
import hashlib
import json
import random
from fractions import Fraction

import pytest

from drazin import (
    DrazinError,
    Matrix,
    OpposingPair,
    PrimeField,
    Q,
    block_diag,
    complement_formula_check,
    core_nilpotent,
    drazin_inverse,
    eventuating_family,
    fitting_decomposition,
    full_rank_factorization,
    hstack,
    image_basis,
    image_kernel_drazin,
    invert_matrix,
    kernel_basis,
    moore_penrose,
    munn_power_iso_check,
    pair_drazin,
    rank,
    rref,
    splitting_iso,
    vstack,
)

SIZES = range(11)

FROZEN = {
    "Q": "023593552658d0188d77a4cb9b0a82605d1db629dba71cac794c9a99c7bee44a",
    "F2": "4f3324bb478b702989d689f94d676a1e434b4fabb796811ef3e9159e8317a876",
    "F3": "8d55001efc9ce3764674a52bd3d5c655170b54ec02498641f4ccec77c137d86a",
    "F5": "512631ebee4f27a600c510ff5badc4b7dde11efa1fb92ca9d6999c38f8160abc",
}


def _scalar(rng, field):
    if field == Q:
        return Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 4, 6)))
    return rng.randrange(field.p)


def _grid(rng, field, rows, cols):
    return [[_scalar(rng, field) for _ in range(cols)] for _ in range(rows)]


def _constructed(rng, n):
    """Integer rows of P (N + G) P^-1 with N a shift of size n // 2 + 1 and
    P a product of transvections, so the index over Q is n // 2 + 1 for n >= 2."""
    k = n // 2 + 1 if n >= 2 else n
    core = [[0] * n for _ in range(n)]
    for i in range(k - 1):
        core[i][i + 1] = 1
    for i in range(k, n):
        core[i][i] = rng.choice((-2, -1, 1, 2))
        if i + 1 < n:
            core[i][i + 1] = rng.randint(-2, 2)
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    p_inv = [row[:] for row in p]
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        for row in p:
            row[j] += c * row[i]
        p_inv[i] = [a - c * b for a, b in zip(p_inv[i], p_inv[j])]

    def mul(a, b):
        cols = list(zip(*b))
        return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]

    return mul(mul(p, core), p_inv) if n else []


def _plain(value):
    """A JSON-ready record of a library result."""
    if isinstance(value, Matrix):
        return {"json": value.to_json(), "entries": repr(value.entries)}
    if dataclasses.is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    return value


def _attempt(record, name, call):
    try:
        result = call()
    except DrazinError as exc:
        result = {"error": type(exc).__name__, "message": str(exc)}
    record.append([name, _plain(result)])


def _matrix_ops(record, field, a, b, rng):
    n = a.rows
    rows = sorted(rng.sample(range(n), n // 2)) if n else []
    cols = [j for j in range(n) if j % 3 != 1]
    c = _scalar(rng, field)
    ops = [
        ("matrix", lambda: a),
        ("from_json", lambda: Matrix.from_json(field, a.to_json())),
        ("mul", lambda: a * b),
        ("add", lambda: a + b),
        ("sub", lambda: a - b),
        ("neg", lambda: -a),
        ("pow", lambda: a**3),
        ("scale", lambda: a.scale(c)),
        ("scale0", lambda: a.scale(0)),
        ("transpose", lambda: a.transpose()),
        ("take_rows", lambda: a.take_rows(rows)),
        ("take_cols", lambda: a.take_cols(cols)),
        ("hstack", lambda: hstack(a, b)),
        ("vstack", lambda: vstack(a, b)),
        ("block_diag", lambda: block_diag(a, b.take_rows(rows))),
        ("identity", lambda: Matrix.identity(field, n)),
        ("zeros", lambda: Matrix.zeros(field, n, n + 1)),
        ("rref", lambda: rref(a)),
        ("rank", lambda: rank(a)),
        ("kernel", lambda: kernel_basis(a)),
        ("image", lambda: image_basis(a)),
        ("factor", lambda: full_rank_factorization(a)),
        ("invert", lambda: invert_matrix(a)),
        ("items", lambda: [repr(a[i, j]) for i in range(n) for j in range(n)]),
        ("eq", lambda: [a == b, a == a.transpose().transpose(), a.is_zero()]),
    ]
    for name, call in ops:
        _attempt(record, name, call)


def _routes(record, x):
    _attempt(record, "route_a", lambda: drazin_inverse(x))
    _attempt(record, "route_b", lambda: image_kernel_drazin(x))
    d = drazin_inverse(x)
    _attempt(record, "core_nilpotent", lambda: core_nilpotent(x, d))
    _attempt(record, "fitting", lambda: fitting_decomposition(x, d))
    _attempt(record, "splitting_iso", lambda: splitting_iso(x, d))
    _attempt(record, "eventuating", lambda: eventuating_family(x, d))
    _attempt(record, "complement", lambda: complement_formula_check(x, d))
    _attempt(record, "munn", lambda: munn_power_iso_check(x, d))


def _digest(field):
    rng = random.Random(20261018)
    record = []
    for n in SIZES:
        a, b = Matrix(field, _grid(rng, field, n, n), cols=n), Matrix(field, _grid(rng, field, n, n), cols=n)
        x = Matrix(field, _constructed(rng, n), cols=n)
        for first, second in ((a, b), (x, a)):
            _matrix_ops(record, field, first, second, rng)
            _routes(record, first)
        m = max(n - 2, 0)
        r = n // 2
        left = Matrix(field, _grid(rng, field, n, r), cols=r)
        f = left * Matrix(field, _grid(rng, field, r, m), cols=m)
        g = Matrix(field, _grid(rng, field, m, n), cols=n)
        _attempt(record, "pair", lambda: pair_drazin(OpposingPair(f, g)))
        _attempt(record, "moore_penrose", lambda: moore_penrose(f))
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_library_outputs(name):
    field = Q if name == "Q" else PrimeField(int(name[1:]))
    assert _digest(field) == FROZEN[name]
