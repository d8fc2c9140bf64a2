"""Drazin index and inverse of a square matrix (Route A), and the axiom evaluators.

One rank chain (Cline, 1968): x = B_1*C_1 is factored from one rref, then
each core C_j*B_j = B_{j+1}*C_{j+1}, until the first invertible core; no
power of x is formed. The chain's length is the index k, x is nilpotent iff
the last core is 0 x 0, and x^D = B_1...B_k * core^{-(k+1)} * C_k...C_1.

One evaluator: [D.1-3] read the same for matrices, endofunctions and
monoid elements, so they are evaluated once over one carrier (_carrier:
cap, mul, identity, eq), with one absorption search for the least k of
[D.1] (finite._absorption_index), shared by verify's reports,
brute_force_drazin, route C's index scans and the raising revalidations,
whose one stale-bundle rule is _require_fresh; [DV.1-3] run the same
search on f*g and on g*f (_pair_absorption).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .exceptions import (
    FieldMismatchError,
    NotSquareError,
    ShapeMismatchError,
    WitnessInvalidError,
)
from .finite import EndoFun, _absorption_index
from .linalg import Matrix, _factor, _invert_or_bug, rref


@dataclass(frozen=True)
class DrazinData:
    inverse: Matrix
    index: int
    idempotent: Matrix
    route: str  # RankFactorization | ImageKernel | MonoidCycle


def _require_square(x):
    if not isinstance(x, Matrix) or not x.is_square:
        raise NotSquareError("expected a square matrix")


def _rank_chain(x):
    """(lefts, rights, core): lefts[j] * rights[j] factors the j-th core (x first),
    and core is the first invertible one. A core is row-reduced before it is
    factored, so an invertible one is never split."""
    _require_square(x)
    lefts, rights, core = [], [], x
    while True:
        reduced = rref(core)
        if reduced[2] == core.rows:
            return lefts, rights, core
        fact = _factor(core, reduced)
        lefts.append(fact.left)
        rights.append(fact.right)
        core = fact.right * fact.left


def drazin_index(x):
    """Least k with rank(x^k) = rank(x^{k+1}); always <= n."""
    return len(_rank_chain(x)[0])


def drazin_inverse(x):
    lefts, rights, core = _rank_chain(x)
    k = len(lefts)
    inverse = _invert_or_bug(core, "the last core of the rank chain is singular") ** (k + 1)
    for left, right in zip(reversed(lefts), reversed(rights)):
        inverse = left * inverse * right
    idempotent = x * inverse if k else Matrix.identity(x.field, x.rows)
    return DrazinData(inverse, k, idempotent, route="RankFactorization")


def group_inverse(x):
    """x^D when the index is at most 1, else None."""
    d = drazin_inverse(x)
    if d.index <= 1:
        return d.inverse
    return None


def drazin_from_pi_witnesses(x, y, p, z, q):
    """Assemble x^D from strong pi-regularity witnesses.

    Requires y*x^{p+1} = x^p and x^{q+1}*z = x^q exactly; with k = max(p, q)
    the result x^k * z^{k+1} is the Drazin inverse of x.
    """
    _require_square(x)
    for w in (y, z):
        if not isinstance(w, Matrix) or w.rows != x.rows or w.cols != x.cols:
            raise ShapeMismatchError("witnesses must match the shape of x")
        if w.field != x.field:
            raise FieldMismatchError("witnesses must live over the field of x")
    if not isinstance(p, int) or not isinstance(q, int) or p < 0 or q < 0:
        raise ValueError("p and q must be natural numbers")
    xp = x ** p
    if y * (xp * x) != xp:
        raise WitnessInvalidError("y*x^{p+1} != x^p")
    xq = x ** q
    if (xq * x) * z != xq:
        raise WitnessInvalidError("x^{q+1}*z != x^q")
    k = max(p, q)
    return (x ** k) * (z ** (k + 1))


def _carrier(x):
    """(cap, mul, one, eq) of a matrix or an endofunction; cap = its dimension."""
    if isinstance(x, Matrix):
        return x.rows, operator.mul, Matrix.identity(x.field, x.rows), operator.eq
    if isinstance(x, EndoFun):
        return x.n, operator.mul, EndoFun.identity(x.n), operator.eq
    raise TypeError("no identity for %r" % (x,))


def _drazin_failures(x, xd, cap, mul, one, eq):
    """The failed tags of [D.1-3] for xd and the least k witnessing [D.1]."""
    x_xd = mul(x, xd)
    k = _absorption_index(x, x_xd, cap, mul, one, eq)
    failed = ["D.1"] if k is None else []
    return failed + _inner_failures("D", x, xd, x_xd, mul, eq), k


def _inner_failures(system, x, xd, x_xd, mul, eq):
    """[D.2-3], tagged D or G: xd*x*xd = xd; xd*x = x*xd."""
    xd_x = mul(xd, x)
    holds = [eq(mul(xd_x, xd), xd), eq(xd_x, x_xd)]
    return ["%s.%d" % (system, i) for i, ok in enumerate(holds, 2) if not ok]


def _pair_absorption(fg, gf, e_fg, e_gf):
    """(k1, k2) of the absorption searches on f*g and g*f, each up to its own dimension."""
    return (
        _absorption_index(fg, e_fg, *_carrier(fg)),
        _absorption_index(gf, e_gf, *_carrier(gf)),
    )


def _pair_failures(f, g, u, v):
    """The failed tags of [DV.1-3] for u = f^{D/g}, v = g^{D/f} and the pair
    index witnessing [DV.1]."""
    k1, k2 = _pair_absorption(f * g, g * f, f * u, g * v)
    witnessed = None if None in (k1, k2) else max(k1, k2)
    failed = [] if witnessed is not None else ["DV.1"]
    return failed + _pair_inner_failures("DV", f, g, u, v), witnessed


def _pair_inner_failures(system, f, g, u, v):
    """[DV.2-3], tagged DV or GV: u*f*u = u, v*g*v = v; f*u = v*g, u*f = g*v."""
    holds = [u * f * u == u and v * g * v == v, f * u == v * g and u * f == g * v]
    return ["%s.%d" % (system, i) for i, ok in enumerate(holds, 2) if not ok]


def _group_pair_absorbs(f, g, u, v):
    """[GV.1]: g*v*(g*f) = g*f and f*u*(f*g) = f*g."""
    fg, gf = f * g, g * f
    return g * v * gf == gf and f * u * fg == fg


def _penrose_failures(f, pseudo):
    """The failed tags of the Penrose equations [MP.1-4], dagger = transpose."""
    # MP.1 before pseudo * f: on mismatched shapes the first failing product
    # names the error.
    f_p = f * pseudo
    holds = [f_p * f == f]
    p_f = pseudo * f
    holds += [p_f * pseudo == pseudo, f_p.transpose() == f_p, p_f.transpose() == p_f]
    return ["MP.%d" % i for i, ok in enumerate(holds, 1) if not ok]


def _require_fresh(what, first_tag, index, failed, k):
    """Raise ValueError unless [first_tag] holds by the recorded index and
    nothing in failed (the tags a revalidation found) remains."""
    if k is None or k > index:
        raise ValueError("stale %s: [%s] fails at the recorded index" % (what, first_tag))
    if failed:
        raise ValueError("stale %s: [%s] fails" % (what, failed[0]))


def verify_drazin_data(x, d):
    """Cheap exact [D.1-3] revalidation used by every decomposition entry;
    returns the least k witnessing [D.1]."""
    _require_square(x)
    if not isinstance(d, DrazinData):
        raise ValueError("expected DrazinData")
    xd = d.inverse
    if xd.field != x.field or (xd.rows, xd.cols) != (x.rows, x.cols):
        raise ValueError("DrazinData does not match the shape or field of x")
    failed, witnessed = _drazin_failures(x, xd, *_carrier(x))
    _require_fresh("DrazinData", "D.1", d.index, failed, witnessed)
    if d.idempotent != x * xd:
        raise ValueError("stale DrazinData: recorded idempotent is wrong")
    return witnessed
