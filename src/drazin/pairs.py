"""Opposing pairs: Cline's formula, pair Drazin/group inverses, binary
idempotents, and Moore-Penrose inverses with transpose as the dagger.

A pair (f, g) has f: n x m and g: m x n, so both composites f*g and g*f are
square. The pair inverse components are computed by two independent formulas
each and cross-checked; disagreement would contradict uniqueness and raises
InternalInconsistencyError. What [DV.1-3] or associativity prove (the group
absorption at index at most 1, the idempotence of a binary idempotent's
composites, the two expressions of each pair idempotent) is not checked
again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import (
    _pair_absorption,
    _pair_failures,
    _penrose_failures,
    _require_fresh,
    drazin_inverse,
)
from .exceptions import (
    FieldMismatchError,
    InternalInconsistencyError,
    NotSquareError,
    ShapeMismatchError,
)
from .linalg import Matrix, _factor, _invert_or_bug, rank, rref


@dataclass(frozen=True)
class OpposingPair:
    forward: Matrix  # f: n x m
    backward: Matrix  # g: m x n

    def __post_init__(self):
        f, g = self.forward, self.backward
        if f.field != g.field:
            raise FieldMismatchError("pair members must share a field")
        if f.cols != g.rows or f.rows != g.cols:
            raise ShapeMismatchError(
                "pair shapes %dx%d and %dx%d do not compose both ways"
                % (f.rows, f.cols, g.rows, g.cols)
            )


@dataclass(frozen=True)
class PairDrazinData:
    g_over_f: Matrix  # g^{D/f}: n x m
    f_over_g: Matrix  # f^{D/g}: m x n
    index: int
    idem_fg: Matrix  # f * f^{D/g} = g^{D/f} * g, n x n
    idem_gf: Matrix  # f^{D/g} * f = g * g^{D/f}, m x m


@dataclass(frozen=True)
class MoorePenroseData:
    pseudo: Optional[Matrix]
    exists: bool
    witness: Optional[str] = None


def cline(f, g):
    """((f*g)^D, (g*f)^D), the second built from the first by Cline's formula.

    The formula result is cross-checked against the directly computed
    (g*f)^D; they must agree by uniqueness.
    """
    pair = OpposingPair(f, g)
    f, g = pair.forward, pair.backward
    fg_D = drazin_inverse(f * g).inverse
    gf_D = g * fg_D * fg_D * f
    direct = drazin_inverse(g * f).inverse
    if gf_D != direct:
        raise InternalInconsistencyError("Cline's formula disagrees with Route A")
    return fg_D, gf_D


def pair_drazin(pair):
    """The pair Drazin inverse (g^{D/f}, f^{D/g}) with its index and idempotents.

    Each component is computed from both (f*g)^D and (g*f)^D and the two
    expressions are required to agree. The index is the smallest k at which
    both absorption equations hold; the two one-sided minima can differ by
    at most one and the difference is logged.

    Once the two formulas agree, so do the two expressions of each
    idempotent, by associativity alone: with u = g*(f*g)^D = (g*f)^D*g and
    v = f*(g*f)^D = (f*g)^D*f,
        v*g = f*(g*f)^D*g = f*u   and   u*f = g*(f*g)^D*f = g*v,
    so e_fg = f*u and e_gf = u*f are not checked against v*g and g*v.
    """
    f, g = pair.forward, pair.backward
    fg = f * g
    gf = g * f
    d_fg = drazin_inverse(fg)
    d_gf = drazin_inverse(gf)
    f_over_g = g * d_fg.inverse
    if f_over_g != d_gf.inverse * g:
        raise InternalInconsistencyError("the two formulas for f^{D/g} disagree")
    g_over_f = f * d_gf.inverse
    if g_over_f != d_fg.inverse * f:
        raise InternalInconsistencyError("the two formulas for g^{D/f} disagree")
    idem_fg = f * f_over_g
    idem_gf = f_over_g * f
    k1, k2 = _pair_absorption(fg, gf, idem_fg, idem_gf)
    if k1 != d_fg.index or k2 != d_gf.index:
        raise InternalInconsistencyError(
            "absorption minima disagree with composite indices"
        )
    if k1 != k2:
        if abs(k1 - k2) > 1:
            raise InternalInconsistencyError(
                "one-sided pair indices differ by more than one"
            )
        import logging  # here, so that importing drazin does not load logging
        logging.getLogger("drazin.pairs").info("one-sided pair indices differ: %d vs %d", k1, k2)
    return PairDrazinData(
        g_over_f=g_over_f,
        f_over_g=f_over_g,
        index=max(k1, k2),
        idem_fg=idem_fg,
        idem_gf=idem_gf,
    )


def verify_pair_data(pair, d):
    """Exact [DV.1-3] revalidation; raises ValueError on a stale bundle."""
    f, g = pair.forward, pair.backward
    u, v = d.f_over_g, d.g_over_f
    if (u.rows, u.cols) != (f.cols, f.rows) or (v.rows, v.cols) != (f.rows, f.cols):
        raise ValueError("pair data shapes do not match the pair")
    _require_fresh("pair data", "DV.1", d.index, *_pair_failures(f, g, u, v))


def check_pair_group(pair, d):
    """True iff the pair index is at most 1; then the group axioms hold.

    [GV.1] follows from [DV.1-3] at index at most 1: f*u commutes with f*g,
    since f*u*f*g = f*g*v*g = f*g*f*u by [DV.3], so f*u*(f*g) = (f*g)*f*u =
    f*g by [DV.1]; likewise g*v*(g*f) = g*f.
    """
    verify_pair_data(pair, d)
    return d.index <= 1


def check_binary_idempotent(pair):
    """True iff f*g*f = f and g*f*g = g; then both composites are idempotent,
    since (f*g)^2 = (f*g*f)*g = f*g and (g*f)^2 = (g*f*g)*f = g*f."""
    f, g = pair.forward, pair.backward
    return f * g * f == f and g * f * g == g


def moore_penrose(f):
    """Moore-Penrose inverse, dagger = transpose; may not exist over F_p.

    Exists iff rank(f*f^T) = rank(f) = rank(f^T*f); then with f = L*R,
    f° = R^T * (R*R^T)^{-1} * (L^T*L)^{-1} * L^T = R^T * (L^T*L*R*R^T)^{-1} * L^T,
    one inversion. Nonexistence reports which Gram rank dropped.
    """
    ft = f.transpose()
    reduced = rref(f)
    r = reduced[2]
    rank_left = rank(f * ft)
    rank_right = rank(ft * f)
    if rank_left != r or rank_right != r:
        drops = []
        if rank_left != r:
            drops.append("rank(f*f^T)=%d" % rank_left)
        if rank_right != r:
            drops.append("rank(f^T*f)=%d" % rank_right)
        witness = "%s < rank(f)=%d" % (" and ".join(drops), r)
        return MoorePenroseData(pseudo=None, exists=False, witness=witness)
    fact = _factor(f, reduced)
    left, right = fact.left, fact.right
    grams = (left.transpose() * left) * (right * right.transpose())
    grams_inv = _invert_or_bug(grams, "Gram blocks singular despite full Gram ranks")
    pseudo = right.transpose() * grams_inv * left.transpose()
    return MoorePenroseData(pseudo=pseudo, exists=True)


def mp_via_pair_drazin(f):
    """Moore-Penrose via the pair (f, f^T): exists iff the pair index is at
    most 1 and f * f^{D/f^T} * f = f; the candidate is f^{D/f^T} either way."""
    pd = pair_drazin(OpposingPair(f, f.transpose()))
    candidate = pd.f_over_g
    if pd.index > 1:
        return MoorePenroseData(
            pseudo=candidate, exists=False, witness="pair index %d > 1" % pd.index
        )
    if f * candidate * f != f:
        return MoorePenroseData(
            pseudo=candidate, exists=False, witness="f*f^{D/f^T}*f != f"
        )
    return MoorePenroseData(pseudo=candidate, exists=True)


@dataclass(frozen=True)
class MPDrazinCheck:
    is_mp_drazin: bool
    witness: str


def mp_drazin_check(x):
    """Do the Drazin and Moore-Penrose inverses of x coincide?

    Three independent formulations are evaluated: (i) x^D satisfies the MP
    axioms, (ii) index <= 1 with a symmetric induced idempotent, (iii) MP
    exists and commutes with x. They must agree; disagreement is a bug.
    """
    if not x.is_square:
        raise NotSquareError("mp_drazin_check needs a square matrix")
    d = drazin_inverse(x)
    cond_axioms = not _penrose_failures(x, d.inverse)
    cond_index = d.index <= 1 and d.idempotent.transpose() == d.idempotent
    mp = moore_penrose(x)
    cond_commute = mp.exists and x * mp.pseudo == mp.pseudo * x
    if not (cond_axioms == cond_index == cond_commute):
        raise InternalInconsistencyError(
            "equivalent formulations disagree: axioms=%r index=%r commute=%r"
            % (cond_axioms, cond_index, cond_commute)
        )
    if cond_axioms:
        return MPDrazinCheck(is_mp_drazin=True, witness="drazin-equals-mp")
    if d.index > 1:
        return MPDrazinCheck(is_mp_drazin=False, witness="index %d > 1" % d.index)
    return MPDrazinCheck(is_mp_drazin=False, witness="idempotent not symmetric")
