"""Splittings and decompositions attached to a Drazin matrix.

Covers: idempotent splittings, the invertible map induced on the retract of
e_x, core-nilpotent, the complement formula, the Fitting similarity, the
image-kernel construction (Route B), eventuating families, and the power
isomorphism.

Every operation that consumes a DrazinData revalidates it once per (x, d)
pair, so a stale or hand-built bundle fails fast instead of corrupting
results; e_x's splitting, alpha = r*x*s and x - x*x^D*x are built once too.
What [D.1-3] and a checked splitting imply is not checked again: the
complement formula and the power isomorphism are theorems of [D.1-3], and
split_idempotent checks s*r = e and r*s = I, from which the inverse of
alpha, its commuting squares and the Fitting similarity follow.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .core import DrazinData, _require_square, drazin_index, verify_drazin_data
from .exceptions import (
    InternalInconsistencyError,
    NotIdempotentError,
    NotSquareError,
)
from .linalg import (
    Matrix,
    _factor,
    _invert_or_bug,
    block_diag,
    full_rank_factorization,
    hstack,
    invert_matrix,
    rank,
    rref,
)


@dataclass(frozen=True)
class IdempotentSplitting:
    retraction: Matrix  # r x n, applied first
    section: Matrix  # n x r
    through_dim: int


@dataclass(frozen=True)
class CoreNilpotent:
    core: Matrix
    nilpotent_part: Matrix
    nilpotent_index: int


@dataclass(frozen=True)
class FittingData:
    change_of_basis: Matrix
    invertible_block: Matrix
    nilpotent_block: Matrix


@dataclass(frozen=True)
class EventuatingFamily:
    window: tuple
    sections: tuple
    retractions: tuple
    index: int


def split_idempotent(e):
    """Split e = section * retraction with retraction * section = identity.

    Realized by the full-rank factorization: for an idempotent the two
    factors compose to the identity on the through space. Both halves of
    the definition are checked, so whatever is derived from a splitting
    needs no check of its own.
    """
    if not e.is_square:
        raise NotSquareError("idempotents are square")
    if e * e != e:
        raise NotIdempotentError("e*e != e")
    fact = full_rank_factorization(e)
    if fact.left * fact.right != e:
        raise InternalInconsistencyError("factorization of an idempotent must reproduce it")
    if fact.right * fact.left != Matrix.identity(e.field, fact.rank):
        raise InternalInconsistencyError("factorization of an idempotent must split it")
    return IdempotentSplitting(
        retraction=fact.right, section=fact.left, through_dim=fact.rank
    )


class _DrazinContext:
    """What the entries share for one validated (x, d), each part built on first use."""

    def __init__(self, x, d, witnessed):  # d's fields, not d: d holds the context
        self.x, self.xd, self.e = x, d.inverse, d.idempotent
        self.witnessed = witnessed  # the least k of [D.1], found by the validation

    @cached_property
    def nilpotent_part(self):
        return self.x - self.x * self.xd * self.x

    @cached_property
    def splitting(self):
        return split_idempotent(self.e)

    @cached_property
    def alpha(self):  # r*x*s for the splitting (r, s) of e_x
        sp = self.splitting
        return sp.retraction * self.x * sp.section


def _certified(x, d):
    """The context of (x, d), stored on d and keyed on x's identity. Only its first
    use validates; another x or a new bundle (dataclasses.replace too) revalidates."""
    ctx = getattr(d, "_context", None)
    if ctx is None or ctx.x is not x:
        ctx = _DrazinContext(x, d, verify_drazin_data(x, d))
        object.__setattr__(d, "_context", ctx)  # as functools.cached_property does
    return ctx


def splitting_iso(x, d):
    """The invertible map alpha induced by x on the retract of e_x.

    With (r, s) splitting e_x, alpha = r*x*s, and r*x^D*s is its inverse in
    both orders: e*x^D = x^D by [D.2-3], so alpha*r*x^D*s = r*x*e*x^D*s =
    r*e*s = I, and the other order likewise. The squares r*x = alpha*r and
    x*s = s*alpha hold since e commutes with x [D.3], and x^k = e*x^k =
    x^k*e by [D.1] at the witnessed index, which is at most k.
    """
    return _certified(x, d).alpha


def core_nilpotent(x, d):
    """x = core + nilpotent_part with the three separation axioms.

    nilpotent_part = x*(I - e_x) and e_x commutes with x [D.3], so its j-th
    power is x^j*(I - e_x) for j >= 1, which is 0 at j = max(k, 1) by [D.1]
    (at k = 0, e_x = I). Its Drazin index is therefore its nilpotency degree.
    """
    nilpotent_part = _certified(x, d).nilpotent_part
    core = x - nilpotent_part
    return CoreNilpotent(core, nilpotent_part, nilpotent_index=drazin_index(nilpotent_part))


def complement_formula_check(x, d):
    """x^D = x^k * (x^{k+1} + (I - e_x))^{-1}, in both orders: a theorem of [D.1-3].

    (x^D)^{k+1} + (I - e_x) inverts x^{k+1} + (I - e_x) in both orders:
    x^{k+1}*(x^D)^{k+1} = e_x by [D.2-3], and the cross terms vanish, since
    x^k*(I - e_x) = 0 by [D.1] at k and e_x*x^D = x^D by [D.2-3]. Then
    x^k times that inverse is x^k*(x^D)^{k+1} = x^D*e_x = x^D, on either
    side. So once d validates, the answer is True.
    """
    _certified(x, d)
    return True


def fitting_decomposition(x, d):
    """Similarity x = p * diag(alpha, eta) * p^{-1}, alpha invertible, eta nilpotent.

    p's columns are the sections of the splittings of e_x and of I - e_x,
    and its inverse is the stacked retractions: p*[r; r_c] = s*r + s_c*r_c =
    e_x + (I - e_x) = I. The blocks reassemble x, since
    e_x*x*e_x + (I - e_x)*N*(I - e_x) = x*e_x + x*(I - e_x) = x by [D.2-3],
    with N = x*(I - e_x) the nilpotent part.
    """
    ctx = _certified(x, d)
    sp = ctx.splitting
    sp_c = split_idempotent(Matrix.identity(x.field, x.rows) - d.idempotent)
    p = hstack(sp.section, sp_c.section)
    eta = sp_c.retraction * ctx.nilpotent_part * sp_c.section
    return FittingData(
        change_of_basis=p, invertible_block=ctx.alpha, nilpotent_block=eta
    )


def drazin_from_fitting(x, f):
    """Rebuild x^D = p * diag(alpha^{-1}, 0) * p^{-1} from FittingData."""
    alpha_inv = invert_matrix(f.invertible_block)
    nil_size = f.nilpotent_block.rows
    middle = block_diag(alpha_inv, Matrix.zeros(x.field, nil_size, nil_size))
    return f.change_of_basis * middle * invert_matrix(f.change_of_basis)


def _power_walk(x):
    """(k, x^{k+1}, rref(x^{k+1})) at the least k with rank(x^k) = rank(x^{k+1}).

    The walk reads only the rank of each power, and reduces the last power
    alone: when x is invertible (k = 0) its rref is the identity, with no
    elimination.
    """
    _require_square(x)
    k, power, prev_rank = 0, x, x.rows
    while True:
        rk = rank(power)
        if rk == prev_rank:
            break
        k, power, prev_rank = k + 1, power * x, rk
    if k == 0:
        n = x.rows
        return 0, x, (Matrix.identity(x.field, n), tuple(range(n)), n)
    return k, power, rref(power)


def image_kernel_drazin(x):
    """Route B: x^D = B*(C*x*B)^{-1}*C from x^{k+1} = B*C at the stabilized index.

    im B and ker C split the space as im(x^{k+1}) + ker(x^{k+1}); (C*B)^{-1}*C
    projects onto im B along ker C, and x induces (C*B)^{-1}*C*x*B on im B, so
    x^D = B*((C*B)^{-1}*C*x*B)^{-1}*(C*B)^{-1}*C. Same contract as
    drazin_inverse; a singular C*x*B means a library bug.
    """
    k, power, reduced = _power_walk(x)
    fact = _factor(power, reduced)
    b, c = fact.left, fact.right
    inverse = b * _invert_or_bug(c * x * b, "x is singular on the stabilized image") * c
    return DrazinData(
        inverse=inverse, index=k, idempotent=x * inverse, route="ImageKernel"
    )


def eventuating_family(x, d, N=None):
    """Sections s_i and retractions r_i indexed over [-N, N].

    s_0, r_0 split e_x; moving right composes with x, moving left with x^D:
    s_i = x^i * s_0 and r_i = r_0 * (x^D)^i for i > 0, and with the roles of
    x and x^D exchanged for i < 0. N defaults to index + 2.
    """
    ctx = _certified(x, d)
    if N is None:
        N = d.index + 2
    if not isinstance(N, int) or N < 1:
        raise ValueError("window radius N must be a natural number >= 1")
    sp = ctx.splitting
    xd = d.inverse
    # Each step extends the last: indices 0..N rightwards, 0..-N leftwards.
    s_right, r_right = [sp.section], [sp.retraction]
    s_left, r_left = [sp.section], [sp.retraction]
    for _ in range(N):
        s_right.append(x * s_right[-1])
        r_right.append(r_right[-1] * xd)
        s_left.append(xd * s_left[-1])
        r_left.append(r_left[-1] * x)
    return EventuatingFamily(
        window=tuple(range(-N, N + 1)),
        sections=tuple(s_left[:0:-1] + s_right),
        retractions=tuple(r_left[:0:-1] + r_right),
        index=d.index,
    )


def munn_power_iso_check(x, d):
    """x^{k+1} is an isomorphism on the retract of e_x: a theorem of [D.1-3].

    e_x absorbs x^{k+1} on both sides, by [D.1] at k and [D.3], and
    (x^D)^{k+1} + (I - e_x) inverts x^{k+1} + (I - e_x) (see
    complement_formula_check). So once d validates, the answer is True.
    """
    _certified(x, d)
    return True
