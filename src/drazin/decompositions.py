"""Splittings and decompositions attached to a Drazin matrix.

Covers: idempotent splittings, the invertible map induced on the retract of
e_x, core-nilpotent, the complement formula, the Fitting similarity, the
image-kernel construction (Route B), eventuating families, and the power
isomorphism check.

Every operation that consumes a DrazinData revalidates it once per (x, d)
pair, so a stale or hand-built bundle fails fast instead of corrupting
results; x^k, x^{k+1}, e_x's splitting, alpha = r*x*s and x - x*x^D*x are
built once too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .core import DrazinData, _rank_chain, _require_square, verify_drazin_data
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
    rref,
    vstack,
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
    factors compose to the identity on the through space.
    """
    if not e.is_square:
        raise NotSquareError("idempotents are square")
    if e * e != e:
        raise NotIdempotentError("e*e != e")
    fact = full_rank_factorization(e)
    if fact.right * fact.left != Matrix.identity(e.field, fact.rank):
        raise InternalInconsistencyError("factorization of an idempotent must split it")
    return IdempotentSplitting(
        retraction=fact.right, section=fact.left, through_dim=fact.rank
    )


class _DrazinContext:
    """What the entries share for one validated (x, d), each part built on first use."""

    def __init__(self, x, d):  # d's fields, not d: d holds the context
        self.x, self.k, self.xd, self.e = x, d.index, d.inverse, d.idempotent

    @cached_property
    def power(self):  # x^k
        return self.x ** self.k

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

    @cached_property
    def shifted(self):
        """(x^{k+1}, (x^{k+1} + (I - e_x))^{-1}).

        [D.1] at k, [D.2] and [D.3] make (x^D)^{k+1} + (I - e_x) that inverse,
        so a singular sum means a library bug.
        """
        power = self.power * self.x
        comp = Matrix.identity(self.x.field, self.x.rows) - self.e
        return power, _invert_or_bug(power + comp, "x^{k+1} + (I - e_x) is singular")


def _certified(x, d):
    """The context of (x, d), stored on d and keyed on x's identity. Only its first
    use validates; another x or a new bundle (dataclasses.replace too) revalidates."""
    ctx = getattr(d, "_context", None)
    if ctx is None or ctx.x is not x:
        verify_drazin_data(x, d)
        ctx = _DrazinContext(x, d)
        object.__setattr__(d, "_context", ctx)  # as functools.cached_property does
    return ctx


def splitting_iso(x, d):
    """The invertible map alpha induced by x on the retract of e_x.

    With (r, s) splitting e_x, alpha = r*x*s; its inverse is r*x^D*s. Both
    commuting squares, the triangle with x^k, and the inverse identity are
    checked exactly before returning.
    """
    ctx = _certified(x, d)
    sp = ctx.splitting
    r, s, alpha = sp.retraction, sp.section, ctx.alpha
    alpha_inv = r * d.inverse * s
    ident = Matrix.identity(x.field, sp.through_dim)
    if alpha * alpha_inv != ident or alpha_inv * alpha != ident:
        raise InternalInconsistencyError("alpha and r*x^D*s are not mutually inverse")
    if r * x != alpha * r or x * s != s * alpha:
        raise InternalInconsistencyError("alpha squares do not commute")
    xk = ctx.power
    e = d.idempotent
    if e * xk != xk or xk * e != xk:
        raise InternalInconsistencyError("x^k does not factor through the retract")
    return alpha


def core_nilpotent(x, d):
    """x = core + nilpotent_part with the three separation axioms."""
    nilpotent_part = _certified(x, d).nilpotent_part
    core = x - nilpotent_part
    # A nilpotent matrix's rank chain ends at a 0 x 0 core, and its length,
    # the index, is the nilpotency degree.
    lefts, _, last_core = _rank_chain(nilpotent_part)
    if last_core.rows:
        raise InternalInconsistencyError("matrix is not nilpotent")
    return CoreNilpotent(core, nilpotent_part, nilpotent_index=len(lefts))


def complement_formula_check(x, d):
    """Does x^D = x^k * (x^{k+1} + (I - e_x))^{-1}, in both orders?"""
    ctx = _certified(x, d)
    xk, (_, inv) = ctx.power, ctx.shifted
    return d.inverse == xk * inv and d.inverse == inv * xk


def fitting_decomposition(x, d):
    """Similarity x = p * diag(alpha, eta) * p^{-1}, alpha invertible, eta nilpotent.

    p's columns are the sections of the splittings of e_x and of I - e_x;
    its inverse is the stacked retractions (the cross blocks vanish).
    """
    ctx = _certified(x, d)
    sp = ctx.splitting
    sp_c = split_idempotent(Matrix.identity(x.field, x.rows) - d.idempotent)
    p = hstack(sp.section, sp_c.section)
    p_inv = vstack(sp.retraction, sp_c.retraction)
    if p * p_inv != Matrix.identity(x.field, x.rows):
        raise InternalInconsistencyError("stacked splittings failed to invert p")
    alpha = ctx.alpha
    eta = sp_c.retraction * ctx.nilpotent_part * sp_c.section
    if x != p * block_diag(alpha, eta) * p_inv:
        raise InternalInconsistencyError("Fitting blocks do not reassemble x")
    return FittingData(
        change_of_basis=p, invertible_block=alpha, nilpotent_block=eta
    )


def drazin_from_fitting(x, f):
    """Rebuild x^D = p * diag(alpha^{-1}, 0) * p^{-1} from FittingData."""
    alpha_inv = invert_matrix(f.invertible_block)
    nil_size = f.nilpotent_block.rows
    middle = block_diag(alpha_inv, Matrix.zeros(x.field, nil_size, nil_size))
    return f.change_of_basis * middle * invert_matrix(f.change_of_basis)


def _power_walk(x):
    """(k, x^{k+1}, rref(x^{k+1})) at the least k with rank(x^k) = rank(x^{k+1})."""
    _require_square(x)
    k, power, prev_rank = 0, x, x.rows
    while True:
        reduced = rref(power)
        if reduced[2] == prev_rank:
            return k, power, reduced
        k, power, prev_rank = k + 1, power * x, reduced[2]


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
    """Is x^{k+1} an isomorphism on the retract of e_x?

    Concretely: e_x absorbs x^{k+1} on both sides, and x^{k+1} + (I - e_x)
    is invertible (the context inverts it or raises).
    """
    power, _ = _certified(x, d).shifted
    e = d.idempotent
    return e * power == power and power * e == power
