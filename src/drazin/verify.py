"""Axiom checkers and brute-force oracles.

check_axioms evaluates one labeled axiom system by exact equality and
returns a uniform report; the subject's keywords go to that system's
_check_* function. brute_force_drazin scans a candidate set for the unique
element passing the Drazin axioms, an oracle independent of any
closed-form construction that shares only core's absorption search.
cross_route_audit runs every applicable route on one matrix and compares.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from itertools import combinations, product
from typing import Optional

from .core import (
    DrazinData,
    _carrier,
    _drazin_failures,
    _group_pair_absorbs,
    _inner_failures,
    _pair_failures,
    _pair_inner_failures,
    _penrose_failures,
    _rank_chain,
    drazin_index,
    drazin_inverse,
)
from .decompositions import image_kernel_drazin
from .exceptions import (
    EnumerationTooLargeError,
    InternalInconsistencyError,
    NotSquareError,
)
from .fields import PrimeField
from .finite import Monoid, _absorption_index, _fp_exponent, fp_matrix_monoid, monoid_drazin
from .linalg import Matrix


@dataclass(frozen=True)
class AxiomReport:
    """Result of evaluating one axiom system on one subject."""

    system: str
    passed: bool
    failed_axioms: tuple
    witnessed_index: Optional[int] = None

    def __post_init__(self):
        assert self.passed == (not self.failed_axioms)

    def to_json(self):
        return {
            "system": self.system,
            "passed": self.passed,
            "failed_axioms": list(self.failed_axioms),
            "witnessed_index": self.witnessed_index,
        }


def _report(system, failed, witnessed=None):
    failed = tuple(failed)
    return AxiomReport(
        system=system,
        passed=not failed,
        failed_axioms=failed,
        witnessed_index=witnessed,
    )


def check_axioms(system, **subject):
    """Evaluate one axiom system exactly; see SYSTEMS for the tags.

    Subjects by system:
      D:   x, inverse            (matrix or endofunction)
      G:   x, inverse            (matrix or endofunction)
      DV:  f, g, f_over_g, g_over_f
      GV:  f, g, f_over_g, g_over_f
      MP:  f, pseudo             (matrices)
      CND: x, core, nilpotent_part [, nilpotent_index]
      EV:  x, family             (matrix + eventuating family)
    """
    if system not in SYSTEMS:
        raise ValueError("unknown axiom system %r" % (system,))
    return _CHECKS[system](**subject)


def _check_d(x, inverse):
    return _report("D", *_drazin_failures(x, inverse, *_carrier(x)))


def _check_g(x, inverse):
    x_xd = x * inverse
    failed = [] if x_xd * x == x else ["G.1"]
    inner = _inner_failures("G", x, inverse, x_xd, operator.mul, operator.eq)
    return _report("G", failed + inner)


def _check_dv(f, g, f_over_g, g_over_f):
    return _report("DV", *_pair_failures(f, g, f_over_g, g_over_f))


def _check_gv(f, g, f_over_g, g_over_f):
    failed = [] if _group_pair_absorbs(f, g, f_over_g, g_over_f) else ["GV.1"]
    return _report("GV", failed + _pair_inner_failures("GV", f, g, f_over_g, g_over_f))


def _check_mp(f, pseudo):
    return _report("MP", _penrose_failures(f, pseudo))


def _check_cnd(x, core, nilpotent_part, nilpotent_index=None):
    failed = []
    if drazin_index(core) > 1:
        failed.append("CND.1")
    if nilpotent_index is None:
        if _rank_chain(nilpotent_part)[2].rows != 0:  # last core 0 x 0 iff nilpotent
            failed.append("CND.2")
    elif not (nilpotent_part ** nilpotent_index).is_zero():
        failed.append("CND.2")
    zero = Matrix.zeros(x.field, x.rows, x.cols)
    if core * nilpotent_part != zero or nilpotent_part * core != zero:
        failed.append("CND.3")
    if core + nilpotent_part != x:
        failed.append("CND.4")
    return _report("CND", failed)


def _check_ev(x, family):
    failed = []
    k = family.index
    sections = family.sections
    retractions = family.retractions
    through = sections[0].cols
    eye = Matrix.identity(x.field, through)
    if any(r * s != eye for s, r in zip(sections, retractions)):
        failed.append("ev.1")
    composites = [s * r for s, r in zip(sections, retractions)]
    if any(e != composites[0] for e in composites[1:]):
        failed.append("ev.2")
    pairs_ok = all(
        x * sections[j] == sections[j + 1] and retractions[j + 1] * x == retractions[j]
        for j in range(len(sections) - 1)
    )
    if not pairs_ok:
        failed.append("ev.3")
    xk1 = x ** (k + 1)
    if any(xk1 * e != xk1 or e * xk1 != xk1 for e in set(composites)):
        failed.append("ev.4")
    return _report("EV", failed)


_CHECKS = {
    "D": _check_d,
    "G": _check_g,
    "DV": _check_dv,
    "GV": _check_gv,
    "MP": _check_mp,
    "CND": _check_cnd,
    "EV": _check_ev,
}
SYSTEMS = tuple(_CHECKS)


def check_monoid_axioms(monoid, x, inverse, cap):
    """The D axioms for a monoid element, index search capped at cap."""
    carrier = monoid.mul, monoid.identity, monoid.eq
    return _report("D", *_drazin_failures(x, inverse, cap, *carrier))


def brute_force_drazin(x, candidates, limit=10 ** 6):
    """The unique Drazin inverse of x among candidates, or None.

    The Drazin inverse is unique whenever it exists, so two surviving
    candidates mean a bug somewhere and raise InternalInconsistencyError.
    Candidates beyond limit raise EnumerationTooLargeError.
    """
    carrier = _carrier(x)
    survivor = None
    for count, c in enumerate(candidates, 1):
        if count > limit:
            raise EnumerationTooLargeError(
                "more than %d candidates in brute-force search" % limit
            )
        t = x * c
        if c * x != t or c * t != c or _absorption_index(x, t, *carrier) is None:
            continue
        if survivor is not None:
            raise InternalInconsistencyError(
                "two Drazin inverses found for %r: %r and %r" % (x, survivor, c)
            )
        survivor = c
    return survivor


def all_matrices(field, rows, cols, scalars=None):
    """Every rows x cols matrix with entries drawn from scalars.

    scalars defaults to the whole field for PrimeField and must be given
    otherwise.
    """
    if scalars is None:
        if isinstance(field, PrimeField):
            scalars = [field.from_int(i) for i in range(field.p)]
        else:
            raise ValueError("scalars required over an infinite field")
    cells = rows * cols
    for combo in product(scalars, repeat=cells):
        entries = [list(combo[i * cols : (i + 1) * cols]) for i in range(rows)]
        yield Matrix(field, entries)


@functools.lru_cache(maxsize=64)
def _matrix_monoid(p, n):
    """Route C's monoid, one per (p, n), since route C takes many matrices of
    one shape: fp_matrix_monoid where its int64 products cannot overflow,
    else one of Matrix values with the same tail bound T = n and exponent."""
    try:
        return fp_matrix_monoid(p, n)
    except ValueError:  # n*(p-1)^2 >= 2^63
        monoid = Monoid(operator.mul, Matrix.identity(PrimeField(p), n), size=p ** (n * n))
    monoid._tail, monoid._exponent = n, functools.partial(_fp_exponent, p, n)
    return monoid


def monoid_cycle_drazin(x, max_steps=None):
    """Route C: x^D as a power of x in the monoid of matrices over F_p.

    Same contract as drazin_inverse, with the idempotent x^{j+1} = x^D * x.
    Only finite fields qualify: the powers must repeat.
    """
    if not isinstance(x.field, PrimeField):
        raise ValueError("the power-cycle route needs a finite field")
    if not x.is_square:
        raise NotSquareError("Drazin inverses need a square matrix")
    monoid = _matrix_monoid(x.field.p, x.rows)
    start = x
    if not isinstance(monoid.identity, Matrix):
        import numpy as np  # loaded by fp_matrix_monoid; kept out of module import

        start = np.array(x._ints, dtype=np.int64).reshape(x.rows, x.cols)
    element, index = monoid_drazin(monoid.element(start), max_steps)
    inverse, idempotent = element.value, monoid.mul(element.value, start)
    if start is not x:  # every numpy power is reduced mod p already
        inverse, idempotent = (
            Matrix._raw(x.field, tuple(map(tuple, a.tolist())), x.cols) for a in (inverse, idempotent)
        )
    return DrazinData(inverse=inverse, index=index, idempotent=idempotent, route="MonoidCycle")


@dataclass(frozen=True)
class CrossRouteReport:
    """Pairwise comparison of every route that applies to one matrix."""

    inverses: dict
    indices: dict
    pairwise_equal: dict
    agree: bool

    def to_json(self):
        return {
            "routes": sorted(self.inverses),
            "inverses": {r: m.to_json() for r, m in self.inverses.items()},
            "indices": dict(self.indices),
            "pairwise_equal": {
                "%s=%s" % pair: ok for pair, ok in sorted(self.pairwise_equal.items())
            },
            "agree": self.agree,
        }


def cross_route_audit(x):
    """Run routes A, B and (over F_p) C on x and compare everything.

    A = rank factorization, B = image-kernel splitting, C = power-cycle
    walk in the matrix monoid. Uniqueness says they must agree; the
    report records the pairwise outcomes.
    """
    results = {"A": drazin_inverse(x), "B": image_kernel_drazin(x)}
    if isinstance(x.field, PrimeField):
        results["C"] = monoid_cycle_drazin(x)
    inverses = {r: d.inverse for r, d in results.items()}
    indices = {r: d.index for r, d in results.items()}
    pairwise = {
        (r1, r2): inverses[r1] == inverses[r2] and indices[r1] == indices[r2]
        for r1, r2 in combinations(sorted(inverses), 2)
    }
    return CrossRouteReport(
        inverses=inverses,
        indices=indices,
        pairwise_equal=pairwise,
        agree=all(pairwise.values()),
    )
