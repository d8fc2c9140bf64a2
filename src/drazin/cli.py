"""Command line front end.

Every subcommand parses JSON payloads, calls the library, and emits a
JSON response that embeds an axiom report, so each answer certifies
itself. Exit codes: 0 success, 1 user error, 2 internal inconsistency
(a response whose own certification fails, which signals a bug).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from .core import drazin_inverse
from .decompositions import (
    _certified,
    complement_formula_check,
    core_nilpotent,
    eventuating_family,
    fitting_decomposition,
    image_kernel_drazin,
    munn_power_iso_check,
    splitting_iso,
)
from .exceptions import DrazinError, InternalInconsistencyError, ParseError
from .fields import PrimeField, Q, _digit_limit
from .finite import (
    _WALK_LIMIT,
    EndoFun,
    _cycle_drazin,
    endo_drazin,
    eventual_image,
    int_mod_monoid,
)
from .linalg import Matrix
from .pairs import (
    OpposingPair,
    check_binary_idempotent,
    moore_penrose,
    mp_via_pair_drazin,
    pair_drazin,
)
from .verify import _report, check_axioms, check_monoid_axioms, monoid_cycle_drazin

__all__ = ["main"]

# The most --window accepts: over Q the time and output grow faster than it.
_WINDOW_LIMIT = 100


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this tool reserves 2 for bugs."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print("%s: error: %s" % (self.prog, message), file=sys.stderr)
        raise SystemExit(1)


def _payload(text):
    if text == "-":
        text = sys.stdin.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("malformed JSON payload: %s" % exc) from exc
    except ValueError as exc:  # the one other failure: an integer past the digit limit
        raise ParseError("input integer over the %d-digit limit" % _digit_limit()) from exc


def _inputs(args, *names):
    """The field of --field/--p, then each named JSON matrix argument over it."""
    if args.field == "Q":
        if args.p is not None:
            raise ParseError("--p only applies to --field Fp")
        field = Q
    elif args.p is None:
        raise ParseError("--field Fp needs --p")
    else:
        field = PrimeField(args.p)
    return (field,) + tuple(Matrix.from_json(field, _payload(getattr(args, n))) for n in names)


def _head(command, field, x):
    return {"command": command, "field": field.descriptor(), "input": x.to_json()}


def _response_code(*reports, extra_checks=()):
    """0 when every embedded report passes and every flag is true, else 2."""
    ok = all(r.passed for r in reports) and all(extra_checks)
    return 0 if ok else 2


def _witnessed(report, index, *extra):
    """_response_code, also requiring the report to witness the claimed index."""
    return _response_code(report, extra_checks=[report.witnessed_index == index, *extra])


def _cmd_drazin(args):
    field, x = _inputs(args, "matrix")
    if args.route == "B":
        d = image_kernel_drazin(x)
    elif args.route == "C":
        d = monoid_cycle_drazin(x)
    else:
        d = drazin_inverse(x)
    report = check_axioms("D", x=x, inverse=d.inverse)
    response = {
        **_head("drazin", field, x),
        "route": d.route,
        "index": d.index,
        "inverse": d.inverse.to_json(),
        "idempotent": d.idempotent.to_json(),
        "axioms": report.to_json(),
    }
    return response, _witnessed(report, d.index)


def _cmd_group(args):
    field, x = _inputs(args, "matrix")
    d = drazin_inverse(x)
    exists = d.index <= 1
    response = {**_head("group", field, x), "exists": exists, "index": d.index}
    if exists:
        report = check_axioms("G", x=x, inverse=d.inverse)
        response["inverse"] = d.inverse.to_json()
        code = _response_code(report)
    else:
        report = check_axioms("D", x=x, inverse=d.inverse)
        code = _witnessed(report, d.index)
    response["axioms"] = report.to_json()
    return response, code


def _cmd_mp(args):
    field, f = _inputs(args, "matrix")
    gram = moore_penrose(f)
    via_pair = mp_via_pair_drazin(f)
    if gram.exists != via_pair.exists:
        raise InternalInconsistencyError(
            "Gram-rank and pair-based existence answers disagree"
        )
    response = {**_head("mp", field, f), "exists": gram.exists, "routes_agree": True}
    if gram.exists:
        if gram.pseudo != via_pair.pseudo:
            raise InternalInconsistencyError("the two Moore-Penrose routes disagree")
        report = check_axioms("MP", f=f, pseudo=gram.pseudo)
        response["pseudo"] = gram.pseudo.to_json()
        response["axioms"] = report.to_json()
        return response, _response_code(report)
    response["witness"] = gram.witness
    response["pair_witness"] = via_pair.witness
    response["axioms"] = None
    return response, 0


def _cmd_pair(args):
    field, f, g = _inputs(args, "f", "g")
    pair = OpposingPair(f, g)
    d = pair_drazin(pair)
    report = check_axioms(
        "DV", f=f, g=g, f_over_g=d.f_over_g, g_over_f=d.g_over_f
    )
    # (fg)^D = g^{D/f} f^{D/g} and (gf)^D = f^{D/g} g^{D/f}; Cline's formula
    # g ((fg)^D)^2 f = (gf)^D then ties the two together.
    fg_inverse = d.g_over_f * d.f_over_g
    gf_inverse = d.f_over_g * d.g_over_f
    cline_holds = g * fg_inverse * fg_inverse * f == gf_inverse
    response = {
        "command": "pair",
        "field": field.descriptor(),
        "f": f.to_json(),
        "g": g.to_json(),
        "f_over_g": d.f_over_g.to_json(),
        "g_over_f": d.g_over_f.to_json(),
        "index": d.index,
        "idem_fg": d.idem_fg.to_json(),
        "idem_gf": d.idem_gf.to_json(),
        "is_group_pair": d.index <= 1,
        "is_binary_idempotent": check_binary_idempotent(pair),
        "cline": {"fg_inverse": fg_inverse.to_json(), "gf_inverse": gf_inverse.to_json()},
        "axioms": report.to_json(),
    }
    return response, _witnessed(report, d.index, cline_holds)


def _cmd_endofun(args):
    f = EndoFun.from_json(_payload(args.table))
    fd, index = endo_drazin(f)
    stable, _ = eventual_image(f)
    report = check_axioms("D", x=f, inverse=fd)
    response = {
        "command": "endofun",
        "n": f.n,
        "table": list(f.table),
        "inverse_table": list(fd.table),
        "index": index,
        "eventual_image": list(stable),
        "axioms": report.to_json(),
    }
    return response, _witnessed(report, index)


def _cmd_monoid(args):
    if args.max_steps is not None and args.max_steps > _WALK_LIMIT:
        raise ValueError("--max-steps %d is over the limit %d" % (args.max_steps, _WALK_LIMIT))
    monoid = int_mod_monoid(args.modulus)
    x = args.element % args.modulus
    inverse, m, c = _cycle_drazin(monoid.element(x), args.max_steps)
    report = check_monoid_axioms(monoid, x, inverse.value, cap=monoid._tail)
    response = {
        "command": "monoid",
        "modulus": args.modulus,
        "element": x,
        "inverse": inverse.value,
        "index": m,
        "first_repeat": {"m": m, "k": c},
        "axioms": report.to_json(),
    }
    return response, _witnessed(report, m)


def _cmd_decompose(args):
    if args.window is not None and args.window > _WINDOW_LIMIT:
        raise ValueError("--window %d is over the limit %d" % (args.window, _WINDOW_LIMIT))
    field, x = _inputs(args, "matrix")
    d = drazin_inverse(x)
    try:
        ctx = _certified(x, d)
    except ValueError as exc:  # d is route A's own answer, so a stale bundle is a bug
        raise InternalInconsistencyError("route A's answer fails revalidation: %s" % exc) from exc
    cn = core_nilpotent(x, d)
    fit = fitting_decomposition(x, d)
    alpha = splitting_iso(x, d)
    family = eventuating_family(x, d, N=args.window)
    complement_ok = complement_formula_check(x, d)
    munn_ok = munn_power_iso_check(x, d)
    report_d = _report("D", (), ctx.witnessed)  # [D.1-3] passed in _certified
    report_cnd = check_axioms(
        "CND",
        x=x,
        core=cn.core,
        nilpotent_part=cn.nilpotent_part,
        nilpotent_index=cn.nilpotent_index,
    )
    report_ev = check_axioms("EV", x=x, family=family)
    response = {
        **_head("decompose", field, x),
        "index": d.index,
        "inverse": d.inverse.to_json(),
        "idempotent": d.idempotent.to_json(),
        "core_nilpotent": {
            "core": cn.core.to_json(),
            "nilpotent_part": cn.nilpotent_part.to_json(),
            "nilpotent_index": cn.nilpotent_index,
        },
        "fitting": {
            "change_of_basis": fit.change_of_basis.to_json(),
            "invertible_block": fit.invertible_block.to_json(),
            "nilpotent_block": fit.nilpotent_block.to_json(),
        },
        "splitting_iso": alpha.to_json(),
        "eventuating_family": {
            "window": list(family.window),
            "sections": [s.to_json() for s in family.sections],
            "retractions": [r.to_json() for r in family.retractions],
        },
        "complement_formula": complement_ok,
        "munn_power_iso": munn_ok,
        "axioms": {
            "D": report_d.to_json(),
            "CND": report_cnd.to_json(),
            "EV": report_ev.to_json(),
        },
    }
    return response, _response_code(report_d, report_cnd, report_ev)


def _cmd_verify(args):
    field, x, claim = _inputs(args, "matrix", "claim")
    if args.system == "MP":
        report = check_axioms("MP", f=x, pseudo=claim)
    else:
        report = check_axioms(args.system, x=x, inverse=claim)
    response = {
        "command": "verify",
        "field": field.descriptor(),
        "system": args.system,
        "input": x.to_json(),
        "claim": claim.to_json(),
        "report": report.to_json(),
    }
    # A failing report here is the honest answer to the question asked,
    # not a defect, so the exit code stays 0.
    return response, 0


def _int_flag(text):
    """argparse's int, except that past the digit limit the error names the
    limit instead of echoing every digit."""
    try:
        return int(text)
    except ValueError:
        limit = _digit_limit()
        if limit and len(text) > limit:
            raise argparse.ArgumentTypeError("integer over the %d-digit limit" % limit)
        raise argparse.ArgumentTypeError("invalid int value: %r" % text)


def _matrix_command(subs, name, help, *flags):
    """A subcommand over --field/--p taking each (flag, help) as a required JSON matrix."""
    sub = subs.add_parser(name, help=help)
    sub.add_argument("--field", choices=["Q", "Fp"], default="Q")
    sub.add_argument("--p", type=_int_flag, default=None, help="prime modulus for Fp")
    for flag, flag_help in flags:
        sub.add_argument(flag, required=True, help=flag_help)
    return sub


def _add_common(sub, handler):
    sub.add_argument("--pretty", action="store_true", help="aligned text output")
    sub.set_defaults(handler=handler)


def build_parser():
    limit = _digit_limit()
    parser = _Parser(
        prog="drazin",
        description=__doc__,
        epilog="An input scalar or a Q answer entry may have at most %d digits in its "
        "numerator and in its denominator (Python's int/str conversion limit); past it "
        "the call exits 1 and says which of the two crossed it." % limit if limit else None,
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = _matrix_command(subs, "drazin", "Drazin inverse of a square matrix",
                        ("--matrix", "JSON matrix, or - for stdin"))
    p.add_argument(
        "--route",
        choices=["A", "B", "C"],
        default="A",
        help="A rank factorization, B image-kernel, C power cycle (Fp only)",
    )
    _add_common(p, _cmd_drazin)

    p = _matrix_command(subs, "group", "group inverse when the index is at most 1",
                        ("--matrix", None))
    _add_common(p, _cmd_group)

    p = _matrix_command(subs, "mp", "Moore-Penrose inverse (transpose dagger)", ("--matrix", None))
    _add_common(p, _cmd_mp)

    p = _matrix_command(subs, "pair", "Drazin inverse of an opposing pair (f, g)",
                        ("--f", "JSON matrix, n x m"), ("--g", "JSON matrix, m x n"))
    _add_common(p, _cmd_pair)

    p = subs.add_parser("endofun", help="Drazin inverse of an endofunction")
    p.add_argument("--table", required=True, help='JSON like [1,2,1] or {"n":3,"table":[1,2,1]}')
    _add_common(p, _cmd_endofun)

    p = subs.add_parser("monoid", help="Drazin inverse in multiplicative Z/n")
    p.add_argument("--modulus", type=_int_flag, required=True)
    p.add_argument("--element", type=_int_flag, required=True)
    p.add_argument("--max-steps", type=_int_flag, default=None, dest="max_steps",
                   help="power-walk step limit, at most %d (default: the smaller of the "
                   "modulus and %d)" % (_WALK_LIMIT, _WALK_LIMIT))
    _add_common(p, _cmd_monoid)

    p = _matrix_command(subs, "decompose", "all decompositions attached to x", ("--matrix", None))
    p.add_argument("--window", type=_int_flag, default=None,
                   help="eventuating window radius, 1 to %d (default: index + 2)" % _WINDOW_LIMIT)
    _add_common(p, _cmd_decompose)

    p = _matrix_command(subs, "verify", "check a claimed inverse, computing nothing",
                        ("--matrix", None), ("--claim", "the claimed inverse"))
    p.add_argument("--system", choices=["D", "G", "MP"], default="D")
    _add_common(p, _cmd_verify)

    return parser


def _scalar_text(value):
    if isinstance(value, str):
        return str(Fraction(value))
    return str(value)


def _is_matrix_json(value):
    return (
        isinstance(value, dict)
        and set(value) == {"rows", "cols", "entries"}
    )


def _matrix_lines(mj):
    if mj["rows"] == 0 or mj["cols"] == 0:
        return ["(empty %dx%d)" % (mj["rows"], mj["cols"])]
    cells = [[_scalar_text(v) for v in row] for row in mj["entries"]]
    widths = [max(len(row[j]) for row in cells) for j in range(mj["cols"])]
    return [
        "[ " + "  ".join(cell.rjust(w) for cell, w in zip(row, widths)) + " ]"
        for row in cells
    ]


def _pretty_lines(key, value, indent):
    pad = "  " * indent
    if _is_matrix_json(value):
        lines = ["%s%s:" % (pad, key)]
        lines += [pad + "  " + line for line in _matrix_lines(value)]
        return lines
    if isinstance(value, dict):
        lines = ["%s%s:" % (pad, key)]
        for k, v in value.items():
            lines += _pretty_lines(k, v, indent + 1)
        return lines
    if isinstance(value, list) and value and all(_is_matrix_json(v) for v in value):
        lines = ["%s%s:" % (pad, key)]
        for i, v in enumerate(value):
            lines += _pretty_lines("[%d]" % i, v, indent + 1)
        return lines
    return ["%s%s: %s" % (pad, key, json.dumps(value))]


def _emit(response, pretty):
    if pretty:
        lines = []
        for key, value in response.items():
            lines += _pretty_lines(key, value, 0)
        print("\n".join(lines))
    else:
        print(json.dumps(response, indent=2))


@functools.lru_cache(maxsize=None)
def _parser():
    """The argparse tree, built once per process; parse_args leaves it unchanged."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        response, code = args.handler(args)
        pretty = args.pretty
    except InternalInconsistencyError as exc:
        response, code, pretty = {"error": str(exc), "kind": "internal-inconsistency"}, 2, False
    except (DrazinError, ValueError) as exc:
        response, code, pretty = {"error": str(exc)}, 1, False
    try:
        _emit(response, pretty)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader has gone: what is left, and exit's flush, go nowhere
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
