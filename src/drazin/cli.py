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
import sys
from fractions import Fraction

from .core import drazin_inverse
from .decompositions import (
    complement_formula_check,
    core_nilpotent,
    eventuating_family,
    fitting_decomposition,
    image_kernel_drazin,
    munn_power_iso_check,
    splitting_iso,
)
from .exceptions import DrazinError, InternalInconsistencyError, ParseError
from .fields import PrimeField, Q
from .finite import EndoFun, _cycle_drazin, endo_drazin, eventual_image, int_mod_monoid
from .linalg import Matrix
from .pairs import (
    OpposingPair,
    check_binary_idempotent,
    moore_penrose,
    mp_via_pair_drazin,
    pair_drazin,
)
from .verify import check_axioms, check_monoid_axioms, monoid_cycle_drazin

__all__ = ["main"]

# Step limit of the power walks: the default --max-steps of `monoid` (whose
# powers repeat within modulus steps, so it is capped there too) and the fixed
# budget of `drazin --route C`, whose own default, p^(n^2), bounds nothing in
# practice. A walk keeps every power, about 140 MB per million steps.
_MONOID_STEP_LIMIT = 10 ** 6


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


def _field_of(args):
    if args.field == "Q":
        if getattr(args, "p", None) is not None:
            raise ParseError("--p only applies to --field Fp")
        return Q
    if args.p is None:
        raise ParseError("--field Fp needs --p")
    return PrimeField(args.p)


def _matrix_arg(field, text):
    return Matrix.from_json(field, _payload(text))


def _response_code(*reports, extra_checks=()):
    """0 when every embedded report passes and every flag is true, else 2."""
    ok = all(r.passed for r in reports) and all(extra_checks)
    return 0 if ok else 2


def _cmd_drazin(args):
    field = _field_of(args)
    x = _matrix_arg(field, args.matrix)
    if args.route == "B":
        d = image_kernel_drazin(x)
    elif args.route == "C":
        d = monoid_cycle_drazin(x, max_steps=_MONOID_STEP_LIMIT)
    else:
        d = drazin_inverse(x)
    report = check_axioms("D", x=x, inverse=d.inverse)
    response = {
        "command": "drazin",
        "field": field.descriptor(),
        "input": x.to_json(),
        "route": d.route,
        "index": d.index,
        "inverse": d.inverse.to_json(),
        "idempotent": d.idempotent.to_json(),
        "axioms": report.to_json(),
    }
    code = _response_code(report, extra_checks=[report.witnessed_index == d.index])
    return response, code


def _cmd_group(args):
    field = _field_of(args)
    x = _matrix_arg(field, args.matrix)
    d = drazin_inverse(x)
    exists = d.index <= 1
    response = {
        "command": "group",
        "field": field.descriptor(),
        "input": x.to_json(),
        "exists": exists,
        "index": d.index,
    }
    if exists:
        report = check_axioms("G", x=x, inverse=d.inverse)
        response["inverse"] = d.inverse.to_json()
        extra = []
    else:
        report = check_axioms("D", x=x, inverse=d.inverse)
        extra = [report.witnessed_index == d.index]
    response["axioms"] = report.to_json()
    return response, _response_code(report, extra_checks=extra)


def _cmd_mp(args):
    field = _field_of(args)
    f = _matrix_arg(field, args.matrix)
    gram = moore_penrose(f)
    via_pair = mp_via_pair_drazin(f)
    if gram.exists != via_pair.exists:
        raise InternalInconsistencyError(
            "Gram-rank and pair-based existence answers disagree"
        )
    response = {
        "command": "mp",
        "field": field.descriptor(),
        "input": f.to_json(),
        "exists": gram.exists,
        "routes_agree": True,
    }
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
    field = _field_of(args)
    f = _matrix_arg(field, args.f)
    g = _matrix_arg(field, args.g)
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
    code = _response_code(
        report, extra_checks=[report.witnessed_index == d.index, cline_holds]
    )
    return response, code


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
    code = _response_code(report, extra_checks=[report.witnessed_index == index])
    return response, code


def _cmd_monoid(args):
    monoid = int_mod_monoid(args.modulus)
    x = args.element % args.modulus
    inverse, m, c = _cycle_drazin(monoid.element(x), min(args.modulus, args.max_steps))
    report = check_monoid_axioms(monoid, x, inverse.value, cap=args.modulus)
    response = {
        "command": "monoid",
        "modulus": args.modulus,
        "element": x,
        "inverse": inverse.value,
        "index": m,
        "first_repeat": {"m": m, "k": c},
        "axioms": report.to_json(),
    }
    code = _response_code(report, extra_checks=[report.witnessed_index == m])
    return response, code


def _cmd_decompose(args):
    field = _field_of(args)
    x = _matrix_arg(field, args.matrix)
    d = drazin_inverse(x)
    cn = core_nilpotent(x, d)
    fit = fitting_decomposition(x, d)
    alpha = splitting_iso(x, d)
    family = eventuating_family(x, d, N=args.window)
    complement_ok = complement_formula_check(x, d)
    munn_ok = munn_power_iso_check(x, d)
    report_d = check_axioms("D", x=x, inverse=d.inverse)
    report_cnd = check_axioms(
        "CND",
        x=x,
        core=cn.core,
        nilpotent_part=cn.nilpotent_part,
        nilpotent_index=cn.nilpotent_index,
    )
    report_ev = check_axioms("EV", x=x, family=family)
    response = {
        "command": "decompose",
        "field": field.descriptor(),
        "input": x.to_json(),
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
    code = _response_code(
        report_d, report_cnd, report_ev, extra_checks=[complement_ok, munn_ok]
    )
    return response, code


def _cmd_verify(args):
    field = _field_of(args)
    x = _matrix_arg(field, args.matrix)
    claim = _matrix_arg(field, args.claim)
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


def _add_field_args(sub):
    sub.add_argument("--field", choices=["Q", "Fp"], default="Q")
    sub.add_argument("--p", type=int, default=None, help="prime modulus for Fp")


def _add_common(sub, handler):
    sub.add_argument("--pretty", action="store_true", help="aligned text output")
    sub.set_defaults(handler=handler)


def build_parser():
    parser = _Parser(prog="drazin", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("drazin", help="Drazin inverse of a square matrix")
    _add_field_args(p)
    p.add_argument("--matrix", required=True, help="JSON matrix, or - for stdin")
    p.add_argument(
        "--route",
        choices=["A", "B", "C"],
        default="A",
        help="A rank factorization, B image-kernel, C power cycle (Fp only)",
    )
    _add_common(p, _cmd_drazin)

    p = subs.add_parser("group", help="group inverse when the index is at most 1")
    _add_field_args(p)
    p.add_argument("--matrix", required=True)
    _add_common(p, _cmd_group)

    p = subs.add_parser("mp", help="Moore-Penrose inverse (transpose dagger)")
    _add_field_args(p)
    p.add_argument("--matrix", required=True)
    _add_common(p, _cmd_mp)

    p = subs.add_parser("pair", help="Drazin inverse of an opposing pair (f, g)")
    _add_field_args(p)
    p.add_argument("--f", required=True, help="JSON matrix, n x m")
    p.add_argument("--g", required=True, help="JSON matrix, m x n")
    _add_common(p, _cmd_pair)

    p = subs.add_parser("endofun", help="Drazin inverse of an endofunction")
    p.add_argument("--table", required=True, help='JSON like [1,2,1] or {"n":3,"table":[1,2,1]}')
    _add_common(p, _cmd_endofun)

    p = subs.add_parser("monoid", help="Drazin inverse in multiplicative Z/n")
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--element", type=int, required=True)
    p.add_argument("--max-steps", type=int, default=_MONOID_STEP_LIMIT, dest="max_steps",
                   help="power-walk step limit, capped at the modulus (default %(default)s)")
    _add_common(p, _cmd_monoid)

    p = subs.add_parser("decompose", help="all decompositions attached to x")
    _add_field_args(p)
    p.add_argument("--matrix", required=True)
    p.add_argument("--window", type=int, default=None, help="eventuating window radius")
    _add_common(p, _cmd_decompose)

    p = subs.add_parser("verify", help="check a claimed inverse, computing nothing")
    _add_field_args(p)
    p.add_argument("--matrix", required=True)
    p.add_argument("--claim", required=True, help="the claimed inverse")
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
    except InternalInconsistencyError as exc:
        _emit({"error": str(exc), "kind": "internal-inconsistency"}, False)
        return 2
    except (DrazinError, ValueError) as exc:
        _emit({"error": str(exc)}, False)
        return 1
    _emit(response, args.pretty)
    return code


if __name__ == "__main__":
    sys.exit(main())
