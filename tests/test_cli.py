import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drazin import Matrix, Q, linalg
from drazin.cli import main


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run_cli(capsys, argv)
    return code, json.loads(out)


def test_drazin_frozen_diagonal(capsys):
    code, resp = run_json(capsys, ["drazin", "--matrix", "[[2,0],[0,0]]"])
    assert code == 0
    assert resp["command"] == "drazin"
    assert resp["field"] == {"field": "Q"}
    assert resp["index"] == 1
    assert resp["route"] == "RankFactorization"
    assert resp["inverse"]["entries"] == [["1/2", "0/1"], ["0/1", "0/1"]]
    assert resp["idempotent"]["entries"] == [["1/1", "0/1"], ["0/1", "0/1"]]
    assert resp["axioms"]["passed"] is True
    assert resp["axioms"]["witnessed_index"] == 1


def test_drazin_route_b(capsys):
    code, resp = run_json(
        capsys, ["drazin", "--route", "B", "--matrix", "[[0,1],[0,0]]"]
    )
    assert code == 0
    assert resp["route"] == "ImageKernel"
    assert resp["index"] == 2
    assert resp["inverse"]["entries"] == [["0/1", "0/1"], ["0/1", "0/1"]]


def test_drazin_route_c_needs_fp(capsys):
    code, resp = run_json(
        capsys,
        ["drazin", "--route", "C", "--field", "Fp", "--p", "5", "--matrix", "[[2,1],[0,3]]"],
    )
    assert code == 0
    assert resp["route"] == "MonoidCycle"
    assert resp["field"] == {"field": "Fp", "p": 5}
    bad_code, err = run_json(capsys, ["drazin", "--route", "C", "--matrix", "[[1]]"])
    assert bad_code == 1
    assert "error" in err


def test_drazin_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("[[1,1],[0,1]]"))
    code, resp = run_json(capsys, ["drazin", "--matrix", "-"])
    assert code == 0
    assert resp["index"] == 0
    assert resp["inverse"]["entries"] == [["1/1", "-1/1"], ["0/1", "1/1"]]


def test_group_exists(capsys):
    code, resp = run_json(capsys, ["group", "--matrix", "[[1,1],[0,0]]"])
    assert code == 0
    assert resp["exists"] is True and resp["index"] == 1
    assert resp["inverse"]["entries"] == [["1/1", "1/1"], ["0/1", "0/1"]]
    assert resp["axioms"]["system"] == "G"


def test_group_missing_at_index_two(capsys):
    code, resp = run_json(capsys, ["group", "--matrix", "[[0,1],[0,0]]"])
    assert code == 0
    assert resp["exists"] is False and resp["index"] == 2
    assert "inverse" not in resp
    assert resp["axioms"]["system"] == "D"
    assert resp["axioms"]["passed"] is True


def test_mp_exists_over_q(capsys):
    code, resp = run_json(capsys, ["mp", "--matrix", "[[1,1],[0,0]]"])
    assert code == 0
    assert resp["exists"] is True and resp["routes_agree"] is True
    assert resp["pseudo"]["entries"] == [["1/2", "0/1"], ["1/2", "0/1"]]
    assert resp["axioms"]["passed"] is True


def test_mp_nonexistence_over_f2(capsys):
    code, resp = run_json(
        capsys, ["mp", "--field", "Fp", "--p", "2", "--matrix", "[[1],[1]]"]
    )
    assert code == 0
    assert resp["exists"] is False
    assert resp["witness"] == "rank(f^T*f)=0 < rank(f)=1"
    assert resp["pair_witness"] == "pair index 2 > 1"
    assert resp["axioms"] is None
    assert "pseudo" not in resp


def test_pair_frozen(capsys):
    code, resp = run_json(
        capsys,
        ["pair", "--f", "[[1,0],[0,0],[0,0]]", "--g", "[[1,0,0],[0,1,0]]"],
    )
    assert code == 0
    assert resp["index"] == 1
    assert resp["f_over_g"]["entries"] == [["1/1", "0/1", "0/1"], ["0/1", "0/1", "0/1"]]
    assert resp["is_group_pair"] is True
    assert resp["is_binary_idempotent"] is False
    assert resp["axioms"]["system"] == "DV"
    assert resp["axioms"]["passed"] is True
    assert resp["cline"]["fg_inverse"]["rows"] == 3
    assert resp["cline"]["gf_inverse"]["rows"] == 2


def test_pair_binary_idempotent(capsys):
    code, resp = run_json(capsys, ["pair", "--f", "[[1],[0]]", "--g", "[[1,0]]"])
    assert code == 0
    assert resp["is_binary_idempotent"] is True
    assert resp["f_over_g"]["entries"] == [["1/1", "0/1"]]
    assert resp["g_over_f"]["entries"] == [["1/1"], ["0/1"]]


def test_endofun_frozen(capsys):
    code, resp = run_json(capsys, ["endofun", "--table", "[1,2,1]"])
    assert code == 0
    assert resp["inverse_table"] == [1, 2, 1]
    assert resp["index"] == 1
    assert resp["eventual_image"] == [1, 2]
    assert resp["axioms"]["passed"] is True


def test_endofun_bijection(capsys):
    code, resp = run_json(capsys, ["endofun", "--table", "[1,2,0]"])
    assert code == 0
    assert resp["inverse_table"] == [2, 0, 1]
    assert resp["index"] == 0


def test_endofun_object_form(capsys):
    code, resp = run_json(
        capsys, ["endofun", "--table", '{"n": 3, "table": [0, 0, 0]}']
    )
    assert code == 0
    assert resp["inverse_table"] == [0, 0, 0] and resp["index"] == 1


def test_monoid_frozen_z8(capsys):
    code, resp = run_json(capsys, ["monoid", "--modulus", "8", "--element", "2"])
    assert code == 0
    assert resp["inverse"] == 0 and resp["index"] == 3
    assert resp["first_repeat"] == {"m": 3, "k": 1}
    assert resp["axioms"]["witnessed_index"] == 3


def test_monoid_frozen_z12(capsys):
    code, resp = run_json(capsys, ["monoid", "--modulus", "12", "--element", "2"])
    assert code == 0
    assert resp["inverse"] == 8 and resp["index"] == 2
    assert resp["first_repeat"] == {"m": 2, "k": 2}


def test_monoid_budget_error(capsys):
    code, resp = run_json(
        capsys,
        ["monoid", "--modulus", "8", "--element", "2", "--max-steps", "1"],
    )
    assert code == 1
    assert "error" in resp


def test_monoid_walks_the_power_cycle_once(capsys, monkeypatch):
    import drazin.finite as finite

    walks = []
    real = finite._first_repeat

    def counting(*args):
        walks.append(1)
        return real(*args)

    monkeypatch.setattr(finite, "_first_repeat", counting)
    code, resp = run_json(capsys, ["monoid", "--modulus", "12", "--element", "2"])
    assert code == 0 and resp["inverse"] == 8
    assert len(walks) == 1


def test_monoid_certifier_is_bounded_by_the_tail(capsys, monkeypatch):
    """A wrong answer is certified in about 2 * (tail bound + 1) products, the
    tail bound of Z/1000003 being its bit length 20, not in modulus steps."""
    import drazin.cli as cli

    real_cycle, real_check = cli._cycle_drazin, cli.check_monoid_axioms
    products = []

    def off_by_one(x, max_steps):
        inverse, m, c = real_cycle(x, max_steps)
        return x.monoid.element((inverse.value + 1) % 1000003), m, c

    def counting(monoid, x, inverse, cap):
        mul = monoid.mul

        def counted(a, b):
            products.append(1)
            return mul(a, b)

        monoid.mul = counted
        return real_check(monoid, x, inverse, cap)

    monkeypatch.setattr(cli, "_cycle_drazin", off_by_one)
    monkeypatch.setattr(cli, "check_monoid_axioms", counting)
    code, resp = run_json(capsys, ["monoid", "--modulus", "1000003", "--element", "1000002"])
    assert code == 2
    assert resp["inverse"] == 0 and "D.1" in resp["axioms"]["failed_axioms"]
    assert len(products) <= 2 * (20 + 1) + 4


def test_import_leaves_logging_out():
    """The one log record is rare, and only route C's numpy monoid needs numpy,
    so importing the CLI loads neither logging nor numpy."""
    import drazin

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(drazin.__file__)))
    code = "import sys, drazin.cli; print('logging' in sys.modules, 'numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False False"


def test_monoid_default_step_limit(capsys):
    import drazin.finite as finite

    limit = finite._WALK_LIMIT
    assert limit == 10 ** 6
    # 1000003 is prime and 2 generates its unit group, so the powers of 2 first
    # repeat after 1000002 > limit steps; without --max-steps the walk stops.
    code, resp = run_json(capsys, ["monoid", "--modulus", "1000003", "--element", "2"])
    assert code == 1
    assert str(limit) in resp["error"]
    with pytest.raises(SystemExit):
        main(["monoid", "--help"])
    assert str(limit) in capsys.readouterr().out


def test_monoid_max_steps_cannot_raise_the_limit(capsys):
    import drazin.finite as finite

    limit = finite._WALK_LIMIT
    # The powers of 2 mod 1000003 repeat only after 1000002 steps; an
    # explicit budget above the limit is refused before any walk.
    argv = ["monoid", "--modulus", "1000003", "--element", "2"]
    code, resp = run_json(capsys, argv + ["--max-steps", str(2 * limit)])
    assert code == 1
    assert str(limit) in resp["error"]
    code, resp = run_json(capsys, ["monoid", "--modulus", "12", "--element", "2",
                                   "--max-steps", str(limit)])
    assert code == 0 and resp["inverse"] == 8

def test_decompose_frozen(capsys):
    code, resp = run_json(
        capsys, ["decompose", "--matrix", "[[2,0,0],[0,0,1],[0,0,0]]"]
    )
    assert code == 0
    cn = resp["core_nilpotent"]
    assert cn["core"]["entries"][0] == ["2/1", "0/1", "0/1"]
    assert cn["nilpotent_index"] == 2
    assert resp["splitting_iso"]["entries"] == [["2/1"]]
    assert resp["complement_formula"] is True
    assert resp["munn_power_iso"] is True
    assert resp["axioms"]["D"]["passed"] is True
    assert resp["axioms"]["CND"]["passed"] is True
    assert resp["axioms"]["EV"]["passed"] is True
    fam = resp["eventuating_family"]
    assert fam["window"] == list(range(-4, 5))
    assert len(fam["sections"]) == 9 and len(fam["retractions"]) == 9


def test_decompose_window_flag(capsys):
    code, resp = run_json(
        capsys, ["decompose", "--window", "1", "--matrix", "[[1,0],[0,0]]"]
    )
    assert code == 0
    assert resp["eventuating_family"]["window"] == [-1, 0, 1]
    bad_code, err = run_json(
        capsys, ["decompose", "--window", "0", "--matrix", "[[1,0],[0,0]]"]
    )
    assert bad_code == 1
    assert "error" in err


def test_decompose_window_limit(capsys):
    argv = ["decompose", "--matrix", "[[0,1],[0,0]]", "--window"]
    code, resp = run_json(capsys, argv + ["101"])
    assert code == 1
    assert "100" in resp["error"]
    code, resp = run_json(capsys, argv + ["100"])
    assert code == 0
    assert resp["eventuating_family"]["window"] == list(range(-100, 101))

def test_verify_accepts_true_claim(capsys):
    code, resp = run_json(
        capsys,
        ["verify", "--matrix", "[[2,0],[0,0]]", "--claim", '[["1/2",0],[0,0]]'],
    )
    assert code == 0
    assert resp["report"]["passed"] is True
    assert resp["report"]["witnessed_index"] == 1


def test_verify_rejects_false_claim_with_exit_zero(capsys):
    code, resp = run_json(
        capsys,
        ["verify", "--matrix", "[[0,1],[0,0]]", "--claim", "[[0,1],[0,0]]"],
    )
    assert code == 0  # the honest negative answer is still a success
    assert resp["report"]["passed"] is False
    assert resp["report"]["failed_axioms"] == ["D.2"]


def test_verify_group_and_mp_systems(capsys):
    code, resp = run_json(
        capsys,
        [
            "verify",
            "--system",
            "G",
            "--matrix",
            "[[1,1],[0,0]]",
            "--claim",
            "[[1,1],[0,0]]",
        ],
    )
    assert code == 0 and resp["report"]["passed"] is True
    code, resp = run_json(
        capsys,
        [
            "verify",
            "--system",
            "MP",
            "--matrix",
            "[[1,1],[0,0]]",
            "--claim",
            '[["1/2",0],["1/2",0]]',
        ],
    )
    assert code == 0 and resp["report"]["passed"] is True


def test_round_trip_inverse_through_verify(capsys):
    code, resp = run_json(capsys, ["drazin", "--matrix", "[[2,1],[0,0]]"])
    assert code == 0
    claim = json.dumps(resp["inverse"])
    code2, resp2 = run_json(
        capsys, ["verify", "--matrix", "[[2,1],[0,0]]", "--claim", claim]
    )
    assert code2 == 0
    assert resp2["report"]["passed"] is True


def test_pretty_output(capsys):
    code, out = run_cli(capsys, ["drazin", "--pretty", "--matrix", "[[2,0],[0,0]]"])
    assert code == 0
    assert "inverse:" in out
    assert "[ 1/2  0 ]" in out
    assert "route: \"RankFactorization\"" in out


def test_pretty_empty_blocks(capsys):
    code, out = run_cli(capsys, ["decompose", "--pretty", "--matrix", "[[0,1],[0,0]]"])
    assert code == 0
    assert "(empty" in out


def test_parse_error_exit_one(capsys):
    code, resp = run_json(capsys, ["drazin", "--matrix", "[[1,2],"])
    assert code == 1 and "error" in resp


def test_non_square_exit_one(capsys):
    code, resp = run_json(capsys, ["drazin", "--matrix", "[[1,2]]"])
    assert code == 1 and "error" in resp


def test_field_flag_misuse_exit_one(capsys):
    code, resp = run_json(capsys, ["drazin", "--field", "Fp", "--matrix", "[[1]]"])
    assert code == 1
    code, resp = run_json(capsys, ["drazin", "--p", "5", "--matrix", "[[1]]"])
    assert code == 1
    code, resp = run_json(
        capsys, ["drazin", "--field", "Fp", "--p", "6", "--matrix", "[[1]]"]
    )
    assert code == 1


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 1
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["drazin"])  # --matrix is required
    assert exc.value.code == 1
    capsys.readouterr()


def test_internal_inconsistency_exit_two(capsys, monkeypatch):
    import drazin.cli as cli_mod
    from drazin.pairs import MoorePenroseData

    def fake_pair_route(f):
        return MoorePenroseData(pseudo=None, exists=False, witness="forced")

    monkeypatch.setattr(cli_mod, "mp_via_pair_drazin", fake_pair_route)
    code, resp = run_json(capsys, ["mp", "--matrix", "[[1,0],[0,0]]"])
    assert code == 2
    assert resp["kind"] == "internal-inconsistency"


def test_decompose_of_a_wrong_library_answer_exits_two(capsys, monkeypatch):
    """decompose revalidates route A's own answer; a stale one is a bug, not a
    user error, so the call exits 2, as drazin does on the same input."""
    import dataclasses

    import drazin.cli as cli_mod

    real = cli_mod.drazin_inverse

    def doubled(x):
        d = real(x)
        return dataclasses.replace(d, inverse=d.inverse + d.inverse)

    monkeypatch.setattr(cli_mod, "drazin_inverse", doubled)
    argv = ["--matrix", "[[2,0,0],[0,0,1],[0,0,0]]"]
    code, resp = run_json(capsys, ["decompose"] + argv)
    assert code == 2
    assert resp["kind"] == "internal-inconsistency"
    assert "[D.1]" in resp["error"]
    code, _ = run_json(capsys, ["drazin"] + argv)
    assert code == 2


def test_decompose_with_a_wrong_splitting_exits_two(capsys, monkeypatch):
    """A factorization of e_x with R*L = I but L*R != e_x is caught by
    split_idempotent, and nothing built on it reaches the answer."""
    import drazin.decompositions as decompositions
    from drazin import Matrix, Q, RankFactorization

    def wrong(e):
        left, right = Matrix(Q, [[1], [1]]), Matrix(Q, [[1, 0]])
        return RankFactorization(left=left, right=right, rank=1)

    monkeypatch.setattr(decompositions, "full_rank_factorization", wrong)
    code, resp = run_json(capsys, ["decompose", "--matrix", "[[1,0],[0,0]]"])
    assert code == 2
    assert resp["kind"] == "internal-inconsistency"


def test_console_script_subprocess():
    exe = shutil.which("drazin")
    if exe:
        argv = [exe]
    else:
        argv = [sys.executable, "-m", "drazin.cli"]
    proc = subprocess.run(
        argv + ["monoid", "--modulus", "12", "--element", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    resp = json.loads(proc.stdout)
    assert resp["inverse"] == 8 and resp["index"] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", "--matrix", "[[0,1,0],[0,0,1],[0,0,0]]"],  # fails on the write
        ["monoid", "--modulus", "12", "--element", "2"],  # fails on the flush
    ],
)
def test_closed_stdout_exits_one_without_traceback(argv):
    """The reader of stdout is gone before the CLI writes: exit 1, empty stderr."""
    import drazin

    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(drazin.__file__)))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "drazin.cli"] + argv,
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert b"Traceback" not in proc.stderr and proc.stderr == b""


@pytest.mark.parametrize(
    "payload",
    [
        "[1,2]",
        '{"rows":2,"cols":2,"entries":5}',
        "[[1,2],3]",
        '{"rows":-1,"cols":0,"entries":[]}',
        '{"rows":1,"cols":"1","entries":[[1]]}',
    ],
)
def test_malformed_matrix_exit_one(capsys, payload):
    code, resp = run_json(capsys, ["drazin", "--matrix", payload])
    assert code == 1 and "error" in resp


def test_matrix_dimension_limit(capsys):
    """A matrix of more than 100 rows or columns exits 1 naming the limit,
    before any entry is parsed; 100 of each parses."""
    limit = linalg._DIMENSION_LIMIT
    assert limit == 100
    wide = [[0] * (limit + 1)]
    tall = {"rows": limit + 1, "cols": 1, "entries": [["not a scalar"]] * (limit + 1)}
    for payload in (wide, tall):
        code, resp = run_json(capsys, ["mp", "--matrix", json.dumps(payload)])
        assert code == 1 and "limit of 100 rows and 100 columns" in resp["error"], resp
    assert Matrix.from_json(Q, [[0] * limit] * limit).rows == limit


def test_exponent_scalar_exit_one(capsys):
    code, resp = run_json(capsys, ["drazin", "--matrix", '[["1e50",0],[0,1]]'])
    assert code == 1 and "error" in resp and "exponent" in resp["error"]


def test_digit_limit_on_input(capsys):
    """A scalar past Python's int/str digit limit is refused by name, digits not echoed."""
    limit = sys.get_int_max_str_digits()
    big = "1" + "0" * limit
    for payload in ('[["%s"]]' % big, '[["1/%s"]]' % big, "[[%s]]" % big):
        code, out = run_cli(capsys, ["drazin", "--matrix", payload])
        error = json.loads(out)["error"]
        assert code == 1 and "input" in error and "%d-digit limit" % limit in error, payload
        assert "0" * 50 not in out
    help_text = io.StringIO()
    with contextlib.redirect_stdout(help_text), pytest.raises(SystemExit):
        main(["--help"])
    assert "at most %d digits" % limit in " ".join(help_text.getvalue().split())


def test_digit_limit_on_integer_flags(capsys):
    """An integer flag past the digit limit exits 1 naming the limit, in a
    short usage error that echoes none of its digits."""
    limit = sys.get_int_max_str_digits()
    big = "1" + "0" * (limit + 100)
    matrix = ["--matrix", "[[1]]"]
    for argv in (
        ["drazin", "--field", "Fp", "--p", big] + matrix,
        ["monoid", "--modulus", big, "--element", "2"],
        ["monoid", "--modulus", "12", "--element", big],
        ["monoid", "--modulus", "12", "--element", "2", "--max-steps", big],
        ["decompose", "--window", big] + matrix,
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        err = capsys.readouterr().err
        assert exc.value.code == 1, argv
        assert "%d-digit limit" % limit in err and len(err.encode()) < 300, err


def test_digit_limit_on_answer(capsys):
    """x = 10^100 is certified, but x^60 in the eventuating family has 6001
    digits, past the default limit of 4300."""
    limit = sys.get_int_max_str_digits()
    argv = ["decompose", "--matrix", '[["1%s"]]' % ("0" * 100), "--window"]
    code, resp = run_json(capsys, argv + ["2"])
    assert code == 0
    code, out = run_cli(capsys, argv + ["60"])
    error = json.loads(out)["error"]
    assert code == 1 and "answer entry" in error and "%d-digit limit" % limit in error
    assert "0" * 50 not in out


def test_route_c_answers_past_int64():
    """Route C answers every prime: past the int64 range of its numpy products
    (p = 4294967311, where they would wrap around) it multiplies Matrix
    values, and past 10^6 steps without a repeat (p = 1000003) it takes x^D in
    closed form. Each D report passes and witnesses route A's index."""
    import drazin

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(drazin.__file__)))
    for p, rows in ((4294967311, [[4294967310, 5], [0, 1]]), (1000003, [[0, 1], [1, 1]]),
                    (4294967311, [[0, 1], [1, 1]])):
        proc = subprocess.run(
            [sys.executable, "-m", "drazin.cli", "drazin", "--route", "C", "--field", "Fp",
             "--p", str(p), "--matrix", json.dumps(rows)],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        resp = json.loads(proc.stdout)
        index = drazin.drazin_inverse(drazin.Matrix(drazin.PrimeField(p), rows)).index
        assert resp["route"] == "MonoidCycle" and resp["index"] == index
        assert resp["axioms"]["passed"] and resp["axioms"]["witnessed_index"] == index


def test_route_c_step_limit(capsys, monkeypatch):
    # [[1,1],[0,1]] has order 5 over F_5: its powers first repeat at step 5.
    import drazin.finite as finite

    argv = ["drazin", "--route", "C", "--field", "Fp", "--p", "5", "--matrix", "[[1,1],[0,1]]"]
    code, resp = run_json(capsys, argv)
    assert code == 0 and resp["route"] == "MonoidCycle" and resp["index"] == 0
    monkeypatch.setattr(finite, "_WALK_LIMIT", 3)
    code, resp = run_json(capsys, argv)
    assert code == 1 and "within 3 steps" in resp["error"]
    # The matrix is named by its rows on one line, not by numpy's repr.
    assert "[[1, 1], [0, 1]]" in resp["error"]
    assert "array(" not in resp["error"] and "\n" not in resp["error"]


def test_parser_built_once_per_process(capsys, monkeypatch):
    import drazin.cli as cli_mod

    builds = []
    real_build = cli_mod.build_parser

    def counting_build():
        builds.append(1)
        return real_build()

    monkeypatch.setattr(cli_mod, "build_parser", counting_build)
    cli_mod._parser.cache_clear()
    try:
        for _ in range(3):
            assert run_json(capsys, ["monoid", "--modulus", "8", "--element", "2"])[0] == 0
        assert len(builds) == 1
    finally:
        cli_mod._parser.cache_clear()


def test_pair_makes_one_pair_computation(capsys, monkeypatch):
    import drazin.cli as cli_mod
    import drazin.core as core
    import drazin.pairs as pairs
    import drazin.verify as verify

    calls = {"drazin_inverse": 0, "_pair_failures": 0}
    for name in calls:
        real = getattr(core, name)

        def counting(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        for module in (core, pairs, verify, cli_mod):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counting)
    code, resp = run_json(
        capsys, ["pair", "--f", "[[1,2],[0,0],[3,6]]", "--g", "[[0,1,0],[1,0,2]]"]
    )
    assert code == 0 and resp["axioms"]["passed"] is True
    assert calls == {"drazin_inverse": 2, "_pair_failures": 1}


def test_golden_bytes(capsys):
    """Frozen argv -> (exit code, stdout), byte for byte: one input per kind
    of the benchmark's cli-mixed workload, --pretty, field misuse, malformed
    matrices and the monoid step limit."""
    golden = json.loads(Path(__file__).with_name("cli_golden.json").read_text())
    for case in golden:
        assert run_cli(capsys, case["argv"]) == (case["code"], case["stdout"]), case["argv"]


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["rows", "cols", "entries", "n", "table", ""]), inner),
    max_leaves=12,
)
# Square rows of small scalars reach the computations, not just the parser.
_SCALAR = st.integers(-3, 3) | st.sampled_from(["1/2", "-2/3", "0/1", "1/0", "x", "1e5", 0.5])
_SQUARE = st.integers(0, 4).flatmap(
    lambda n: st.lists(st.lists(_SCALAR, min_size=n, max_size=n), min_size=n, max_size=n)
)
_MATRIX = st.builds(json.dumps, _JSON | _SQUARE)
# --window and --modulus cost time linear in their value, so they stay small.
_SMALL = st.builds(json.dumps, _JSON.filter(lambda v: not isinstance(v, int)) | st.integers(-3, 40))
_FIELD = st.sampled_from([[], ["--field", "Fp", "--p", "5"], ["--field", "Fp", "--p", "2"]])


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(
        ["drazin", "group", "mp", "pair", "endofun", "monoid", "decompose", "verify"]
    ))
    if command == "endofun":
        return [command, "--table", draw(_MATRIX)]
    if command == "monoid":
        return [command, "--modulus", draw(_SMALL), "--element", draw(_SMALL)]
    argv = [command] + draw(_FIELD)
    if command == "pair":
        return argv + ["--f", draw(_MATRIX), "--g", draw(_MATRIX)]
    argv += ["--matrix", draw(_MATRIX)]
    if command == "drazin":
        argv += ["--route", draw(st.sampled_from(["A", "B", "C"]))]
    elif command == "decompose":
        argv += ["--window", draw(_SMALL)]
    elif command == "verify":
        argv += ["--claim", draw(_MATRIX), "--system", draw(st.sampled_from(["D", "G", "MP"]))]
    return argv


@settings(max_examples=300, deadline=None)
@given(_argv())
def test_no_traceback_leaves_the_cli(argv):
    """Any JSON payload gets a JSON answer with exit 0 or 1, or a usage exit 1."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    except SystemExit as exc:
        assert exc.code == 1, argv
        return
    assert code in (0, 1), argv
    assert isinstance(json.loads(out.getvalue()), dict), argv
