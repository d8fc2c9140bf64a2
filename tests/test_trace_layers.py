"""The traced benchmark (bench/trace_layers.py) still finds what it patches.

Tracer rebinds functions and methods by name, so a refactor that renames or
moves one of them breaks `bench/run.py --trace 1`; this runs the tracer on
the library as it is, without editing the benchmark.
"""

import importlib.util
import inspect
import json
from pathlib import Path

import drazin
from drazin import Matrix, PrimeField, Q, cross_route_audit, image_kernel_drazin
from drazin.fields import Rationals
from drazin.finite import EndoFun

BENCH = Path(__file__).resolve().parent.parent / "bench" / "trace_layers.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("trace_layers", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _snapshot(owners):
    """Every attribute each owner resolves, inherited ones included: the tracer
    patches Rationals.dot and PrimeField.dot, which both inherit Field.dot."""
    return {owner: {name: inspect.getattr_static(owner, name) for name in dir(owner)} for owner in owners}


def test_tracer_installs_counts_and_removes_cleanly():
    trace_layers = _load_tracer()
    import drazin.cli  # noqa: F401  the tracer patches the CLI module too

    modules = [drazin] + [getattr(drazin, name) for name in trace_layers.MODULES]
    owners = modules + [Matrix, Rationals, PrimeField, EndoFun]
    before = _snapshot(owners)
    tracer = trace_layers.Tracer(drazin)
    tracer.install()
    try:
        assert cross_route_audit(Matrix(PrimeField(5), [[1, 2, 0], [0, 0, 1], [0, 0, 0]])).agree
        image_kernel_drazin(Matrix(Q, [[2, 1], [0, 0]]))
    finally:
        tracer.remove()
    assert tracer.calls["decompositions.image_kernel_drazin"] >= 1
    assert tracer.walk_steps > 0
    after = _snapshot(owners)
    for owner, attrs in before.items():
        assert set(after[owner]) == set(attrs), owner
        changed = [name for name, value in attrs.items() if after[owner][name] is not value]
        assert changed == [], (owner, changed)


def test_walk_steps_count_tail_and_cycle_past_the_linear_prefix():
    """finite.walk_steps adds m + c per walk, also when the cycle closes past
    the linear prefix: this companion matrix of the primitive t^6 - 2t^5 - 2
    over F_5 has m = 0 and c = 5^6 - 1. power_cycle walks; route C answers
    the same matrix in closed form, which is no walk."""
    import numpy as np

    trace_layers = _load_tracer()
    rows = [[int(j == i - 1) for j in range(5)] + [2 * (i in (0, 5))] for i in range(6)]
    x = drazin.fp_matrix_monoid(5, 6).element(np.array(rows, dtype=np.int64))
    tracer = trace_layers.Tracer(drazin)
    tracer.install()
    try:
        assert drazin.power_cycle(x) == (0, 15624)
        assert cross_route_audit(Matrix(PrimeField(5), rows)).agree
    finally:
        tracer.remove()
    assert tracer.walk_steps == 15624


def test_decompose_bundle_inverts_only_route_a_core():
    """What [D.1-3] and the splittings prove is not recomputed, so the whole
    decompose bundle (every entry and the D, CND and EV reports) makes one
    inversion: route A's last core."""
    trace_layers = _load_tracer()
    x = Matrix(Q, [[2, 0, 0], [0, 0, 1], [0, 0, 0]])
    tracer = trace_layers.Tracer(drazin)
    tracer.install()
    try:
        d = drazin.drazin_inverse(x)
        cn = drazin.core_nilpotent(x, d)
        drazin.fitting_decomposition(x, d)
        drazin.splitting_iso(x, d)
        family = drazin.eventuating_family(x, d)
        assert drazin.complement_formula_check(x, d) and drazin.munn_power_iso_check(x, d)
        reports = [
            drazin.check_axioms("D", x=x, inverse=d.inverse),
            drazin.check_axioms("CND", x=x, core=cn.core, nilpotent_part=cn.nilpotent_part,
                                nilpotent_index=cn.nilpotent_index),
            drazin.check_axioms("EV", x=x, family=family),
        ]
    finally:
        tracer.remove()
    assert all(r.passed for r in reports)
    assert tracer.calls["linalg.invert"] == 1


def test_decompose_command_evaluates_the_drazin_axioms_once(capsys):
    """`drazin decompose` builds its D report from the witnessed index that
    validating route A's answer found, so [D.1-3] run once: one
    verify_drazin_data call, and check_axioms for CND and EV only."""
    trace_layers = _load_tracer()
    import drazin.cli

    tracer = trace_layers.Tracer(drazin)
    tracer.install()
    try:
        code = drazin.cli.main(["decompose", "--matrix", "[[2,0,0],[0,0,1],[0,0,0]]"])
    finally:
        tracer.remove()
    report = json.loads(capsys.readouterr().out)["axioms"]["D"]
    assert code == 0
    assert report == {"system": "D", "passed": True, "failed_axioms": [], "witnessed_index": 2}
    assert tracer.calls["core.verify_drazin_data"] == 1
    assert tracer.calls["verify.check_axioms"] == 2
