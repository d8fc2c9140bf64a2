"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload q-high-index --seed 7 --seconds 15 --trace 0

Run it from the root of a checkout: it imports the library from ./src and
nothing else. The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
library is wrapped by trace_layers.Tracer and the metrics are the per-layer ones.
See bench/README.md for the workloads and what each metric means.
"""

import argparse
import gc
import importlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import checker as ck
import selftest
import trace_layers
import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_PROBES = 4  # fresh processes that time a set-up, besides this one
CLI_CALLS = 15
IMPORT_PROBES = 5
MIN_ANSWERS = 100  # so that op_p90_ms has ten answers beyond it
CLI_TINY = ["drazin", "--matrix", "[[1,1],[0,0]]"]


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def setup(workload, seed):
    """Import the library, build the seeded cases and warm every code path.

    The warm-up runs a small fixed set of inputs through the same calls, so
    lazy first-call costs (route C imports numpy) land here and not in the
    timed loop. Returns (drazin package, cases, seconds taken).

    The cyclic garbage collector is off while the cases are built, and the
    objects that exist afterwards are frozen out of its reach: otherwise a
    collection would time the traversal of the benchmark's own inputs, at
    points that move from run to run.
    """
    t0 = time.perf_counter()
    gc.disable()
    sys.path.insert(0, str(SRC))
    dz = importlib.import_module("drazin")
    if Path(dz.__file__).resolve().parent != SRC / "drazin":
        raise SystemExit("bench: drazin was imported from %s, not %s" % (dz.__file__, SRC))
    build, build_warm = wl.WORKLOADS[workload]
    cases = build(dz, random.Random("%s:%s" % (workload, seed)))
    for case in build_warm(dz, random.Random("warm-up")):
        try:
            case.op()
        except Exception:  # the malformed CLI payloads raise; the timed loop counts them
            pass
    elapsed = time.perf_counter() - t0
    gc.collect()
    gc.freeze()
    gc.enable()
    return dz, cases, elapsed


class Rounds:
    """Whole passes over the cases, with every answer checked."""

    def __init__(self, cases):
        self.cases = cases
        self.certified = [None] * len(cases)
        self.case_times = [[] for _ in cases]
        self.problems = []
        self.errors = Counter()
        self.times = []
        self.busy = 0.0
        self.attempted = 0
        self.failed = 0

    def run(self, seconds, min_answers=0, side_jobs=()):
        """Repeat whole rounds until seconds have passed and there are at
        least min_answers answers.

        side_jobs are untimed calls spread evenly over the seconds, between
        two cases, so that what they sample sees the whole run.
        """
        clock = time.perf_counter
        start, rounds, answers = clock(), 0, 0
        jobs = list(side_jobs)
        gap = seconds / (len(jobs) + 1)
        due = start + gap
        while rounds == 0 or clock() - start < seconds or answers < min_answers:
            for i, case in enumerate(self.cases):
                if jobs and clock() >= due:
                    jobs.pop(0)()
                    due += gap
                self.attempted += 1
                t0 = clock()
                try:
                    raw = case.op()
                    ok = True
                except Exception as exc:  # a failed operation: counted, not fatal
                    ok = False
                    self.failed += 1
                    self.errors[type(exc).__name__] += 1
                dt = clock() - t0
                self.busy += dt
                self.case_times[i].append(dt)
                if ok:
                    answers += 1
                    self.times.append(dt)
                    self._verify(i, case, raw)
            rounds += 1
        for job in jobs:
            job()
        return rounds

    def answers_per_s(self):
        """Answers in a round over the sum of each case's median time.

        When a run makes three or more rounds, a burst of outside load that
        slows one round's cases is left out by the median over the rounds.
        """
        rounds = len(self.case_times[0])
        return len(self.times) / rounds / sum(statistics.median(t) for t in self.case_times)

    def _verify(self, i, case, raw):
        """Check an answer; a repeat equal to an answer already certified
        for the same input (the library is deterministic) passes as is."""
        ans = case.answer(raw)
        if self.certified[i] is not None and self.certified[i] == ans:
            return
        try:
            case.check(ans)
        except Exception as exc:  # a wrong or malformed answer
            self.problems.append("case %d: %s: %s" % (i, type(exc).__name__, exc))
            return
        self.certified[i] = ans


def run_child(cmd, env=None):
    """(wall milliseconds, completed process) of one subprocess in the checkout."""
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=170)
    return (time.perf_counter() - t0) * 1e3, proc


def cli_call(walls, problems):
    """Time one `python -m drazin.cli` call on a tiny input and check it."""
    wall, proc = run_child([sys.executable, "-m", "drazin.cli"] + CLI_TINY, child_env())
    walls.append(wall)
    try:
        resp = json.loads(proc.stdout)
        x = ck.matrix([[1, 1], [0, 0]], None)
        inverse = tuple(tuple(ck.scalar(v, None) for v in row) for row in resp["inverse"]["entries"])
        ck.check_drazin(x, inverse, resp["index"], None)
        if proc.returncode != 0:
            ck.fail("exit", str(proc.returncode))
    except Exception as exc:  # any bad response is a wrong answer
        problems.append("cli subprocess: %s: %s" % (type(exc).__name__, exc))


def setup_probe(args, setups):
    """Time one set-up in a fresh process."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-only", "--workload", args.workload]
    _, proc = run_child(cmd + ["--seed", str(args.seed)])
    if proc.returncode != 0:
        raise SystemExit("bench: set-up probe failed:\n" + proc.stderr)
    setups.append(float(proc.stdout.split()[-1]))


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args):
    _, cases, own = setup(args.workload, args.seed)
    setups, walls = [own], []
    rounds = Rounds(cases)

    def cli():
        cli_call(walls, rounds.problems)

    def probe():
        setup_probe(args, setups)

    jobs = [cli] * CLI_CALLS
    for j in reversed(range(SETUP_PROBES)):
        jobs.insert(j * CLI_CALLS // SETUP_PROBES, probe)
    rounds.run(args.seconds, MIN_ANSWERS, jobs)
    times = rounds.times
    metrics = {
        "answers_per_s": metric(rounds.answers_per_s(), "1/s"),
        "op_p50_ms": metric(statistics.median(times) * 1e3, "ms"),
        "op_p90_ms": metric(statistics.quantiles(times, n=10)[8] * 1e3, "ms"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "cli_start_ms": metric(statistics.median(walls), "ms"),
    }
    return rounds, metrics


def per_layer(args):
    """Untraced rounds for half the time, then traced rounds for the other half."""
    dz, cases, _ = setup(args.workload, args.seed)
    rounds = Rounds(cases)
    plain_rounds = rounds.run(args.seconds / 2)
    plain_busy = rounds.busy
    answers_before = len(rounds.times)
    tracer = trace_layers.Tracer(dz)
    tracer.install()
    try:
        traced_rounds = rounds.run(args.seconds / 2)
    finally:
        tracer.remove()
    traced_busy = rounds.busy - plain_busy
    answers = len(rounds.times) - answers_before

    def calls(bucket):
        return metric(tracer.calls[bucket] / traced_rounds, "count")

    def self_s(*buckets):
        return metric(sum(tracer.self_s[b] for b in buckets) / traced_rounds, "s")

    bundle = [
        b
        for b in list(tracer.self_s)
        if b.startswith("decompositions.") and b != "decompositions.image_kernel_drazin"
    ]
    import_cmd = [
        sys.executable,
        "-c",
        "import time; t = time.perf_counter(); import drazin.cli; print(time.perf_counter() - t)",
    ]
    import_ms = []
    for _ in range(IMPORT_PROBES):
        _, proc = run_child(import_cmd, child_env())
        if proc.returncode != 0:
            rounds.problems.append("import probe: " + proc.stderr.strip())
        else:
            import_ms.append(float(proc.stdout) * 1e3)
    metrics = {
        "fields.dot.calls": calls("fields.dot"),
        "fields.dot.self_s": self_s("fields.dot"),
        "linalg.matmul.calls": calls("linalg.matmul"),
        "linalg.matmul.self_s": self_s("linalg.matmul"),
        "linalg.matmul.per_answer": metric(tracer.calls["linalg.matmul"] / answers, "count"),
        "linalg.q_peak_bits": metric(tracer.q_peak_bits, "bits"),
        "linalg.rref.calls": calls("linalg.rref"),
        "linalg.rref.self_s": self_s("linalg.rref"),
        "linalg.invert.calls": calls("linalg.invert"),
        "core.drazin_index.self_s": self_s("core.drazin_index"),
        "core.drazin_inverse.self_s": self_s("core.drazin_inverse"),
        "core.verify_drazin_data.calls": calls("core.verify_drazin_data"),
        "decompositions.image_kernel_drazin.self_s": self_s("decompositions.image_kernel_drazin"),
        "decompositions.bundle.self_s": self_s(*bundle),
        "decompositions.eventuating_family.self_s": self_s("decompositions.eventuating_family"),
        "pairs.pair_drazin.self_s": self_s("pairs.pair_drazin"),
        "pairs.cline.self_s": self_s("pairs.cline"),
        "pairs.moore_penrose.self_s": self_s("pairs.moore_penrose"),
        "pairs.mp_via_pair_drazin.self_s": self_s("pairs.mp_via_pair_drazin"),
        "finite.walk_steps": metric(tracer.walk_steps / traced_rounds, "count"),
        "finite.monoid_drazin.self_s": self_s("finite.monoid_drazin"),
        "verify.monoid_cycle_drazin.self_s": self_s("verify.monoid_cycle_drazin"),
        "verify.cross_route_audit.self_s": self_s("verify.cross_route_audit"),
        "verify.check_axioms.calls": calls("verify.check_axioms"),
        "verify.check_axioms.self_s": self_s("verify.check_axioms"),
        "cli.parse.self_s": self_s("cli.parse"),
        "cli.emit.self_s": self_s("cli.emit"),
        "cli.main.self_s": self_s("cli.main"),
        "cli.import_ms": metric(statistics.median(import_ms) if import_ms else 0.0, "ms"),
        "trace.overhead_pct": metric(
            100 * (traced_busy / traced_rounds) / (plain_busy / plain_rounds) - 100, "%"
        ),
    }
    return rounds, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="time one set-up, print its seconds")
    args = parser.parse_args()
    if not (SRC / "drazin" / "__init__.py").is_file():
        print("bench: no library source at %s; run from the root of a checkout" % SRC, file=sys.stderr)
        return 2
    if args.setup_only:
        print(setup(args.workload, args.seed)[2])
        return 0
    bad = selftest.run()
    if bad:
        print("bench: checker self-test failed: %s" % ", ".join(bad), file=sys.stderr)
        return 1
    rounds, metrics = (per_layer if args.trace else end_to_end)(args)
    for line in rounds.problems[:20]:
        print("bench: wrong answer: " + line, file=sys.stderr)
    if rounds.errors:
        print("bench: failed operations by exception: %s" % dict(rounds.errors), file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not rounds.problems,
                "attempted": rounds.attempted,
                "failed": rounds.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
