"""Per-layer spans for the traced run, recorded from the benchmark's side.

Tracer.install wraps the public functions of every drazin module, plus
Matrix.__mul__, the fields' dot and the CLI's parse and emit helpers, and
rebinds each wrapper at every site that holds the original: a function
imported by name into three modules is patched in all three. A wrapper
counts calls and accumulates self time, the span's duration minus the
spans it encloses. Tracer.remove puts every original back.
"""

import inspect
import time
from collections import defaultdict
from fractions import Fraction

MODULES = ("fields", "linalg", "core", "decompositions", "pairs", "finite", "verify", "cli")

# Buckets whose name differs from "module.function".
RENAMED = {
    "linalg.invert_matrix": "linalg.invert",
    "cli.build_parser": "cli.parse",
}


class Tracer:
    def __init__(self, dz):
        self.dz = dz
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.q_peak_bits = 0
        self.walk_steps = 0
        self._stack = []
        self._undo = []

    def _span(self, bucket, fn, hook=None):
        calls, self_s, stack, clock = self.calls, self.self_s, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            t1 = None
            try:
                result = fn(*args, **kwargs)
                t1 = clock()
                if hook is not None:
                    hook(result)
                return result
            finally:
                t2 = clock()
                child = stack.pop()
                calls[bucket] += 1
                self_s[bucket] += (t2 if t1 is None else t1) - t0 - child
                if stack:
                    stack[-1] += t2 - t0

        return traced

    def _peak_bits(self, result):
        """Track the largest numerator or denominator bit length over Q."""
        m = result[0] if isinstance(result, tuple) else result
        rows = getattr(m, "entries", None)
        if rows and rows[0] and isinstance(rows[0][0], Fraction):
            bits = max(
                max(v.numerator.bit_length(), v.denominator.bit_length())
                for row in rows
                for v in row
            )
            self.q_peak_bits = max(self.q_peak_bits, bits)

    def _targets(self):
        """(owner, attribute, bucket) for every traced callable."""
        mods = {name: getattr(self.dz, name) for name in MODULES if hasattr(self.dz, name)}
        out = []
        for short, mod in mods.items():
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                    bucket = "%s.%s" % (short, name)
                    out.append((mod, name, RENAMED.get(bucket, bucket)))
        linalg, fields, finite = mods["linalg"], mods["fields"], mods["finite"]
        out += [
            (linalg.Matrix, "__mul__", "linalg.matmul"),
            (fields.Rationals, "dot", "fields.dot"),
            (fields.PrimeField, "dot", "fields.dot"),
            (linalg.Matrix, "from_json", "cli.parse"),
            (finite.EndoFun, "from_json", "cli.parse"),
            (linalg.Matrix, "to_json", "cli.emit"),
        ]
        if "cli" in mods:
            out += [(mods["cli"], "_payload", "cli.parse"), (mods["cli"], "_emit", "cli.emit")]
        return out

    def install(self):
        dz = self.dz
        sites = [dz] + [getattr(dz, name) for name in MODULES if hasattr(dz, name)]
        walk = dz.finite._first_repeat
        for owner, name, bucket in self._targets():
            hook = self._peak_bits if bucket in ("linalg.matmul", "linalg.rref") else None
            raw = inspect.getattr_static(owner, name)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._span(bucket, raw.__func__, hook))
                self._patch(owner, name, raw, wrapped)
                continue
            wrapped = self._span(bucket, raw, hook)
            if inspect.isclass(owner):
                self._patch(owner, name, raw, wrapped)
                continue
            for site in sites:
                for attr, value in list(vars(site).items()):
                    if value is raw:
                        self._patch(site, attr, raw, wrapped)

        def first_repeat(*args):
            powers, m, c = walk(*args)
            self.walk_steps += m + c
            return powers, m, c

        self._patch(dz.finite, "_first_repeat", walk, first_repeat)

    def _patch(self, owner, name, original, replacement):
        setattr(owner, name, replacement)
        self._undo.append((owner, name, original))

    def remove(self):
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)
