"""Spans and counters around the calls into each binpart layer.

Installed from the benchmark's own code in the traced worker only: each
public function named in layers.SPANS is replaced by a timing wrapper in
*every* binpart module namespace that binds it, because modules import
functions by name (`sweeps.peak_sign_sum`, `cli.build_triangle`,
`checks.decide_with_escalation`, `qseries.working_precision`, ...).
Spans stay in memory until the pass ends.
"""

from __future__ import annotations

import functools
import sys
import tracemalloc
from collections import Counter, defaultdict
from time import perf_counter

from layers import SPANS


class Tracer:
    def __init__(self):
        self.op = 0               # index of the operation in flight
        self.spans = []           # (op, span id, parent id, name, start, end)
        self._stack = []          # open spans: [id, name, start, child seconds]
        self._next_id = 0
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.max_triangle_n = -1
        self._restore = []        # (namespace, attribute, original)

    def begin(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([self._next_id, name, perf_counter(), 0.0])

    def end(self) -> None:
        stop = perf_counter()
        span_id, name, start, child_s = self._stack.pop()
        duration = stop - start
        parent = 0
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][0]
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - child_s
        self.spans.append((self.op, span_id, parent, name, start, stop))

    # -- wrappers ------------------------------------------------------

    def spanned(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def spanned_generator(self, name, fn):
        """Time each next() of a generator; count the items it yields."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                self.begin(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self.end()
                self.counts[name + ".rows"] += 1
                yield item
        return wrapper

    def escalation(self, name, fn):
        """decide_with_escalation, counting rungs through its `evaluate` callback."""
        from binpart.intervals import DEFAULT_PRECISION_BITS

        counts = self.counts
        timed = self.spanned(name, fn)

        def wrapper(evaluate, *args, **kwargs):
            rungs = 0

            def counting_evaluate(bits):
                nonlocal rungs
                rungs += 1
                counts["intervals.rungs"] += 1
                if bits > DEFAULT_PRECISION_BITS:
                    counts["intervals.rungs_above_128"] += 1
                return evaluate(bits)

            outcome, bits = timed(counting_evaluate, *args, **kwargs)
            if outcome is None:
                counts["intervals.undecided"] += 1
            elif rungs == 1:
                counts["intervals.decided_first_rung"] += 1
            return outcome, bits
        return functools.wraps(fn)(wrapper)

    def counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation --------------------------------------------------

    def _replace(self, original, wrapper) -> None:
        """Bind `wrapper` wherever a binpart module binds `original`."""
        found = 0
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "binpart" and not mod_name.startswith("binpart."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)
                    found += 1
        if not found:
            raise RuntimeError(f"{original!r} is bound in no binpart module")

    def install(self) -> None:
        import binpart.cli  # noqa: F401  (loads every layer)
        from binpart import binomial_sums, sweeps

        def note_triangle(args, result):
            self.max_triangle_n = max(self.max_triangle_n, args[0])

        def note_ell(args, result):
            self.counts["qseries.ell_sum"] += result[1]

        special = {
            "binomial_sums.build_triangle": lambda n, f: self.spanned(n, f, note_triangle),
            "binomial_sums.iter_triangle_rows": self.spanned_generator,
            "intervals.decide_with_escalation": self.escalation,
            "qseries.enclose_euler_product": lambda n, f: self.spanned(n, f, note_ell),
        }
        for name in SPANS:
            module_name, attr = name.split(".")
            if module_name == "sweeps" or name == "binomial_sums.DiagonalTable":
                continue
            original = getattr(sys.modules["binpart." + module_name], attr)
            make = special.get(name, self.spanned)
            self._replace(original, make(name, original))

        from binpart import intervals
        original = intervals.working_precision
        self._replace(original, self.counted("intervals.working_precision.enters", original))

        init = binomial_sums.DiagonalTable.__init__
        self._restore.append((binomial_sums.DiagonalTable, "__init__", init))
        binomial_sums.DiagonalTable.__init__ = self.spanned("binomial_sums.DiagonalTable", init)

        # run_claim looks sweeps up in the CLAIMS registry, not by name
        def note_checked(args, summary):
            self.counts[f"sweeps.{summary.claim}.checked"] += summary.checked

        for claim, (sweep, default_range) in list(sweeps.CLAIMS.items()):
            self._restore.append((sweeps.CLAIMS, claim, (sweep, default_range)))
            sweeps.CLAIMS[claim] = (
                self.spanned(f"sweeps.{claim}", sweep, note_checked), default_range)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._restore):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)
        self._restore.clear()

    def triangle_peak_mb(self) -> float:
        """tracemalloc peak of one untraced build_triangle at the largest n used."""
        if self.max_triangle_n < 0:
            return 0.0
        from binpart.binomial_sums import build_triangle
        tracemalloc.start()
        try:
            build_triangle(self.max_triangle_n)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    def summary(self) -> dict:
        return {"calls": dict(self.calls), "total_s": dict(self.total_s),
                "self_s": dict(self.self_s), "counts": dict(self.counts)}
