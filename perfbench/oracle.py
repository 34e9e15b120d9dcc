"""Correctness oracle for every benchmark operation, run outside the timed region.

The oracle does not import binpart.  Partition numbers come from the
coin-counting dynamic program (the restricted count p_N(N)), a different
route from the pentagonal recurrence the program uses; p(n,k) comes from
its defining sum; Euler products come from mpmath's q-Pochhammer symbol.
`verify all` at the default ranges must match a golden copy byte for byte.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from operator import add
from pathlib import Path

import mpmath

from workloads import VERIFY_FLOOR

GOLDEN_VERIFY_ALL = Path(__file__).resolve().parent / "golden" / "verify_all.json"


def restricted_counts(k: int, n: int) -> list[int]:
    """p_k(0..n): partitions with every part <= k, by dynamic programming."""
    v = [1] + [0] * n
    for part in range(1, min(k, n) + 1):
        # chunk [start, start+part) reads the chunk before it, already final
        for start in range(part, n + 1, part):
            stop = min(start + part, n + 1)
            v[start:stop] = map(add, v[start:stop], v[start - part:stop - part])
    return v


class Oracle:
    """Checks one operation's exit code and stdout; `check` returns a reason or None."""

    def __init__(self, ops: list[list[str]]):
        sizes = [1]
        for argv in ops:
            if argv[0] in ("table", "peak", "mu"):
                sizes.append(int(argv[1]))
            elif argv[0] == "compute":
                sizes.append(int(argv[3] if argv[1] == "pk" else argv[2]))
        self.p = restricted_counts(max(sizes), max(sizes))
        self._verified: set[tuple] = set()

    def pnk(self, n: int, k: int) -> int:
        return sum(math.comb(n - j, k - j) * self.p[j] for j in range(k + 1))

    def check(self, argv: list[str], rc, out: str, err: str) -> str | None:
        key = (tuple(argv), rc, out)
        if key in self._verified:  # passes repeat identical operations
            return None
        if rc is None:
            return "traceback: " + err.strip().splitlines()[-1] if err.strip() else "traceback"
        if not out:
            return f"empty stdout (exit {rc})"
        if rc != 0:
            return f"exit code {rc}"
        try:
            problem = getattr(self, "_" + argv[0])(argv[1:], out)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            problem = f"unparsable output: {exc!r}"
        if problem is None:
            self._verified.add(key)
        return problem

    # -- one method per command; each returns a reason or None ----------

    def _verify(self, args, out):
        if args == ["all"]:
            if out.encode() != GOLDEN_VERIFY_ALL.read_bytes():
                return "verify all differs from the golden output"
            return None
        doc = json.loads(out)
        if doc["overall"] != "verified":
            return f"overall {doc['overall']}"
        for claim in doc["claims"]:
            if claim["outcome"] != "verified":
                return f"{claim['claim']} {claim['outcome']}"
            if claim["checked"] < 1:
                return f"{claim['claim']} checked nothing"
        if args[0] in VERIFY_FLOOR:
            lo, hi = int(args[1]), int(args[2])
            expected = hi - max(lo, VERIFY_FLOOR[args[0]]) + 1
            if doc["claims"][0]["checked"] != expected:
                return f"{args[0]} checked {doc['claims'][0]['checked']}, expected {expected}"
        return None

    def _compute(self, args, out):
        doc = json.loads(out)
        kind, values = args[0], [int(v) for v in args[1:]]
        if kind == "p":
            expected = self.p[values[0]]
        elif kind == "pk":
            k, n = values
            expected = restricted_counts(k, n)[n]
        else:
            expected = self.pnk(*values)
        if doc["kind"] != kind or doc["args"] != values:
            return "echoed kind/args differ"
        if int(doc["value"]) != expected:
            return f"value {doc['value']} != {expected}"
        return None

    def _table(self, args, out):
        n = int(args[0])
        lines = out.splitlines()
        expected = ["k,p_k,p_n_k"] + [
            f"{k},{self.p[k]},{self.pnk(n, k)}" for k in range(1, n + 1)
        ]
        if lines != expected:
            return "table rows differ"
        return None

    def _peak(self, args, out):
        n = int(args[0])
        doc = json.loads(out)
        kn = (n + 3) // 2
        if (doc["n"], doc["peak_k"], doc["scan_argmax"]) != (n, kn, kn):
            return "peak location differs"
        if not (doc["strict_up"] and doc["strict_down"]):
            return "row not strictly unimodal"
        if int(doc["peak_value"]) != self.pnk(n, kn):
            return "peak value differs"
        return None

    def _mu(self, args, out):
        n, k = int(args[0]), int(args[1])
        filiform = "--filiform" in args
        doc = json.loads(out)
        pnk = self.pnk(n, k)
        reed = 1 + n**k
        bounds = {"birkhoff": sum(n**i for i in range(k + 2)), "reed": reed,
                  "pnk": pnk}
        candidates = [("pnk", pnk)]
        if filiform:
            bounds["filiform"] = 1 + sum(self.p[: n - 1])
            candidates.append(("filiform", bounds["filiform"]))
        candidates += [("reed", reed), ("birkhoff", bounds["birkhoff"])]
        if {name: int(v) for name, v in doc["bounds"].items()} != bounds:
            return "bounds differ"
        if doc["best"] != min(candidates, key=lambda c: c[1])[0]:
            return "best bound differs"
        if doc["pnk_beats_reed"] != (pnk < reed) or doc["filiform"] != filiform:
            return "flags differ"
        # corollary encloses 3*2^n/sqrt(n):  lower^2 * n <= 9*4^n <= upper^2 * n
        lower = Fraction(doc["corollary"]["lower"])
        upper = Fraction(doc["corollary"]["upper"])
        if not lower**2 * n <= 9 * 4**n <= upper**2 * n:
            return "corollary enclosure misses 3*2^n/sqrt(n)"
        return None

    def _product(self, args, out):
        num, den, tol = int(args[0]), int(args[1]), float(args[2])
        doc = json.loads(out)
        with mpmath.workprec(512):
            man, exp = (1 / mpmath.qp(mpmath.mpf(num) / den)).man_exp
        value = Fraction(man) * Fraction(2) ** exp
        if doc["q"] != f"{num}/{den}":
            return "echoed q differs"
        if not Fraction(doc["lower"]) <= value <= Fraction(doc["upper"]):
            return "enclosure misses 1/(q;q)_inf"
        if not doc["width"] <= tol:
            return f"width {doc['width']} > tol {tol}"
        return None
