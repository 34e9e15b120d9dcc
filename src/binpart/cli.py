"""Command-line front end.

Subcommands:

    compute p N | compute pk K N | compute pnk N K
    table N [--format csv|json|markdown]
    verify CLAIM [NMIN NMAX]
    peak N
    product QNUM QDEN TOL
    mu N K [--filiform]

Exit codes: 0 success/verified, 1 violation found, 2 usage error,
3 inconclusive (precision or depth cap hit).  All big integers are
emitted as decimal strings; output is deterministic for a given command
line (stable key order, no timestamps).  The parser is built once per
process, on main's first call.  mpmath, fractions and decimal are
imported only by the functions that call them, so a command on exact
integers never loads mpmath, nor does a mu refused for its output's
length (the limit is decided on the integer kernel of `intervals`), and
only product, mu and ints longer than _LONG_INT_BITS load fractions or
decimal.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import sweeps
from .binomial_sums import (build_triangle, peak_k, strict_sides, triangle_row,
                            verify_unimodal_profile)
from .checks import INCONCLUSIVE, VERIFIED, VIOLATED
from .intervals import DEFAULT_PRECISION_BITS, ln, to_fraction, width
from .lie import best_bound, corollary_bound
from .partitions import (build_partition_table, build_restricted_table,
                         rademacher_partition_number)
from .qseries import EnclosureWidthError, enclose_euler_product

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3

MAX_STR_DIGITS = 2_000_000  # the int-to-str limit main sets
# `compute p N` reads p(N) off Rademacher's series from P_SERIES_FROM on,
# where the series and the pentagonal table cost about the same (4-7 ms
# each on a 2-vCPU container; in two runs the table took 0.97-0.98 of the
# series' process time over N = 1800..1899 and 1.05-1.08 over 1900..1999),
# and refuses N above P_CEILING, the largest power of ten that ran under a
# minute there (10^9: 13-17 s; 10^10: over 100 s)
P_SERIES_FROM = 1900
P_CEILING = 10**9
# ints longer than _LONG_INT_BITS (10,000 decimal digits) print through
# _int_str's divide and conquer, shorter ones through str(): the two cost
# the same near 10,000 digits.  Best of 5 on a 2-vCPU container with Python
# 3.11.7, str() against the split route: 0.61 against 0.79 ms at 6,000
# digits, 1.91 against 1.72 ms at 10,000, 4.39 against 3.75 ms at 16,000,
# 0.89 against 0.08 s at 200,000; the split route prints 10^1999999 in 1.0 s
_LONG_INT_BITS = 33_220
_LEAF_BITS = 512  # halves this short enter decimal.Decimal directly


class UsageError(Exception):
    pass


def _emit(document) -> None:
    print(json.dumps(document, indent=2))


def _int_str(n: int) -> str:
    """str(n) for an int n >= 0, in time subquadratic in the digits of n.

    CPython before 3.12 converts an int to decimal in quadratic time.
    Above _LONG_INT_BITS, n is split by bits, each half converted, and the
    halves recombined as high * 2^w + low in exact decimal arithmetic, so
    libmpdec's fast multiplication does the base change (the method of
    CPython 3.12's _pylong).  The powers 2^w are built once per call.
    """
    if n.bit_length() <= _LONG_INT_BITS:
        return str(n)
    import decimal

    powers = {}

    def power(w):
        if w not in powers:
            half = w >> 1
            powers[w] = (decimal.Decimal(1 << w) if w <= _LEAF_BITS
                         else power(half) * power(w - half))
        return powers[w]

    def convert(x, w):
        if w <= _LEAF_BITS:
            return decimal.Decimal(x)
        half = w >> 1
        high = x >> half
        return convert(x - (high << half), half) + convert(high, w - half) * power(half)

    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True
        return str(convert(n, n.bit_length()))


def _decimal_str(fr: Fraction, digits: int, round_up: bool) -> str:
    """Directed decimal rendering of a nonnegative rational."""
    scaled = fr * 10**digits
    q, r = divmod(scaled.numerator, scaled.denominator)
    if round_up and r:
        q += 1
    text = _int_str(q).rjust(digits + 1, "0")
    return f"{text[:-digits]}.{text[-digits:]}"


def bound_to_strings(pair, digits: int) -> dict:
    """An enclosure's endpoint pair (lower, upper), rounded outward in decimal."""
    lower, upper = pair
    return {
        "lower": _decimal_str(to_fraction(lower), digits, round_up=False),
        "upper": _decimal_str(to_fraction(upper), digits, round_up=True),
    }


# -- compute ------------------------------------------------------------


def cmd_compute(args) -> int:
    kind = args.kind
    values = args.values
    if kind == "p":
        if len(values) != 1:
            raise UsageError("compute p takes exactly one argument: N")
        (n,) = values
        if n < 0:
            raise UsageError(f"p needs N >= 0, got N={n}")
        if n > P_CEILING:
            raise UsageError(f"compute p takes N <= {P_CEILING}, got N={n}")
        result = rademacher_partition_number(n) if n >= P_SERIES_FROM else None
        if result is None:  # below the threshold, or left undecided
            result = build_partition_table(n)[n]
        arglist = [n]
    elif kind == "pk":
        if len(values) != 2:
            raise UsageError("compute pk takes exactly two arguments: K N")
        k, n = values
        if k < 1:
            raise UsageError("pk needs K >= 1")
        if n < 0:
            raise UsageError(f"pk needs N >= 0, got K={k}, N={n}")
        result = build_restricted_table(k, n)[n]
        arglist = [k, n]
    elif kind == "pnk":
        if len(values) != 2:
            raise UsageError("compute pnk takes exactly two arguments: N K")
        n, k = values
        if not 0 <= k <= n:
            raise UsageError(f"pnk needs 0 <= K <= N, got N={n}, K={k}")
        result = build_triangle(n)[n][k]
        arglist = [n, k]
    else:  # pragma: no cover - argparse restricts choices
        raise UsageError(f"unknown kind {kind!r}")
    _emit({"kind": kind, "args": arglist, "value": _int_str(result)})
    return EXIT_OK


# -- table --------------------------------------------------------------


def _table_rows(n: int) -> list[tuple[int, int, int]]:
    table = build_partition_table(n)
    row = triangle_row(n, table)
    return [(k, table[k], row[k]) for k in range(1, n + 1)]


def cmd_table(args) -> int:
    n = args.n
    if n < 1:
        raise UsageError("table needs N >= 1")
    rows = _table_rows(n)
    if args.format == "csv":
        out = ["k,p_k,p_n_k"]
        out += [f"{k},{_int_str(pk)},{_int_str(pnk)}" for k, pk, pnk in rows]
        sys.stdout.write("\n".join(out) + "\n")
    elif args.format == "markdown":
        out = ["| k | p_k | p_n_k |", "| --- | --- | --- |"]
        out += [f"| {k} | {_int_str(pk)} | {_int_str(pnk)} |" for k, pk, pnk in rows]
        sys.stdout.write("\n".join(out) + "\n")
    else:
        _emit({
            "n": n,
            "rows": [
                {"k": k, "p_k": _int_str(pk), "p_n_k": _int_str(pnk)}
                for k, pk, pnk in rows
            ],
        })
    return EXIT_OK


# -- verify -------------------------------------------------------------


def _summary_doc(s: sweeps.ClaimSummary) -> dict:
    doc = {
        "claim": s.claim,
        "range": [s.n_min, s.n_max],
        "checked": s.checked,
        "outcome": s.outcome,
    }
    if s.counterexample is not None:
        doc["counterexample"] = list(s.counterexample)
    if s.min_margin is not None:
        doc["min_margin"] = s.min_margin
    if s.max_precision_bits is not None:
        doc["precision_bits"] = s.max_precision_bits
    if s.notes:
        doc["notes"] = s.notes
    return doc


def _verify_exit(summaries: list[sweeps.ClaimSummary]) -> int:
    if any(s.outcome == VIOLATED for s in summaries):
        return EXIT_VIOLATION
    if any(s.outcome == INCONCLUSIVE for s in summaries):
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def cmd_verify(args) -> int:
    claim = args.claim
    if claim != "all" and claim not in sweeps.CLAIMS:
        raise UsageError(
            f"unknown claim {claim!r}; choose from: all, " + ", ".join(sweeps.CLAIMS)
        )
    if (args.n_min is None) != (args.n_max is None):
        raise UsageError("give both NMIN and NMAX, or neither")
    if args.n_min is not None and args.n_min > args.n_max:
        raise UsageError("NMIN must not exceed NMAX")
    if claim == "all":
        summaries = sweeps.run_all(args.n_min, args.n_max)
    else:
        summaries = [sweeps.run_claim(claim, args.n_min, args.n_max)]
    code = _verify_exit(summaries)
    _emit({
        "command": "verify",
        "claims": [_summary_doc(s) for s in summaries],
        "overall": {EXIT_OK: VERIFIED, EXIT_VIOLATION: VIOLATED,
                    EXIT_INCONCLUSIVE: INCONCLUSIVE}[code],
    })
    return code


# -- peak ---------------------------------------------------------------


def cmd_peak(args) -> int:
    n = args.n
    if n < 4:
        raise UsageError("peak is only unique for N >= 4")
    row = triangle_row(n)
    violation = verify_unimodal_profile(n, row)
    # a broken row is scanned in full on each side, so no side reads true unscanned
    strict_up, strict_down = (True, True) if violation is None else strict_sides(n, row)
    kn = peak_k(n)
    scan_max = max(range(1, n + 1), key=lambda k: row[k])
    _emit({
        "n": n,
        "peak_k": kn,
        "scan_argmax": scan_max,
        "strict_up": strict_up,
        "strict_down": strict_down,
        "peak_value": _int_str(row[kn]),
    })
    return EXIT_OK if violation is None and scan_max == kn else EXIT_VIOLATION


# -- product ------------------------------------------------------------


def cmd_product(args) -> int:
    if args.q_den <= 0 or not 0 < args.q_num < args.q_den:
        raise UsageError("need 0 < QNUM/QDEN < 1")
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise UsageError("TOL must be a finite positive number")
    from fractions import Fraction

    q = Fraction(args.q_num, args.q_den)
    try:
        enclosure, ell = enclose_euler_product(q, args.tol)
    except EnclosureWidthError as exc:
        _emit({
            "q": f"{args.q_num}/{args.q_den}",
            "outcome": INCONCLUSIVE,
            "detail": str(exc),
        })
        return EXIT_INCONCLUSIVE
    # enough digits that the printed enclosure stays meaningful at tol
    digits = max(6, math.ceil(-math.log10(args.tol)) + 2)
    doc = {"q": f"{args.q_num}/{args.q_den}", "ell": ell}
    doc.update(bound_to_strings(enclosure, digits))
    doc["width"] = width(enclosure)
    _emit(doc)
    return EXIT_OK


# -- mu -----------------------------------------------------------------


def _mu_doc(n: int, k: int, filiform: bool) -> dict:
    bounds, best = best_bound(n, k, filiform, build_partition_table(k))
    return {
        "n": n,
        "k": k,
        "filiform": filiform,
        "bounds": {label: _int_str(bound) for label, bound in bounds.items()},
        "corollary": bound_to_strings(corollary_bound(n), 6),
        "best": best,
        "pnk_beats_reed": bounds["pnk"] < bounds["reed"],
    }


def _mu_prints_too_many_digits(n: int, k: int) -> bool:
    """Whether `mu N K` would print a number of more than MAX_STR_DIGITS digits.

    The longest it prints are Birkhoff's (n^(k+2) - 1)/(n - 1) and the
    corollary's endpoints of 3*2^n/sqrt(n) with 6 decimals.  Both are
    compared with 10^L, L = MAX_STR_DIGITS, in the log domain on
    intervals.ln's pairs at DEFAULT_PRECISION_BITS, never built: each side
    is rounded outward, and a comparison the pairs leave open counts as
    fitting.
    """
    bits = DEFAULT_PRECISION_BITS
    ln_n = ln(n, 1, bits)
    too_long = MAX_STR_DIGITS * ln(10, 1, bits)[1]
    # (n^(k+2) - 1)/(n - 1) >= 10^L exactly when n^(k+2) > (n - 1)*10^L
    birkhoff = (k + 2) * ln_n[0] - ln(n - 1, 1, bits)[1]
    # 3*2^n/sqrt(n)*10^6 >= 10^L; -ceil(hi/2) is (-hi) >> 1
    corollary = n * ln(2, 1, bits)[0] + ln(3 * 10**6, 1, bits)[0] + (-ln_n[1] >> 1)
    return birkhoff > too_long or corollary > too_long


def cmd_mu(args) -> int:
    n, k = args.n, args.k
    if not 1 <= k <= n - 1:
        raise UsageError(f"mu needs 1 <= K <= N-1, got N={n}, K={k}")
    if args.filiform and k != n - 1:
        raise UsageError("--filiform requires K = N-1")
    if _mu_prints_too_many_digits(n, k):
        raise UsageError(f"mu N={n}, K={k} would print a number of more than "
                         f"{MAX_STR_DIGITS} digits, the int-to-str limit")
    _emit(_mu_doc(n, k, args.filiform))
    return EXIT_OK


# -- parser -------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="binpart",
        description="Exact binomial partition sums and certified bound verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="print one exact value")
    p_compute.add_argument("kind", choices=["p", "pk", "pnk"])
    p_compute.add_argument("values", nargs="+", type=int)
    p_compute.set_defaults(func=cmd_compute)

    p_table = sub.add_parser("table", help="rows (k, p(k), p(n,k)) for k=1..N")
    p_table.add_argument("n", type=int)
    p_table.add_argument("--format", choices=["csv", "json", "markdown"],
                         default="csv")
    p_table.set_defaults(func=cmd_table)

    p_verify = sub.add_parser("verify", help="run verification sweeps")
    p_verify.add_argument("claim")
    p_verify.add_argument("n_min", nargs="?", type=int, default=None)
    p_verify.add_argument("n_max", nargs="?", type=int, default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_peak = sub.add_parser("peak", help="peak index of row N, checked by scan")
    p_peak.add_argument("n", type=int)
    p_peak.set_defaults(func=cmd_peak)

    p_product = sub.add_parser(
        "product", help="enclose prod 1/(1-q^j) for rational q"
    )
    p_product.add_argument("q_num", type=int)
    p_product.add_argument("q_den", type=int)
    p_product.add_argument("tol", type=float)
    p_product.set_defaults(func=cmd_product)

    p_mu = sub.add_parser("mu", help="Ado-type dimension bounds for (N,K)")
    p_mu.add_argument("n", type=int)
    p_mu.add_argument("k", type=int)
    p_mu.add_argument("--filiform", action="store_true")
    p_mu.set_defaults(func=cmd_mu)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        sys.set_int_max_str_digits(MAX_STR_DIGITS)
    except AttributeError:
        pass
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (UsageError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("error: an argument needs more memory than is available",
              file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
