"""Range sweeps over the verification checks, one per CLI claim id.

Every claim runs through the same sweep loop: its per-n step returns
plain values for one n, (checked, outcome, counterexample, margin, bits),
and the loop folds them into a ClaimSummary, stopping at the first n
that is not verified.  Where a claim's input changes little from one n
to the next it is streamed, not recomputed: triangle rows, Pascal
columns and central binomials.  Claim ids are the stable identifiers
exposed by `binpart verify`:

    thm2          strict unimodality of every row, unique peak
    thm3          1600*n*p(n,k)^2 < 12769*4^n for all k (exact)
    prop1         p(n-1,n-1) < e^(a*sqrt(n))            (certified)
    prop2         p(n,n-1) < sqrt(n)*e^(a*sqrt(n))      (certified)
    lemma-links   sign sum positive at the peak k       (exact, on
                  streamed Pascal columns)
    lemma-rechts  sign sum negative just past the peak  (exact, likewise)
    lemma-gr      512*p(n,k) > 1745*C(n,k) on the descent range (exact,
                  on streamed rows of the gap 512*p(n,k) - 1745*C(n,k))
    lemma13       sqrt chain inequality                 (certified)
    apostol       p(n) < pi/sqrt(6n)*e^(a*sqrt(n))      (certified)
    stirling      C(n,peak)^2 * n * pi < 2*4^n          (certified, on
                  C(n,peak) walked along n)
    eq9           p(n,k) < C(n,k) * partial Euler product (exact, one depth
                  ladder per streamed row)
    genfun        generating-function coefficients match the DP table

Default ranges reproduce the acceptance gate, so `verify all` with no
range runs the full desk-scale verification.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice, repeat
from typing import Optional

from . import checks
from .binomial_sums import (
    DiagonalTable,
    dominance_check,
    dominance_weights,
    iter_central_binomials,
    iter_pascal_columns,
    iter_triangle_rows,
    peak_k,
    peak_sign_sum,
    verify_unimodal_profile,
)
from .checks import VERIFIED, VIOLATED
from .partitions import build_partition_table, check_generating_functions

GENFUN_DEGREE = 60  # series coefficients compared per k by the genfun claim


@dataclass
class ClaimSummary:
    claim: str
    n_min: int
    n_max: int
    checked: int
    outcome: str
    counterexample: Optional[tuple] = None
    min_margin: Optional[float] = None
    max_precision_bits: Optional[int] = None
    notes: dict = field(default_factory=dict)


def _exact(violation) -> tuple:
    """Step of an exact check that returns its first violation, or None."""
    return 1, VERIFIED if violation is None else VIOLATED, violation, None, None


class SweepContext:
    """Tables shared across claims, built lazily and sized to the largest
    request; each row claim streams its own rows instead (see _stream)."""

    def __init__(self):
        self._table = None
        self._diag = None

    def table(self, max_n: int):
        if self._table is None or len(self._table) <= max_n:
            self._table = build_partition_table(max_n)
        return self._table

    def diagonal(self, max_n: int):
        if self._diag is None or self._diag.max_n < max_n:
            self._diag = DiagonalTable(max_n, self.table(max_n))
        return self._diag


def _stream(weights):
    """Pairs (n, row n of F_f) for n_min..n_max, streamed; rows below n_min
    are skipped.  `weights(table, n_max)` gives f from the partition table."""

    def pairs(ctx: SweepContext, n_min: int, n_max: int):
        f = weights(ctx.table(n_max), n_max)
        return islice(iter_triangle_rows(n_max, f), n_min, None)

    return pairs


_ROWS = _stream(lambda table, _: table)  # p(n,k)
_GAP_ROWS = _stream(dominance_weights)  # 512*p(n,k) - 1745*C(n,k)


def _columns(shift):
    """Pairs (n, (k, table, column)) for n_min..n_max, for the sign sum at
    k = peak_k(n) + shift: column is the Pascal column C(n-k+i, i) for
    i = 0..k, streamed by iter_pascal_columns, and the partition table is
    shared."""

    def pairs(ctx: SweepContext, n_min: int, n_max: int):
        table = ctx.table(n_max)
        ns = range(n_min, n_max + 1)
        ks = [peak_k(n) + shift for n in ns]
        columns = iter_pascal_columns((n - k, k + 1) for n, k in zip(ns, ks))
        return zip(ns, zip(ks, repeat(table), columns))

    return pairs


def _central_binomials(ctx: SweepContext, n_min: int, n_max: int):
    """Pairs (n, C(n, floor((n+3)/2))) for n_min..n_max, walked along n."""
    return iter_central_binomials(n_min, n_max)


def _shared(table=None):
    """Pairs (n, table) for n_min..n_max; `table` is the SweepContext method
    that supplies it, sized once from n_max (None: the claim needs none)."""

    def pairs(ctx: SweepContext, n_min: int, n_max: int):
        shared = None if table is None else table(ctx, n_max)
        return zip(range(n_min, n_max + 1), repeat(shared))

    return pairs


_TABLE = _shared(SweepContext.table)
_DIAGONAL = _shared(SweepContext.diagonal)


def _claim(claim: str, per_n, pairs=_shared(), notes=None):
    """The sweep of one claim, as registered in CLAIMS.

    `pairs(ctx, n_min, n_max)` yields the claim's (n, input) pairs: a
    streamed triangle row for the row claims (_stream), a streamed Pascal
    column for the sign sums (_columns), a walked central binomial for
    stirling, a shared table otherwise (_shared).  `per_n(n, input)`
    returns the step (checked, outcome, counterexample, margin, bits) of
    one n.  The loop keeps the running count, least margin and most bits,
    and stops at the first n that is not verified, whose outcome and
    counterexample the summary takes.
    """

    def sweep(n_min: int, n_max: int, ctx: SweepContext) -> ClaimSummary:
        checked = 0
        outcome, counterexample, min_margin, max_bits = VERIFIED, None, None, None
        for n, source in pairs(ctx, n_min, n_max):
            count, outcome, counterexample, margin, bits = per_n(n, source)
            checked += count
            if margin is not None and (min_margin is None or margin < min_margin):
                min_margin = margin
            if bits is not None and (max_bits is None or bits > max_bits):
                max_bits = bits
            if outcome != VERIFIED:
                break
        return ClaimSummary(claim, n_min, n_max, checked, outcome, counterexample,
                            min_margin, max_bits, dict(notes or {}))

    return sweep


# -- per-n steps: (n, claim input) -> (checked, outcome, counterexample,
#    margin, bits) ------------------------------------------------------


def _unimodality(n, row):
    return _exact(verify_unimodal_profile(n, row))


def _row_bound(n, row):
    return 1, *checks.row_bound_check(n, row)


def _diagonal_bound(n, diag):
    return 1, *checks.diagonal_bound_check(n, diag.diagonal[n - 1])


def _subdiagonal_bound(n, diag):
    return 1, *checks.subdiagonal_bound_check(n, diag.subdiagonal[n])


def _ascent_sign(n, source):
    k, table, column = source
    return _exact(None if peak_sign_sum(n, k, table, column) > 0 else (n, k))


def _descent_sign(n, source):
    k, table, column = source
    return _exact(None if peak_sign_sum(n, k, table, column) < 0 else (n, k))


def _dominance(n, gap_row):
    bad_k = dominance_check(n, gap_row)
    return _exact(None if bad_k is None else (n, bad_k))


def _growth_chain(n, _):
    return 1, *checks.growth_chain_check(n)


def _partition_bound(n, table):
    return 1, *checks.partition_bound_check(n, table)


def _central_binomial(n, value):
    return 1, *checks.central_binomial_check(n, value)


def _product_bound(n, row):
    """Every 1 <= k <= n-1, decided together and folded by the check; an
    inconclusive k ends the row."""
    return *checks.product_bound_check(n, row), None


def _series_identities(k, _):
    return _exact(check_generating_functions(k, GENFUN_DEGREE))


# claim id -> (sweep function, default range)
CLAIMS = {
    "thm2": (_claim("thm2", _unimodality, _ROWS), (4, 1000)),
    "thm3": (_claim("thm3", _row_bound, _ROWS), (1, 1000)),
    "prop1": (_claim("prop1", _diagonal_bound, _DIAGONAL), (1, 2000)),
    "prop2": (_claim("prop2", _subdiagonal_bound, _DIAGONAL), (1, 2000)),
    "lemma-links": (_claim("lemma-links", _ascent_sign, _columns(0)), (4, 1000)),
    "lemma-rechts": (_claim("lemma-rechts", _descent_sign, _columns(1)),
                     (4, 1000)),
    "lemma-gr": (_claim("lemma-gr", _dominance, _GAP_ROWS), (4, 500)),
    "lemma13": (_claim("lemma13", _growth_chain), (3, 2000)),
    "apostol": (_claim("apostol", _partition_bound, _TABLE), (1, 2000)),
    "stirling": (_claim("stirling", _central_binomial, _central_binomials),
                 (1, 2000)),
    "eq9": (_claim("eq9", _product_bound, _ROWS), (2, 300)),
    "genfun": (_claim("genfun", _series_identities,
                      notes={"degree": GENFUN_DEGREE}), (1, 15)),
}


def run_claim(claim: str, n_min: int | None, n_max: int | None,
              ctx: SweepContext | None = None) -> ClaimSummary:
    """Run one claim sweep; None range components fall back to defaults.

    A range with no n left once clamped to the claim's minimum raises
    ValueError: an empty sweep checks nothing and must not verify.
    """
    if claim not in CLAIMS:
        raise KeyError(f"unknown claim {claim!r}")
    sweep, (default_min, default_max) = CLAIMS[claim]
    lo = default_min if n_min is None else max(n_min, default_min)
    hi = default_max if n_max is None else n_max
    if lo > hi:
        raise ValueError(
            f"claim {claim} starts at n = {default_min}: "
            f"nothing to check in the range {n_min}..{n_max}")
    if ctx is None:
        ctx = SweepContext()
    return sweep(lo, hi, ctx)


def run_all(n_min: int | None, n_max: int | None,
            ctx: SweepContext | None = None) -> list[ClaimSummary]:
    """Run every claim, sharing the partition and diagonal tables across
    sweeps; each row claim streams its own rows."""
    if ctx is None:
        ctx = SweepContext()
    return [run_claim(claim, n_min, n_max, ctx) for claim in CLAIMS]
