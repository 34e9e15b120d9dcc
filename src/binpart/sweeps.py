"""Range sweeps over the verification checks, one per CLI claim id.

Each claim is one step generator `steps(ctx, n_min, n_max)`, which
yields plain steps (checked, outcome, counterexample, margin, bits) for
n = n_min, n_min+1, ..., or one step, their fold, checked counting what
a step covers: one n, the k of an eq. 9 row, or a whole range.  One
sweep loop folds the steps into a ClaimSummary and stops at the first n
that is not verified, so no later n is evaluated.  Where a claim's input
changes little from one n to the next it is streamed, not recomputed:
the p(n,k) rows, central binomials, and the rows of lemma-gr's gap, from
their right ends and cut at half width, since the lemma reads only the
descent range k > n/2.  The row claims thm2, thm3, lemma-links,
lemma-rechts and eq9 take each n's step off row n alone (ROW_STEPS).
One row pass (_row_pass) streams the rows once for a set of row claims
and folds each claim's steps.  run, the one entry point of `binpart
verify`, runs it up front over the row claims among those it is given
and leaves the folds with its SweepContext, where each row claim's sweep
takes its own, so a run streams the p(n,k) rows at most once.  Each row
claim, and each of prop1, prop2, lemma13, apostol and stirling, yields
one step: the fold of its whole range, off the row pass or off its
certified check's one precision ladder, called through the `checks`
module on the range and the integers bounded, read lazily.
Claim ids are the stable identifiers exposed by
`binpart verify`:

    thm2          strict unimodality of every row, unique peak
    thm3          1600*n*p(n,k)^2 < 12769*4^n for all k (exact)
    prop1         p(n-1,n-1) < e^(a*sqrt(n))            (certified)
    prop2         p(n,n-1) < sqrt(n)*e^(a*sqrt(n))      (certified)
    lemma-links   sign sum positive at the peak k       (exact, off
                  streamed row n)
    lemma-rechts  sign sum negative just past the peak  (exact, likewise)
    lemma-gr      512*p(n,k) > 1745*C(n,k) on the descent range (exact,
                  on the gap 512*p(n,k) - 1745*C(n,k), its rows
                  streamed from their right ends)
    lemma13       sqrt chain inequality                 (certified)
    apostol       p(n) < pi/sqrt(6n)*e^(a*sqrt(n))      (certified)
    stirling      C(n,peak)^2 * n * pi < 2*4^n          (certified, on
                  C(n,peak) walked along n)
    eq9           p(n,k) < C(n,k) * partial Euler product (exact, one depth
                  ladder per streamed row; each k decided on a float
                  enclosure with a proven error bound, on integers in the
                  band where the float cannot separate)
    genfun        generating-function coefficients match the DP table

Default ranges reproduce the acceptance gate, so `verify all` with no
range runs the full desk-scale verification.
"""

from __future__ import annotations

from functools import cached_property
from itertools import islice
from operator import itemgetter

from . import checks
from .binomial_sums import (
    DiagonalTable,
    dominance_check,
    dominance_weights,
    iter_central_binomials,
    iter_triangle_rows,
    iter_triangle_tails,
    peak_k,
    peak_sign_sum,
    verify_unimodal_profile,
)
from .checks import VERIFIED, VIOLATED
from .partitions import (build_partition_table, build_restricted_table,
                         check_generating_functions)

GENFUN_DEGREE = 60  # series coefficients compared per k by the genfun claim
SIGN_SUM_SAMPLE = 64  # peak_sign_sum runs at each n it divides, and at n_max


class ClaimSummary:
    """One claim's verdict over its range, equal to another field by field.

    A plain class, not a dataclass, so that importing the CLI loads no
    `dataclasses` (and with it `inspect`); notes defaults to a fresh {}.
    """

    def __init__(self, claim: str, n_min: int, n_max: int, checked: int,
                 outcome: str, counterexample: tuple | None = None,
                 min_margin: float | None = None,
                 max_precision_bits: int | None = None,
                 notes: dict | None = None):
        self.claim, self.n_min, self.n_max = claim, n_min, n_max
        self.checked, self.outcome = checked, outcome
        self.counterexample, self.min_margin = counterexample, min_margin
        self.max_precision_bits = max_precision_bits
        self.notes = {} if notes is None else notes

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"ClaimSummary({fields})"


def _exact(violation) -> tuple:
    """Step of an exact check that returns its first violation, or None."""
    return 1, VERIFIED if violation is None else VIOLATED, violation, None, None


class SweepContext:
    """What one run shares across its claims: the partition table
    p(0..max_n) and the diagonal table to max_n, each built on first use,
    so a run whose claims read neither builds neither; and folds, the fold
    of each row claim of the run off its row pass (claim id -> fold)."""

    def __init__(self, max_n: int):
        self.max_n = max_n
        self.folds = {}

    @cached_property
    def table(self):
        return build_partition_table(self.max_n)

    @cached_property
    def diagonal(self):
        return DiagonalTable(self.max_n, self.table)


def _row_pass(ranges: dict, table) -> dict:
    """{row claim: the fold of its steps} over the ranges (claim id ->
    (n_min, n_max)), from one stream of the p(n,k) rows to the largest
    n_max, cut after the most entries any claim reads.  At row n each open
    claim whose range holds n takes its step (ROW_STEPS) into its fold
    (_fold); a claim closes at its n_max or its first step that is not
    verified, so no later n of it is evaluated, and the stream stops once
    every claim has closed."""
    open_claims = dict(ranges)
    folds = dict.fromkeys(ranges, (0, VERIFIED, None, None, None))
    top = max(hi for _, hi in ranges.values())
    width = max(ROW_STEPS[claim][1](hi) for claim, (_, hi) in ranges.items())
    for n, row in iter_triangle_rows(top, width, table):
        for claim, (lo, hi) in list(open_claims.items()):
            if n >= lo:
                step = ROW_STEPS[claim][0](n, row, hi, table)
                folds[claim] = _fold(folds[claim], step)
                if step[1] != VERIFIED or n == hi:
                    del open_claims[claim]
        if not open_claims:
            return folds


def _fold(total: tuple, step: tuple) -> tuple:
    """The step covering a verified step total and then step: the counts
    add, the least margin and the most bits are kept, and step's outcome
    and counterexample are taken."""
    checked, _, _, least, most = total
    count, outcome, counterexample, margin, bits = step
    if margin is None or (least is not None and least <= margin):
        margin = least
    if bits is None or (most is not None and most >= bits):
        bits = most
    return checked + count, outcome, counterexample, margin, bits


def _claim(claim: str, steps, notes=None):
    """The sweep of one claim, as registered in CLAIMS.

    `steps(ctx, n_min, n_max)` is the claim's step generator: it yields
    (checked, outcome, counterexample, margin, bits) for n = n_min,
    n_min+1, ..., or one step, their fold.  The loop folds them (_fold)
    into the running count, least margin and most bits, and stops at the
    first n that is not verified, whose outcome and counterexample the
    summary takes; the generator is not resumed after it, so no later n
    is evaluated.
    """

    def sweep(n_min: int, n_max: int, ctx: SweepContext) -> ClaimSummary:
        total = 0, VERIFIED, None, None, None
        for step in steps(ctx, n_min, n_max):
            total = _fold(total, step)
            if step[1] != VERIFIED:
                break
        return ClaimSummary(claim, n_min, n_max, *total, dict(notes or {}))

    return sweep


# -- step generators: (ctx, n_min, n_max) -> (checked, outcome,
#    counterexample, margin, bits) for each n, or, for a certified claim,
#    one: its check's fold of n_min..n_max ------------------------------


def _diagonal_bound(ctx, lo, hi):
    yield checks.diagonal_bound_check(
        range(lo, hi + 1), islice(ctx.diagonal.diagonal, lo - 1, hi))


def _subdiagonal_bound(ctx, lo, hi):
    yield checks.subdiagonal_bound_check(
        range(lo, hi + 1), islice(ctx.diagonal.subdiagonal, lo, hi + 1))


def _dominance(ctx, lo, hi):
    """Rows of the gap 512*p(n,k) - 1745*C(n,k) from their right ends,
    streamed on their own weights (dominance_weights), apart from the row
    pass.  The descent range k >= floor((n+5)/2) of row n is its last
    n - peak_k(n) entries, fewer than hi // 2 for every n <= hi, so the
    tails are cut there."""
    gaps = dominance_weights(ctx.table, hi)
    for n, gap_tail in islice(iter_triangle_tails(hi, hi // 2, gaps), lo, None):
        bad_k = dominance_check(n, gap_tail)
        yield _exact(None if bad_k is None else (n, bad_k))


def _growth_chain(ctx, lo, hi):
    yield checks.growth_chain_check(range(lo, hi + 1))


def _partition_bound(ctx, lo, hi):
    yield checks.partition_bound_check(
        range(lo, hi + 1), islice(ctx.table, lo, hi + 1))


def _central_binomial(ctx, lo, hi):
    """C(n, floor((n+3)/2)) walked along n, as the check reads it."""
    yield checks.central_binomial_check(
        range(lo, hi + 1), map(itemgetter(1), iter_central_binomials(lo, hi)))


def _series_identities(ctx, lo, hi):
    for k in range(lo, hi + 1):
        table = build_restricted_table(k, GENFUN_DEGREE)
        violation = check_generating_functions(k, GENFUN_DEGREE, table)
        yield _exact(violation and (k, *violation))


# -- row steps: (n, row n of p(n,k), claim's n_max, partition table) ->
#    the step of n, taken by the row pass ------------------------------


def _unimodality(n, row, hi, table):
    return _exact(verify_unimodal_profile(n, row))


def _row_bound(n, row, hi, table):
    return 1, *checks.row_bound_check(n, row)


def _product_bound(n, row, hi, table):
    """Every 1 <= k <= n-1 of a row, decided together and folded by the
    check; an inconclusive k ends the row."""
    return *checks.product_bound_check(n, row), None


def _peak_sign(shift: int, holds):
    """The step of a sign lemma: holds(S(n,k)) at k = peak_k(n) + shift.

    S(n,k) = (n+1-k) * (2*p(n,k) - p(n+1,k)) is read off row n alone as
    (n+1-k) * (p(n,k) - p(n,k-1)), since p(n+1,k) = p(n,k) + p(n,k-1).
    At every n that SIGN_SUM_SAMPLE divides, and at n_max,
    peak_sign_sum's defining sum must equal it, or AssertionError is
    raised.
    """
    def step(n, row, hi, table):
        k = peak_k(n) + shift
        s = (n + 1 - k) * (row[k] - row[k - 1])
        if (n % SIGN_SUM_SAMPLE == 0 or n == hi) and peak_sign_sum(n, k, table) != s:
            raise AssertionError(f"S({n},{k}) off row {n} differs from its "
                                 "defining sum")
        return _exact(None if holds(s) else (n, k))
    return step


def _whole(hi):
    return hi + 1


def _past_peak(hi):
    return peak_k(hi) + 2


# row claim id -> (row step, entries k < width(n_max) of the rows it reads)
ROW_STEPS = {
    "thm2": (_unimodality, _whole),
    "thm3": (_row_bound, _whole),
    "lemma-links": (_peak_sign(0, lambda s: s > 0), _past_peak),
    "lemma-rechts": (_peak_sign(1, lambda s: s < 0), _past_peak),
    "eq9": (_product_bound, _whole),
}


def _from_pass(claim: str):
    """The step generator of a row claim: one step, its fold over lo..hi,
    which run's row pass left in ctx.folds."""
    def steps(ctx, lo, hi):
        yield ctx.folds[claim]
    return steps


# claim id -> (sweep function, default range)
CLAIMS = {
    "thm2": (_claim("thm2", _from_pass("thm2")), (4, 1000)),
    "thm3": (_claim("thm3", _from_pass("thm3")), (1, 1000)),
    "prop1": (_claim("prop1", _diagonal_bound), (1, 2000)),
    "prop2": (_claim("prop2", _subdiagonal_bound), (1, 2000)),
    "lemma-links": (_claim("lemma-links", _from_pass("lemma-links")), (4, 1000)),
    "lemma-rechts": (_claim("lemma-rechts", _from_pass("lemma-rechts")), (4, 1000)),
    "lemma-gr": (_claim("lemma-gr", _dominance), (4, 500)),
    "lemma13": (_claim("lemma13", _growth_chain), (3, 2000)),
    "apostol": (_claim("apostol", _partition_bound), (1, 2000)),
    "stirling": (_claim("stirling", _central_binomial), (1, 2000)),
    "eq9": (_claim("eq9", _from_pass("eq9")), (2, 300)),
    "genfun": (_claim("genfun", _series_identities,
                      {"degree": GENFUN_DEGREE}), (1, 15)),
}


def _clamped(claim: str, n_min: int | None, n_max: int | None) -> tuple[int, int]:
    """The claim's range; None range components fall back to defaults.

    A range with no n left once clamped to the claim's minimum raises
    ValueError: an empty sweep checks nothing and must not verify.
    """
    if claim not in CLAIMS:
        raise KeyError(f"unknown claim {claim!r}")
    default_min, default_max = CLAIMS[claim][1]
    lo = default_min if n_min is None else max(n_min, default_min)
    hi = default_max if n_max is None else n_max
    if lo > hi:
        raise ValueError(
            f"claim {claim} starts at n = {default_min}: "
            f"nothing to check in the range {n_min}..{n_max}")
    return lo, hi


def run(claims, n_min: int | None, n_max: int | None) -> list[ClaimSummary]:
    """Run each claim over its clamped range (see _clamped), in order.

    The claims share one SweepContext, sized to the largest n_max of
    their ranges.  One row pass over the row claims among them runs
    first, streaming the p(n,k) rows once, and each row claim's sweep
    takes its fold.
    """
    ranges = {claim: _clamped(claim, n_min, n_max) for claim in claims}
    ctx = SweepContext(max(hi for _, hi in ranges.values()))
    rows = {claim: ranges[claim] for claim in ROW_STEPS if claim in ranges}
    if rows:
        ctx.folds = _row_pass(rows, ctx.table)
    return [CLAIMS[claim][0](*ranges[claim], ctx) for claim in claims]
