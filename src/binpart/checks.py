"""Margin-checked verification of the upper-bound inequalities.

Two kinds of checks live here:

  * pure big-integer comparisons (row_bound_check, product_bound_check):
    no real arithmetic at all, so the outcome is exact by construction;
    product_bound_check decides eq. 9 for a whole row at once, one depth
    ladder per row, walking C(n,k) along the row;

  * certified real comparisons (everything involving pi, sqrt, exp, log):
    each check's gaps(bits) calls mpmath's outward-rounding `libmpi`
    interval functions directly on endpoint pairs, at the explicit
    precision bits, taking integers from intervals.int_interval and pi
    and sqrt(2/3)*pi from intervals.pi_alpha; a division by a power of
    two is an exact mpi_shift.  It returns each gap as its endpoint pair
    (lower, upper); `_certified` reads the sign
    (intervals.certainly_positive) and margin from those endpoints.
    No rung sets the global `iv` precision.  A claim is declared only
    when the gap exceeds the total enclosure error, with automatic
    precision escalation from DEFAULT_PRECISION_BITS (a check takes no
    start precision) and an explicit "inconclusive" outcome at the cap.

The row checks take their row, the diagonal checks the integer they
bound, p(n-1,n-1) or p(n,n-1), partition_bound_check the partition
number p(n), and central_binomial_check the binomial
C(n, floor((n+3)/2)), which the stirling sweep walks along n;
growth_chain_check takes n alone.  No check reads a table or a triangle,
or computes a binomial from scratch.  Every check returns its verdict as
a plain tuple (outcome, counterexample, margin, bits), bits None for the
exact row_bound_check; product_bound_check returns its row's fold
(checked, outcome, counterexample, margin) instead.  The margin is a
unitless slack: the relative slack (rhs-lhs)/rhs of an integer
comparison, the certified lower bound of the gap of a real one.
"verified" always means the strict inequality holds with positive
certified margin.

The certified checks of prop1, prop2, lemma13, apostol and stirling each
have an integer screen, *_bracket(*call, constants), on the check's own
arguments call, (n,) for lemma13 and (n, value) for the rest, and on
screen_constants' fixed-point brackets of pi, a, ln 2 and ln pi, which
it reads off the checks' own 128-bit pairs.  It returns exact integers
lo <= g <= hi around the check's true gap g (lemma13: the smaller of its
two gaps), at 2^-SCREEN_BITS, and a bound w on the width of the gap's
enclosure at DEFAULT_PRECISION_BITS, derived where the brackets are
defined.  When lo > w the check would verify n at that first rung, with
its margin's exact value in [lo - w, hi]; sweeps._screened uses this to
call the check only at the n that can hold the least margin.  A bracket
never decides a verdict or sets a margin: those still come from the
checks.
"""

from __future__ import annotations

from itertools import compress, repeat
from math import ceil, floor, isqrt
from operator import lt, mul, not_, sub

from mpmath.libmp import (
    finf,
    fninf,
    mpi_add,
    mpi_div,
    mpi_exp,
    mpi_log,
    mpi_mul,
    mpi_sqrt,
    mpi_sub,
    round_nearest,
    to_float,
)
from mpmath.libmp.libmpi import mpi_shift

from .intervals import (
    DEFAULT_PRECISION_BITS,
    certainly_positive,
    decide_with_escalation,
    int_interval,
    pi_alpha,
    to_fraction,
)
from .qseries import DEFAULT_DEPTH_CAP

VERIFIED = "verified"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"


def _relative_slack(lhs: int, rhs: int) -> float:
    """(rhs - lhs)/rhs for exact integers, safe for astronomically large values."""
    return (rhs - lhs) / rhs


def _certified(gaps, counterexample: tuple) -> tuple:
    """Decide that every gap in gaps(bits) is positive, escalating precision.

    The ladder always starts at DEFAULT_PRECISION_BITS and doubles to the
    cap; no check takes a start precision of its own.  Each rung calls
    gaps(bits), which returns a tuple of endpoint pairs (lower, upper)
    evaluated at the explicit precision bits (the checks compute them with
    direct `libmpi` calls); no rung sets the global `iv` precision.  The
    rung is violated when any gap is certainly <= 0, even while another
    straddles zero, as that gap's true value is <= 0; otherwise it is
    undecided while any gap straddles zero, and verified once every gap
    is certainly positive.
    Returns the verdict (outcome, counterexample, margin, bits): the
    counterexample only when violated, bits the last rung evaluated, and
    the margin, only when verified, the smallest certified lower bound
    among the gaps, rounded to the nearest float as float(mpf) rounds it
    (to_float's own default rounds toward zero).
    """
    def evaluate(bits):
        enclosures = gaps(bits)
        signs = [certainly_positive(gap) for gap in enclosures]
        if False in signs:
            return VIOLATED, counterexample, None, bits
        if None in signs:
            return None
        margin = min(to_float(lower, rnd=round_nearest) for lower, _ in enclosures)
        return VERIFIED, None, margin, bits

    verdict, bits = decide_with_escalation(evaluate, DEFAULT_PRECISION_BITS)
    return verdict or (INCONCLUSIVE, None, None, bits)


def row_bound_check(n: int, row: tuple[int, ...]) -> tuple:
    """Exact check of 1600*n*p(n,k)^2 < 12769*4^n for every 1 <= k <= n.

    row is row n of the triangle.  This is the squared, cleared-denominator
    form of p(n,k) < (113/40)/sqrt(n) * 2^n; only integer arithmetic is
    used, so the verdict (outcome, counterexample, margin, bits) has no
    bits.  The counterexample is the first violating (n, k); the margin
    is the relative slack of the row's largest entry.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rhs = 12769 << (2 * n)
    factor = 1600 * n
    top = max(row[1:n + 1])
    worst = factor * top * top
    if worst >= rhs:
        k = next(k for k in range(1, n + 1) if factor * row[k] * row[k] >= rhs)
        return VIOLATED, (n, k), None, None
    return VERIFIED, None, _relative_slack(worst, rhs), None


def central_binomial_check(n: int, value: int) -> tuple:
    """Certified check of C(n, floor((n+3)/2)) < 2^n / sqrt(pi*n/2).

    value is C(n, floor((n+3)/2)), 0 at n = 1.  Equivalent form used:
    C^2 * n * pi < 2 * 4^n, with pi the only non-integer quantity.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    kn = (n + 3) // 2
    lhs_int = value * value * n
    rhs_int = 2 << (2 * n)

    def gaps(bits):
        # rhs = 2^(2n+1), so dividing by it is an exact shift and keeps the sign
        pi, _ = pi_alpha(bits)
        lhs = mpi_mul(int_interval(lhs_int, bits), pi, bits)
        gap = mpi_sub(int_interval(rhs_int, bits), lhs, bits)
        return (mpi_shift(gap, -(2 * n + 1)),)

    return _certified(gaps, (n, kn))


def partition_bound_check(n: int, pn: int) -> tuple:
    """Certified check of the classical bound p(n) < pi/sqrt(6n) * e^(a*sqrt(n))

    with a = sqrt(2/3)*pi, compared in the log domain:
    log p(n) < log(pi/sqrt(6n)) + a*sqrt(n).  pn is p(n).
    """
    if n < 1:
        raise ValueError("n must be >= 1")

    def gaps(bits):
        pi, alpha = pi_alpha(bits)
        positive = certainly_positive(pi)
        if not positive:
            # log(pi/sqrt(6n)) has no finite lower bound: a pi that may be <= 0
            # leaves the gap undecided, and a pi <= 0, whose bound <= 0 < p(n),
            # makes it certainly negative
            return ((fninf, finf if positive is None else fninf),)
        lhs = mpi_log(int_interval(pn, bits), bits)
        sqrt_n = mpi_sqrt(int_interval(n, bits), bits)
        sqrt_6n = mpi_sqrt(int_interval(6 * n, bits), bits)
        rhs = mpi_add(mpi_log(mpi_div(pi, sqrt_6n, bits), bits),
                      mpi_mul(alpha, sqrt_n, bits), bits)
        return (mpi_sub(rhs, lhs, bits),)

    return _certified(gaps, (n,))


def growth_chain_check(n: int) -> tuple:
    """Certified check of the two-sided chain, for n >= 3:

    sqrt(n)/(sqrt(n+1)-1)  <  1 + pi/sqrt(6n)  <  e^(a*sqrt(n)*(sqrt(1+1/n)-1)).

    The reported margin is the smaller certified gap of the two links.
    """
    if n < 3:
        raise ValueError("n must be >= 3")

    def gaps(bits):
        pi, alpha = pi_alpha(bits)
        one = int_interval(1, bits)
        nn = int_interval(n, bits)
        sqrt_n = mpi_sqrt(nn, bits)
        left = mpi_div(
            sqrt_n,
            mpi_sub(mpi_sqrt(int_interval(n + 1, bits), bits), one, bits),
            bits)
        sqrt_6n = mpi_sqrt(int_interval(6 * n, bits), bits)
        mid = mpi_add(one, mpi_div(pi, sqrt_6n, bits), bits)
        sqrt_step = mpi_sqrt(mpi_add(one, mpi_div(one, nn, bits), bits), bits)
        right = mpi_exp(
            mpi_mul(mpi_mul(alpha, sqrt_n, bits),
                    mpi_sub(sqrt_step, one, bits), bits), bits)
        return (mpi_sub(mid, left, bits), mpi_sub(right, mid, bits))

    return _certified(gaps, (n,))


def diagonal_bound_check(n: int, value: int) -> tuple:
    """Certified check of p(n-1,n-1) < e^(a*sqrt(n)) for n >= 1.

    value is p(n-1,n-1).
    """
    if n < 1:
        raise ValueError("n must be >= 1")

    def gaps(bits):
        _, alpha = pi_alpha(bits)
        lhs = mpi_log(int_interval(value, bits), bits)
        rhs = mpi_mul(alpha, mpi_sqrt(int_interval(n, bits), bits), bits)
        return (mpi_sub(rhs, lhs, bits),)

    return _certified(gaps, (n,))


def subdiagonal_bound_check(n: int, value: int) -> tuple:
    """Certified check of p(n,n-1) < sqrt(n) * e^(a*sqrt(n)) for n >= 1.

    value is p(n,n-1).
    """
    if n < 1:
        raise ValueError("n must be >= 1")

    def gaps(bits):
        _, alpha = pi_alpha(bits)
        nn = int_interval(n, bits)
        lhs = mpi_log(int_interval(value, bits), bits)
        # log(n)/2: halving a bits-bit endpoint is an exact shift
        rhs = mpi_add(mpi_shift(mpi_log(nn, bits), -1),
                      mpi_mul(alpha, mpi_sqrt(nn, bits), bits), bits)
        return (mpi_sub(rhs, lhs, bits),)

    return _certified(gaps, (n,))


def product_bound_check(n: int, row: tuple[int, ...]) -> tuple:
    """Exact check of p(n,k) < C(n,k) * prod_{j>=1} 1/(1-(k/n)^j), k = 1..n-1.

    row is row n of the triangle.  The infinite product is lower-bounded
    by its partial products (every omitted factor exceeds 1), so for each
    k it suffices to verify

        p(n,k) * prod_{j<=L} (n^j - k^j)  <  C(n,k) * prod_{j<=L} n^j

    for some depth L.  One decide_with_escalation ladder runs for the
    whole row and deepens L (4, 8, 16, ...) up to DEFAULT_DEPTH_CAP, read
    at each call.  Each rung extends the previous rung's partial products
    from j = L_prev + 1 (prod n^j once for the row, prod (n^j - k^j) per
    open k) and decides every k still open; a k's margin is taken at the
    first depth that clears it.  C(n,k) is walked along the row.

    Returns the row's fold (checked, outcome, counterexample, margin).
    The row is verified when every k clears; otherwise it is inconclusive
    (never asserted false) at the first k still open at the cap, and
    the counterexample is that (n, k).  checked counts the k decided,
    k = 1, 2, ... up to the open one included, and margin is the least
    margin over the k before it (None when there is none).
    """
    if n < 2:
        raise ValueError("need n >= 2: the row has no 1 <= k <= n-1")
    if len(row) != n + 1:
        raise ValueError(f"row {n} has {n + 1} entries, got {len(row)}")
    binomials = []
    c = 1
    for k in range(1, n):
        c = c * (n - k + 1) // k  # C(n,k) from C(n,k-1)
        binomials.append(c)

    margins = {}  # k -> relative slack at the first depth that clears k
    # per open k: k, p(n,k), C(n,k), k^j and prod (n^j - k^j) at the built depth
    open_k = [list(range(1, n)), list(row[1:n]), binomials,
              [1] * (n - 1), [1] * (n - 1)]
    num = npow = 1
    built = 0  # the depth num and the per-k products are built to

    def evaluate(depth):
        # the ladder's depths only grow, so extend the previous rung's products
        nonlocal open_k, num, npow, built
        ks, p_vals, cs, kpows, dens = open_k
        for _ in range(built, depth):
            npow *= n
            num *= npow
            kpows = list(map(mul, kpows, ks))
            dens = list(map(mul, dens, map(sub, repeat(npow), kpows)))
        built = depth
        lhs = list(map(mul, p_vals, dens))
        rhs = list(map(mul, cs, repeat(num)))
        cleared = list(map(lt, lhs, rhs))
        margins.update(zip(compress(ks, cleared),
                           map(_relative_slack, compress(lhs, cleared),
                               compress(rhs, cleared))))
        still_open = list(map(not_, cleared))
        open_k = [list(compress(column, still_open))
                  for column in (ks, p_vals, cs, kpows, dens)]
        return None if open_k[0] else depth

    decide_with_escalation(evaluate, 4, DEFAULT_DEPTH_CAP)
    if not open_k[0]:
        return n - 1, VERIFIED, None, min(margins.values())
    first = open_k[0][0]
    before = [margin for k, margin in margins.items() if k < first]
    return first, INCONCLUSIVE, (n, first), min(before, default=None)


# -- the integer screen of prop1, prop2, lemma13, apostol and stirling ------
#
# Each *_bracket(*call, constants) takes the arguments of its check and
# returns (lo, hi, w), integers in units of 2^-SCREEN_BITS: lo <= g <= hi
# for the check's true gap g, and w > the width of the gap's enclosure at
# DEFAULT_PRECISION_BITS.  That enclosure contains g, so its lower
# endpoint, which the check's margin rounds to nearest, lies in
# [lo - w, hi].
#
# Deriving w.  A libmpi operation at p = 128 bits rounds each endpoint of
# its result outward by less than one unit in the last place, so it
# widens the result by less than 2^-126 times the result's size.
# Products, quotients and roots pass such a relative widening on, a log
# turns it into an absolute one and sums add absolute widths, so each
# rounding widens the gap by less than 2^-126 times the size of the gap
# term it feeds, or by 2^-126 where a log takes it in.  Let M be the sum
# of the upper brackets of the gap's terms: every term is at most M, and
# so is the gap once lo > 0.  The gaps take 3 (stirling: C^2*n entered,
# times pi, the difference) to 10 (apostol) roundings, each less than
# (M + 1)*2^-126, so they widen the gap by less than (M + 1)*2^-122.  w
# allows (M + 1)*2^-120 = (M + 1) >> WIDTH_BITS, four times that, since
# mpmath's directed log and sqrt may miss correct rounding by an ulp.
# Beyond rounding, the constants carry their own width into the gap: the
# width of a's bracket times sqrt(n), for apostol the width of ln pi's
# bracket (>= ln(pi_hi/pi_lo), what pi's width adds to log(pi/sqrt(6n))),
# and for stirling C^2*n*(pi_hi - pi_lo)/2^(2n+1).  These come from the
# same pi_alpha pairs the checks use, so a wider pair widens w with it.
#
# lemma13's check has two gaps, and its margin is the smaller lower
# endpoint.  Its bracket takes lo and hi as the least of the two links'
# and one w above both links' widths, so that lo > w certifies both links
# and the margin still lies in [lo - w, hi].  Each link takes at most 12 roundings.  The
# right link computes sqrt(1 + 1/n) - 1, about 1/(2n), and that
# subtraction cancels digits: the roundings of 1 + 1/n and of its root,
# both of size below 2, leave it an absolute width below 2^-124, which
# the product with a*sqrt(n) and then e^x scale by e^x*a*sqrt(n).  So
# that width grows as sqrt(n), past (M + 1) >> WIDTH_BITS from n of about
# 10^4, and w allows (M + 1 + e^x*a*sqrt(n)) >> WIDTH_BITS: 4 times the
# other roundings' (M + 1)*2^-122 and 16 times the cancellation's
# e^x*a*sqrt(n)*2^-124.  The constants carry pi's width through
# pi/sqrt(6n) <= pi and a's through e^x*a/(sqrt(n+1) + sqrt(n)) <= e^x*a.
#
# The brackets take sqrt(n) in [r, r+1]/2^SCREEN_BITS with
# r = isqrt(n*4^SCREEN_BITS), ln v in [(b-1)*ln 2, b*ln 2] for an integer
# v >= 1 of b bits, and e^x from fixed-point Taylor sums (_exp_bracket).
# tests/test_checks.py checks width < w and lo - w <= lower endpoint <= hi
# against the checks themselves.

SCREEN_BITS = DEFAULT_PRECISION_BITS + 64
WIDTH_BITS = 120
_ONE = 1 << SCREEN_BITS


def _scaled(pair) -> tuple[int, int]:
    """floor and ceiling of an endpoint pair times 2^SCREEN_BITS."""
    lower, upper = map(to_fraction, pair)
    return floor(lower * _ONE), ceil(upper * _ONE)


def screen_constants():
    """The screen's brackets of pi, a, ln 2 and ln pi, or None.

    Each is (floor, ceiling) of the constant times 2^SCREEN_BITS, read
    exactly off the pairs the checks use at DEFAULT_PRECISION_BITS:
    pi_alpha for pi and a, mpi_log for ln 2 and ln pi.  pi_alpha is looked
    up at every call, never cached here.  None, so that the screen decides
    nothing, when pi or a is not a finite positive pair.
    """
    bits = DEFAULT_PRECISION_BITS
    pi, alpha = pi_alpha(bits)
    if not (certainly_positive(pi) and certainly_positive(alpha)):
        return None
    try:
        return tuple(map(_scaled, (pi, alpha, mpi_log(int_interval(2, bits), bits),
                                   mpi_log(pi, bits))))
    except ValueError:  # an infinite upper endpoint
        return None


def _alpha_sqrt(n: int, alpha) -> tuple[int, int, int]:
    """Bracket of a*sqrt(n), and the width a's own bracket carries into it."""
    a_lo, a_hi = alpha
    r = isqrt(n << 2 * SCREEN_BITS)
    return (a_lo * r >> SCREEN_BITS, -(-a_hi * (r + 1) >> SCREEN_BITS),
            ((a_hi - a_lo) * (r + 1) >> SCREEN_BITS) + 1)


def _log_bracket(v: int, ln2) -> tuple[int, int]:
    """Bracket of ln v for an integer v >= 1: 2^(b-1) <= v < 2^b."""
    b = v.bit_length()
    return (b - 1) * ln2[0], b * ln2[1]


def _width(carried: int, magnitude: int) -> int:
    """w: the constants' carried width plus (M + 1)*2^-WIDTH_BITS, rounded up."""
    return carried + ((magnitude + _ONE) >> WIDTH_BITS) + 1


def _exp_bracket(x_lo: int, x_hi: int) -> tuple[int, int]:
    """Bracket of e^x for x in [x_lo, x_hi], 0 <= x_lo <= x_hi, at 2^-SCREEN_BITS.

    Fixed-point Taylor sums (Brent and Zimmermann, Modern Computer
    Arithmetic, ch. 4): term k of the lower sum is the floor of term k-1
    times x_lo/k, so for x >= 0 every partial sum is below e^x, and term k
    of the upper sum the ceiling of term k-1 times x_hi/k, at least
    x^k/k!.  The sums stop at the first upper term t_k <= 1 unit, where
    k > x (x^k/k! >= 1 for k <= x), and the upper one adds the remainder
    sum_{j>k} x^j/j! <= t_k*x/(k+1-x), a geometric series of ratio
    x/(k+1) < 1.
    """
    lo = hi = lo_term = hi_term = _ONE
    k = 0
    while hi_term > 1:
        k += 1
        lo_term = (lo_term * x_lo >> SCREEN_BITS) // k
        hi_term = -((-hi_term * x_hi >> SCREEN_BITS) // k)
        lo += lo_term
        hi += hi_term
    return lo, hi - (-hi_term * x_hi // (((k + 1) << SCREEN_BITS) - x_hi))


def diagonal_bound_bracket(n: int, value: int, constants) -> tuple[int, int, int]:
    """(lo, hi, w) of diagonal_bound_check's gap a*sqrt(n) - ln p(n-1,n-1)."""
    _, alpha, ln2, _ = constants
    rhs_lo, rhs_hi, carried = _alpha_sqrt(n, alpha)
    lhs_lo, lhs_hi = _log_bracket(value, ln2)
    return rhs_lo - lhs_hi, rhs_hi - lhs_lo, _width(carried, rhs_hi + lhs_hi)


def subdiagonal_bound_bracket(n: int, value: int, constants) -> tuple[int, int, int]:
    """(lo, hi, w) of subdiagonal_bound_check's gap

    ln(n)/2 + a*sqrt(n) - ln p(n,n-1).
    """
    _, alpha, ln2, _ = constants
    rhs_lo, rhs_hi, carried = _alpha_sqrt(n, alpha)
    half_lo, half_hi = _log_bracket(n, ln2)
    rhs_lo += half_lo >> 1
    rhs_hi += -(-half_hi >> 1)
    lhs_lo, lhs_hi = _log_bracket(value, ln2)
    return rhs_lo - lhs_hi, rhs_hi - lhs_lo, _width(carried, rhs_hi + lhs_hi)


def growth_chain_bracket(n: int, constants) -> tuple[int, int, int]:
    """(lo, hi, w) of the smaller of growth_chain_check's two gaps,

    1 + pi/sqrt(6n) - sqrt(n)/(sqrt(n+1)-1) and e^x - 1 - pi/sqrt(6n),
    with x = a*sqrt(n)*(sqrt(1+1/n)-1) = a/(sqrt(n+1)+sqrt(n)).
    """
    (pi_lo, pi_hi), (a_lo, a_hi), *_ = constants
    r = isqrt(n << 2 * SCREEN_BITS)
    r1 = isqrt((n + 1) << 2 * SCREEN_BITS)
    r6 = isqrt(6 * n << 2 * SCREEN_BITS)
    mid_lo = _ONE + (pi_lo << SCREEN_BITS) // (r6 + 1)
    mid_hi = _ONE - (-pi_hi << SCREEN_BITS) // r6
    left_lo = (r << SCREEN_BITS) // (r1 + 1 - _ONE)
    left_hi = -((-(r + 1) << SCREEN_BITS) // (r1 - _ONE))
    exp_lo, exp_hi = _exp_bracket((a_lo << SCREEN_BITS) // (r1 + r + 2),
                                  -((-a_hi << SCREEN_BITS) // (r1 + r)))
    cancelled = -(-exp_hi * a_hi * (r + 1) >> 2 * SCREEN_BITS)  # e^x*a*sqrt(n)
    carried = pi_hi - pi_lo + ((a_hi - a_lo) * exp_hi >> SCREEN_BITS) + 1
    return (min(mid_lo - left_hi, exp_lo - mid_hi),
            min(mid_hi - left_lo, exp_hi - mid_lo),
            _width(carried, mid_hi + max(left_hi, exp_hi + cancelled)))


def partition_bound_bracket(n: int, pn: int, constants) -> tuple[int, int, int]:
    """(lo, hi, w) of partition_bound_check's gap

    log(pi/sqrt(6n)) + a*sqrt(n) - log p(n) = ln pi + a*sqrt(n) - ln(6n*p(n)^2)/2.
    """
    _, alpha, ln2, (lnpi_lo, lnpi_hi) = constants
    rhs_lo, rhs_hi, carried = _alpha_sqrt(n, alpha)
    lhs_lo, lhs_hi = _log_bracket(6 * n * pn * pn, ln2)
    return (lnpi_lo + rhs_lo - (-(-lhs_hi >> 1)), lnpi_hi + rhs_hi - (lhs_lo >> 1),
            _width(carried + lnpi_hi - lnpi_lo,
                   max(-lnpi_lo, lnpi_hi) + rhs_hi + lhs_hi))


def central_binomial_bracket(n: int, value: int, constants) -> tuple[int, int, int]:
    """(lo, hi, w) of central_binomial_check's gap 1 - C^2*n*pi/2^(2n+1).

    value = C is cut to its top SCREEN_BITS + 32 bits, C in [c, c+1]*2^u,
    so C^2*n*pi/2^(2n+1) is bracketed by shifted integers of fixed size.
    """
    (pi_lo, pi_hi), *_ = constants
    u = min(max(value.bit_length() - SCREEN_BITS - 32, 0), n)
    c = value >> u
    shift = 2 * n + 1 - 2 * u
    t_lo = c * c * n * pi_lo >> shift
    t_hi = -(-(c + 1) * (c + 1) * n * pi_hi >> shift)
    return (_ONE - t_hi, _ONE - t_lo,
            _width(t_hi * (pi_hi - pi_lo) // pi_lo + 1, _ONE + t_hi))
