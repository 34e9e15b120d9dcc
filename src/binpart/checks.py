"""Margin-checked verification of the upper-bound inequalities.

This module holds the claims alone, of two kinds; the certified ones
rest on the integer kernel of `intervals`.

  * exact checks, whose outcome is exact by construction:
    row_bound_check compares big integers alone; product_bound_check
    decides eq. 9 for a whole row at once, one depth ladder per row,
    walking half of C(n,k) along the row and mirroring the rest.  Each
    open k carries a binary64 product that encloses its ratio of the two
    sides within a proven relative error bound eps, and each rung
    extends, decides and keeps the open k in one pass, in row order.
    The float decides a k that lies more than 2 eps from 1; a k in the
    band between, or whose p(n,k)/C(n,k) is not a finite float, is
    decided on the exact integer sides, and so is the margin, from the
    few k whose floats lie near the row's largest;

  * certified real comparisons (everything involving pi, sqrt, exp, log),
    each over a range of n on one precision ladder (_certified), from
    DEFAULT_PRECISION_BITS up, with an explicit "inconclusive" at the
    cap.  At each rung, pi and a = sqrt(2/3)*pi are read once off
    intervals.pi_alpha(bits), as integer pairs at 2^-bits, and the check
    encloses the gap g at each n still open as a pair (lo, hi),
    lo <= g*2^bits <= hi: a square root is math.isqrt, ln is
    intervals.ln and e^x (for 0 <= x <= 1) intervals.exp_bracket.

The row checks take their row.  A certified check takes a range of n and
the integers it bounds, in order: p(n-1,n-1) or p(n,n-1), p(n), or
C(n, floor((n+3)/2)), which the stirling sweep walks along n; lemma13's
growth_chain_check takes the range alone.  No check reads a table or a
triangle, or computes a binomial from scratch.  row_bound_check returns
a verdict (outcome, counterexample, margin, bits), product_bound_check
its row's fold (checked, outcome, counterexample, margin) and a
certified check its range's fold (checked, outcome, counterexample,
margin, bits).  The margin is a unitless slack: the relative slack
(rhs-lhs)/rhs of an integer comparison, the certified lower bound of the
gap of a real one.  "verified" always means the strict inequality holds
with positive certified margin.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import compress, repeat
from math import isqrt
from operator import lt, truediv

from .intervals import (DEFAULT_PRECISION_BITS, alpha_sqrt, decide_with_escalation,
                        exp_bracket, ln, over, pi_alpha, times)
from .qseries import DEFAULT_DEPTH_CAP

VERIFIED = "verified"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"


def _relative_slack(lhs: int, rhs: int) -> float:
    """(rhs - lhs)/rhs for exact integers, safe for astronomically large values."""
    return (rhs - lhs) / rhs


def _certified(kernel, ns: range, values, counterexample, least_n: int) -> tuple:
    """Decide a gap positive at every n of ns, in order, on one ladder.

    ns is a nonempty range of consecutive n >= least_n and values, read
    lazily, holds one value per n (else ValueError).  At each rung,
    kernel(bits, pi, a), with pi and a intervals.pi_alpha(bits)'s integer
    pairs at 2^-bits, returns the gap function (n, value) -> (lo, hi),
    lo <= g*2^bits <= hi, or None when no gap can be decided at the rung
    (apostol's kernel, when pi is not certainly positive).
    n is violated when hi <= 0, undecided while lo <= 0 < hi and verified
    once lo > 0.  The first n violated ends the rung, and no later n is
    evaluated or read; only the undecided n before it go on, each with
    the least margin of the n verified before it.  Returns the step
    (checked, outcome, counterexample, margin, bits) that one ladder per
    n, folded in order (sweeps._fold), would give, margin the least
    lo/2^bits (an int's true division rounds correctly), each n's at its
    own rung.
    """
    if not ns or ns.step != 1 or ns[0] < least_n:
        raise ValueError(f"need a range of n >= {least_n}")
    # (n, value, the least margin before n); strict: one value per n
    pending = zip(ns, values, repeat(None, len(ns)), strict=True)
    stop = least = None  # the first n violated, the least margin before it

    def evaluate(bits):
        nonlocal pending, stop, least
        gap = kernel(bits, *pi_alpha(bits))
        if gap is None:
            return None
        scale, undecided, running = 1 << bits, [], None
        for n, value, before in pending:
            lo, hi = gap(n, value)
            if hi <= 0:
                stop, least = n, _least(before, running, scale)
                break
            if lo <= 0:
                undecided.append((n, value, _least(before, running, scale)))
            elif running is None or lo < running:
                running = lo  # the least lo verified at this rung so far
        else:
            least = _least(least, running, scale)
        pending = undecided
        return None if undecided else bits

    _, bits = decide_with_escalation(evaluate, DEFAULT_PRECISION_BITS)
    first = next(iter(pending), None)  # the first n open at the cap
    if first is not None:
        return first[0] - ns[0] + 1, INCONCLUSIVE, None, first[2], bits
    if stop is None:
        return len(ns), VERIFIED, None, least, bits
    return stop - ns[0] + 1, VIOLATED, counterexample(stop), least, bits


def _least(margin, lo, scale: int):
    """The lesser of margin and lo/scale, either None for none."""
    if lo is None:
        return margin
    return lo / scale if margin is None else min(margin, lo / scale)


def _alone(n: int) -> tuple:
    return (n,)


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


def central_binomial_check(ns: range, values) -> tuple:
    """Certified check of C(n, floor((n+3)/2)) < 2^n / sqrt(pi*n/2), n >= 1.

    values holds C(n, floor((n+3)/2)) for each n of ns, 0 at n = 1.  The
    gap is 1 - C^2*n*pi/2^(2n+1), with pi the only non-integer quantity.
    Past bits + 32 bits, C is cut to its top bits, C in [c, c+1]*2^u, so
    that the product keeps a fixed size: (c+1)^2/c^2 < 1 + 2^-(bits+30)
    widens C^2*n*pi/2^(2n+1) < 1 by less than a unit.
    """
    def kernel(bits, pi, alpha):
        def gap(n, value):
            u = max(value.bit_length() - bits - 32, 0)
            c = value >> u
            top = c + 1 if u else c
            t_lo, t_hi = times(pi, c * c * n, top * top * n, 2 * n + 1 - 2 * u)
            return (1 << bits) - t_hi, (1 << bits) - t_lo
        return gap

    return _certified(kernel, ns, values, lambda n: (n, (n + 3) // 2), 1)


def partition_bound_check(ns: range, values) -> tuple:
    """Certified check of the classical bound p(n) < pi/sqrt(6n) * e^(a*sqrt(n))

    for n >= 1, with a = sqrt(2/3)*pi, compared in the log domain:
    ln pi + a*sqrt(n) - ln(6n*p(n)^2)/2 > 0.  values holds p(n) for each
    n of ns.
    """
    def kernel(bits, pi, alpha):
        if pi[0] <= 0:
            # no finite ln pi: a pi that may be <= 0 leaves every gap
            # undecided, and a pi <= 0 (bound <= 0 < p(n)) makes it negative
            return None if pi[1] > 0 else lambda n, pn: (-1, -1)
        ln_pi_lo = ln(pi[0], 1 << bits, bits)[0]
        ln_pi_hi = ln(pi[1], 1 << bits, bits)[1]

        def gap(n, pn):
            rhs_lo, rhs_hi = alpha_sqrt(alpha, n, bits)
            lhs_lo, lhs_hi = ln(6 * n * pn * pn, 1, bits)
            return (ln_pi_lo + rhs_lo - (-(-lhs_hi >> 1)),
                    ln_pi_hi + rhs_hi - (lhs_lo >> 1))
        return gap

    return _certified(kernel, ns, values, _alone, 1)


def growth_chain_check(ns: range) -> tuple:
    """Certified check of the two-sided chain, for n >= 3:

    sqrt(n)/(sqrt(n+1)-1)  <  1 + pi/sqrt(6n)  <  e^(a*sqrt(n)*(sqrt(1+1/n)-1)).

    The gap decided, and so the margin, is the lesser of the two links'
    (_chain_links).  Within a rung, n + 1's root is reused at the next n.
    """
    def kernel(bits, pi, alpha):
        last = root = None  # the n before, and isqrt((n + 1)*4^bits) there

        def gap(n, _):
            nonlocal last, root
            r = root if n - 1 == last else isqrt(n << 2 * bits)
            last, root = n, isqrt(n + 1 << 2 * bits)
            (l_lo, l_hi), (r_lo, r_hi) = _chain_links(pi, alpha, n, r, root, bits)
            return (l_lo if l_lo < r_lo else r_lo), (l_hi if l_hi < r_hi else r_hi)
        return gap

    return _certified(kernel, ns, repeat(None, len(ns)), _alone, 3)


def _chain_links(pi, alpha, n: int, r: int, r1: int, bits: int):
    """lemma13's two gaps at n, r = isqrt(n*4^bits) and r1 n + 1's; the
    exponent is taken as a/(sqrt(n+1)+sqrt(n)), its exact equal."""
    one = 1 << bits
    r6 = isqrt(6 * n << 2 * bits)
    left_lo, left_hi = over((r, r + 1), r1 - one, r1 + 1 - one, bits)
    mid_lo, mid_hi = over(pi, r6, r6 + 1, bits)
    x_lo, x_hi = over(alpha, r1 + r, r1 + r + 2, bits)
    exp_lo, exp_hi = exp_bracket(max(x_lo, 0), max(x_hi, 0), bits)
    if x_lo < 0:
        exp_lo = 0  # e^x > 0
    return ((one + mid_lo - left_hi, one + mid_hi - left_lo),
            (exp_lo - one - mid_hi, exp_hi - one - mid_lo))


def diagonal_bound_check(ns: range, values) -> tuple:
    """Certified check of p(n-1,n-1) < e^(a*sqrt(n)) for n >= 1.

    values holds p(n-1,n-1) for each n of ns; the gap is
    a*sqrt(n) - ln p(n-1,n-1).
    """
    def kernel(bits, pi, alpha):
        def gap(n, value):
            rhs_lo, rhs_hi = alpha_sqrt(alpha, n, bits)
            lhs_lo, lhs_hi = ln(value, 1, bits)
            return rhs_lo - lhs_hi, rhs_hi - lhs_lo
        return gap

    return _certified(kernel, ns, values, _alone, 1)


def subdiagonal_bound_check(ns: range, values) -> tuple:
    """Certified check of p(n,n-1) < sqrt(n) * e^(a*sqrt(n)) for n >= 1.

    values holds p(n,n-1) for each n of ns; the gap is
    a*sqrt(n) - ln(p(n,n-1)^2/n)/2, one ln per n.
    """
    def kernel(bits, pi, alpha):
        def gap(n, value):
            rhs_lo, rhs_hi = alpha_sqrt(alpha, n, bits)
            lhs_lo, lhs_hi = ln(value * value, n, bits)
            return rhs_lo - (-(-lhs_hi >> 1)), rhs_hi - (lhs_lo >> 1)
        return gap

    return _certified(kernel, ns, values, _alone, 1)


def product_bound_check(n: int, row: tuple[int, ...]) -> tuple:
    """Check of p(n,k) < C(n,k) * prod_{j>=1} 1/(1-(k/n)^j), k = 1..n-1.

    row is row n of the triangle.  The infinite product is lower-bounded
    by its partial products (every omitted factor exceeds 1), so for each
    k it suffices that, at some depth L,

        r = p(n,k)/C(n,k) * prod_{j<=L} (1 - (k/n)^j)  <  1,

    that is lhs < rhs for the exact sides of _product_sides.  One
    decide_with_escalation ladder runs for the whole row and deepens L
    (4, 8, 16, ...) up to DEFAULT_DEPTH_CAP, read at each call.  Each open
    k carries a binary64 enclosure of r,

        r^ = fl(p/C) * fl(1 - q_1) * ... * fl(1 - q_L),

    q_1 = fl(k/n) and q_j = fl(q_{j-1} * q_1), multiplied left to right
    and extended k by k from the depth already built.  With u = 2^-53,
    L <= 2^10 and n < 2^30, and while no step of r^ underflows,

        |r^ - r| <= eps(n, L) * r,   eps = 1.01 * u * (2L(n+1) + 1).

    Proof (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3;
    every step rounds to nearest, fl(x op y) = (x op y)(1 + d) + e with
    |d| <= u, |e| <= 2^-1075 on underflow, d*e = 0).  An int's true
    division is correctly rounded, so fl(p/C) and q_1 = q(1 + d), q = k/n,
    each take one factor 1 + d.  Since q_1 <= 1 - u, q_1(1 + u) < 1, so
    q_j = q^j (1 + t) + e_j with |t| <= gamma_{2j-1} = (2j-1)u/(1-(2j-1)u)
    and |e_j| <= j*2^-1075, underflow included (q_j = 0 at deep j and
    small q).  As 1 - q^j >= j*q^(j-1)*(1 - q), q^j/(1 - q^j) <= (n-1)/j,
    and 1 - q^j >= 1/n, so 1 - q_j = (1 - q^j)(1 + s) with
    |s| <= (n-1)/j * gamma_{2j-1} + n*j*2^-1075 < 2(n-1)u(1 + 2^-40).
    The subtraction and the product each add one more 1 + d.  So r^/r is
    a product of 2L + 1 factors 1 + d and L factors 1 + s, whose |d| and
    |s| sum to S < u(2L(n+1) + 1) <= 2^-11, so 1 - S <= r^/r <= e^S and
    |r^/r - 1| < 1.01 S.

    At depth L a k clears when r^ < 1 - 2 eps and stays open when
    r^ > 1 + 2 eps: then no step underflowed (each step's factor is at
    most 1, and rounding is monotone, so every step is at least r^), and
    r >= r^/(1 + eps) > 1 (twice eps also covers the rounding of the two
    thresholds).  A cleared k has r <= r^/(1 - eps) < 1 when no
    step underflowed; when one did, the steps before it keep the bound
    and the first one to underflow lies below 2^-1022, so r, at most that
    step's exact value, is below 2^-1021.  Every other k, in the band
    between, and every k whose p/C is not a finite float (carried as
    NaN, which lies on neither side), is decided on its exact sides.
    Each rung is one pass over the open k in row order: it extends the
    k's q_j and r^ to the rung's depth, decides the k, and puts it among
    the rung's cleared k or the next rung's open k, so both stay in row
    order; a k kept open goes on with its r^.  C(n,k) is walked along
    the first half of the row and mirrored, C(n,n-k) = C(n,k).

    Returns the row's fold (checked, outcome, counterexample, margin).
    The row is verified when every k clears; otherwise it is inconclusive
    (never asserted false) at the first k still open at the cap, and
    the counterexample is that (n, k).  checked counts the k decided,
    k = 1, 2, ... up to the open one included, and margin is the least
    relative slack (rhs-lhs)/rhs over the k before it, each at the first
    depth that clears it (None when there is none).  The least slack is
    at the largest r, and an int's true division is correctly rounded
    and so monotone, so it is held by the k that tie for the largest
    float lhs/rhs.  Each of those has r^ within 4 eps of the largest r^
    (eps at the deepest rung that cleared a k, r^ of an exactly cleared
    k its float lhs/rhs): the k with the largest r is never one whose
    steps underflowed unless every r is below 2^-1020, and then 4 eps
    exceeds every r^.
    Only the k that near are taken again on exact sides (_product_sides),
    and of them those with the largest float lhs/rhs give the least
    exact slack.
    """
    if n < 2:
        raise ValueError("need n >= 2: the row has no 1 <= k <= n-1")
    if len(row) != n + 1:
        raise ValueError(f"row {n} has {n + 1} entries, got {len(row)}")
    half = []  # C(n,k) for k <= n/2, from C(n,k-1); C(n,n-k) = C(n,k)
    c = 1
    for k in range(1, n // 2 + 1):
        c = c * (n - k + 1) // k
        half.append(c)
    binomials = half + half[:n - 1 - len(half)][::-1]

    def epsilon(depth):
        return 1.01 * 2.0**-53 * (2 * depth * (n + 1) + 1)

    try:
        ratios = list(map(truediv, row[1:n], binomials))
    except OverflowError:  # some p/C past the float range
        ratios = [p / c if p >> 1023 < c else float("nan")
                  for p, c in zip(row[1:n], binomials)]
    # the open k in row order: (k, q_1 = fl(k/n), q_j at the depth built, r^)
    still_open = list(zip(range(1, n), map(truediv, range(1, n), repeat(n)),
                          repeat(1.0), ratios))
    cleared_by_rung = []  # (depth, the k it clears, their r^)
    built = 0  # the depth q_j and r^ are built to

    def evaluate(depth):
        # the ladder's depths only grow, so extend the previous rung's products
        nonlocal still_open, built
        steps, built = range(built, depth), depth
        low, high = 1 - 2 * epsilon(depth), 1 + 2 * epsilon(depth)
        cleared_k, cleared_r, next_open = [], [], []
        for k, q, qj, r in still_open:
            for _ in steps:
                qj *= q
                r *= 1.0 - qj
            if not (r < low or r > high):  # in the band, or NaN
                lhs, rhs = _product_sides(n, k, row[k], binomials[k - 1], depth)
                if lhs < rhs:
                    cleared_k.append(k)
                    cleared_r.append(lhs / rhs)
                    continue
            if r < low:
                cleared_k.append(k)
                cleared_r.append(r)
            else:
                next_open.append((k, q, qj, r))
        if cleared_k:
            cleared_by_rung.append((depth, cleared_k, cleared_r))
        still_open = next_open
        return None if still_open else depth

    decide_with_escalation(evaluate, 4, DEFAULT_DEPTH_CAP)
    first = still_open[0][0] if still_open else n
    # each rung's cleared k and r^, cut to the k before the first open one
    before = [(depth, cleared_k[:cut], ratios[:cut])
              for depth, cleared_k, ratios in cleared_by_rung
              if (cut := bisect_left(cleared_k, first))]
    margin = None
    if before:
        near = max(max(ratios) for _, _, ratios in before) - 4 * epsilon(before[-1][0])
        sides = [_product_sides(n, k, row[k], binomials[k - 1], depth)
                 for depth, cleared_k, ratios in before
                 for k in compress(cleared_k, map(lt, repeat(near), ratios))]
        largest = max(lhs / rhs for lhs, rhs in sides)
        margin = min(_relative_slack(lhs, rhs)
                     for lhs, rhs in sides if lhs / rhs == largest)
    if not still_open:
        return n - 1, VERIFIED, None, margin
    return first, INCONCLUSIVE, (n, first), margin


def _product_sides(n: int, k: int, p: int, c: int, depth: int) -> tuple[int, int]:
    """The two sides of eq. 9 at (n, k) and one depth, p = p(n,k) and
    c = C(n,k): (p * prod_{j<=depth} (n^j - k^j), c * prod_{j<=depth} n^j)."""
    for j in range(1, depth + 1):
        p *= n**j - k**j
        c *= n**j
    return p, c
