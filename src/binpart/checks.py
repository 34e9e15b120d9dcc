"""Margin-checked verification of the upper-bound inequalities.

Two kinds of checks live here:

  * pure big-integer comparisons (row_bound_check, product_bound_check):
    no real arithmetic at all, so the outcome is exact by construction;
    product_bound_check decides eq. 9 for a whole row at once, one depth
    ladder per row, walking C(n,k) along the row;

  * certified real comparisons (everything involving pi, sqrt, exp, log):
    each check's kernel gaps(bits) encloses its gap on exact integers, as
    a pair (lo, hi) with lo <= g*2^bits <= hi, in units of 2^-bits.  pi
    and a = sqrt(2/3)*pi are read off intervals.pi_alpha(bits) at every
    call and scaled to integers by shifts; a square root is math.isqrt,
    ln is _ln and e^x _exp_bracket, fixed-point series that count the
    units each floor can lose.  `_certified` reads the sign and margin
    from lo and hi.  A claim is declared only when the gap exceeds the
    total enclosure error, with automatic precision escalation from
    DEFAULT_PRECISION_BITS (a check takes no start precision) and an
    explicit "inconclusive" outcome at the cap.  A pi or a whose pair has
    an infinite or NaN endpoint leaves every gap undecided.

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
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, compress, repeat
from math import isqrt
from operator import lt, mul, not_, sub

from .intervals import DEFAULT_PRECISION_BITS, decide_with_escalation, pi_alpha
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
    gaps(bits), which returns a tuple of integer pairs (lo, hi), one per
    gap g, with lo <= g*2^bits <= hi.  The rung is violated when any gap
    is certainly <= 0 (hi <= 0), even while another straddles zero, as
    that gap's true value is <= 0; otherwise it is undecided while any
    gap straddles zero (lo <= 0 < hi), and verified once every lo > 0.
    Returns the verdict (outcome, counterexample, margin, bits): the
    counterexample only when violated, bits the last rung evaluated, and
    the margin, only when verified, the least lo/2^bits, rounded to the
    nearest float (an int's true division rounds correctly).
    """
    def evaluate(bits):
        least = None
        for lo, hi in gaps(bits):
            if hi <= 0:
                return VIOLATED, counterexample, None, bits
            if least is None or lo < least:
                least = lo
        if least <= 0:
            return None
        return VERIFIED, None, least / (1 << bits), bits

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

    value is C(n, floor((n+3)/2)), 0 at n = 1.  The gap is
    1 - C^2*n*pi/2^(2n+1), with pi the only non-integer quantity.  Past
    bits + 32 bits, C is cut to its top bits, C in [c, c+1]*2^u, so that
    the product keeps a fixed size: (c+1)^2/c^2 < 1 + 2^-(bits+30) widens
    C^2*n*pi/2^(2n+1) < 1 by less than a unit.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    kn = (n + 3) // 2

    def gaps(bits):
        constants = _constants(pi_alpha(bits), bits)
        if constants is None:
            return _UNDECIDED
        u = max(value.bit_length() - bits - 32, 0)
        c = value >> u
        top = c + 1 if u else c
        t_lo, t_hi = _times(constants[0], c * c * n, top * top * n, 2 * n + 1 - 2 * u)
        one = 1 << bits
        return ((one - t_hi, one - t_lo),)

    return _certified(gaps, (n, kn))


def partition_bound_check(n: int, pn: int) -> tuple:
    """Certified check of the classical bound p(n) < pi/sqrt(6n) * e^(a*sqrt(n))

    with a = sqrt(2/3)*pi, compared in the log domain:
    ln pi + a*sqrt(n) - ln(6n*p(n)^2)/2 > 0.  pn is p(n).
    """
    if n < 1:
        raise ValueError("n must be >= 1")

    def gaps(bits):
        pairs = pi_alpha(bits)
        constants = _constants(pairs, bits)
        if constants is None:
            return _UNDECIDED
        (pi_lo, pi_hi), alpha = constants
        if pi_lo <= 0:
            # ln pi has no finite lower bound: a pi that may be <= 0 leaves
            # the gap undecided, and a pi <= 0, whose bound <= 0 < p(n),
            # makes it certainly negative
            return _UNDECIDED if pi_hi > 0 else _NEGATIVE
        ln_pi_lo, ln_pi_hi = _ln_pi(pairs[0], bits)
        rhs_lo, rhs_hi = _alpha_sqrt(alpha, n, bits)
        lhs_lo, lhs_hi = _ln(6 * n * pn * pn, 1, bits)
        return ((ln_pi_lo + rhs_lo - (-(-lhs_hi >> 1)),
                 ln_pi_hi + rhs_hi - (lhs_lo >> 1)),)

    return _certified(gaps, (n,))


def growth_chain_check(n: int) -> tuple:
    """Certified check of the two-sided chain, for n >= 3:

    sqrt(n)/(sqrt(n+1)-1)  <  1 + pi/sqrt(6n)  <  e^(a*sqrt(n)*(sqrt(1+1/n)-1)).

    The exponent is taken as a/(sqrt(n+1)+sqrt(n)), its exact equal.  The
    reported margin is the smaller certified gap of the two links.
    """
    if n < 3:
        raise ValueError("n must be >= 3")

    def gaps(bits):
        constants = _constants(pi_alpha(bits), bits)
        if constants is None:
            return _UNDECIDED
        pi, alpha = constants
        one = 1 << bits
        # r <= sqrt(n)*2^bits < r + 1, and so for n + 1 and 6n
        r, r1, r6 = (isqrt(m << 2 * bits) for m in (n, n + 1, 6 * n))
        left_lo, left_hi = _over((r, r + 1), r1 - one, r1 + 1 - one, bits)
        mid_lo, mid_hi = _over(pi, r6, r6 + 1, bits)
        x_lo, x_hi = _over(alpha, r1 + r, r1 + r + 2, bits)
        exp_lo, exp_hi = _exp_bracket(max(x_lo, 0), max(x_hi, 0), bits)
        if x_lo < 0:
            exp_lo = 0  # e^x > 0
        return ((one + mid_lo - left_hi, one + mid_hi - left_lo),
                (exp_lo - one - mid_hi, exp_hi - one - mid_lo))

    return _certified(gaps, (n,))


def diagonal_bound_check(n: int, value: int) -> tuple:
    """Certified check of p(n-1,n-1) < e^(a*sqrt(n)) for n >= 1.

    value is p(n-1,n-1); the gap is a*sqrt(n) - ln p(n-1,n-1).
    """
    if n < 1:
        raise ValueError("n must be >= 1")

    def gaps(bits):
        constants = _constants(pi_alpha(bits), bits)
        if constants is None:
            return _UNDECIDED
        rhs_lo, rhs_hi = _alpha_sqrt(constants[1], n, bits)
        lhs_lo, lhs_hi = _ln(value, 1, bits)
        return ((rhs_lo - lhs_hi, rhs_hi - lhs_lo),)

    return _certified(gaps, (n,))


def subdiagonal_bound_check(n: int, value: int) -> tuple:
    """Certified check of p(n,n-1) < sqrt(n) * e^(a*sqrt(n)) for n >= 1.

    value is p(n,n-1); the gap is a*sqrt(n) - ln(p(n,n-1)^2/n)/2, one ln
    per n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")

    def gaps(bits):
        constants = _constants(pi_alpha(bits), bits)
        if constants is None:
            return _UNDECIDED
        rhs_lo, rhs_hi = _alpha_sqrt(constants[1], n, bits)
        lhs_lo, lhs_hi = _ln(value * value, n, bits)
        return ((rhs_lo - (-(-lhs_hi >> 1)), rhs_hi - (lhs_lo >> 1)),)

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


# -- the integer kernel of prop1, prop2, lemma13, apostol and stirling ------
#
# Every value below is an integer in units of 2^-bits; a pair (lo, hi)
# brackets a real x as lo <= x*2^bits <= hi.  Each floor and ceiling
# rounds outward, and where a series floors term by term, the units its
# floors can lose are counted and added to hi.

LN_TABLE_BITS = 8  # T: _ln reduces by a table of ln(1 + i/2^T), i < 2^T
LN_GUARD_BITS = 32  # _ln works at 2^-(bits + LN_GUARD_BITS)

_UNDECIDED = ((-1, 1),)  # a gap that straddles zero at every rung
_NEGATIVE = ((-1, -1),)  # a gap certainly below zero


@lru_cache(maxsize=None)
def _constants(pairs, bits: int):
    """(pi, a), each (floor, ceiling) at 2^-bits, of pi_alpha(bits)'s pairs,
    which every kernel reads at every call: cached on the pairs' value, so
    a pi_alpha that changes its pairs is never read off a stale entry.
    None when an endpoint is infinite or NaN."""
    pi, alpha = (_fixed(pair, bits) for pair in pairs)
    return None if pi is None or alpha is None else (pi, alpha)


def _fixed(pair, bits: int):
    """(floor, ceiling) of a raw mpf endpoint pair times 2^bits, by shifts;
    None when an endpoint is infinite or NaN."""
    scaled = []
    for (sign, man, exp, _), ceiling in zip(pair, (False, True)):
        if not man and exp:  # mpmath's infinities and NaN: no mantissa
            return None
        value = -int(man) if sign else int(man)
        shift = exp + bits
        if shift >= 0:
            scaled.append(value << shift)
        else:
            scaled.append(-(-value >> -shift) if ceiling else value >> -shift)
    return tuple(scaled)


def _times(c, q_lo: int, q_hi: int, shift: int) -> tuple[int, int]:
    """(floor, ceiling) of c*q/2^shift over c in the pair c, of any sign,
    and q in [q_lo, q_hi], 0 <= q_lo."""
    c_lo, c_hi = c
    return (c_lo * (q_lo if c_lo >= 0 else q_hi) >> shift,
            -(-c_hi * (q_hi if c_hi >= 0 else q_lo) >> shift))


def _over(c, d_lo: int, d_hi: int, bits: int) -> tuple[int, int]:
    """(floor, ceiling) of c*2^bits/d over c in the pair c, of any sign,
    and d in [d_lo, d_hi], 0 < d_lo."""
    c_lo, c_hi = c
    return ((c_lo << bits) // (d_hi if c_lo >= 0 else d_lo),
            -((-c_hi << bits) // (d_lo if c_hi >= 0 else d_hi)))


def _alpha_sqrt(alpha, n: int, bits: int) -> tuple[int, int]:
    """a*sqrt(n) for a in the pair alpha: sqrt(n)*2^bits lies in [r, r + 1]."""
    r = isqrt(n << 2 * bits)
    return _times(alpha, r, r + 1, bits)


def _exp_bracket(x_lo: int, x_hi: int, bits: int) -> tuple[int, int]:
    """Bracket of e^x for x in [x_lo, x_hi], 0 <= x_lo <= x_hi, at 2^-bits.

    Fixed-point Taylor sums (Brent and Zimmermann, Modern Computer
    Arithmetic, ch. 4): term k of the lower sum is the floor of term k-1
    times x_lo/k, so for x >= 0 every partial sum is below e^x, and term k
    of the upper sum the ceiling of term k-1 times x_hi/k, at least
    x^k/k!.  The sums stop at the first upper term t_k <= 1 unit, where
    k > x (x^k/k! >= 1 for k <= x), and the upper one adds the remainder
    sum_{j>k} x^j/j! <= t_k*x/(k+1-x), a geometric series of ratio
    x/(k+1) < 1.
    """
    lo = hi = lo_term = hi_term = 1 << bits
    k = 0
    while hi_term > 1:
        k += 1
        lo_term = (lo_term * x_lo >> bits) // k
        hi_term = -((-hi_term * x_hi >> bits) // k)
        lo += lo_term
        hi += hi_term
    return lo, hi - (-hi_term * x_hi // (((k + 1) << bits) - x_hi))


def _atanh2(num: int, den: int, w: int) -> tuple[int, int]:
    """(lo, hi) around 2*atanh(z)*2^w = ln((1+z)/(1-z))*2^w, z = num/den <= 1/3.

    The series z * sum_{k<=K} z^(2k)/(2k+1) in fixed point by Horner's rule
    (Brent and Zimmermann, Modern Computer Arithmetic, ch. 4), on
    Z = floor(z*2^w), Z2 = floor(Z^2/2^w) and C_k = floor(2^w/(2k+1)):
    acc = C_k + floor(acc*Z2/2^w) from k = K down to 0, then
    S = floor(acc*Z/2^w).  Every floor rounds down and every term is
    positive, so S is a lower bound.  The units lost, with z <= 1/3: Z2
    falls short of z^2*2^w by less than 2z + 1 <= 5/3, so acc falls short
    of its exact value by less than 2 + (5/3)*(3/8) plus 1/9 of the
    previous shortfall, so by less than 3; S then loses less than
    1 + 9/8 + 3*z < 4; and K, the least with z^(2K+3)*2^w <= 1 for
    z < 2^-e, e = w - (bit length of Z), leaves a tail below 1 unit.
    So 2*atanh(z)*2^w lies in [2S, 2S + 10].
    """
    z = (num << w) // den
    e = w - z.bit_length()
    square = z * z >> w
    acc = 0
    for coef in _reciprocals(w, max(0, (w - e - 1) // (2 * e))):
        acc = coef + (acc * square >> w)
    total = acc * z >> w
    return 2 * total, 2 * total + 10


@lru_cache(maxsize=None)
def _reciprocals(w: int, terms: int) -> tuple[int, ...]:
    """floor(2^w/(2k+1)) for k = terms down to 0, _atanh2's Horner order."""
    return tuple((1 << w) // (2 * k + 1) for k in range(terms, -1, -1))


@lru_cache(maxsize=None)
def _ln_constants(w: int):
    """ln 2 and the reduction table ln(1 + i/2^T), i < 2^T, as (lo, hi) at
    2^-w.  Entry i + 1 is entry i plus
    ln((2^T+i+1)/(2^T+i)) = 2*atanh(1/(2^(T+1)+2i+1)), so each entry is a
    short series and its pair sums the pairs of its steps."""
    steps = [_atanh2(1, (2 << LN_TABLE_BITS) + 2 * i + 1, w)
             for i in range((1 << LN_TABLE_BITS) - 1)]
    table = list(zip(accumulate((lo for lo, _ in steps), initial=0),
                     accumulate((hi for _, hi in steps), initial=0)))
    return _atanh2(1, 3, w), table


def _ln(num: int, den: int, bits: int) -> tuple[int, int]:
    """(lo, hi) with lo <= ln(num/den)*2^bits <= hi, for integers num, den >= 1.

    At w = bits + LN_GUARD_BITS, q = floor(num/den*2^s) has w + 3 bits or
    more, so num/den lies in [q, q + 1)*2^-s, and ln(q + 1) - ln q < 1/q
    adds less than a unit at 2^-w.  With c the top T + 1 bits of q, and
    d = c*2^m <= q for m = (bit length of q) - T - 1,

        ln(q*2^-s) = (m + T - s)*ln 2 + ln(c/2^T) + 2*atanh((q - d)/(q + d)),

    ln 2 and ln(c/2^T) from _ln_constants, and the last term an _atanh2
    series in z < 2^-(T+1), which gains 2T + 2 bits a term.  The result
    sums the pairs of the three terms and rounds them outward to 2^-bits.
    """
    w = bits + LN_GUARD_BITS
    ln2, table = _ln_constants(w)
    s = w + 3 - num.bit_length() + den.bit_length()
    q = (num << s) // den if s >= 0 else (num >> -s) // den
    m = q.bit_length() - 1 - LN_TABLE_BITS
    c = q >> m
    d = c << m
    b = m + LN_TABLE_BITS - s
    z_lo, z_hi = _atanh2(q - d, q + d, w)
    t_lo, t_hi = table[c - (1 << LN_TABLE_BITS)]
    two_lo, two_hi = ln2 if b >= 0 else ln2[::-1]
    return (b * two_lo + t_lo + z_lo >> LN_GUARD_BITS,
            -(-(b * two_hi + t_hi + z_hi + 1) >> LN_GUARD_BITS))


@lru_cache(maxsize=None)
def _ln_pi(pi, bits: int) -> tuple[int, int]:
    """(lo, hi) of ln pi at 2^-bits off pi's raw endpoint pair, both
    endpoints positive.  Cached on the pair's value, so a pi_alpha that
    changes its pairs is never read off a stale entry."""
    (_, man_lo, exp_lo, _), (_, man_hi, exp_hi, _) = pi
    return (_ln(int(man_lo) << max(exp_lo, 0), 1 << max(-exp_lo, 0), bits)[0],
            _ln(int(man_hi) << max(exp_hi, 0), 1 << max(-exp_hi, 0), bits)[1])
