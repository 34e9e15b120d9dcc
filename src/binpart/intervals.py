"""Certified real arithmetic for inequality decisions.

Every real-valued decision is made on outward-rounded enclosures.  This
module owns the integer kernel (below): times, over, alpha_sqrt, ln and
exp_bracket enclose a real x as an integer pair (lo, hi) with
lo <= x*2^bits <= hi.  The certified checks of `checks` enclose their
gaps on it, with pi and a = sqrt(2/3)*pi read off pi_alpha as integer
pairs at 2^-bits, and `cli` decides mu's digit limit on ln.
The Rademacher sum of `partitions` and the bounds of `lie` call mpmath's
`libmpi` interval functions (the ones `iv` itself calls) directly at an
explicit precision, and `qseries` runs `iv` inside working_precision;
there an enclosure is its endpoint pair (lower, upper) of raw mpf values
from first operation to verdict: int_interval enters an integer, and a
finished pair is read by to_fraction, an endpoint's exact value, and
width, upper - lower as a float.  None of them reads the process-global
`iv.prec`; pi_alpha alone sets it, inside its own working_precision(bits).

mpmath is imported where it is called: inside each function here and in
`partitions`, `qseries` and `lie` that calls it, never at module level.
So importing binpart loads no mpmath, and neither do the commands on
exact integers: compute pnk and pk, compute p below cli.P_SERIES_FROM,
table, peak, verify of thm2, thm3, lemma-links, lemma-rechts, lemma-gr,
eq9 and genfun, and a mu refused for its output's length.  On the
certified checks' path, pi_alpha is the one function that loads it.  The
same rule holds for `fractions` and `decimal`: to_fraction and
`cli.cmd_product` import Fraction, and `cli._int_str` imports decimal
only for an int longer than cli._LONG_INT_BITS, so importing binpart
loads neither, and of the commands only product, mu and the printing of
such ints do.

decide_with_escalation is the one ladder for every verdict that can end
inconclusive.  The certified checks climb precision, DEFAULT_PRECISION_BITS
doubling to DEFAULT_PRECISION_CAP_BITS, one ladder per sweep that
decides every n of the range still open at each rung; the eq. 9 product
check climbs its truncation depth, 4 doubling to 256, one ladder per row
that decides every k of the row still open at each depth;
`qseries.enclose_euler_product` its truncation point ell, 8 doubling to
256; and `partitions.rademacher_partition_number` the guard bits of its
series terms, 16 doubling to 256.  The depth and ell ladders resume, each rung
extending the products or the walk of the rung below at one precision;
the precision and guard-bit ladders restart, as each rung changes precision.

Note: mpmath's interval context precision is process-global, so the
working_precision switches in pi_alpha and `qseries` are not thread-safe.
Everything in this package runs checks sequentially; callers
parallelizing sweeps should use processes, not threads.
"""

from __future__ import annotations

from collections.abc import Callable
from contextlib import contextmanager
from functools import lru_cache
from itertools import accumulate
from math import factorial, isqrt

DEFAULT_PRECISION_BITS = 128
DEFAULT_PRECISION_CAP_BITS = 4096


@contextmanager
def working_precision(bits: int):
    """Temporarily set the interval context precision."""
    from mpmath import iv

    old = iv.prec
    iv.prec = bits
    try:
        yield
    finally:
        iv.prec = old


def int_interval(x: int, bits: int):
    """Endpoints of the integer x rounded outward to bits, as iv.mpf(x) gives."""
    from mpmath.libmp import from_int, round_ceiling, round_floor

    return from_int(x, bits, round_floor), from_int(x, bits, round_ceiling)


@lru_cache(maxsize=None)
def pi_alpha(bits: int):
    """Integer pairs of pi and the growth constant a = sqrt(2/3)*pi at 2^-bits.

    Returns ((pi_lo, pi_hi), (a_lo, a_hi)) with lo <= x*2^bits <= hi: each
    value is enclosed in `iv` at bits, and its lower end floored and its
    upper end ceiled at 2^-bits.  Keyed on the escalation rung, so the
    cache holds one entry per rung ever used (a handful: the ladder
    doubles from 128 bits to the cap).
    """
    from mpmath import iv
    from mpmath.libmp import mpf_shift, round_ceiling, round_floor, to_int

    with working_precision(bits):
        pi = +iv.pi
        alpha = iv.sqrt(iv.mpf(2) / iv.mpf(3)) * pi
    return tuple((to_int(mpf_shift(lo, bits), round_floor),
                  to_int(mpf_shift(hi, bits), round_ceiling))
                 for lo, hi in (pi._mpi_, alpha._mpi_))


def to_fraction(raw) -> Fraction:
    """Exact value of a raw mpf tuple (sign, man, exp, bc) as a Fraction."""
    from fractions import Fraction

    sign, man, exp, _ = raw
    man = int(man)
    if man == 0 and exp != 0:
        raise ValueError("non-finite value")
    value = Fraction(man) * Fraction(2) ** exp
    return -value if sign else value


def width(pair) -> float:
    """upper - lower of an endpoint pair, rounded to nearest at 53 bits."""
    from mpmath.libmp import mpf_sub, round_nearest, to_float

    lo, hi = pair
    return to_float(mpf_sub(hi, lo, 53, round_nearest))


def decide_with_escalation(
    evaluate: Callable[[int], object],
    start_bits: int,
    cap_bits: int | None = None,
) -> tuple[object, int]:
    """Run a certified evaluation, doubling its level while undecided.

    `evaluate(level)` returns None while undecided and any other value,
    falsy ones such as 0.0 included, once decided.  The first level is
    min(start_bits, cap), and each next one doubles, clamped to the cap
    (DEFAULT_PRECISION_CAP_BITS when cap_bits is None).
    Returns (result, level used); result None means the cap was reached.
    """
    cap = DEFAULT_PRECISION_CAP_BITS if cap_bits is None else cap_bits
    level = min(start_bits, cap)
    while True:
        result = evaluate(level)
        if result is not None:
            return result, level
        if level >= cap:
            return None, level
        level = min(2 * level, cap)


# -- the integer kernel of the certified checks and of mu's digit limit ----
#
# Every value below is an integer in units of 2^-bits; a pair (lo, hi)
# brackets a real x as lo <= x*2^bits <= hi.  Each floor and ceiling
# rounds outward, and where a series floors term by term, the units its
# floors can lose are counted and added to hi.

LN_TABLE_BITS = 8  # T: ln reduces by a table of ln(1 + i/2^T), i < 2^T
LN_GUARD_BITS = 32  # ln works at 2^-(bits + LN_GUARD_BITS)
EXP_TABLE_BITS = 8  # T: exp_bracket reduces by a table of e^(i/2^T), i <= 2^T
EXP_GUARD_BITS = 32  # exp_bracket works at 2^-(bits + EXP_GUARD_BITS)


def times(c, q_lo: int, q_hi: int, shift: int) -> tuple[int, int]:
    """(floor, ceiling) of c*q/2^shift over c in the pair c, of any sign,
    and q in [q_lo, q_hi], 0 <= q_lo."""
    c_lo, c_hi = c
    return (c_lo * (q_lo if c_lo >= 0 else q_hi) >> shift,
            -(-c_hi * (q_hi if c_hi >= 0 else q_lo) >> shift))


def over(c, d_lo: int, d_hi: int, bits: int) -> tuple[int, int]:
    """(floor, ceiling) of c*2^bits/d over c in the pair c, of any sign,
    and d in [d_lo, d_hi], 0 < d_lo."""
    c_lo, c_hi = c
    return ((c_lo << bits) // (d_hi if c_lo >= 0 else d_lo),
            -((-c_hi << bits) // (d_lo if c_hi >= 0 else d_hi)))


def alpha_sqrt(alpha, n: int, bits: int) -> tuple[int, int]:
    """a*sqrt(n) for a in the pair alpha: sqrt(n)*2^bits lies in [r, r + 1]."""
    r = isqrt(n << 2 * bits)
    return times(alpha, r, r + 1, bits)


def exp_bracket(x_lo: int, x_hi: int, bits: int) -> tuple[int, int]:
    """Bracket of e^x for x in [x_lo, x_hi], 0 <= x_lo <= x_hi <= 2^bits,
    at 2^-bits; ValueError for x_hi past 2^bits (x > 1), a domain that
    lemma13's exponents, below 0.69 for n >= 3, never leave.

    At w = bits + EXP_GUARD_BITS, a = x_lo*2^(w-bits) and
    b = x_hi*2^(w-bits) in units of 2^-w, so 0 <= a <= b <= 2^w.  The
    lower end is _exp_point(a)'s; the upper end is e^a's upper end times
    e^(b - a)'s, rounded up, as e^b = e^a * e^(b-a), where a width b - a
    of a few units at 2^-bits takes _exp_point's closed form.  Both are
    then rounded outward to 2^-bits.

    Units lost at 2^-w: each _exp_point pair is within 2^12 units of the
    truth, so the upper end is within 2^12*(e + e) + 2 < 2^15 (the
    product of two pairs, each below e*2^w; with the width's closed form,
    within a unit, 2^12*(1 + 2^-(w/2)) + e + 1 < 2^13).  So both ends are
    within 2^15 units of the truth at 2^-w, 2^-17 units at 2^-bits at
    EXP_GUARD_BITS = 32, and after the last rounding each end lies less
    than 1 + 2^-17 units from its exact value at 2^-bits.
    """
    if x_hi > 1 << bits:
        raise ValueError("exp_bracket takes x <= 1")
    w = bits + EXP_GUARD_BITS
    a = x_lo << EXP_GUARD_BITS
    lo, hi = _exp_point(a, w)
    hi = -(-hi * _exp_point((x_hi << EXP_GUARD_BITS) - a, w)[1] >> w)
    return lo >> EXP_GUARD_BITS, -(-hi >> EXP_GUARD_BITS)


def _exp_point(x: int, w: int) -> tuple[int, int]:
    """(lo, hi) around e^(x/2^w)*2^w for 0 <= x <= 2^w.

    Below 2^(w/2), as the width of lemma13's argument is, the closed
    (2^w + x, 2^w + x + 1), within a unit: with delta = x/2^w,
    1 + delta <= e^delta < 1 + delta + delta^2 and delta^2 < 2^-w.
    Otherwise entry i = floor(x/2^(w-T)) of the table of _exp_constants
    times e^r, r = x - i*2^(w-T) < 2^(w-T), from _exp_series, each
    product rounded outward.  Units lost at 2^-w: the entry is within
    2088 units of e^(i/2^T)*2^w and S within 2 of e^r*2^w, with
    e^r < 1.004 and e^(i/2^T) <= e, so either end is within
    2088*1.004 + 2*e + 2*2088/2^w + 1 < 2^12 units of the truth.
    """
    if not x >> w // 2:
        return (1 << w) + x, (1 << w) + x + 1
    m = w - EXP_TABLE_BITS
    table, coefficients, terms = _exp_constants(w)
    t_lo, t_hi = table[x >> m]
    series = _exp_series(x & ((1 << m) - 1), w, coefficients, terms)
    return t_lo * series >> w, -(-t_hi * (series + 2) >> w)


def _exp_series(r: int, w: int, coefficients, terms) -> int:
    """S with S <= e^(r/2^w)*2^w < S + 2, for 0 <= r <= 2^(w-T), on
    _exp_constants(w)'s coefficients and term counts.

    Horner's rule on C_k = floor(2^w/k!), as _atanh2 does:
    acc = C_k + floor(acc*r/2^w) from k = K down to 0, every floor
    rounding down and every term positive, so S = acc <= e^rho*2^w,
    rho = r/2^w <= 2^-T.  The units lost: acc at k >= 1 falls short of
    its exact value by less than 2 + rho times the previous shortfall,
    so by less than 2/(1 - rho) < 2.008, and S, whose C_0 = 2^w is exact,
    by less than 1 + 2.008*rho < 1.008.  K is the least with
    2^((K+1)e)*(K+1)! >= 2^(w+1) for rho < 2^-e, e = w - (bit length of
    r), so the tail sum_{k>K} rho^k/k! <= rho^(K+1)/(K+1)!/(1 - rho)
    is below 0.51 units.
    """
    acc = 0
    for coef in coefficients[terms[w - r.bit_length()]::-1]:
        acc = coef + (acc * r >> w)
    return acc


@lru_cache(maxsize=None)
def _exp_constants(w: int):
    """_exp_series' coefficients floor(2^w/k!), k = 0, 1, ..., and term
    counts K by e (the least K with 2^((K+1)e)*(K+1)! >= 2^(w+1), for
    T - 1 <= e <= w), and the reduction table: e^(i/2^T) for
    i = 0..2^T as (lo, hi) at 2^-w.

    The table is built by repeated multiplication: entry i + 1 is entry
    i times e^(1/2^T), whose pair is (S, S + 2) from _exp_series at
    r = 2^(w-T), each product rounded outward.  Units lost: entry i + 1
    misses by at most e^(1/2^T) times entry i's miss, plus 2*e^(i/2^T)
    from the step's pair and 1 from the rounding, so entry i misses by
    less than 3i*e^(i/2^T) <= 3*2^T*e < 2088.
    """
    terms = [0] * (w + 1)
    count = 0
    for e in range(w, EXP_TABLE_BITS - 2, -1):  # fewer bits, more terms
        while factorial(count + 1) << (count + 1) * e < 1 << (w + 1):
            count += 1
        terms[e] = count
    coefficients = tuple((1 << w) // factorial(k) for k in range(count + 1))
    step = _exp_series(1 << (w - EXP_TABLE_BITS), w, coefficients, terms)
    lo = hi = 1 << w
    table = [(lo, hi)]
    for _ in range(1 << EXP_TABLE_BITS):
        lo = lo * step >> w
        hi = -(-hi * (step + 2) >> w)
        table.append((lo, hi))
    return tuple(table), coefficients, tuple(terms)


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


def ln(num: int, den: int, bits: int) -> tuple[int, int]:
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
