"""Certified real arithmetic for inequality decisions.

Every real-valued decision is made on outward-rounded enclosures.  The
certified checks of `checks` enclose their gaps on exact integers at
2^-bits, and read pi and a = sqrt(2/3)*pi off pi_alpha, which hands
them out as integer pairs at 2^-bits.
The Rademacher sum of `partitions` and the bounds of `lie` and `cli`
call mpmath's `libmpi` interval functions (the ones `iv` itself calls)
directly at an explicit precision, and `qseries` runs `iv` inside
working_precision; there an enclosure is its endpoint pair (lower,
upper) of raw mpf values from first operation to verdict.  This module
holds the pieces those computations share: int_interval enters an
integer, pi_alpha caches the integer pairs of pi and a per bit width, and
certainly_positive is the sign rule of a pair.  None of them reads the
process-global `iv.prec`; pi_alpha alone sets it, inside its own
working_precision(bits).  A finished pair is read by to_fraction, an
endpoint's exact value, and width, upper - lower as a float.

mpmath is imported where it is called: inside each function here and in
`partitions`, `qseries`, `lie` and `cli` that calls it, never at module
level.  So importing binpart loads no mpmath, and neither do the
commands on exact integers: compute pnk and pk, compute p below
cli.P_SERIES_FROM, table, peak, and verify of thm2, thm3, lemma-links,
lemma-rechts, lemma-gr, eq9 and genfun.  On the certified checks' path,
pi_alpha is the one function that loads it.  The same rule holds for
`fractions` and `decimal`: to_fraction and `cli.cmd_product` import
Fraction, and `cli._int_str` imports decimal only for an int longer than
cli._LONG_INT_BITS, so importing binpart loads neither, and of the
commands only product, mu and the printing of such ints do.

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


def certainly_positive(gap) -> bool | None:
    """The sign of a gap given as its endpoint pair (lower, upper).

    True when lower > 0, False when upper <= 0, None otherwise; a NaN
    endpoint (mpf_sign 0, but neither positive nor <= 0) leaves it None.
    """
    from mpmath.libmp import fzero, mpf_sign

    lower, upper = gap
    if mpf_sign(lower) > 0:
        return True
    if mpf_sign(upper) < 0 or upper == fzero:
        return False
    return None


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
