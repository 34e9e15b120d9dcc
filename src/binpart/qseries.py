"""Tail-bounded enclosures of the Euler product.

For rational 0 < q < 1 the quantity of interest is

    F(q) = prod_{j>=1} 1/(1-q^j)          (partition generating value)

Truncating at ell gives a certified lower bound (every omitted factor
exceeds 1), and the analytic tail estimate

    F(q) < exp(q^ell/(1-q)^2) * prod_{j<ell} 1/(1-q^j)

turns the truncation into a two-sided enclosure, returned as its raw
endpoint pair (lower, upper).  The right-hand side is
nonincreasing in ell, so raising ell only tightens the result.
_walk_bounds walks the truncation points of a series given as its steps,
and enclose_euler_product raises ell on decide_with_escalation, the
ladder every other inconclusive verdict climbs, resuming one walk across
its rungs at the call's fixed precision, as eq. 9 resumes its depth; the
precision and guard-bit ladders restart, since each rung changes precision.
mpmath is imported inside the functions that call it, not with the module.
"""

from __future__ import annotations

import math
from itertools import islice

from .intervals import (DEFAULT_PRECISION_BITS, decide_with_escalation, width,
                        working_precision)

DEFAULT_DEPTH_CAP = 256


class EnclosureWidthError(Exception):
    """Requested tolerance unreachable within the depth cap."""


def _tail_factor(x):
    """Enclosure of exp(x) for an interval 0 < x <= 1.

    Under round_ceiling, mpmath 1.3.0's mpf_exp returns exactly 1 for some
    tiny x > 0, below exp(x) > 1.  Only then is the upper endpoint
    replaced, by 1 + 2x rounded up: exp(x) <= 1 + 2x on [0, 1].
    """
    from mpmath import iv
    from mpmath.libmp import fone

    factor = iv.exp(x)
    if factor._mpi_[1] == fone:
        return iv.mpf([1, (1 + 2 * x).b])
    return factor


def _walk_bounds(q: Fraction, bits: int, steps):
    """Walk a series' truncation points: walk(ell) is the best endpoint pair.

    steps(q) receives q as an interval at `bits` and yields, for
    j = 1, 2, ..., a pair of intervals: the lower endpoint of the first
    and the upper endpoint of the second bound the series truncated after
    term j.  walk(ell) goes on from the last ell asked, inside
    working_precision(bits), and keeps the highest lower and lowest upper
    endpoint across points 2..ell: raising ell then tightens the result
    even when the analytic improvement falls below one rounding ulp.
    """
    from mpmath import iv
    from mpmath.libmp import mpf_gt, mpf_lt

    if not 0 < q < 1:
        raise ValueError(f"q must lie in (0,1), got {q}")
    pairs, reached, best_lo, best_hi = None, 1, None, None

    def walk(ell):
        nonlocal pairs, reached, best_lo, best_hi
        if ell < 2:
            raise ValueError(f"ell must be >= 2, got {ell}")
        with working_precision(bits):
            pairs = pairs or steps(iv.mpf(q.numerator) / iv.mpf(q.denominator))
            for lower, upper in islice(pairs, ell - reached):
                lo, hi = lower._mpi_[0], upper._mpi_[1]
                if best_lo is None or mpf_gt(lo, best_lo):
                    best_lo = lo
                if best_hi is None or mpf_lt(hi, best_hi):
                    best_hi = hi
        reached = ell
        return best_lo, best_hi

    return walk


def _product_steps(q):
    from mpmath import iv

    inv_square = 1 / (1 - q) ** 2
    partial = iv.mpf(1)
    qj = iv.mpf(1)
    while True:
        qj = qj * q
        partial = partial / (1 - qj)
        yield partial, partial * _tail_factor(qj * q * inv_square)


def euler_product_upper(q: Fraction, ell: int, bits: int = DEFAULT_PRECISION_BITS,
                        walk=None):
    """Endpoint pair of F(q): lower = partial product, upper = tail-bounded.

    The partial product prod_{j=1}^{ell-1} 1/(1-q^j) is a certified lower
    bound; multiplying the partial product at truncation point t by
    exp(q^t/(1-q)^2) gives a certified upper bound for every t <= ell.
    A `walk` of F(q) at `bits` from _walk_bounds resumes where it stopped.
    """
    return (walk or _walk_bounds(q, bits, _product_steps))(ell)


def enclose_euler_product(q: Fraction, tol: float):
    """Shrink the F(q) enclosure below width `tol` by raising ell.

    Doubles ell from 8 up to DEFAULT_DEPTH_CAP; raises EnclosureWidthError
    when the tolerance stays out of reach at the cap.  Returns (endpoint
    pair, ell used).  The working precision is chosen from the tolerance
    and fixed, so the rungs resume one walk: reaching ell takes ell - 1
    steps, each rung's pair that of a fresh euler_product_upper(q, ell, bits).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    bits = max(DEFAULT_PRECISION_BITS, 64 + int(-math.log2(tol)))
    walk = _walk_bounds(q, bits, _product_steps)
    widths = []

    def evaluate(ell):
        enclosure = euler_product_upper(q, ell, bits, walk)
        widths.append(width(enclosure))
        return enclosure if widths[-1] <= tol else None

    enclosure, ell = decide_with_escalation(evaluate, 8, DEFAULT_DEPTH_CAP)
    if enclosure is None:
        raise EnclosureWidthError(
            f"width {widths[-1]:.3g} > tol {tol:.3g} at ell={ell}")
    return enclosure, ell
