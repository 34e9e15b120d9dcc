"""Tail-bounded enclosures for the Euler product and its weighted companion.

For rational 0 < q < 1 the two quantities of interest are

    F(q) = prod_{j>=1} 1/(1-q^j)          (partition generating value)
    S(q) = sum_{j>=1}  j*q^j/(1-q^j)

Truncating at ell gives certified lower bounds (omitted factors exceed 1,
omitted terms are positive), and the analytic tail estimates

    F(q) < exp(q^ell/(1-q)^2) * prod_{j<ell} 1/(1-q^j)
    S(q) < q/(1-q)^3 + sum_{j<ell} j*q^j*(q^j-q) / ((1-q^j)*(1-q))

turn the truncations into two-sided enclosures.  Both right-hand sides are
nonincreasing in ell, so raising ell only tightens the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .intervals import BoundReal, DEFAULT_PRECISION_BITS, working_precision
from mpmath import iv
from mpmath.libmp import mpf_gt, mpf_lt

DEFAULT_DEPTH_CAP = 256


@dataclass(frozen=True)
class TailParams:
    """Truncation point for the tail estimates: rational q in (0,1), ell >= 2."""

    q: Fraction
    ell: int

    def __post_init__(self):
        if not 0 < self.q < 1:
            raise ValueError(f"q must lie in (0,1), got {self.q}")
        if self.ell < 2:
            raise ValueError(f"ell must be >= 2, got {self.ell}")


class EnclosureWidthError(Exception):
    """Requested tolerance unreachable within the depth cap."""


def _q_interval(q: Fraction):
    """q as an interval at the current working precision."""
    return iv.mpf(q.numerator) / iv.mpf(q.denominator)


def euler_product_upper(
    params: TailParams, bits: int = DEFAULT_PRECISION_BITS
) -> BoundReal:
    """Enclosure of F(q): lower = partial product, upper = tail-bounded.

    The partial product prod_{j=1}^{ell-1} 1/(1-q^j) is a certified lower
    bound; multiplying the partial product at truncation point t by
    exp(q^t/(1-q)^2) gives a certified upper bound for every t <= ell.
    The returned enclosure keeps the best bounds seen across truncation
    points 2..ell, which makes raising ell tighten the result even when
    the analytic improvement falls below one rounding ulp.
    """
    q_frac, ell = params.q, params.ell
    with working_precision(bits):
        q = _q_interval(q_frac)
        inv_square = 1 / (1 - q) ** 2
        partial = iv.mpf(1)
        qj = iv.mpf(1)
        best_lo = None
        best_hi = None
        for _ in range(1, ell):
            qj = qj * q
            partial = partial / (1 - qj)
            upper = partial * iv.exp(qj * q * inv_square)
            lo, hi = partial._mpi_[0], upper._mpi_[1]
            if best_lo is None or mpf_gt(lo, best_lo):
                best_lo = lo
            if best_hi is None or mpf_lt(hi, best_hi):
                best_hi = hi
    return BoundReal((best_lo, best_hi), bits)


def weighted_sum_upper(params: TailParams) -> BoundReal:
    """Enclosure of S(q): lower = partial sum, upper = tail-bounded.

    Upper bound: q/(1-q)^3 plus the correction terms
    j*q^j*(q^j-q)/((1-q^j)*(1-q)) for j < ell (nonpositive for j >= 2,
    zero at j = 1).  As in euler_product_upper, the best bounds across
    truncation points 2..ell are kept, so the output tightens
    monotonically in ell.
    """
    q_frac, ell = params.q, params.ell
    with working_precision(DEFAULT_PRECISION_BITS):
        q = _q_interval(q_frac)
        leading = q / (1 - q) ** 3
        one_minus_q = 1 - q
        partial = iv.mpf(0)
        correction = iv.mpf(0)
        qj = iv.mpf(1)
        best_lo = None
        best_hi = None
        for j in range(1, ell):
            qj = qj * q
            partial = partial + j * qj / (1 - qj)
            correction = correction + j * qj * (qj - q) / ((1 - qj) * one_minus_q)
            upper = leading + correction
            lo, hi = partial._mpi_[0], upper._mpi_[1]
            if best_lo is None or mpf_gt(lo, best_lo):
                best_lo = lo
            if best_hi is None or mpf_lt(hi, best_hi):
                best_hi = hi
    return BoundReal((best_lo, best_hi), DEFAULT_PRECISION_BITS)


def enclose_euler_product(q: Fraction, tol: float) -> tuple[BoundReal, int]:
    """Shrink the F(q) enclosure below width `tol` by raising ell.

    Doubles ell from 8 up to DEFAULT_DEPTH_CAP; raises EnclosureWidthError
    when the tolerance stays out of reach at the cap.  Returns (enclosure,
    ell used).  The working precision is chosen from the tolerance.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    bits = max(DEFAULT_PRECISION_BITS, 64 + int(-math.log2(tol)))
    ell = 8
    while True:
        enclosure = euler_product_upper(TailParams(q=q, ell=ell), bits)
        if float(enclosure.width) <= tol:
            return enclosure, ell
        if ell >= DEFAULT_DEPTH_CAP:
            raise EnclosureWidthError(
                f"width {float(enclosure.width):.3g} > tol {tol:.3g} at ell={ell}"
            )
        ell *= 2
