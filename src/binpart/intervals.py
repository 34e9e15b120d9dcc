"""Certified real arithmetic for inequality decisions.

BoundReal wraps an outward-rounded interval (mpmath's `iv` context does
the directed rounding): the true value is guaranteed to lie in
[lower, upper], equivalently within `radius` of `midpoint`.  Strict
inequalities between BoundReals are decided only when the enclosures
separate; otherwise the decision is escalated to a higher working
precision, up to a cap, and reported as inconclusive if the cap is hit.

decide_with_escalation is the one ladder for every verdict that can end
inconclusive.  The certified checks climb precision, DEFAULT_PRECISION_BITS
doubling to DEFAULT_PRECISION_CAP_BITS (the environment variable
PRECISION_CAP_BITS overrides the cap); the eq. 9 product check climbs its
truncation depth, 4 doubling to 256.

Each BoundReal operation sets the precision for that one operation.  The
certified checks in `checks` bypass both BoundReal and `iv`'s operator
dispatch: they call mpmath's `libmpi` interval functions (the ones `iv`
itself calls) directly on endpoint pairs at an explicit precision, inside
the single working_precision(bits) `_certified` enters per rung, and wrap
each finished gap once as an `iv` interval.

Note: mpmath's interval context precision is process-global, so the
working_precision switches here are not thread-safe.  Everything in this
package runs checks sequentially; callers parallelizing sweeps should use
processes, not threads.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from fractions import Fraction
from typing import Any, Callable, Optional

import mpmath
from mpmath import iv

DEFAULT_PRECISION_BITS = 128
DEFAULT_PRECISION_CAP_BITS = 4096


def precision_cap_bits() -> int:
    """The escalation cap, honoring the PRECISION_CAP_BITS env override."""
    raw = os.environ.get("PRECISION_CAP_BITS")
    if raw is None:
        return DEFAULT_PRECISION_CAP_BITS
    cap = int(raw)
    if cap < DEFAULT_PRECISION_BITS:
        raise ValueError("PRECISION_CAP_BITS below the starting precision")
    return cap


@contextmanager
def working_precision(bits: int):
    """Temporarily set the interval context precision."""
    old = iv.prec
    iv.prec = bits
    try:
        yield
    finally:
        iv.prec = old


def _to_ival(x, bits: int):
    """Convert x to an interval at the given precision (outward rounding)."""
    if isinstance(x, BoundReal):
        return x._ival
    with working_precision(bits):
        if isinstance(x, Fraction):
            return iv.mpf(x.numerator) / iv.mpf(x.denominator)
        return iv.mpf(x)


def _raw_to_fraction(raw) -> Fraction:
    """Exact value of a raw mpf tuple (sign, man, exp, bc) as a Fraction."""
    sign, man, exp, _ = raw
    man = int(man)
    if man == 0 and exp != 0:
        raise ValueError("non-finite value")
    value = Fraction(man) * Fraction(2) ** exp
    return -value if sign else value


def _raw_to_mpf(raw) -> mpmath.mpf:
    """Wrap a raw mpf tuple without any re-rounding."""
    return mpmath.mp.make_mpf(raw)


def _fraction_to_mpf_exact(fr: Fraction) -> mpmath.mpf:
    """Exact mpf for a dyadic rational (denominator a power of two)."""
    den = fr.denominator
    if den & (den - 1):
        raise ValueError("not a dyadic rational")
    return _raw_to_mpf(
        mpmath.libmp.from_man_exp(fr.numerator, -(den.bit_length() - 1))
    )


def mpf_to_fraction(x) -> Fraction:
    """Exact value of an mpf (dyadic rational) as a Fraction."""
    raw = x._mpf_ if hasattr(x, "_mpf_") else mpmath.mpf(x)._mpf_
    return _raw_to_fraction(raw)


class BoundReal:
    """A real number certified to lie in [midpoint - radius, midpoint + radius]."""

    __slots__ = ("_ival", "precision_bits")

    def __init__(self, ival, precision_bits: int):
        self._ival = ival
        self.precision_bits = precision_bits

    # -- constructors -------------------------------------------------

    @classmethod
    def exact(cls, x: int | Fraction, bits: int = DEFAULT_PRECISION_BITS) -> "BoundReal":
        """Enclose an integer or rational (exactly if it fits the precision)."""
        return cls(_to_ival(x, bits), bits)

    @classmethod
    def from_endpoints(cls, lower, upper, bits: int = DEFAULT_PRECISION_BITS) -> "BoundReal":
        with working_precision(bits):
            return cls(iv.mpf([lower, upper]), bits)

    @classmethod
    def pi(cls, bits: int = DEFAULT_PRECISION_BITS) -> "BoundReal":
        with working_precision(bits):
            return cls(+iv.pi, bits)

    # -- inspection (endpoints are extracted exactly, never re-rounded) --

    @property
    def lower(self) -> mpmath.mpf:
        return _raw_to_mpf(self._ival._mpi_[0])

    @property
    def upper(self) -> mpmath.mpf:
        return _raw_to_mpf(self._ival._mpi_[1])

    def lower_fraction(self) -> Fraction:
        return _raw_to_fraction(self._ival._mpi_[0])

    def upper_fraction(self) -> Fraction:
        return _raw_to_fraction(self._ival._mpi_[1])

    @property
    def midpoint(self) -> mpmath.mpf:
        lo, hi = self.lower_fraction(), self.upper_fraction()
        return _fraction_to_mpf_exact((lo + hi) / 2)

    @property
    def radius(self) -> mpmath.mpf:
        """Exactly (upper - lower)/2; the true value is within it of midpoint."""
        lo, hi = self.lower_fraction(), self.upper_fraction()
        return _fraction_to_mpf_exact((hi - lo) / 2)

    @property
    def width(self) -> mpmath.mpf:
        lo, hi = self.lower_fraction(), self.upper_fraction()
        return _fraction_to_mpf_exact(hi - lo)

    def contains(self, x: int | float | Fraction) -> bool:
        return self.lower_fraction() <= Fraction(x) <= self.upper_fraction()

    def __repr__(self) -> str:
        return f"BoundReal[{self.lower!s}, {self.upper!s}] @{self.precision_bits}b"

    # -- arithmetic (radius widens conservatively via iv rounding) ----

    def _binop(self, other, op) -> "BoundReal":
        bits = self.precision_bits
        if isinstance(other, BoundReal):
            bits = max(bits, other.precision_bits)
        with working_precision(bits):
            return BoundReal(op(self._ival, _to_ival(other, bits)), bits)

    def __add__(self, other):
        return self._binop(other, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return self._binop(other, lambda a, b: b - a)

    def __mul__(self, other):
        return self._binop(other, lambda a, b: a * b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binop(other, lambda a, b: a / b)

    def __rtruediv__(self, other):
        return self._binop(other, lambda a, b: b / a)

    def __pow__(self, exponent: int):
        with working_precision(self.precision_bits):
            return BoundReal(self._ival ** exponent, self.precision_bits)

    def __neg__(self):
        with working_precision(self.precision_bits):
            return BoundReal(-self._ival, self.precision_bits)

    def sqrt(self) -> "BoundReal":
        with working_precision(self.precision_bits):
            return BoundReal(iv.sqrt(self._ival), self.precision_bits)

    def exp(self) -> "BoundReal":
        with working_precision(self.precision_bits):
            return BoundReal(iv.exp(self._ival), self.precision_bits)

    def log(self) -> "BoundReal":
        with working_precision(self.precision_bits):
            return BoundReal(iv.log(self._ival), self.precision_bits)

    # -- certified comparisons ----------------------------------------

    def certainly_less(self, other) -> Optional[bool]:
        """True/False when the strict comparison is certain, else None."""
        o = other if isinstance(other, BoundReal) else BoundReal.exact(
            other, self.precision_bits
        )
        if self.upper < o.lower:
            return True
        if self.lower >= o.upper:
            return False
        return None

    def certainly_positive(self) -> Optional[bool]:
        if self.lower > 0:
            return True
        if self.upper <= 0:
            return False
        return None


def decide_with_escalation(
    evaluate: Callable[[int], Any],
    start_bits: int = DEFAULT_PRECISION_BITS,
    cap_bits: int | None = None,
) -> tuple[Any, int]:
    """Run a certified evaluation, doubling its level while undecided.

    `evaluate(level)` returns None while undecided and any other value,
    falsy ones such as 0.0 included, once decided.  The first level is
    min(start_bits, cap), and each next one doubles, clamped to the cap.
    Returns (result, level used); result None means the cap was reached.
    """
    cap = precision_cap_bits() if cap_bits is None else cap_bits
    level = min(start_bits, cap)
    while True:
        result = evaluate(level)
        if result is not None:
            return result, level
        if level >= cap:
            return None, level
        level = min(2 * level, cap)
