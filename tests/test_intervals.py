import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binpart.intervals import (
    BoundReal,
    decide_with_escalation,
    mpf_to_fraction,
    precision_cap_bits,
)


def test_exact_int_is_tight():
    b = BoundReal.exact(7)
    assert b.contains(7)
    assert float(b.width) == 0.0


def test_exact_fraction_encloses():
    b = BoundReal.exact(Fraction(1, 3))
    assert b.contains(Fraction(1, 3))
    assert float(b.width) > 0  # 1/3 is not dyadic


def test_huge_int_enclosed():
    big = 10**600 + 12345
    b = BoundReal.exact(big)
    assert b.contains(big)


def test_sqrt_squared_contains_two():
    sq = BoundReal.exact(2).sqrt()
    assert (sq * sq).contains(2)


def test_pi_enclosure():
    pi = BoundReal.pi()
    lo = mpf_to_fraction(pi.lower)
    hi = mpf_to_fraction(pi.upper)
    # rational bracket around the true value, one ulp-of-25-digits wide
    bracket_lo = Fraction(31415926535897932384626433, 10**25)
    bracket_hi = Fraction(31415926535897932384626434, 10**25)
    assert lo < hi
    assert lo < bracket_hi and hi > bracket_lo  # enclosures overlap
    assert hi - lo < Fraction(1, 10**30)  # and the computed one is tight


def test_exp_log_round_trip():
    x = BoundReal.exact(10)
    assert x.log().exp().contains(10)


def test_radius_covers_endpoints():
    b = BoundReal.exact(1) / BoundReal.exact(3)
    mid = mpf_to_fraction(b.midpoint)
    rad = mpf_to_fraction(b.radius)
    assert mid - rad <= Fraction(1, 3) <= mid + rad


def test_arithmetic_widens_not_loses():
    a = BoundReal.exact(1) / 3
    total = a + a + a
    assert total.contains(1)


def test_mixed_operand_types():
    b = 2 * BoundReal.exact(3) - 1
    assert b.contains(5)
    c = 1 / BoundReal.exact(4)
    assert c.contains(Fraction(1, 4))
    d = BoundReal.exact(2) ** 10
    assert d.contains(1024)


def test_certainly_less():
    a = BoundReal.exact(1)
    b = BoundReal.exact(2)
    assert a.certainly_less(b) is True
    assert b.certainly_less(a) is False
    # overlapping enclosures cannot decide
    wide = BoundReal.from_endpoints(0, 3)
    assert wide.certainly_less(b) is None


def test_escalation_resolves_tight_gap():
    # log(1 + 2^-100) > 0 is undecidable at 64 bits, decidable at higher
    target = 1 + Fraction(1, 2**100)

    def evaluate(bits):
        gap = BoundReal.exact(target, bits).log()
        return gap.certainly_positive()

    outcome, bits = decide_with_escalation(evaluate, start_bits=64)
    assert outcome is True
    assert bits > 64


def test_escalation_hits_cap_on_equality():
    # exp(log(2)) == 2 exactly: enclosures always straddle, never decide
    def evaluate(bits):
        value = BoundReal.exact(2, bits).log().exp()
        gap = value - 2
        return gap.certainly_positive()

    outcome, bits = decide_with_escalation(evaluate, start_bits=128, cap_bits=512)
    assert outcome is None
    assert bits == 512


def test_escalation_stops_on_falsy_result():
    levels = []

    def evaluate(level):
        levels.append(level)
        return 0.0

    assert decide_with_escalation(evaluate, start_bits=128) == (0.0, 128)
    assert levels == [128]


def test_escalation_start_above_cap_evaluates_once_at_cap():
    levels = []

    def never(level):
        levels.append(level)
        return None

    outcome, bits = decide_with_escalation(never, start_bits=1024, cap_bits=256)
    assert outcome is None
    assert bits == 256
    assert levels == [256]


def test_precision_cap_env_override(monkeypatch):
    monkeypatch.setenv("PRECISION_CAP_BITS", "256")
    assert precision_cap_bits() == 256

    def never(bits):
        return None

    outcome, bits = decide_with_escalation(never, start_bits=128)
    assert outcome is None
    assert bits == 256


def test_precision_cap_env_invalid(monkeypatch):
    monkeypatch.setenv("PRECISION_CAP_BITS", "16")
    with pytest.raises(ValueError):
        precision_cap_bits()


# numerators and denominators past 128 bits, so exact() itself must round outward
rationals = st.builds(Fraction, st.integers(-10**45, 10**45), st.integers(1, 10**45))


@pytest.mark.parametrize("bits", [64, 128])
@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(a=rationals, b=rationals)
def test_arithmetic_encloses_exact_result(bits, a, b):
    x, y = BoundReal.exact(a, bits), BoundReal.exact(b, bits)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        if op is operator.truediv and b == 0:
            continue
        assert op(x, y).contains(op(a, b)), (op.__name__, a, b)
