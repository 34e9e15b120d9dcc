import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import (
    ComplexResult,
    finf,
    fnan,
    from_int,
    from_man_exp,
    from_rational,
    fzero,
    mpi_add,
    mpi_div,
    mpi_exp,
    mpi_log,
    mpi_mul,
    mpi_sqrt,
    mpi_sub,
)

from binpart import intervals
from binpart.intervals import (
    decide_with_escalation,
    int_interval,
    pi_alpha,
    to_fraction,
    width,
)

from reference_values import contains, machin_pi_bracket

BITS = 128


def _rational(x: Fraction, bits=BITS):
    """x entered as the certified checks enter a ratio of integers."""
    return mpi_div(int_interval(x.numerator, bits),
                   int_interval(x.denominator, bits), bits)


def test_exact_int_is_tight():
    b = int_interval(7, BITS)
    assert contains(b, 7)
    assert width(b) == 0.0


def test_exact_fraction_encloses():
    b = _rational(Fraction(1, 3))
    assert contains(b, Fraction(1, 3))
    assert width(b) > 0  # 1/3 is not dyadic


def test_huge_int_enclosed():
    big = 10**600 + 12345
    assert contains(int_interval(big, BITS), big)


def test_to_fraction_is_exact_and_refuses_non_finite():
    assert to_fraction(from_rational(-3, 8, BITS)) == Fraction(-3, 8)
    for raw in (finf, fnan):
        with pytest.raises(ValueError):
            to_fraction(raw)


def test_sqrt_squared_contains_two():
    sq = mpi_sqrt(int_interval(2, BITS), BITS)
    assert contains(mpi_mul(sq, sq, BITS), 2)


SQRT_BITS = [53, 128, 256, 4096]


def _random_ints(bits, count=2000):
    """Ints of up to 1,500 bits, so int_interval itself rounds most of them."""
    rng = random.Random(bits)
    return [rng.getrandbits(rng.randint(1, 1500)) for _ in range(count)]


def _random_pairs(bits, count=2000):
    """Non-point pairs, quotients of random ints as the kernel forms them."""
    rng = random.Random(-bits)
    pairs = [mpi_div(int_interval(rng.getrandbits(rng.randint(1, 300)), bits),
                     int_interval(rng.getrandbits(rng.randint(1, 300)) | 1, bits),
                     bits) for _ in range(count)]
    return [pair for pair in pairs if pair[0] != pair[1]]


class TestMpiSqrt:
    """mpmath's mpi_sqrt, which takes every square root in binpart: its
    endpoints read against exact squares with no mpmath routine deciding,
    and its refusal of a negative lower endpoint."""

    def test_negative_lower_endpoint_raises_as_mpi_sqrt_does(self):
        for pair in ((from_int(-1), from_int(4)), (from_int(-9), from_int(-9)),
                     (from_man_exp(-3, -7), fzero)):
            with pytest.raises(ComplexResult):
                mpi_sqrt(pair, BITS)

    @pytest.mark.parametrize("bits", SQRT_BITS)
    def test_exact_squares_bracket_the_radicand(self, bits):
        # lower^2 <= x <= upper^2 read as exact Fractions: no mpmath routine decides it
        cases = [(int_interval(x, bits), Fraction(x), Fraction(x))
                 for x in list(range(2000)) + _random_ints(bits, 300)]
        cases += [(pair, *map(to_fraction, pair)) for pair in _random_pairs(bits, 300)]
        for pair, x_low, x_high in cases:
            lower, upper = map(to_fraction, mpi_sqrt(pair, bits))
            assert 0 <= lower <= upper
            assert lower * lower <= x_low and x_high <= upper * upper, pair
            if pair[0] == pair[1]:  # a point's root is one ulp wide at most
                assert upper - lower <= Fraction(2) ** (1 - bits) * upper, pair


def test_pi_enclosure():
    lo, hi = (Fraction(x, 2**BITS) for x in pi_alpha(BITS)[0])
    # rational bracket around the true value, one ulp-of-25-digits wide
    bracket_lo = Fraction(31415926535897932384626433, 10**25)
    bracket_hi = Fraction(31415926535897932384626434, 10**25)
    assert lo < hi
    assert lo < bracket_hi and hi > bracket_lo  # enclosures overlap
    assert hi - lo < Fraction(1, 10**30)  # and the computed one is tight


# every rung of the certified checks' ladder, DEFAULT_PRECISION_BITS doubling to the cap
LADDER = [128 << i for i in range(6)]


@pytest.mark.parametrize("bits", LADDER)
def test_pi_alpha_holds_machins_pi(bits):
    """pi_alpha's integer pairs, which every certified verdict reads,
    against pi by Machin's formula on integers: a route that shares
    nothing with mpmath.  The pi pair holds the whole Machin bracket; the
    a pair holds sqrt(2/3) times it, read on exact squares, since
    3 a^2 = 2 pi^2 and every endpoint is positive; each pair is a few
    units of 2^-bits wide."""
    assert LADDER[0] == intervals.DEFAULT_PRECISION_BITS
    assert LADDER[-1] == intervals.DEFAULT_PRECISION_CAP_BITS
    (pi_lo, pi_hi), (a_lo, a_hi) = pi_alpha(bits)
    lo, hi = (x * 2**bits for x in machin_pi_bracket(bits))
    assert pi_lo <= lo and hi <= pi_hi
    assert a_lo > 0
    assert 3 * a_lo**2 <= 2 * lo**2 and 2 * hi**2 <= 3 * a_hi**2
    # pi in [2, 4) at `bits` significant bits: one ulp is 4 units
    assert pi_hi - pi_lo <= 4
    assert a_hi - a_lo <= 16


def test_exp_log_round_trip():
    x = int_interval(10, BITS)
    assert contains(mpi_exp(mpi_log(x, BITS), BITS), 10)


def test_arithmetic_widens_not_loses():
    a = _rational(Fraction(1, 3))
    total = mpi_add(mpi_add(a, a, BITS), a, BITS)
    assert contains(total, 1)


def _sign(gap):
    """True when a gap's endpoint pair (lower, upper) is certainly positive,
    False when certainly not, None while it straddles zero."""
    lower, upper = map(to_fraction, gap)
    if lower > 0:
        return True
    return False if upper <= 0 else None


def test_escalation_resolves_tight_gap():
    # log(1 + 2^-100) > 0 is undecidable at 64 bits, decidable at higher
    target = 1 + Fraction(1, 2**100)

    def evaluate(bits):
        gap = mpi_log(_rational(target, bits), bits)
        return _sign(gap)

    outcome, bits = decide_with_escalation(evaluate, start_bits=64)
    assert outcome is True
    assert bits > 64


def test_escalation_hits_cap_on_equality():
    # exp(log(2)) == 2 exactly: enclosures always straddle, never decide
    def evaluate(bits):
        two = int_interval(2, bits)
        gap = mpi_sub(mpi_exp(mpi_log(two, bits), bits), two, bits)
        return _sign(gap)

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


def test_default_cap_read_at_call_time(monkeypatch):
    monkeypatch.setattr(intervals, "DEFAULT_PRECISION_CAP_BITS", 256)

    def never(bits):
        return None

    outcome, bits = decide_with_escalation(never, start_bits=128)
    assert outcome is None
    assert bits == 256


# numerators and denominators past 128 bits, so int_interval itself must round outward
rationals = st.builds(Fraction, st.integers(-10**45, 10**45), st.integers(1, 10**45))


@pytest.mark.parametrize("bits", [64, 128])
@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(a=rationals, b=rationals)
def test_arithmetic_encloses_exact_result(bits, a, b):
    x, y = _rational(a, bits), _rational(b, bits)
    ops = [(mpi_add, a + b), (mpi_sub, a - b), (mpi_mul, a * b)]
    if b != 0:
        ops.append((mpi_div, a / b))
    for op, exact in ops:
        assert contains(op(x, y, bits), exact), (op.__name__, a, b)
