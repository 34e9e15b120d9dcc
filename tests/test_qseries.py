from fractions import Fraction

import pytest

from binpart import (
    EnclosureWidthError,
    TailParams,
    enclose_euler_product,
    euler_product_upper,
    weighted_sum_upper,
)
from binpart.intervals import mpf_to_fraction

from reference_values import (
    EULER_PRODUCT_HALF,
    Q252_COMBINED_UPPER,
    Q252_PRODUCT_UPPER,
    Q252_WEIGHTED_UPPER,
)


def _upper_fraction(bound):
    return mpf_to_fraction(bound.upper)


def _lower_fraction(bound):
    return mpf_to_fraction(bound.lower)


def test_params_validated():
    with pytest.raises(ValueError):
        TailParams(q=Fraction(3, 2), ell=4)
    with pytest.raises(ValueError):
        TailParams(q=Fraction(0), ell=4)
    with pytest.raises(ValueError):
        TailParams(q=Fraction(1, 2), ell=1)


def test_half_enclosure_hits_constant():
    enc = euler_product_upper(TailParams(q=Fraction(1, 2), ell=48))
    assert enc.contains(EULER_PRODUCT_HALF)
    assert float(enc.width) <= 1e-12


def test_half_ratio_product_constant():
    from binpart import TailParams, euler_product_upper

    from reference_values import EULER_PRODUCT_HALF_BRACKET

    enc = euler_product_upper(TailParams(q=Fraction(1, 2), ell=64))
    bracket_lo, bracket_hi = (Fraction(s) for s in EULER_PRODUCT_HALF_BRACKET)
    assert enc.lower_fraction() < bracket_hi
    assert enc.upper_fraction() > bracket_lo


def test_q252_product_constant():
    enc = euler_product_upper(TailParams(q=Fraction(252, 500), ell=96))
    assert _upper_fraction(enc) < Fraction(Q252_PRODUCT_UPPER)


def test_q252_weighted_constant():
    enc = weighted_sum_upper(TailParams(q=Fraction(252, 500), ell=96))
    assert _upper_fraction(enc) < Fraction(Q252_WEIGHTED_UPPER)


def test_q252_combined_constant():
    product = euler_product_upper(TailParams(q=Fraction(252, 500), ell=96))
    weighted = weighted_sum_upper(TailParams(q=Fraction(252, 500), ell=96))
    # both factors are positive, so the product of the upper endpoints
    # bounds the product of the enclosed values
    assert _lower_fraction(product) > 0 and _lower_fraction(weighted) > 0
    assert _upper_fraction(product) * _upper_fraction(weighted) \
        < Fraction(Q252_COMBINED_UPPER)


def test_enclosure_ordering_small_q():
    enc = euler_product_upper(TailParams(q=Fraction(1, 1000), ell=2))
    assert _lower_fraction(enc) <= _upper_fraction(enc)
    # at ell=2 the lower bound is exactly the single factor 1/(1-q)
    assert _lower_fraction(enc) <= Fraction(1000, 999) <= _upper_fraction(enc)
    # coarse enclosure still contains the sharp one
    sharp = euler_product_upper(TailParams(q=Fraction(1, 1000), ell=64))
    assert _lower_fraction(enc) <= _lower_fraction(sharp)
    assert _upper_fraction(sharp) <= _upper_fraction(enc)


def test_weighted_tiny_q_dominated_by_leading_term():
    q = Fraction(1, 1000)
    enc = weighted_sum_upper(TailParams(q=q, ell=2))
    # upper bound collapses to q/(1-q)^3, which dominates the true sum
    assert _upper_fraction(enc) < q / (1 - q) ** 3 + Fraction(1, 10**30)
    assert _lower_fraction(enc) <= _upper_fraction(enc)


@pytest.mark.parametrize("q", [Fraction(1, 10), Fraction(1, 2), Fraction(252, 500)])
def test_raising_ell_tightens_monotonically(q):
    prev_upper = None
    prev_lower = None
    for ell in range(2, 65):
        enc = euler_product_upper(TailParams(q=q, ell=ell))
        lo, hi = _lower_fraction(enc), _upper_fraction(enc)
        assert lo <= hi
        if prev_upper is not None:
            assert hi <= prev_upper
            assert lo >= prev_lower
        prev_upper, prev_lower = hi, lo


@pytest.mark.parametrize("q", [Fraction(1, 10), Fraction(1, 2), Fraction(252, 500)])
def test_weighted_upper_nonincreasing_in_ell(q):
    prev = None
    for ell in range(2, 65):
        enc = weighted_sum_upper(TailParams(q=q, ell=ell))
        hi = _upper_fraction(enc)
        assert _lower_fraction(enc) <= hi
        if prev is not None:
            assert hi <= prev
        prev = hi


def test_adaptive_enclosure_small_ell_suffices():
    enc, ell = enclose_euler_product(Fraction(1, 10), 1e-6)
    assert ell == 8
    assert float(enc.width) <= 1e-6


def test_adaptive_enclosure_tolerance_unreachable():
    with pytest.raises(EnclosureWidthError):
        enclose_euler_product(Fraction(9, 10), 1e-30)
