import json
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from mpmath import iv

from binpart import (
    EnclosureWidthError,
    decide_with_escalation,
    enclose_euler_product,
    euler_product_upper,
)
from binpart import qseries
from binpart.intervals import width, working_precision

from reference_values import (
    EULER_PRODUCT_HALF,
    Q252_COMBINED_UPPER,
    Q252_PRODUCT_UPPER,
    Q252_WEIGHTED_UPPER,
    contains,
    fractions,
    mpf_to_fraction,
    weighted_sum_upper,
)

# the `product` command lines of perfbench's `queries` mix, seeds 1-10
GOLDEN_PRODUCT = json.loads(
    (Path(__file__).parent / "data" / "product_golden.json").read_text())


def test_params_validated():
    for series in (euler_product_upper, weighted_sum_upper):
        with pytest.raises(ValueError, match="q must lie in"):
            series(Fraction(3, 2), 4)
        with pytest.raises(ValueError, match="q must lie in"):
            series(Fraction(0), 4)
        with pytest.raises(ValueError, match="ell must be"):
            series(Fraction(1, 2), 1)


def test_half_enclosure_hits_constant():
    enc = euler_product_upper(Fraction(1, 2), 48)
    assert contains(enc, EULER_PRODUCT_HALF)
    assert width(enc) <= 1e-12


def test_half_ratio_product_constant():
    from reference_values import EULER_PRODUCT_HALF_BRACKET

    lo, hi = fractions(euler_product_upper(Fraction(1, 2), 64))
    bracket_lo, bracket_hi = (Fraction(s) for s in EULER_PRODUCT_HALF_BRACKET)
    assert lo < bracket_hi
    assert hi > bracket_lo


def test_q252_product_constant():
    _, hi = fractions(euler_product_upper(Fraction(252, 500), 96))
    assert hi < Fraction(Q252_PRODUCT_UPPER)


def test_q252_weighted_constant():
    _, hi = fractions(weighted_sum_upper(Fraction(252, 500), 96))
    assert hi < Fraction(Q252_WEIGHTED_UPPER)


def test_q252_combined_constant():
    q = Fraction(252, 500)
    product_lo, product_hi = fractions(euler_product_upper(q, 96))
    weighted_lo, weighted_hi = fractions(weighted_sum_upper(q, 96))
    # both factors are positive, so the product of the upper endpoints
    # bounds the product of the enclosed values
    assert product_lo > 0 and weighted_lo > 0
    assert product_hi * weighted_hi < Fraction(Q252_COMBINED_UPPER)


def test_enclosure_ordering_small_q():
    lo, hi = fractions(euler_product_upper(Fraction(1, 1000), 2))
    assert lo <= hi
    # at ell=2 the lower bound is exactly the single factor 1/(1-q)
    assert lo <= Fraction(1000, 999) <= hi
    # coarse enclosure still contains the sharp one
    sharp_lo, sharp_hi = fractions(euler_product_upper(Fraction(1, 1000), 64))
    assert lo <= sharp_lo
    assert sharp_hi <= hi


def test_weighted_tiny_q_dominated_by_leading_term():
    q = Fraction(1, 1000)
    lo, hi = fractions(weighted_sum_upper(q, 2))
    # upper bound collapses to q/(1-q)^3, which dominates the true sum
    assert hi < q / (1 - q) ** 3 + Fraction(1, 10**30)
    assert lo <= hi


@pytest.mark.parametrize("q", [Fraction(1, 10), Fraction(1, 2), Fraction(252, 500)])
def test_raising_ell_tightens_monotonically(q):
    prev_upper = None
    prev_lower = None
    for ell in range(2, 65):
        lo, hi = fractions(euler_product_upper(q, ell))
        assert lo <= hi
        if prev_upper is not None:
            assert hi <= prev_upper
            assert lo >= prev_lower
        prev_upper, prev_lower = hi, lo


@pytest.mark.parametrize("q", [Fraction(1, 10), Fraction(1, 2), Fraction(252, 500)])
def test_weighted_upper_nonincreasing_in_ell(q):
    prev = None
    for ell in range(2, 65):
        lo, hi = fractions(weighted_sum_upper(q, ell))
        assert lo <= hi
        if prev is not None:
            assert hi <= prev
        prev = hi


def test_adaptive_enclosure_small_ell_suffices():
    enc, ell = enclose_euler_product(Fraction(1, 10), 1e-6)
    assert ell == 8
    assert width(enc) <= 1e-6


def test_adaptive_enclosure_tolerance_unreachable():
    with pytest.raises(EnclosureWidthError):
        enclose_euler_product(Fraction(9, 10), 1e-30)


def _record_levels(monkeypatch):
    """Route enclose_euler_product's ladder through a recorder of its levels."""
    visited = []

    def recording(evaluate, *ladder_args):
        def evaluate_and_record(level):
            visited.append(level)
            return evaluate(level)
        return decide_with_escalation(evaluate_and_record, *ladder_args)

    monkeypatch.setattr(qseries, "decide_with_escalation", recording)
    return visited


def test_ladder_decides_at_first_level(monkeypatch):
    visited = _record_levels(monkeypatch)
    _, ell = enclose_euler_product(Fraction(1, 10), 1e-6)
    assert visited == [8] and ell == 8


def test_ladder_climbs_to_depth_cap(monkeypatch):
    visited = _record_levels(monkeypatch)
    with pytest.raises(EnclosureWidthError, match="at ell=256$"):
        enclose_euler_product(Fraction(9, 10), 1e-30)
    assert visited == [8, 16, 32, 64, 128, 256]


def test_ladder_walks_each_truncation_point_once(monkeypatch):
    taken = []
    steps = qseries._product_steps

    def counting(q):
        for pair in steps(q):
            taken.append(pair)
            yield pair

    monkeypatch.setattr(qseries, "_product_steps", counting)
    _, ell = enclose_euler_product(Fraction(1, 2), 1e-40)
    # rungs 8, 16, ..., 256 resume one walk: 255 steps, not 7 + 15 + ... + 255
    assert (ell, len(taken)) == (256, 255)


def test_every_rung_equals_a_fresh_walk_on_golden_arguments(monkeypatch):
    rungs = []

    def recording(q, ell, bits, walk):
        rungs.append((q, ell, bits, euler_product_upper(q, ell, bits, walk)))
        return rungs[-1][3]

    monkeypatch.setattr(qseries, "euler_product_upper", recording)
    for entry in GOLDEN_PRODUCT:
        num, den, tol = entry["argv"][1:]
        rungs.clear()
        enclosure, ell = enclose_euler_product(Fraction(int(num), int(den)), float(tol))
        assert (rungs[-1][1], rungs[-1][3]) == (ell, enclosure)
        for q, ell, bits, pair in rungs:
            assert pair == euler_product_upper(q, ell, bits), (entry["argv"], ell)


def test_tail_factor_upper_bounds_exp_of_tiny_argument():
    # mpmath 1.3.0's exp rounds this argument's upper endpoint down to 1
    denominator = 5575186299632655785383929568162090376527872
    with working_precision(128):
        factor = qseries._tail_factor(iv.mpf(1) / iv.mpf(denominator))
    with mpmath.workprec(1024):
        exact = mpmath.exp(mpmath.mpf(1) / denominator)
    upper = mpf_to_fraction(mpmath.mp.make_mpf(factor._mpi_[1]))
    assert upper >= mpf_to_fraction(exact)
