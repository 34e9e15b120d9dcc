import math
import random
import sys
from collections import Counter
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import iv
from mpmath.libmp import mpi_div, mpi_exp, mpi_log, mpi_sqrt

from binpart import checks, intervals
from binpart import (
    DiagonalTable,
    build_partition_table,
    central_binomial_check,
    corollary_bound,
    diagonal_bound_check,
    growth_chain_check,
    partition_bound_check,
    product_bound_check,
    row_bound_check,
    subdiagonal_bound_check,
)
from binpart.checks import INCONCLUSIVE, VERIFIED, VIOLATED, _certified
from binpart.sweeps import _fold
from binpart.intervals import (
    decide_with_escalation,
    int_interval,
    pi_alpha,
    working_precision,
)

from reference_values import (EULER_PRODUCT_HALF, contains, fractions,
                              mpf_to_fraction, reference_row_fold)


class TestRowBound:
    def test_n1(self, triangle_120):
        # p(1,1) = 2: 1600*1*4 < 12769*4
        outcome, _, _, bits = row_bound_check(1, triangle_120[1])
        assert outcome == VERIFIED
        assert bits is None  # pure integer check

    def test_n50_peak_value(self, triangle_120):
        v = triangle_120[50][26]
        assert 1600 * 50 * v * v < 12769 * 4**50
        assert row_bound_check(50, triangle_120[50])[0] == VERIFIED

    def test_sweep(self, triangle_120):
        for n in range(1, 121):
            outcome, _, margin, _ = row_bound_check(n, triangle_120[n])
            assert outcome == VERIFIED, n
            assert margin > 0

    def test_margin_matches_per_k_formula(self, triangle_120):
        for n in range(1, 121):
            row = triangle_120[n]
            rhs = 12769 << (2 * n)
            worst = max(1600 * n * row[k] * row[k] for k in range(1, n + 1))
            assert row_bound_check(n, triangle_120[n])[2] == (rhs - worst) / rhs, n

    def test_reports_first_violating_k(self):
        # p(4,2) and the larger p(4,3) both break 1600*4*p^2 < 12769*4^4
        outcome, counterexample, _, _ = row_bound_check(4, (0, 1, 10**6, 10**7, 1))
        assert outcome == VIOLATED
        assert counterexample == (4, 2)


def _at(check, n, *value):
    """check's verdict (outcome, counterexample, margin, bits) at n alone."""
    ns = range(n, n + 1)
    checked, *verdict = check(ns, list(value)) if value else check(ns)
    assert checked == 1
    return tuple(verdict)


class TestCentralBinomial:
    def test_zero_binomial_below_cut(self):
        assert math.comb(1, 2) == 0
        assert _at(central_binomial_check, 1, math.comb(1, 2))[0] == VERIFIED

    def test_n50(self):
        assert _at(central_binomial_check, 50, math.comb(50, 26))[0] == VERIFIED
        # C(50,26) = 121548660036300 against 2^50/sqrt(25*pi) ~ 1.27e14
        assert math.comb(50, 26) == 121548660036300

    def test_sweep(self):
        # every n verified, and at 128 bits, the most any n took
        ns = range(1, 301)
        checked, outcome, _, _, bits = central_binomial_check(
            ns, [math.comb(n, (n + 3) // 2) for n in ns])
        assert (checked, outcome, bits) == (300, VERIFIED, 128)


class TestPartitionBound:
    def test_n1(self, table_2001):
        assert _at(partition_bound_check, 1, table_2001[1])[0] == VERIFIED

    def test_n50(self, table_2001):
        outcome, _, margin, _ = _at(partition_bound_check, 50, table_2001[50])
        assert outcome == VERIFIED
        assert margin > 0

    def test_sweep(self, table_2001):
        assert partition_bound_check(range(1, 301), table_2001[1:301])[:2] == (
            300, VERIFIED)


class TestGrowthChain:
    @pytest.mark.parametrize("n", [3, 16])
    def test_boundary_values(self, n):
        assert _at(growth_chain_check, n)[0] == VERIFIED

    def test_sweep(self):
        assert growth_chain_check(range(3, 301))[:2] == (298, VERIFIED)

    def test_large_n(self):
        assert _at(growth_chain_check, 10000)[0] == VERIFIED

    def test_domain(self):
        for ns in (range(2, 10), range(3, 3)):
            with pytest.raises(ValueError):
                growth_chain_check(ns)


class TestDiagonalBounds:
    def test_base_cases(self, diagonal_2001):
        # p(0,0) = 1 < e^a and p(1,0) = 1 < 1*e^a
        assert _at(diagonal_bound_check, 1, diagonal_2001.diagonal[0])[0] == VERIFIED
        assert _at(subdiagonal_bound_check, 1, diagonal_2001.subdiagonal[1])[0] == VERIFIED

    def test_golden_values(self):
        # p(50,50) = 1295971 < e^(a*sqrt(51)), p(50,49) = 6547151 < sqrt(50)e^(a*sqrt(50))
        assert _at(diagonal_bound_check, 51, 1295971)[0] == VERIFIED
        assert _at(subdiagonal_bound_check, 50, 6547151)[0] == VERIFIED

    def test_triangle_and_diagonal_agree(self, triangle_120, table_2001):
        diag = DiagonalTable(120, table_2001)
        for n in (5, 17, 60, 101):
            r1 = _at(diagonal_bound_check, n, triangle_120[n - 1][n - 1])
            r2 = _at(diagonal_bound_check, n, diag.diagonal[n - 1])
            assert r1[0] == VERIFIED
            assert r1 == r2

    def test_sweep(self, diagonal_2001):
        ns = range(1, 301)
        diagonal = diagonal_bound_check(ns, diagonal_2001.diagonal[0:300])
        subdiagonal = subdiagonal_bound_check(ns, diagonal_2001.subdiagonal[1:301])
        assert diagonal[:2] == subdiagonal[:2] == (300, VERIFIED)


# each certified check, its least n and its value at n off the partition
# table t and the diagonal table d (None: the check takes n alone)
CERTIFIED = {
    "central-binomial": (central_binomial_check, 1,
                         lambda n, t, d: math.comb(n, (n + 3) // 2)),
    "partition-bound": (partition_bound_check, 1, lambda n, t, d: t[n]),
    "growth-chain": (growth_chain_check, 3, None),
    "diagonal-bound": (diagonal_bound_check, 1, lambda n, t, d: d.diagonal[n - 1]),
    "subdiagonal-bound": (subdiagonal_bound_check, 1, lambda n, t, d: d.subdiagonal[n]),
}


def _value_at(claim, n, table, diagonal):
    """The value claim's check takes at n, None for a check of n alone."""
    value = CERTIFIED[claim][2]
    return None if value is None else value(n, table, diagonal)


def _run(claim, ns, table, diagonal):
    """The step of claim's check over ns."""
    check, _, value = CERTIFIED[claim]
    if value is None:
        return check(ns)
    return check(ns, [value(n, table, diagonal) for n in ns])


def _ladder_per_n(kernel, ns, values, counterexample):
    """The fold of one ladder per n, in order, as sweeps._fold folds a
    sweep's steps: the reference a one-ladder check must equal.
    kernel's gap function is taken afresh for every n and rung."""
    total = 0, VERIFIED, None, None, None
    for n, value in zip(ns, values):
        def evaluate(bits):
            gap = kernel(bits, *checks.pi_alpha(bits))
            if gap is None:
                return None
            lo, hi = gap(n, value)
            if hi <= 0:
                return VIOLATED, counterexample(n), None, bits
            return None if lo <= 0 else (VERIFIED, None, lo / 2**bits, bits)

        verdict, bits = decide_with_escalation(evaluate, 128)
        total = _fold(total, (1, *(verdict or (INCONCLUSIVE, None, None, bits))))
        if total[1] != VERIFIED:
            break
    return total


def _one_gap(pair):
    """A kernel whose gap is pair at every rung and n."""
    return lambda bits, pi, alpha: lambda n, value: pair


def _perturbed(kernel, straddles, fails):
    """kernel, but at each (n, bits) where straddles holds the gap
    straddles zero, and where fails holds it is certainly negative."""
    def rung(bits, pi, alpha):
        gap = kernel(bits, pi, alpha)

        def perturbed(n, value):
            if straddles(n, bits):
                return -1, 1
            return (-2, -1) if fails(n, bits) else gap(n, value)
        return perturbed
    return rung


def _never(n, bits):
    return False


# perturbations of the claims' kernels over n <= 200: (straddles, fails,
# the fold's (outcome, first n not verified, bits))
PERTURBATIONS = {
    "as-is": (_never, _never, (VERIFIED, None, 128)),
    # every seventh n is open at 128 bits and climbs to 256 alone
    "climb": (lambda n, bits: n % 7 == 0 and bits == 128, _never,
              (VERIFIED, None, 256)),
    # 150 fails at 128 bits and ends the first rung; 98, open there,
    # fails at 256 and so is the first n not verified
    "late-violation": (lambda n, bits: n % 7 == 0 and bits == 128,
                       lambda n, bits: n == 150 or (n, bits) == (98, 256),
                       (VIOLATED, 98, 256)),
    # 140 stays open to the cap, past 112, which clears at 512 bits, and
    # before 180, which fails at 128
    "open-at-cap": (lambda n, bits: n % 7 == 0 and bits == 128 or n == 140
                    or n == 112 and bits < 512,
                    lambda n, bits: n == 180, (INCONCLUSIVE, 140, 512)),
}


class TestCertifiedOutcomes:
    """The outcomes of the shared one-ladder scaffold, fed the integer
    pairs (lo, hi) a kernel's gap function returns."""

    def test_huge_value_is_violated(self):
        assert diagonal_bound_check(range(1, 2), [10**100]) == (
            1, VIOLATED, (1,), None, 128)

    def test_straddling_gap_is_inconclusive_at_cap(self, monkeypatch):
        monkeypatch.setattr(intervals, "DEFAULT_PRECISION_CAP_BITS", 256)
        step = _certified(_one_gap((-1, 1)), range(1, 2), [None], checks._alone, 1)
        assert step == (1, INCONCLUSIVE, None, None, 256)

    def test_negative_gap_violates_past_undecided_gap(self, monkeypatch):
        # a gap certainly <= 0 decides the rung: no precision could verify
        # it; lemma13's chain is decided on the least ends of its two links
        monkeypatch.setattr(intervals, "DEFAULT_PRECISION_CAP_BITS", 256)
        seen = []

        def links(pi, alpha, n, r, r1, bits):
            seen.append(bits)
            return (-1, 1), (-2 << bits, -1)

        monkeypatch.setattr(checks, "_chain_links", links)
        assert growth_chain_check(range(3, 4)) == (1, VIOLATED, (3,), None, 128)
        assert seen == [128]

    @pytest.mark.parametrize("gaps, sign", [
        (((0, 1),), None),       # touches 0 from above: undecided
        (((-1, 0),), False),     # touches 0 from below: violated
        (((0, 0),), False),
        (((1, 1),), True),
        (((1, 2), (0, 5)), None),
        (((3, 4), (1, 10**60)), True),
    ])
    def test_sign_rule_on_integer_pairs(self, monkeypatch, gaps, sign):
        # one gap, as both of lemma13's links, or two links
        monkeypatch.setattr(intervals, "DEFAULT_PRECISION_CAP_BITS", 256)
        seen = []

        def record(pi, alpha, n, r, r1, bits):
            seen.append(bits)
            return gaps if len(gaps) == 2 else gaps * 2

        monkeypatch.setattr(checks, "_chain_links", record)
        checked, outcome, counterexample, margin, bits = growth_chain_check(range(3, 4))
        expected = {True: VERIFIED, False: VIOLATED, None: INCONCLUSIVE}[sign]
        assert checked == 1
        assert outcome == expected
        assert seen == ([128, 256] if sign is None else [128])
        assert bits == seen[-1]
        assert counterexample == ((3,) if sign is False else None)
        # the least lower end in units of 2^-bits, rounded to nearest
        assert margin == (min(lo for lo, _ in gaps) / 2**128 if sign else None)

    @pytest.mark.parametrize("values", [[None] * 4, [None] * 6],
                             ids=["one-short", "one-over"])
    def test_values_must_match_the_range(self, values):
        # a range read to its end with a value missing or left over is no
        # verdict: checked would count an n never evaluated
        with pytest.raises(ValueError):
            _certified(_one_gap((1, 2)), range(1, 6), values, checks._alone, 1)
        assert _certified(_one_gap((1, 2)), range(1, 6), [None] * 5, checks._alone,
                          1) == (5, VERIFIED, None, 2**-128, 128)

    def test_one_undecided_n_climbs_alone(self):
        # n = 5 straddles zero at 128 bits: it alone is taken at 256, where
        # it clears with the least margin, 1/8
        seen = []

        def kernel(bits, pi, alpha):
            def gap(n, value):
                seen.append((bits, n))
                if n == 5:
                    return (-1, 1) if bits == 128 else (1 << bits - 3, 1 << bits)
                return n << bits, n + 1 << bits
            return gap

        assert _certified(kernel, range(1, 10), [None] * 9, checks._alone, 1) == (
            9, VERIFIED, None, 0.125, 256)
        assert seen == [(128, n) for n in range(1, 10)] + [(256, 5)]

    def test_violation_ends_the_walk(self):
        # n = 7 fails at 128 bits: no later n is evaluated or read, and
        # n = 4, open at 128, climbs alone and decides the bits
        read, seen = [], []

        def kernel(bits, pi, alpha):
            def gap(n, value):
                seen.append((bits, n))
                if n == 7:
                    return -2, -1
                return (-1, 1) if (n, bits) == (4, 128) else (1 << bits, 2 << bits)
            return gap

        values = (read.append(n) or n for n in range(1, 50))
        assert _certified(kernel, range(1, 50), values, checks._alone, 1) == (
            7, VIOLATED, (7,), 1.0, 256)
        assert read == list(range(1, 8))
        assert seen == [(128, n) for n in range(1, 8)] + [(256, 4)]

    def test_random_kernels_fold_as_a_ladder_per_n(self, monkeypatch):
        # each (n, bits) clears with a random margin, straddles zero or
        # fails; a rung can have no gap function at all
        monkeypatch.setattr(intervals, "DEFAULT_PRECISION_CAP_BITS", 1024)
        for seed in range(300):
            rng = random.Random(seed)
            ns = range(rng.randrange(1, 4), rng.randrange(4, 60))
            blank = {bits for bits in (128, 256, 512, 1024) if rng.random() < 0.1}
            failing, straddling = rng.choice([(0.0, 0.1), (0.02, 0.2), (0.05, 0.5)])
            pairs = {}
            for n in ns:
                for bits in (128, 256, 512, 1024):
                    draw = rng.random()
                    lo = rng.randrange(1, 4 << bits)
                    pairs[n, bits] = ((-1, -1) if draw < failing else (-1, 1)
                                      if draw < failing + straddling else (lo, lo + 9))

            def kernel(bits, pi, alpha):
                return None if bits in blank else lambda n, value: pairs[n, bits]

            values = [None] * len(ns)
            assert _certified(kernel, ns, values, checks._alone, 1) == _ladder_per_n(
                kernel, ns, values, checks._alone), seed

    @pytest.mark.parametrize("case", sorted(PERTURBATIONS))
    @pytest.mark.parametrize("claim", sorted(CERTIFIED))
    def test_claims_to_200_fold_as_a_ladder_per_n(self, monkeypatch, claim, case,
                                                  table_2001, diagonal_2001):
        # each check's own kernel and counterexample, perturbed: checked,
        # outcome, counterexample, margin and bits as one ladder per n
        monkeypatch.setattr(intervals, "DEFAULT_PRECISION_CAP_BITS", 512)
        straddles, fails, (outcome, first, bits) = PERTURBATIONS[case]
        references = []

        def one_ladder(kernel, ns, values, counterexample, least_n):
            values = list(values)
            kernel = _perturbed(kernel, straddles, fails)
            references.append(_ladder_per_n(kernel, ns, values, counterexample))
            return _certified(kernel, ns, values, counterexample, least_n)

        monkeypatch.setattr(checks, "_certified", one_ladder)
        n_min = CERTIFIED[claim][1]
        step = _run(claim, range(n_min, 201), table_2001, diagonal_2001)
        assert [step] == references
        checked = 201 - n_min if first is None else first - n_min + 1
        assert (step[0], step[1], step[4]) == (checked, outcome, bits)
        assert step[3] is not None


def _record_sign(gap):
    """The sign rule read from a gap's endpoints as mpf values: lower > 0 is
    positive, upper <= 0 is not, anything else (a NaN endpoint included) is
    undecided."""
    lower, upper = map(mpmath.mp.make_mpf, gap)
    if lower > 0:
        return True
    if upper <= 0:
        return False
    return None


def _reference_gaps(claim, n, table, diagonal, point=None):
    """Each certified check's gaps as `iv` operator expressions, as endpoint pairs.

    mpmath's operator dispatch, inside one working_precision(bits), is a
    route separate from the checks' integer kernels.  point, if given, is
    a pair of dyadic Fractions that stand for pi and a.
    """
    def constants():
        if point:
            return tuple(iv.mpf(x.numerator) / x.denominator for x in point)
        pi = +iv.pi
        return pi, iv.sqrt(iv.mpf(2) / 3) * pi

    if claim == "central-binomial":
        kn = (n + 3) // 2
        c = math.comb(n, kn)

        def expressions():
            pi, _ = constants()
            rhs = iv.mpf(2 << (2 * n))
            gap = rhs - iv.mpf(c * c * n) * pi
            return (gap / rhs,)
    elif claim == "partition-bound":
        def expressions():
            pi, alpha = constants()
            nn = iv.mpf(n)
            lhs = iv.log(iv.mpf(table[n]))
            rhs = iv.log(pi / iv.sqrt(6 * nn)) + alpha * iv.sqrt(nn)
            return (rhs - lhs,)
    elif claim == "growth-chain":
        def expressions():
            pi, alpha = constants()
            nn = iv.mpf(n)
            sqrt_n = iv.sqrt(nn)
            left = sqrt_n / (iv.sqrt(nn + 1) - 1)
            mid = 1 + pi / iv.sqrt(6 * nn)
            right = iv.exp(alpha * sqrt_n * (iv.sqrt(1 + 1 / nn) - 1))
            return (mid - left, right - mid)
    elif claim == "diagonal-bound":
        def expressions():
            _, alpha = constants()
            lhs = iv.log(iv.mpf(diagonal.diagonal[n - 1]))
            rhs = alpha * iv.sqrt(iv.mpf(n))
            return (rhs - lhs,)
    else:
        def expressions():
            _, alpha = constants()
            nn = iv.mpf(n)
            lhs = iv.log(iv.mpf(diagonal.subdiagonal[n]))
            rhs = iv.log(nn) / 2 + alpha * iv.sqrt(nn)
            return (rhs - lhs,)

    def gaps(bits):
        with working_precision(bits):
            return tuple(gap._mpi_ for gap in expressions())
    return gaps


def _step_and_kernel(monkeypatch, run_check):
    """run_check()'s step and the kernel its check handed _certified."""
    handed = []

    def recording(kernel, *args):
        handed.append(kernel)
        return _certified(kernel, *args)

    monkeypatch.setattr(checks, "_certified", recording)
    step = run_check()
    (kernel,) = handed
    return step, kernel


_CHAIN_LINKS = checks._chain_links


def _kernel_pairs(monkeypatch, kernel, bits, n, value):
    """The gap pairs kernel decides n on at bits: lemma13's two links,
    whose least ends its gap function returns, or the one gap."""
    links = []
    monkeypatch.setattr(checks, "_chain_links", lambda *args: (
        links.append(_CHAIN_LINKS(*args)) or links[-1]))
    pair = kernel(bits, *checks.pi_alpha(bits))(n, value)
    if not links:
        return (pair,)
    (both,) = links
    assert pair == tuple(map(min, *both))
    return both


def _reference_decision(gaps):
    """(outcome, margin, bits) from mpf endpoint reads, as _certified decides them."""
    margin = {}

    def evaluate(bits):
        enclosures = gaps(bits)
        signs = [_record_sign(gap) for gap in enclosures]
        if None in signs:
            return None
        if all(signs):
            margin["m"] = min(float(mpmath.mp.make_mpf(lower))
                              for lower, _ in enclosures)
            return True
        return False

    outcome, bits = decide_with_escalation(evaluate, 128)
    if outcome is None:
        return INCONCLUSIVE, None, bits
    return (VERIFIED if outcome else VIOLATED), margin.get("m"), bits


@pytest.fixture(scope="module")
def tables_20000():
    table = build_partition_table(20000)
    return table, DiagonalTable(20000, table)


class TestRawIntervalGaps:
    """The certified checks' integer kernels against `iv` operator
    references, a second library: at each rung from 128 or 256 bits to
    512, every kernel pair (lo, hi) holds the reference gap enclosed at
    1024 bits, and its width in units of 2^-bits stays within a stated
    bound; and each check's verdict (outcome, margin, bits) is the
    decision the reference reaches from 128 bits, as the `libmpi` checks
    it replaced reached it, which keeps every printed margin."""

    @staticmethod
    def _width_bound(claim, n, bits):
        """hi - lo at 2^-bits: a's width times sqrt(n) for the logs, the
        fixed-point Taylor terms of e^x for lemma13, a few units for
        stirling."""
        if claim == "central-binomial":
            return 4
        if claim == "growth-chain":
            return (16 + bits // 4) * (math.isqrt(n) + 1)
        return 16 * (math.isqrt(n) + 1)

    def _assert_matches_reference(self, monkeypatch, claim, n, from_bits,
                                  table, diagonal, decide=True):
        """The kernel's pairs at every rung from from_bits to 512 hold the
        1024-bit reference and keep within the width bound; with decide,
        the check's verdict at n is the 128-bit reference decision."""
        (_, outcome, _, margin, bits), kernel = _step_and_kernel(
            monkeypatch, lambda: _run(claim, range(n, n + 1), table, diagonal))
        reference = _reference_gaps(claim, n, table, diagonal)
        if decide:
            assert (outcome, margin, bits) == _reference_decision(reference), n
        exact = [fractions(gap) for gap in reference(1024)]
        value = _value_at(claim, n, table, diagonal)
        rung = from_bits
        while rung <= 512:
            for (lo, hi), (lower, upper) in zip(
                    _kernel_pairs(monkeypatch, kernel, rung, n, value), exact):
                assert Fraction(lo, 2**rung) <= lower and upper <= Fraction(hi, 2**rung), \
                    (n, rung)
                assert hi - lo <= self._width_bound(claim, n, rung), (n, rung)
            rung *= 2

    @pytest.mark.parametrize("from_bits", [128, 256])
    @pytest.mark.parametrize("claim", sorted(CERTIFIED))
    def test_matches_iv_operator_reference(self, monkeypatch, claim, from_bits,
                                           tables_20000):
        n_min = CERTIFIED[claim][1]
        samples = [n_min, n_min + 1, 10, 100, 1000, 1999, 2000,
                   *range(2001 + from_bits, 20000, 997), 20000]
        if claim == "growth-chain":
            samples += [10**5, 314159, 999999, 10**6]
        for n in samples:
            self._assert_matches_reference(monkeypatch, claim, n, from_bits,
                                           *tables_20000)

    @pytest.mark.parametrize("from_bits", [128, 256])
    @pytest.mark.parametrize("claim", sorted(CERTIFIED))
    def test_every_n_to_400_matches_reference(self, monkeypatch, claim, from_bits,
                                              table_2001, diagonal_2001):
        for n in range(CERTIFIED[claim][1], 401):
            self._assert_matches_reference(monkeypatch, claim, n, from_bits,
                                           table_2001, diagonal_2001, decide=False)

    @pytest.mark.parametrize("claim", sorted(CERTIFIED))
    def test_every_n_to_2000_decides_as_the_128_bit_reference(self, claim, table_2001,
                                                              diagonal_2001):
        # each n alone, and their fold as the check takes them together
        n_min = CERTIFIED[claim][1]
        total = 0, VERIFIED, None, None, None
        for n in range(n_min, 2001):
            _, outcome, _, margin, bits = _run(claim, range(n, n + 1), table_2001,
                                               diagonal_2001)
            reference = _reference_gaps(claim, n, table_2001, diagonal_2001)
            assert (outcome, margin, bits) == _reference_decision(reference), n
            total = _fold(total, (1, outcome, None, margin, bits))
        assert _run(claim, range(n_min, 2001), table_2001, diagonal_2001) == total

    # n at which one unit moved inward in a kernel shows: every n to 60,
    # then a sweep
    POINT_NS = [*range(3, 61), *range(61, 2001, 13)]

    @pytest.mark.parametrize("claim", sorted(CERTIFIED))
    def test_kernels_hold_the_reference_at_point_constants(self, monkeypatch, claim,
                                                           table_2001, diagonal_2001):
        # pi and a as points, pi_alpha's lower ends: the pairs then differ
        # from the reference only by the kernel's own roundings, so one
        # moved inward shows
        points = {bits: tuple(lower for lower, _ in pi_alpha(bits)) for bits in (128, 256)}
        monkeypatch.setattr(checks, "pi_alpha", lambda bits: tuple(
            (x, x) for x in points[bits]))
        for n in self.POINT_NS:
            _, kernel = _step_and_kernel(monkeypatch, lambda: _run(
                claim, range(n, n + 1), table_2001, diagonal_2001))
            value = _value_at(claim, n, table_2001, diagonal_2001)
            for bits, point in points.items():
                reference = _reference_gaps(claim, n, table_2001, diagonal_2001,
                                            [Fraction(x, 2**bits) for x in point])
                for (lo, hi), (lower, upper) in zip(
                        _kernel_pairs(monkeypatch, kernel, bits, n, value),
                        map(fractions, reference(1024))):
                    assert Fraction(lo, 2**bits) <= lower, (n, bits)
                    assert upper <= Fraction(hi, 2**bits), (n, bits)
                    # e^x's Taylor sums lose a unit a term on each side
                    assert hi - lo <= (bits // 2 if claim == "growth-chain" else 8), \
                        (n, bits)

    # the tests' `iv` references call these libmpi functions, entered as
    # integer endpoints and then mpi_div; mpmath 1.3.0's mpf_exp rounds
    # exp(y) up to exactly 1 for y in [2^-(bits+15), 2^-(bits+14)), so y
    # keeps to denominators below 2^120
    @pytest.mark.parametrize("bits", [128, 256])
    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(x=st.builds(Fraction, st.integers(1, 10**45), st.integers(1, 10**45)),
           y=st.builds(Fraction, st.integers(1, 10**39),
                       st.integers(10**33, 10**36)))
    def test_libmpi_functions_enclose_high_precision_values(self, bits, x, y):
        for fn, reference, arg in ((mpi_sqrt, mpmath.sqrt, x),
                                   (mpi_log, mpmath.log, x),
                                   (mpi_exp, mpmath.exp, y)):
            entered = mpi_div(int_interval(arg.numerator, bits),
                              int_interval(arg.denominator, bits), bits)
            enclosure = fn(entered, bits)
            with mpmath.workprec(1024):
                value = mpf_to_fraction(
                    reference(mpmath.mpf(arg.numerator) / arg.denominator))
            assert contains(enclosure, value), (fn.__name__, arg)
            lower, upper = fractions(enclosure)
            width = upper - lower
            assert width <= Fraction(2) ** (12 - bits) \
                * max(1, abs(value)) * max(1, arg), (fn.__name__, arg)

    def test_results_ignore_global_precision(self, table_2001, diagonal_2001):
        def run_all():
            verdicts = [_run(claim, range(n, n + 1), table_2001, diagonal_2001)
                        for claim, (_, n_min, _) in CERTIFIED.items()
                        for n in (n_min, 10, 1000)]
            return verdicts, fractions(corollary_bound(50))

        results = []
        for prec in (53, 2048):
            with working_precision(prec):
                results.append(run_all())
        assert results[0] == results[1]

    def test_no_precision_switch_once_constants_cached(self, monkeypatch):
        pi_alpha(128)
        enters = []
        original = intervals.working_precision

        def counting(bits):
            enters.append(bits)
            return original(bits)

        monkeypatch.setattr(intervals, "working_precision", counting)
        assert growth_chain_check(range(100, 101))[4] == 128
        assert enters == []

    def test_cached_constants_enclose_pi_and_alpha(self):
        with mpmath.workprec(1024):
            pi = +mpmath.pi
            alpha = mpmath.sqrt(mpmath.mpf(2) / 3) * pi
        exact = (mpf_to_fraction(pi), mpf_to_fraction(alpha))
        widths = []
        for bits in (128, 256, 512):
            assert pi_alpha(bits) is pi_alpha(bits)
            enclosures = pi_alpha(bits)
            for (lo, hi), value in zip(enclosures, exact):
                assert Fraction(lo, 2**bits) <= value <= Fraction(hi, 2**bits), bits
            widths.append([Fraction(hi - lo, 2**bits) for lo, hi in enclosures])
        for coarse, fine in zip(widths, widths[1:]):
            assert all(f < c for c, f in zip(coarse, fine))


def _iv_fractions(value):
    """The 1024-bit `iv` enclosure of an expression value(), as Fractions."""
    with working_precision(1024):
        return fractions(value()._mpi_)


class TestFixedPoint:
    """ln and exp_bracket, the kernel's fixed-point series, against
    mpmath's `iv` at 1024 bits, at rungs 128, 256 and 512."""

    T = intervals.LN_TABLE_BITS
    T_EXP = intervals.EXP_TABLE_BITS

    @pytest.fixture(params=[intervals.LN_GUARD_BITS, 0], ids=["guarded", "unguarded"])
    def guard(self, request, monkeypatch):
        """ln as it runs, and with no guard bits, so that its pairs show
        every unit its own roundings lose."""
        monkeypatch.setattr(intervals, "LN_GUARD_BITS", request.param)
        return request.param

    def _assert_ln(self, num, den, guard):
        lower, upper = _iv_fractions(lambda: iv.log(iv.mpf(num) / den))
        for bits in (128, 256, 512):
            lo, hi = intervals.ln(num, den, bits)
            assert Fraction(lo, 2**bits) <= lower, (num, den, bits)
            assert upper <= Fraction(hi, 2**bits), (num, den, bits)
            # at 2^-w: 10 units of ln 2 per power of two, 10 per table step
            # and 10 for the series, rounded outward to 2^-bits
            b = abs(num.bit_length() - den.bit_length()) + 1
            assert hi - lo <= ((10 * b + 2570) >> guard) + 2, (num, den, bits)

    @pytest.mark.parametrize("w", [128, 160, 288, 544])
    def test_atanh2_encloses_the_reference(self, w):
        rng = random.Random(w)
        for _ in range(300):
            den = rng.getrandbits(rng.choice((8, 64, 300))) + 3
            num = rng.randrange(den // 3 + 1)
            lower, upper = _iv_fractions(
                lambda: iv.log((iv.mpf(den) + num) / (iv.mpf(den) - num)))
            lo, hi = intervals._atanh2(num, den, w)
            assert Fraction(lo, 2**w) <= lower and upper <= Fraction(hi, 2**w), (num, den)
            assert hi - lo == 10

    def test_ln_of_powers_of_two_and_their_neighbours(self, guard):
        self._assert_ln(1, 1, guard)
        self._assert_ln(2, 1, guard)
        for m in range(1, 300, 7):
            for v in (2**m - 1, 2**m, 2**m + 1):
                self._assert_ln(v, 1, guard)

    def test_ln_on_the_reduction_table_boundaries(self, guard):
        # q's top T + 1 bits are c = 2^T + i: mantissas at both ends of
        # entry i, and ratios num/den below 1 and past 2^w
        for c in [*range(1 << self.T, 2 << self.T, 17), (2 << self.T) - 1]:
            for k in (0, 40, 150, 600):
                self._assert_ln(c << k, 1, guard)
                self._assert_ln((c << k) - 1, 1, guard)
                self._assert_ln(((c + 1) << k) - 1, 1, guard)
            self._assert_ln(c, 3 << 200, guard)
            self._assert_ln(c << 900, 7, guard)

    def test_ln_of_partition_numbers(self, tables_20000, guard):
        table, _ = tables_20000
        for n in [*range(1, 400), *range(400, 20001, 83)]:
            self._assert_ln(table[n], 1, guard)
            self._assert_ln(table[n] ** 2, n, guard)

    def test_ln_of_a_100000_bit_integer(self, guard):
        v = 3**63093 >> 1
        assert v.bit_length() == 100000
        self._assert_ln(v, 1, guard)
        self._assert_ln(v + 1, 5**100, guard)

    @pytest.mark.parametrize("bits", [128, 256])
    def test_fixed_scales_endpoints_exactly(self, bits):
        # pi_alpha's integer pairs are the floor of the lower and the
        # ceiling of the upper end of pi and a enclosed in `iv` at bits
        with working_precision(bits):
            pi = +iv.pi
            enclosures = pi._mpi_, (iv.sqrt(iv.mpf(2) / 3) * pi)._mpi_
        for (lo, hi), (lower, upper) in zip(pi_alpha(bits), map(fractions, enclosures)):
            assert (lo, hi) == (math.floor(lower * 2**bits), math.ceil(upper * 2**bits))

    # x = X/2^192 in (0, 1], past the chain's largest argument
    # a/(2 + sqrt(3)) = 0.687 at n = 3: a geometric sweep; X = 2^m and
    # 2^m + 1; and five X found by search at which one term of a plain
    # term-by-term Taylor sum, rounded inward, moves the bracket past the
    # reference
    EXP_ARGUMENTS = [
        *(round(2**192 / 2**(i / 4)) for i in range(0, 760, 7)),
        *(2**m + d for m in range(192) for d in (0, 1)),
        38434506414565544159154656816409106076097576960,
        3793333257791378215361266416562253329491508068352,
        3278612195155372796049261064176184480462012416,
        6067754520980391850605076396933481156596186742784,
        279668687598976890503429642995051391971630755348480]

    @pytest.mark.parametrize("bits", [128, 192, 256, 512])
    def test_exp_bracket_holds_e_to_the_x(self, bits, monkeypatch):
        references = {}

        def reference(x):  # e^x enclosed at 1024 bits, at 2^-bits
            if x not in references:
                references[x] = [v * 2**bits for v in _iv_fractions(
                    lambda: iv.exp(iv.mpf(x) / 2**bits))]
            return references[x]

        # the reduction table's entries e^(i/2^T) sit at x = i*2^(bits-T):
        # each, one unit either side, up to x = 1, the domain's end; and
        # intervals that straddle an entry, by one unit and by a quarter
        # of the table's step
        step = 1 << (bits - self.T_EXP)
        boundaries = [i * step for i in range((1 << self.T_EXP) + 1)]
        points = [*(x << bits >> 192 for x in self.EXP_ARGUMENTS),
                  *(b + d for b in boundaries for d in (-1, 0, 1)
                    if 0 <= b + d <= 1 << bits)]
        ranges = [*((x // 2, x) for x in points),
                  *((b - d, b + d) for b in boundaries[1:-1] for d in (1, step // 4))]
        # as it runs, and with no guard bits, so that the pairs show every
        # unit the table and the series lose: each end misses e^x by less
        # than 2^15 units at 2^-(bits + guard)
        for guard in (intervals.EXP_GUARD_BITS, 0):
            monkeypatch.setattr(intervals, "EXP_GUARD_BITS", guard)
            slack = (2**16 >> guard) + 3
            for x in points:
                (e_lo, e_hi), (lo, hi) = reference(x), intervals.exp_bracket(x, x, bits)
                assert lo <= e_lo and e_hi <= hi and hi - lo <= slack, (x, guard)
                if guard:
                    assert hi - lo < bits, x
            for x_lo, x_hi in ranges:
                # [lo, hi] holds e^x over all of [x_lo, x_hi]
                lo, hi = intervals.exp_bracket(x_lo, x_hi, bits)
                assert lo <= reference(x_lo)[0] and reference(x_hi)[1] <= hi, \
                    (x_lo, x_hi, guard)
                assert hi - lo <= reference(x_hi)[1] - reference(x_lo)[0] + slack, \
                    (x_lo, x_hi, guard)

    @pytest.mark.parametrize("bits", [128, 256])
    def test_exp_bracket_refuses_x_past_one(self, bits):
        # x = 1 itself is among test_exp_bracket_holds_e_to_the_x's points
        with pytest.raises(ValueError):
            intervals.exp_bracket(0, (1 << bits) + 1, bits)

    @pytest.mark.parametrize("w", [160, 288])
    def test_exp_point_in_closed_form_below_the_square_root(self, w):
        # within a unit of e^(x/2^w)*2^w on each side below 2^(w/2), the
        # closed form's range, and enclosing it past that
        rng = random.Random(w)
        edge = 1 << w // 2
        for x in [0, 1, 2, edge - 1, edge, edge + 1, 2 * edge, 4 * edge, 1 << w,
                  *(rng.getrandbits(rng.randrange(1, w + 1)) for _ in range(200))]:
            e_lo, e_hi = (v * 2**w for v in _iv_fractions(lambda: iv.exp(iv.mpf(x) / 2**w)))
            lo, hi = intervals._exp_point(x, w)
            assert lo <= e_lo and e_hi <= hi, x
            if x < edge:
                assert e_lo - lo <= 1 and hi - e_hi <= 1, x

    @pytest.mark.parametrize("bits", [128, 256])
    def test_exp_bracket_holds_e_to_the_x_over_random_widths(self, bits, monkeypatch):
        # random x in [0, 1] and widths of 0, of a few units, as the chain
        # passes, of any bit length, and about the largest, edge, whose
        # e^(x_hi - x_lo) is taken in closed form: d < 2^(w/2) for
        # d = width*2^guard at 2^-w, w = bits + guard
        for guard in (intervals.EXP_GUARD_BITS, 0):
            monkeypatch.setattr(intervals, "EXP_GUARD_BITS", guard)
            rng = random.Random(bits + guard)
            edge = 1 << (bits - guard) // 2
            slack = (2**16 >> guard) + 3
            for _ in range(150):
                x_lo = rng.randrange(1 << bits)
                x_hi = min(x_lo + rng.choice([0, rng.randrange(1, 9), edge, edge + 1,
                                              rng.getrandbits(rng.randrange(1, bits))]),
                           1 << bits)
                lo, hi = intervals.exp_bracket(x_lo, x_hi, bits)
                e_lo = _iv_fractions(lambda: iv.exp(iv.mpf(x_lo) / 2**bits))[0] * 2**bits
                e_hi = _iv_fractions(lambda: iv.exp(iv.mpf(x_hi) / 2**bits))[1] * 2**bits
                assert lo <= e_lo and e_hi <= hi, (x_lo, x_hi, guard)
                assert hi - lo <= e_hi - e_lo + slack, (x_lo, x_hi, guard)


class TestProductBound:
    def test_n50_k25(self, triangle_120):
        # every k of row 50 clears, k = 25 among them
        assert product_bound_check(50, triangle_120[50])[:3] == (49, VERIFIED, None)
        # sanity anchor: p(50,25) < C(50,25) * 3.4627...
        assert triangle_120[50][25] < math.comb(50, 25) * EULER_PRODUCT_HALF

    def test_n2_k1(self, triangle_120):
        # p(2,1) = 3 < 2 * F(1/2) ~ 6.93
        assert triangle_120[2][1] == 3
        assert product_bound_check(2, triangle_120[2])[:3] == (1, VERIFIED, None)

    def test_sweep_zero_inconclusive(self, triangle_120):
        for n in range(2, 81):
            checked, outcome, _, _ = product_bound_check(n, triangle_120[n])
            assert (checked, outcome) == (n - 1, VERIFIED), n

    def test_depth_cap_reports_inconclusive(self, monkeypatch, triangle_120):
        # with an artificially tiny cap the partial product cannot clear
        monkeypatch.setattr(checks, "DEFAULT_DEPTH_CAP", 1)
        _, outcome, counterexample, _ = _product_report(50, 49, triangle_120[50])
        assert outcome == INCONCLUSIVE
        assert counterexample == (50, 49)

    def test_domain(self, triangle_120):
        with pytest.raises(ValueError):
            product_bound_check(1, triangle_120[1])


def _alone(k, row):
    """row with every entry but k zeroed: those clear at the first depth,
    with margin 1.0, so k alone sets the rungs and decides the row's fold
    whatever its outcome."""
    return tuple(value if i == k else 0 for i, value in enumerate(row))


def _product_report(n, k, row):
    """product_bound_check's fold of row n with k alone."""
    return product_bound_check(n, _alone(k, row))


def _float_ratio(n, k, p, c, depth):
    """product_bound_check's r^ = fl(p/C) * fl(1 - q_1) * ... * fl(1 - q_L),
    q_1 = fl(k/n) and q_j = fl(q_{j-1} * q_1), multiplied left to right."""
    q = k / n
    qpow, ratio = 1.0, p / c
    for _ in range(depth):
        qpow *= q
        ratio *= 1.0 - qpow
    return ratio


class TestProductLadder:
    """product_bound_check on decide_with_escalation, against the fold of
    the hand-written depth loop."""

    def test_matches_reference_to_120(self, triangle_120):
        for n in range(2, 121):
            assert product_bound_check(n, triangle_120[n]) \
                == reference_row_fold(n, triangle_120[n]), n

    @pytest.mark.parametrize("depth_cap", [1, 2, 8])
    def test_matches_reference_at_small_caps(self, monkeypatch, triangle_120,
                                             depth_cap):
        monkeypatch.setattr(checks, "DEFAULT_DEPTH_CAP", depth_cap)
        for k in range(1, 50):
            assert _product_report(50, k, triangle_120[50]) \
                == reference_row_fold(50, _alone(k, triangle_120[50]),
                                      depth_cap), k

    def test_row_matches_reference_to_300(self, triangle_1000):
        for n in range(2, 301):
            assert product_bound_check(n, triangle_1000[n]) \
                == reference_row_fold(n, triangle_1000[n]), n

    @pytest.mark.parametrize("depth_cap", [1, 2, 8])
    def test_row_ends_at_first_inconclusive(self, monkeypatch, triangle_120,
                                            depth_cap):
        monkeypatch.setattr(checks, "DEFAULT_DEPTH_CAP", depth_cap)
        fold = product_bound_check(50, triangle_120[50])
        assert fold == reference_row_fold(50, triangle_120[50], depth_cap)
        assert (fold[1] == INCONCLUSIVE) == (depth_cap < 8)

    def test_margin_is_taken_before_the_first_open_k(self, triangle_120):
        # k = 1 clears with margin 1.0 and k = 2 never clears; k = 3..49
        # clear with smaller margins, which the fold must leave out
        row = (1, 0, 10**100) + triangle_120[50][3:]
        fold = product_bound_check(50, row)
        assert fold == (2, INCONCLUSIVE, (50, 2), 1.0)
        assert fold == reference_row_fold(50, row)

    def test_rows_301_to_600_match_reference(self, triangle_1000):
        for n in range(301, 601, 10):
            assert product_bound_check(n, triangle_1000[n]) \
                == reference_row_fold(n, triangle_1000[n]), n

    @pytest.mark.parametrize("depth_cap", [4, 8, 256])
    def test_open_k_with_holes(self, monkeypatch, triangle_120, depth_cap):
        # row 50 leaves k = 35..48 open at depth 4; zeroing k = 40 and 44
        # clears them there, so the open k after depth 4 are not contiguous
        row = tuple(0 if k in (40, 44) else p for k, p in enumerate(triangle_120[50]))
        open_at_4 = [k for k in range(1, 50)
                     if reference_row_fold(50, _alone(k, row), 4)[1] == INCONCLUSIVE]
        assert open_at_4 == [35, 36, 37, 38, 39, 41, 42, 43, 45, 46, 47, 48]
        monkeypatch.setattr(checks, "DEFAULT_DEPTH_CAP", depth_cap)
        assert product_bound_check(50, row) == reference_row_fold(50, row, depth_cap)
        # row 200 meets three kinds of k at depth 4, in row order and
        # reversed: one the float clears; one in the band whose exact sides
        # stay >= 1 although its r^ is below 1, so that the float alone
        # would clear it (it goes on with its r^ and clears at 8); and one
        # whose p/C overflows, as would its lhs/rhs if a k kept open went
        # on with lhs/rhs instead of r^
        for cleared, band, overflow in ((60, 105, 140), (140, 105, 60)):
            row = self._three_kinds(200, cleared, band, overflow)
            fold = product_bound_check(200, row)
            assert fold == reference_row_fold(200, row, depth_cap)
            # the counterexample is the first k still open, in row order
            first = band if depth_cap == 4 and band < overflow else overflow
            assert fold[1:3] == (INCONCLUSIVE, (200, first))

    def _three_kinds(self, n, cleared, band, overflow):
        """Row n, zero but at three k: at depth 4, cleared's r^ is about
        1/2, band's r^ lies below 1 by less than 2 eps while its lhs >= rhs,
        and overflow's p/C is past the float range."""
        row = [0] * (n + 1)
        den, rhs = self._sides_at_depth_4(n, cleared)
        row[cleared] = rhs // (2 * den)
        den, rhs = self._sides_at_depth_4(n, band)
        row[band] = -(-rhs // den)
        row[overflow] = 10**400
        eps = 1.01 * 2.0**-53 * (2 * 4 * (n + 1) + 1)
        assert _float_ratio(n, cleared, row[cleared], math.comb(n, cleared), 4) \
            < 1 - 2 * eps
        assert 1 - 2 * eps <= _float_ratio(n, band, row[band], math.comb(n, band), 4) \
            < 1 <= row[band] * den / rhs
        with pytest.raises(OverflowError):
            row[overflow] / math.comb(n, overflow)
        return tuple(row)

    def test_margin_among_tied_ratios_is_exact(self):
        # k = 100 and 101 of row 200 alone, each with lhs/rhs at depth 4
        # just below t = 1 - 1/(3*10^10): the float ratios tie, but k = 100
        # sits 10^-20 lower, so its slack is larger and the margin is
        # k = 101's, which 1 - (lhs/rhs) as a float would miss
        n, t = 200, 1 - Fraction(1, 3 * 10**10)
        num = math.prod(n**j for j in range(1, 5))
        row = [0] * (n + 1)
        sides = {}
        for k, below in ((100, Fraction(1, 10**20)), (101, 0)):
            den = math.prod(n**j - k**j for j in range(1, 5))
            rhs = math.comb(n, k) * num
            row[k] = math.floor((t - below) * rhs / den)
            sides[k] = row[k] * den, rhs
        (lhs_a, rhs_a), (lhs_b, rhs_b) = sides[100], sides[101]
        assert lhs_a / rhs_a == lhs_b / rhs_b
        slack = (rhs_b - lhs_b) / rhs_b
        assert (rhs_a - lhs_a) / rhs_a > slack != 1 - lhs_b / rhs_b
        fold = product_bound_check(n, tuple(row))
        assert fold == (n - 1, VERIFIED, None, slack)
        assert fold == reference_row_fold(n, tuple(row))

    def test_margin_where_float_enclosures_misorder(self):
        # k = 100 and 120 of row 200 alone at depth 4: k = 120's lhs/rhs
        # is 10^-17 above k = 100's, so its slack is the margin, but k = 100
        # has the larger r^ by an ulp: the margin must be sought among all
        # k whose r^ is near the largest, not at the largest alone
        n, t = 200, 1 - Fraction(28, 1000)
        row, sides = [0] * (n + 1), {}
        for k, below in ((100, Fraction(1, 10**17)), (120, 0)):
            den, rhs = self._sides_at_depth_4(n, k)
            row[k] = math.floor((t - below) * rhs / den)
            sides[k] = row[k] * den, rhs
        assert _float_ratio(n, 100, row[100], math.comb(n, 100), 4) \
            > _float_ratio(n, 120, row[120], math.comb(n, 120), 4)
        (lhs_a, rhs_a), (lhs_b, rhs_b) = sides[100], sides[120]
        slack = (rhs_b - lhs_b) / rhs_b
        assert lhs_a * rhs_b < lhs_b * rhs_a and (rhs_a - lhs_a) / rhs_a > slack
        fold = product_bound_check(n, tuple(row))
        assert fold == (n - 1, VERIFIED, None, slack)
        assert fold == reference_row_fold(n, tuple(row))

    @staticmethod
    def _sides_at_depth_4(n, k):
        """(den, rhs) of eq. 9 at (n, k) and depth 4: lhs = p(n,k) * den."""
        den = math.prod(n**j - k**j for j in range(1, 5))
        return den, math.comb(n, k) * math.prod(n**j for j in range(1, 5))

    def test_clears_a_hair_below_one_exactly(self, monkeypatch):
        # lhs = rhs - O(den) at depth 4: lhs/rhs - 1 is about -10^-59, far
        # inside any float's rounding, so only exact sides can clear it
        n, k = 200, 100
        den, rhs = self._sides_at_depth_4(n, k)
        row = [0] * (n + 1)
        row[k] = (rhs - 1) // den
        lhs = row[k] * den
        assert lhs < rhs and 0 < (rhs - lhs) / rhs < 1e-58
        fold, visited = self._rungs(monkeypatch, n, k, tuple(row))
        assert visited == [4]
        assert fold == (n - 1, VERIFIED, None, (rhs - lhs) / rhs)
        assert fold == reference_row_fold(n, tuple(row))

    def test_does_not_clear_a_hair_above_one(self, monkeypatch):
        # lhs >= rhs by less than den at depth 4: open there, cleared at 8
        n, k = 200, 100
        den, rhs = self._sides_at_depth_4(n, k)
        row = [0] * (n + 1)
        row[k] = -(-rhs // den)
        assert rhs <= row[k] * den < rhs + den
        fold, visited = self._rungs(monkeypatch, n, k, tuple(row))
        assert visited == [4, 8]
        assert fold[:3] == (n - 1, VERIFIED, None)
        assert fold == reference_row_fold(n, tuple(row))

    def test_ratio_past_the_float_range(self, monkeypatch):
        # p(n,k)/C(n,k) = 10^400/C(200,100) overflows a float: the k is
        # decided on exact sides at every depth, open to the cap
        n, k = 200, 100
        row = [0] * (n + 1)
        row[k] = 10**400
        with pytest.raises(OverflowError):
            row[k] / math.comb(n, k)
        fold, visited = self._rungs(monkeypatch, n, k, tuple(row))
        assert visited == [4, 8, 16, 32, 64, 128, 256]
        assert fold == (k, INCONCLUSIVE, (n, k), 1.0)
        assert fold == reference_row_fold(n, tuple(row))

    def test_one_ladder_per_row(self, monkeypatch, triangle_1000):
        calls = []

        def recording(evaluate, *ladder_args):
            calls.append(ladder_args)
            return decide_with_escalation(evaluate, *ladder_args)

        monkeypatch.setattr(checks, "decide_with_escalation", recording)
        assert product_bound_check(130, triangle_1000[130])[0] == 129
        assert calls == [(4, 256)]

    def test_ladder_work_at_the_default_range(self, monkeypatch, triangle_1000):
        # verify eq9's default rows 2..300: the rungs each row's ladder
        # visits and the depths at which exact sides are taken, band and
        # margin together, so that a change which widens the band or the
        # margin search, or climbs more rungs, fails here
        rungs, exact = Counter(), Counter()
        product_sides = checks._product_sides

        def recording_sides(n, k, p, c, depth):
            exact[depth] += 1
            return product_sides(n, k, p, c, depth)

        def recording(evaluate, *ladder_args):
            def evaluate_and_record(level):
                rungs[level] += 1
                return evaluate(level)
            return decide_with_escalation(evaluate_and_record, *ladder_args)

        monkeypatch.setattr(checks, "_product_sides", recording_sides)
        monkeypatch.setattr(checks, "decide_with_escalation", recording)
        for n in range(2, 301):
            assert product_bound_check(n, triangle_1000[n])[1] == VERIFIED, n
        assert rungs == {4: 299, 8: 262, 16: 171}
        assert exact == {4: 298, 8: 1}

    def test_row_length_checked(self, triangle_120):
        with pytest.raises(ValueError):
            product_bound_check(50, triangle_120[49])

    @staticmethod
    def _rungs(monkeypatch, *args):
        visited = []

        def recording(evaluate, *ladder_args):
            def evaluate_and_record(level):
                visited.append(level)
                return evaluate(level)
            return decide_with_escalation(evaluate_and_record, *ladder_args)

        monkeypatch.setattr(checks, "decide_with_escalation", recording)
        fold = _product_report(*args)
        return fold, visited

    def test_rungs_to_depth_16(self, monkeypatch, triangle_1000):
        # (130, 117) is the first pair that the partial product at depth 8
        # does not clear
        fold, visited = self._rungs(monkeypatch, 130, 117, triangle_1000[130])
        assert fold[1] == VERIFIED
        assert visited == [4, 8, 16]

    def test_rungs_clamped_to_cap(self, monkeypatch, triangle_120):
        monkeypatch.setattr(checks, "DEFAULT_DEPTH_CAP", 1)
        fold, visited = self._rungs(monkeypatch, 50, 49, triangle_120[50])
        assert fold[1] == INCONCLUSIVE
        assert visited == [1]


class TestProductEnclosure:
    """The float enclosure r^ of product_bound_check's docstring stays
    within eps(n, L) = 1.01*u*(2L(n+1) + 1) of the exact ratio lhs/rhs."""

    def test_binary64_premise(self):
        # the bound assumes radix 2, a 53-bit significand and round to nearest
        info = sys.float_info
        assert (info.radix, info.mant_dig, info.rounds) == (2, 53, 1)

    def test_error_within_bound(self):
        rng = random.Random(20260)
        cases = [(10**4, 1, 256), (10**4, 5000, 256), (10**4, 10**4 - 1, 256),
                 (2, 1, 1), (3, 2, 256)]
        for _ in range(30):
            n = rng.randint(2, 10**4)
            cases.append((n, rng.choice((1, n // 2, n - 1)), rng.randint(1, 256)))
        for n, k, depth in cases:
            # p/C just above 2^e, e set so that r^ stays a normal float: at
            # (10^4, 1, 256) q_j underflows to 0 from j = 77 on
            log2_product = sum(math.log1p(-((k / n) ** j))
                               for j in range(1, depth + 1)) / math.log(2)
            e = min(1000, max(0, round(-log2_product)))
            c = math.comb(n, k)
            p = (c << e) + rng.randrange(c)
            lhs, rhs = checks._product_sides(n, k, p, c, depth)
            # |r^ - lhs/rhs| <= eps * lhs/rhs on integers: r^ = a/b, eps = ea/eb
            a, b = _float_ratio(n, k, p, c, depth).as_integer_ratio()
            ea, eb = (1.01 * 2.0**-53 * (2 * depth * (n + 1) + 1)).as_integer_ratio()
            assert abs(a * rhs - b * lhs) * eb <= ea * b * lhs, (n, k, depth)


def test_eq9_depth_cap_read_at_call_time(monkeypatch, triangle_1000):
    # (130, 117) needs depth 16, so a cap of 8 set after import must end
    # the row there; a cap bound when the check was defined would clear it
    monkeypatch.setattr(checks, "DEFAULT_DEPTH_CAP", 8)
    fold = product_bound_check(130, triangle_1000[130])
    assert fold[1:3] == (INCONCLUSIVE, (130, 117))
    assert fold == reference_row_fold(130, triangle_1000[130], 8)
