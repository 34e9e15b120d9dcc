import math
import tracemalloc
from fractions import Fraction

import pytest

from binpart import (
    DiagonalTable,
    build_triangle,
    dominance_check,
    dominance_weights,
    iter_central_binomials,
    iter_triangle_rows,
    iter_triangle_tails,
    peak_k,
    peak_sign_sum,
    pnk_direct,
    strict_sides,
    triangle_row,
    verify_unimodal_profile,
)

from reference_values import (
    P50K_VALUES,
    binomial_ratio,
    check_growth_conditions,
    closed_form_even,
    closed_form_odd,
    enumerate_partitions,
    gap_row,
    partial_sign_sum_ratio,
)


class TestDirectSum:
    @pytest.mark.parametrize("k,expected", [(1, 51), (3, 20875), (26, 412637434996367)])
    def test_row50_values(self, k, expected, table_2001):
        assert pnk_direct(50, k, table_2001) == expected

    def test_k_zero_is_one(self, table_2001):
        for n in (0, 1, 17, 240):
            assert pnk_direct(n, 0, table_2001) == 1

    def test_tie_at_n3(self, table_2001):
        assert pnk_direct(3, 3, table_2001) == 7
        assert pnk_direct(3, 2, table_2001) == 7

    def test_hand_sum_4_3(self, table_2001):
        # C(4,3)*1 + C(3,2)*1 + C(2,1)*2 + C(1,0)*3 = 4 + 3 + 4 + 3
        assert pnk_direct(4, 3, table_2001) == 14

    def test_brute_force_10_5(self, table_2001):
        by_oracle = sum(
            math.comb(10 - j, 5 - j) * len(enumerate_partitions(j, max(j, 1)))
            for j in range(6)
        )
        assert by_oracle == 590
        assert pnk_direct(10, 5, table_2001) == 590

    def test_domain_errors(self, table_2001):
        with pytest.raises(ValueError):
            pnk_direct(5, 6, table_2001)
        with pytest.raises(ValueError):
            pnk_direct(5, -1, table_2001)

    def test_agrees_with_triangle_everywhere_to_120(self, triangle_120, table_2001):
        for n in range(121):
            assert tuple(pnk_direct(n, k, table_2001)
                         for k in range(n + 1)) == triangle_120[n], n

    def test_agrees_with_row_1000(self, triangle_1000, table_2001):
        row = triangle_1000[1000]
        for k in range(0, 1001, 7):
            assert pnk_direct(1000, k, table_2001) == row[k], k


class TestTriangle:
    def test_row50_matches_golden(self, triangle_120):
        assert list(triangle_120[50][1:]) == P50K_VALUES

    def test_diagonal_prefix_sums(self, triangle_120, table_2001):
        assert triangle_120[2][2] == 4  # 1 + 1 + 2
        acc = 0
        for n in range(61):
            acc += table_2001[n]
            assert triangle_120[n][n] == acc

    def test_column_one(self, triangle_120):
        for n in range(1, 121):
            assert triangle_120[n][1] == n + 1

    def test_full_direct_agreement_small(self, triangle_120, table_2001):
        for n in range(41):
            for k in range(n + 1):
                assert triangle_120[n][k] == pnk_direct(n, k, table_2001)

    def test_recursion_identity(self, triangle_120):
        for n in range(120):
            for k in range(1, n + 1):
                assert triangle_120[n + 1][k] == (
                    triangle_120[n][k] + triangle_120[n][k - 1]
                )

    def test_streaming_matches_built(self, triangle_120, table_2001):
        for n, row in iter_triangle_rows(80, 81, table_2001):
            assert row == triangle_120[n]

    @pytest.mark.parametrize("width", [2, 3, 30, 81])
    def test_cut_rows_start_the_whole_rows(self, triangle_120, table_2001, width):
        for n, row in iter_triangle_rows(80, width, table_2001):
            assert row == triangle_120[n][:width], n

    def test_cut_rows_keep_k_one(self, table_2001):
        assert list(iter_triangle_rows(0, 1, table_2001)) == [(0, (1,))]
        with pytest.raises(ValueError):
            next(iter_triangle_rows(1, 1, table_2001))

    def test_single_row_matches_built(self, triangle_120, table_2001):
        for n in (0, 1, 4, 50, 120):
            assert triangle_row(n, table_2001) == triangle_120[n]
        assert triangle_row(50) == triangle_120[50]

    def test_single_row_holds_one_row(self, table_2001):
        # build_triangle(600) peaks at about 13.2 MB under tracemalloc
        tracemalloc.start()
        try:
            row = triangle_row(600, table_2001)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(row) == 601
        assert peak < 2**20

    def test_range_errors(self, table_2001):
        with pytest.raises(ValueError):
            build_triangle(-1)
        with pytest.raises(ValueError):
            triangle_row(2002, table_2001)


class TestDiagonalTable:
    def test_agrees_with_triangle(self, triangle_120, table_2001):
        diag = DiagonalTable(120, table_2001)
        for n in range(1, 121):
            assert diag.diagonal[n] == triangle_120[n][n]
            assert diag.subdiagonal[n] == triangle_120[n][n - 1]

    def test_golden_corner_values(self, diagonal_2001):
        assert diagonal_2001.diagonal[50] == 1295971
        assert diagonal_2001.subdiagonal[50] == 6547151

    def test_range_errors(self, table_2001):
        with pytest.raises(ValueError):
            DiagonalTable(-1, table_2001)
        with pytest.raises(ValueError):
            DiagonalTable(2002, table_2001)


class TestGrowthConditions:
    def test_partition_function_passes(self, table_2001):
        report = check_growth_conditions(lambda n: table_2001[n], 400)
        assert report.all_hold

    def test_constant_one(self):
        report = check_growth_conditions(lambda n: 1, 50)
        assert report.holds_a and report.holds_b and report.holds_c

    def test_powers_of_two_fail_c(self):
        report = check_growth_conditions(lambda n: 2**n, 50)
        assert report.holds_b
        assert not report.holds_c
        assert report.counterexample_c == 3  # 8 < 1+2+4 is false
        assert not report.holds_a  # f(3)=8 also breaks f(3) <= 2f(0)+f(1)

    def test_needs_room(self):
        with pytest.raises(ValueError):
            check_growth_conditions(lambda n: 1, 2)


class TestPeak:
    @pytest.mark.parametrize("n,expected", [(4, 3), (11, 7), (50, 26), (1000, 501)])
    def test_formula(self, n, expected):
        assert peak_k(n) == expected

    def test_small_n_rejected(self):
        for n in (0, 1, 2, 3):
            with pytest.raises(ValueError):
                peak_k(n)

    def test_scan_agrees_row11(self, triangle_120):
        row = triangle_120[11]
        argmax = max(range(1, 12), key=lambda k: row[k])
        assert argmax == peak_k(11) == 7

    def test_row4_shape(self, triangle_120):
        assert triangle_120[4][1:] == (5, 11, 14, 12)


class TestUnimodalProfile:
    def test_row4(self, triangle_120):
        assert verify_unimodal_profile(4, triangle_120[4]) is None

    def test_row50(self, triangle_120):
        assert verify_unimodal_profile(50, triangle_120[50]) is None

    def test_sweep_to_120(self, triangle_120):
        for n in range(4, 121):
            assert verify_unimodal_profile(n, triangle_120[n]) is None

    def test_violation_reported(self):
        # row 4 is (1, 5, 11, 14, 12) with its peak at k = 3; a flat step
        # on either side is the first violation
        assert verify_unimodal_profile(4, (1, 5, 11, 11, 12)) == (4, 2)
        assert verify_unimodal_profile(4, (1, 5, 11, 14, 14)) == (4, 3)

    def test_small_n_rejected(self, triangle_120):
        with pytest.raises(ValueError):
            verify_unimodal_profile(3, triangle_120[3])
        with pytest.raises(ValueError):
            strict_sides(3, triangle_120[3])

    def test_every_single_entry_break_of_row60(self, triangle_120):
        # a tie with or an inversion against either neighbour, at every k on
        # both sides of the peak, must read as the plain step-by-step loop
        n, row = 60, triangle_120[60]
        kn = peak_k(n)

        def plain_loop(r):
            for k in range(1, kn):
                if not r[k] < r[k + 1]:
                    return (n, k)
            for k in range(kn, n):
                if not r[k] > r[k + 1]:
                    return (n, k)
            return None

        broken = 0
        for k in range(n + 1):
            neighbours = [row[j] for j in (k - 1, k + 1) if 0 <= j <= n]
            for value in {v + d for v in neighbours for d in (-1, 0, 1)}:
                r = row[:k] + (value,) + row[k + 1:]
                expected = plain_loop(r)
                assert verify_unimodal_profile(n, r) == expected, (k, value)
                assert strict_sides(n, r) == (
                    all(r[j] < r[j + 1] for j in range(1, kn)),
                    all(r[j] > r[j + 1] for j in range(kn, n))), (k, value)
                broken += expected is not None
        assert broken > 2 * n


class TestBinomialRatio:
    def test_j_zero(self):
        assert binomial_ratio(9, 4, 0) == 1

    def test_single_factor(self):
        for n in range(2, 12):
            for k in range(1, n + 1):
                assert binomial_ratio(n, k, 1) == Fraction(k, n)

    def test_explicit_product(self):
        assert binomial_ratio(10, 6, 3) == Fraction(1, 6)

    def test_bounded_by_power(self):
        for n in range(1, 101):
            for k in range(1, n + 1):
                q = Fraction(k, n)
                q_power = Fraction(1)
                for j in range(1, k + 1):
                    q_power *= q
                    assert binomial_ratio(n, k, j) <= q_power


class TestSignSums:
    def test_ties_recursion(self, triangle_1000, table_2001):
        # S(n,k) = (n+1-k) * (2*p(n,k) - p(n+1,k)): every k below n = 60,
        # and k = peak and peak + 1, where the sign lemmas read S off rows
        # n and n+1, for every n up to 300
        cases = [(n, k) for n in range(4, 60) for k in range(1, n + 1)]
        cases += [(n, peak_k(n) + shift) for n in range(4, 301) for shift in (0, 1)]
        for n, k in cases:
            rhs = (n + 1 - k) * (2 * triangle_1000[n][k] - triangle_1000[n + 1][k])
            assert peak_sign_sum(n, k, table_2001) == rhs, (n, k)

    def test_signs_at_peak(self, table_2001):
        for n in range(4, 201):
            k = peak_k(n)
            assert peak_sign_sum(n, k, table_2001) > 0, n
            assert peak_sign_sum(n, k + 1, table_2001) < 0, n

    def test_even_closed_form(self, table_2001):
        for n in (4, 10, 100, 200, 500):
            k = (n + 2) // 2
            assert partial_sign_sum_ratio(n, k, 3, table_2001) == closed_form_even(n)

    def test_odd_closed_form(self, table_2001):
        for n in (11, 101, 201, 501):
            k = (n + 3) // 2
            assert partial_sign_sum_ratio(n, k, 7, table_2001) == closed_form_odd(n)

    def test_closed_form_domains(self):
        with pytest.raises(ValueError):
            closed_form_even(5)
        with pytest.raises(ValueError):
            closed_form_odd(9)


class TestBinomialWalks:
    def test_central_binomials_match_comb_to_3000(self):
        expected = [(n, math.comb(n, (n + 3) // 2)) for n in range(1, 3001)]
        for n_min in range(1, 6):
            assert list(iter_central_binomials(n_min, 3000)) \
                == expected[n_min - 1:], n_min


class TestDominance:
    def test_row50_k28(self, triangle_120):
        assert 512 * triangle_120[50][28] > 1745 * math.comb(50, 28)
        assert dominance_check(50, gap_row(50, triangle_120[50])[::-1]) is None

    def test_n4(self, triangle_120):
        # p(4,4) = 12 far above (1745/512)*C(4,4) ~ 3.41
        assert dominance_check(4, gap_row(4, triangle_120[4])[::-1]) is None

    def test_sweep_to_120(self, triangle_120):
        for n in range(4, 121):
            assert dominance_check(n, gap_row(n, triangle_120[n])[::-1]) is None

    def test_gaps_below_the_range_are_negative(self, triangle_120):
        # the lemma needs the descent range: at k = 1 the gap is negative
        gap = gap_row(50, triangle_120[50])
        assert gap[1] < 0
        assert dominance_check(50, gap[::-1]) is None

    @pytest.mark.parametrize("n, bad, expected", [
        (4, {4: 0}, 4),
        (10, {7: 0}, 7),               # ell = 7: the first k checked
        (10, {10: -5}, 10),            # the last k checked
        (10, {8: 0, 9: -1}, 8),        # the first of two
        (11, {9: -3, 11: 0}, 9),
    ])
    def test_first_non_positive_k(self, n, bad, expected):
        row = [1] * (n + 1)
        for k, value in bad.items():
            row[k] = value
        assert dominance_check(n, tuple(reversed(row))) == expected

    def test_entries_below_ell_ignored(self):
        # ell = (n+5)//2 = 7 for n = 10: k = 0..6 are not in the range
        row = (-9, 0, -1, 0, -7, 0, -2) + (1, 1, 1, 1)
        assert dominance_check(10, row[::-1]) is None
        assert dominance_check(10, (row[:7] + (1, 1, 0, 1))[::-1]) == 9
        # the tail is read from the right end: its first four entries alone
        assert dominance_check(10, (1, 1, 1, 1)) is None

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            dominance_check(3, (1, 1, 1, 1))

    def test_tail_short_of_the_range_rejected(self):
        # a tail that stops before ell would verify k it never read
        with pytest.raises(ValueError):
            dominance_check(10, (1, 1, 1))


class TestGapRows:
    """The gap stream builds C(n,k) through the Pascal recursion; math.comb
    is a second, multiplicative route."""

    def test_weights(self, table_2001):
        assert dominance_weights(table_2001, 5) == (
            512 - 1745, 512, 1024, 1536, 2560, 3584)
        with pytest.raises(ValueError):
            dominance_weights(table_2001, 2002)

    def test_every_row_to_300(self, table_2001):
        gaps = iter_triangle_rows(300, 301, dominance_weights(table_2001, 300))
        for (n, gap), (_, row) in zip(gaps, iter_triangle_rows(300, 301, table_2001)):
            assert gap == gap_row(n, row), n
        assert n == 300

    @pytest.mark.parametrize("n", [1000, 2000])
    def test_large_rows(self, n, table_2001):
        gap = triangle_row(n, dominance_weights(table_2001, n))
        assert gap == gap_row(n, triangle_row(n, table_2001))

    def test_spot_checks_generalise(self):
        # f = (f0, f1, f2): F(2,0) = f0, F(2,1) = 2*f0 + f1, F(2,2) = f0+f1+f2
        assert triangle_row(2, (3, 5, 7)) == (3, 11, 15)
        with pytest.raises(ValueError):
            triangle_row(3, (3, 5, 7))


class TestTriangleTails:
    """iter_triangle_tails streams each row from its right end; the rows'
    stream, read backwards, is the second route."""

    @pytest.mark.parametrize("width", [2, 3, 151, 301])
    @pytest.mark.parametrize("gaps", [False, True], ids=["p", "gap"])
    def test_tails_are_reversed_row_suffixes(self, table_2001, width, gaps):
        weights = dominance_weights(table_2001, 300) if gaps else table_2001
        tails = iter_triangle_tails(300, width, weights)
        for (n, tail), (m, row) in zip(tails, iter_triangle_rows(300, 301, weights)):
            assert (n, tail) == (m, row[::-1][:width]), n
        assert n == 300

    def test_bad_input_rejected(self, table_2001):
        for max_n, width, weights in [(-1, 2, table_2001), (1, 1, table_2001),
                                      (3, 2, (3, 5, 7))]:
            with pytest.raises(ValueError):
                next(iter_triangle_tails(max_n, width, weights))
        assert list(iter_triangle_tails(0, 1, table_2001)) == [(0, (1,))]

    @pytest.mark.parametrize("width", [2, 60])
    def test_corrupted_weight_trips_a_spot_check(self, table_2001, width):
        class Corrupted(tuple):
            """p(0..60), whose first read of p(40) is one unit off: the
            stream seeds G(40,0) with it, the spot checks' sums do not."""
            reads = 0

            def __getitem__(self, i):
                if i == 40:
                    Corrupted.reads += 1
                    return super().__getitem__(i) + (Corrupted.reads == 1)
                return super().__getitem__(i)

        with pytest.raises(AssertionError, match=r"F\(41,40\)"):
            for _ in iter_triangle_tails(60, width, Corrupted(table_2001[:61])):
                pass
