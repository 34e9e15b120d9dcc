import math

import mpmath
import pytest

from binpart import partitions
from binpart.cli import P_SERIES_FROM
from binpart.intervals import decide_with_escalation
from binpart.partitions import rademacher_partition_number, rademacher_truncation
from binpart import (
    DiagonalTable,
    build_partition_table,
    build_restricted_table,
    check_generating_functions,
    dominance_weights,
    peak_sign_sum,
    pnk_direct,
)

from reference_values import (PK_VALUES, PartitionMultiset, enumerate_partitions,
                              reference_partition_table)


def test_table_base_case():
    assert build_partition_table(0) == (1,)


@pytest.mark.parametrize("n,expected", [(5, 7), (10, 42), (12, 77), (50, 204226)])
def test_table_known_values(n, expected, table_2001):
    assert table_2001[n] == expected


def test_table_matches_golden_column(table_2001):
    assert [table_2001[k] for k in range(1, 51)] == PK_VALUES


def test_table_monotone_and_sub_fibonacci(table_2001):
    values = table_2001
    for n in range(1, 501):
        assert values[n] >= values[n - 1]
    for n in range(2, 501):
        assert values[n] <= values[n - 1] + values[n - 2]


def test_decimal_round_trip(table_2001):
    for n in (0, 1, 50, 700, 2001):
        assert int(str(table_2001[n])) == table_2001[n]


@pytest.mark.parametrize("modulus, offset", [(5, 4), (7, 5), (11, 6)])
def test_ramanujan_congruences(table_2001, modulus, offset):
    # p(5m+4) = 0 mod 5, p(7m+5) = 0 mod 7, p(11m+6) = 0 mod 11: evidence
    # for the pentagonal table that shares no step with its recurrence
    assert all(table_2001[n] % modulus == 0
               for n in range(offset, len(table_2001), modulus))


def test_whole_table_matches_coin_counting(table_2001):
    # with every part up to 2001 allowed the DP counts p(j) for all j <= 2001,
    # a route that shares no step with the pentagonal recurrence
    assert build_restricted_table(2001, 2001) == table_2001


def test_negative_max_n_rejected():
    with pytest.raises(ValueError):
        build_partition_table(-1)


@pytest.fixture(scope="module")
def reference_5000():
    return reference_partition_table(5000)


def test_table_matches_term_by_term_recurrence(reference_5000):
    # below 151 the getters are rebuilt 19 times, at g = 1, 2, 5, ..., 145;
    # every max_n there ends a table just before, at or after each rebuild
    mismatched = [max_n for max_n in range(151)
                  if build_partition_table(max_n) != reference_5000[:max_n + 1]]
    assert mismatched == []
    assert build_partition_table(5000) == reference_5000


def test_max_n_too_large_for_an_index_fails_at_once():
    with pytest.raises(OverflowError):
        build_partition_table(10**20)


class TestEnumeration:
    def test_empty_sum(self):
        parts = enumerate_partitions(0, 1)
        assert parts == [PartitionMultiset(parts=())]

    def test_hand_enumeration_n5_max3(self):
        parts = enumerate_partitions(5, 3)
        assert [p.parts for p in parts] == [
            (3, 2),
            (3, 1, 1),
            (2, 2, 1),
            (2, 1, 1, 1),
            (1, 1, 1, 1, 1),
        ]

    def test_count_n40(self, table_2001):
        assert len(enumerate_partitions(40, 40)) == table_2001[40] == 37338

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            enumerate_partitions(61, 61)
        # custom cap can widen or narrow
        with pytest.raises(ValueError):
            enumerate_partitions(10, 10, cap=5)

    def test_max_part_must_be_positive(self):
        with pytest.raises(ValueError):
            enumerate_partitions(5, 0)

    def test_oracle_equivalence_small(self, table_2001):
        for n in range(26):
            assert len(enumerate_partitions(n, max(n, 1))) == table_2001[n]

    def test_multiset_invariants(self):
        for p in enumerate_partitions(9, 4):
            assert p.total == 9
            assert all(a >= b for a, b in zip(p.parts, p.parts[1:]))
            assert all(part <= 4 for part in p.parts)

    def test_multiset_rejects_increasing(self):
        with pytest.raises(ValueError):
            PartitionMultiset(parts=(1, 2))


class TestRestricted:
    def test_all_parts_allowed_equals_p(self, table_2001):
        table = build_restricted_table(10, 10)
        assert table[10] == table_2001[10] == 42

    def test_single_part_size(self):
        table = build_restricted_table(1, 20)
        assert all(table[j] == 1 for j in range(21))

    def test_matches_enumeration(self):
        table = build_restricted_table(3, 5)
        assert table[5] == len(enumerate_partitions(5, 3)) == 5

    def test_parts_beyond_max_n_cost_nothing(self, table_2001):
        # only parts 1..5 fit below 6, so this must not walk k part sizes
        table = build_restricted_table(10**12, 5)
        assert check_generating_functions(10**12, 5, table) is None
        assert table == tuple(table_2001[j] for j in range(6))

    def test_zero_always_one(self):
        for k in (1, 4, 9):
            assert build_restricted_table(k, 12)[0] == 1

    def test_monotone_in_k(self):
        tables = [build_restricted_table(k, 30) for k in range(1, 31)]
        for k in range(1, 30):
            for j in range(31):
                assert tables[k - 1][j] <= tables[k][j]

    def test_oracle_equivalence_grid(self):
        for k in range(1, 16):
            table = build_restricted_table(k, 15)
            for j in range(16):
                assert table[j] == len(enumerate_partitions(j, k))

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            build_restricted_table(0, 5)
        with pytest.raises(ValueError):
            build_restricted_table(3, -1)


class TestSeriesIdentities:
    def test_geometric_case(self):
        # k=1: product is the geometric series, all coefficients 1
        table = build_restricted_table(1, 5)
        assert check_generating_functions(1, 5, table) is None
        assert all(table[j] == 1 for j in range(6))

    @pytest.mark.parametrize("k,degree", [(3, 10), (12, 50), (10**12, 20)])
    def test_known_passes(self, k, degree):
        table = build_restricted_table(k, degree)
        assert check_generating_functions(k, degree, table) is None

    def test_full_range(self):
        for k in range(1, 16):
            table = build_restricted_table(k, 60)
            assert check_generating_functions(k, 60, table) is None, k

    def test_mismatch_detected(self):
        good = build_restricted_table(4, 12)
        corrupt = good[:7] + (good[7] + 1,) + good[8:]
        assert check_generating_functions(4, 12, table=corrupt) == ("weighted", 7)

    def test_scaled_table_detected(self):
        # the weighted identity is linear in the table; p_k(0) = 1 anchors it
        good = build_restricted_table(4, 12)
        doubled = tuple(2 * v for v in good)
        assert check_generating_functions(4, 12, table=doubled) == ("weighted", 0)

    def test_table_must_cover_degree(self):
        table = build_restricted_table(3, 5)
        with pytest.raises(ValueError):
            check_generating_functions(3, 10, table=table)

    def test_table_for_another_k_detected(self):
        # a p_3 table first differs from p_5 at j = 4, where the identity breaks
        table = build_restricted_table(3, 60)
        assert check_generating_functions(5, 60, table) == ("weighted", 4)


@pytest.mark.parametrize("reader", [
    lambda table: pnk_direct(20, 10, table),
    lambda table: peak_sign_sum(20, 10, table),
    lambda table: DiagonalTable(10, table),
    lambda table: dominance_weights(table, 10),
], ids=["pnk_direct", "peak_sign_sum", "DiagonalTable", "dominance_weights"])
def test_table_readers_reject_a_table_one_entry_short(reader, table_2001):
    reader(table_2001[:11])  # p(0..10) covers the request
    with pytest.raises(ValueError):
        reader(table_2001[:10])


class TestRademacher:
    """p(n) read off Rademacher's series, the route of `compute p N` from
    cli.P_SERIES_FROM on, against the pentagonal table and against
    congruences that share nothing with either."""

    @pytest.fixture(scope="class")
    def table_20000(self):
        return build_partition_table(20000)

    def test_matches_table_past_threshold_and_sampled_to_20000(self, table_20000):
        ns = [*range(P_SERIES_FROM, P_SERIES_FROM + 301), *range(2, 20001, 61)]
        assert [n for n in ns if rademacher_partition_number(n) != table_20000[n]] == []

    @pytest.mark.parametrize("modulus, offset", [(5, 4), (7, 5), (11, 6)])
    def test_ramanujan_congruences_beyond_the_table(self, modulus, offset):
        first = 10**5 + (offset - 10**5) % modulus
        last = 10**6 - (10**6 - offset) % modulus
        middle = first + (last - first) // (2 * modulus) * modulus
        for n in (first, middle, last):
            assert rademacher_partition_number(n) % modulus == 0, n

    def test_known_leading_digits(self):
        assert str(rademacher_partition_number(10**6)).startswith("14716849863582")

    @pytest.mark.parametrize("n", [1000, P_SERIES_FROM, 5000])
    def test_ladder_climbs_from_a_guard_too_small(self, monkeypatch, table_20000, n):
        levels = []

        def recording(evaluate, start, cap):
            def record(guard):
                result = evaluate(guard)
                levels.append((guard, result is not None))
                return result
            return decide_with_escalation(record, start, cap)

        monkeypatch.setattr(partitions, "decide_with_escalation", recording)
        monkeypatch.setattr(partitions, "RADEMACHER_GUARD_BITS", 1)
        assert rademacher_partition_number(n) == table_20000[n]
        assert levels[0] == (1, False)
        assert len(levels) > 1 and levels[-1][1]

    def test_undecided_at_the_cap_is_none(self, monkeypatch):
        monkeypatch.setattr(partitions, "RADEMACHER_GUARD_BITS", 1)
        monkeypatch.setattr(partitions, "RADEMACHER_GUARD_CAP_BITS", 1)
        assert rademacher_partition_number(5000) is None

    @pytest.mark.parametrize("n", [2, 110, 111, 1000, P_SERIES_FROM, 5000,
                                   10**5, 10**6, 10**9])
    def test_remainder_bound_is_outward_and_least(self, n):
        terms, remainder = rademacher_truncation(n)
        # Lehmer's bound in mpmath's floating point at 200 bits, no intervals;
        # the 64-bit endpoint converts exactly at that precision
        with mpmath.workprec(200):
            def lehmer(terms):
                pi, terms = mpmath.pi, mpmath.mpf(terms)
                return (44 * pi**2 / (225 * mpmath.sqrt(3)) / mpmath.sqrt(terms)
                        + pi * mpmath.sqrt(2) / 75 * mpmath.sqrt(terms / (n - 1))
                        * mpmath.sinh(pi / terms * mpmath.sqrt(mpmath.mpf(2 * n) / 3)))

            bound = mpmath.mpf(remainder)
            assert lehmer(terms) <= bound < 0.25
            assert bound - lehmer(terms) < 1e-15
            assert lehmer(terms - 1) >= 0.25  # no fewer terms would do

    def test_every_exp_argument_at_least_one_on_the_route(self):
        # mu_N = pi sqrt(24n - 1)/(6N) is the least cosh and sinh argument
        for n in [*range(P_SERIES_FROM, P_SERIES_FROM + 301),
                  *range(P_SERIES_FROM, 10**6, 9973), 10**9]:
            terms = rademacher_truncation(n)[0]
            assert math.pi * math.sqrt(24 * n - 1) / (6 * terms) >= 1, n
