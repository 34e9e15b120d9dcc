import pytest

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
                              pascal_column)


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
        assert check_generating_functions(1, 5) is None
        table = build_restricted_table(1, 5)
        assert all(table[j] == 1 for j in range(6))

    @pytest.mark.parametrize("k,degree", [(3, 10), (12, 50), (10**12, 20)])
    def test_known_passes(self, k, degree):
        assert check_generating_functions(k, degree) is None

    def test_full_range(self):
        for k in range(1, 16):
            assert check_generating_functions(k, 60) is None, k

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
    lambda table: peak_sign_sum(20, 10, table, pascal_column(10, 11)),
    lambda table: DiagonalTable(10, table),
    lambda table: dominance_weights(table, 10),
], ids=["pnk_direct", "peak_sign_sum", "DiagonalTable", "dominance_weights"])
def test_table_readers_reject_a_table_one_entry_short(reader, table_2001):
    reader(table_2001[:11])  # p(0..10) covers the request
    with pytest.raises(ValueError):
        reader(table_2001[:10])
