import pytest

from binpart import (
    best_bound,
    birkhoff_bound,
    corollary_bound,
    filiform_bound,
    reed_bound,
)

from reference_values import contains, fractions


class TestProfiles:
    def test_filiform_needs_maximal_class(self, table_120):
        with pytest.raises(ValueError):
            best_bound(5, 3, True, table_120)


class TestIndividualBounds:
    def test_birkhoff(self):
        assert birkhoff_bound(1, 1) == 3
        assert birkhoff_bound(3, 2) == 40  # 1+3+9+27
        # closed form (n^(k+2)-1)/(n-1) agrees with the loop
        assert birkhoff_bound(50, 26) == (50**28 - 1) // 49

    def test_birkhoff_closed_form_equals_sum(self):
        for n in range(1, 31):
            for k in range(1, 31):
                assert birkhoff_bound(n, k) == sum(n**i for i in range(k + 2)), (n, k)

    def test_reed(self):
        assert reed_bound(3, 2) == 10
        assert reed_bound(2, 1) == 3
        assert reed_bound(50, 26) == 1 + 50**26

    def test_reed_always_below_birkhoff(self):
        for n in range(2, 30):
            for k in range(1, n):
                assert reed_bound(n, k) < birkhoff_bound(n, k)

    def test_pnk(self, table_120):
        for n, k, pnk in [(50, 26, 412637434996367), (3, 2, 7), (50, 49, 6547151)]:
            bounds, _ = best_bound(n, k, False, table_120)
            assert bounds["pnk"] == pnk

    def test_filiform(self, table_120):
        assert filiform_bound(2, table_120) == 2  # 1 + p(0,0)
        assert filiform_bound(52, table_120) == 1295972  # 1 + p(50,50)
        # 1 + p(8,8) = 1 + sum p(0..8)
        assert filiform_bound(10, table_120) == 1 + 67

    def test_filiform_domain(self, table_120):
        with pytest.raises(ValueError):
            filiform_bound(1, table_120)

    def test_corollary(self, triangle_120):
        assert contains(corollary_bound(1), 6)  # 3*2/sqrt(1)
        assert fractions(corollary_bound(4))[0] > 14  # > p(4,3)
        row_max = max(triangle_120[50])
        assert row_max == 412637434996367
        assert fractions(corollary_bound(50))[0] > row_max


class TestBestBound:
    def test_small_case_prefers_pnk(self, table_120):
        bounds, best = best_bound(3, 2, False, table_120)
        assert bounds == {"birkhoff": 40, "reed": 10, "pnk": 7}
        assert list(bounds) == ["birkhoff", "reed", "pnk"]  # print order
        assert best == "pnk"

    def test_n50_k2(self, table_120):
        bounds, best = best_bound(50, 2, False, table_120)
        assert bounds["pnk"] == 1276
        assert bounds["reed"] == 2501
        assert best == "pnk"

    def test_n50_k26_wins_by_orders(self, table_120):
        bounds, _ = best_bound(50, 26, False, table_120)
        assert bounds["pnk"] == 412637434996367
        assert bounds["reed"] == 1 + 50**26
        assert bounds["pnk"] * 10**29 < bounds["reed"]

    def test_filiform_included_when_flagged(self, table_120):
        bounds, best = best_bound(52, 51, True, table_120)
        assert list(bounds) == ["birkhoff", "reed", "pnk", "filiform"]
        assert bounds["filiform"] == 1295972
        assert best == "filiform"

    def test_pnk_below_corollary(self, triangle_1000):
        for n in range(2, 301):
            lower, _ = fractions(corollary_bound(n))
            row = triangle_1000[n]
            for k in range(1, n):
                assert row[k] < lower, (n, k)
