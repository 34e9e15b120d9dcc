import pytest

from binpart import (
    NilpotentProfile,
    best_bound,
    birkhoff_bound,
    corollary_bound,
    filiform_bound,
    pnk_bound,
    reed_bound,
)


class TestProfiles:
    def test_valid(self):
        p = NilpotentProfile(dim_n=5, class_k=3)
        assert not p.filiform
        assert NilpotentProfile(dim_n=5, class_k=4, filiform=True).filiform

    def test_class_range_enforced(self):
        with pytest.raises(ValueError):
            NilpotentProfile(dim_n=5, class_k=5)
        with pytest.raises(ValueError):
            NilpotentProfile(dim_n=1, class_k=1)

    def test_filiform_needs_maximal_class(self):
        with pytest.raises(ValueError):
            NilpotentProfile(dim_n=5, class_k=3, filiform=True)


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
        assert pnk_bound(NilpotentProfile(50, 26), table_120) == 412637434996367
        assert pnk_bound(NilpotentProfile(3, 2), table_120) == 7
        assert pnk_bound(NilpotentProfile(50, 49), table_120) == 6547151

    def test_filiform(self, table_120):
        assert filiform_bound(2, table_120) == 2  # 1 + p(0,0)
        assert filiform_bound(52, table_120) == 1295972  # 1 + p(50,50)
        # 1 + p(8,8) = 1 + sum p(0..8)
        assert filiform_bound(10, table_120) == 1 + 67

    def test_filiform_domain(self, table_120):
        with pytest.raises(ValueError):
            filiform_bound(1, table_120)

    def test_corollary(self, triangle_120):
        assert corollary_bound(1).contains(6)  # 3*2/sqrt(1)
        assert float(corollary_bound(4).lower) > 14  # > p(4,3)
        row_max = max(triangle_120.row(50))
        assert row_max == 412637434996367
        assert float(corollary_bound(50).lower) > row_max


class TestBestBound:
    def test_small_case_prefers_pnk(self, table_120):
        report = best_bound(NilpotentProfile(3, 2), table_120)
        assert report.pnk == 7
        assert report.reed == 10
        assert report.birkhoff == 40
        assert report.best == "pnk"
        assert report.pnk_beats_reed
        assert report.filiform_bound is None

    def test_n50_k2(self, table_120):
        report = best_bound(NilpotentProfile(50, 2), table_120)
        assert report.pnk == 1276
        assert report.reed == 2501
        assert report.best == "pnk"

    def test_n50_k26_wins_by_orders(self, table_120):
        report = best_bound(NilpotentProfile(50, 26), table_120)
        assert report.pnk == 412637434996367
        assert report.reed == 1 + 50**26
        assert report.pnk * 10**29 < report.reed

    def test_filiform_included_when_flagged(self, table_120):
        report = best_bound(NilpotentProfile(52, 51, filiform=True), table_120)
        assert report.filiform_bound == 1295972
        assert report.best == "filiform"

    def test_pnk_below_corollary(self, triangle_1000):
        for n in range(2, 301):
            lower = float(corollary_bound(n).lower)
            row = triangle_1000.row(n)
            for k in range(1, n):
                assert row[k] < lower, (n, k)
