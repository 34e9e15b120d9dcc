"""Row claims stream their rows: no sweep builds the p(n,k) triangle."""

import tracemalloc

import pytest

from binpart import binomial_sums, sweeps
from binpart.binomial_sums import dominance_check, verify_unimodal_profile
from binpart.checks import VERIFIED, VIOLATED, product_bound_check, row_bound_check

from reference_values import gap_row


def test_sweeps_never_build_the_triangle(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a sweep built the whole triangle")

    monkeypatch.setattr(binomial_sums, "build_triangle", refuse)
    summaries = sweeps.run_all(4, 60)
    assert [s.claim for s in summaries] == list(sweeps.CLAIMS)
    for summary in summaries:
        assert summary.outcome == VERIFIED, summary.claim
        assert summary.checked > 0, summary.claim


def test_row_claim_holds_rows_not_the_triangle():
    # build_triangle(600) alone peaks at about 13 MB under tracemalloc
    tracemalloc.start()
    try:
        summary = sweeps.run_claim("thm3", 1, 600)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert summary.outcome == VERIFIED
    assert summary.checked == 600
    assert peak < 1.3 * 2**20


def test_gap_claim_holds_one_row_and_its_weights():
    # lemma-gr streams gap rows: one row plus the weight tuple, no triangle
    tracemalloc.start()
    try:
        summary = sweeps.run_claim("lemma-gr", 4, 600)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert summary.outcome == VERIFIED
    assert summary.checked == 597
    assert peak < 1.3 * 2**20


def test_gap_claim_reads_gap_rows(monkeypatch, triangle_1000):
    # p rows would pass dominance_check vacuously: every p(n,k) is positive
    seen = {}

    def spy(n, row):
        seen[n] = row
        return dominance_check(n, row)

    monkeypatch.setattr(sweeps, "dominance_check", spy)
    assert sweeps.run_claim("lemma-gr", 4, 80).outcome == VERIFIED
    assert seen == {n: gap_row(n, triangle_1000[n]) for n in range(4, 81)}


def _row_results(claim, n, row):
    """(holds, margin) of every check the claim makes on row n."""
    if claim == "thm2":
        return [(verify_unimodal_profile(n, row) is None, None)]
    if claim == "lemma-gr":
        return [(dominance_check(n, gap_row(n, row)) is None, None)]
    if claim == "thm3":
        reports = [row_bound_check(n, row)]
    else:
        reports = product_bound_check(n, row)
    return [(report.outcome == VERIFIED, report.margin) for report in reports]


@pytest.mark.parametrize("claim, n_min, n_max", [
    ("thm2", 500, 700),
    ("thm3", 500, 700),
    ("lemma-gr", 500, 700),
    ("eq9", 250, 300),
])
def test_offset_range_matches_built_rows(claim, n_min, n_max, triangle_1000):
    results = [result for n in range(n_min, n_max + 1)
               for result in _row_results(claim, n, triangle_1000[n])]
    margins = [margin for _, margin in results if margin is not None]

    summary = sweeps.run_claim(claim, n_min, n_max)
    assert summary.checked == len(results)
    assert summary.outcome == (
        VERIFIED if all(holds for holds, _ in results) else VIOLATED)
    assert summary.min_margin == (min(margins) if margins else None)
