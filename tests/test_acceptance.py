"""Acceptance gate: one test per criterion, each printing a PASS line
with its runtime and worst margin (visible with pytest -s).

Criteria that a `binpart verify` claim covers take their verdict from
sweeps.run over the claim's default range, the code path the CLI
ships; the default ranges are the criteria's ranges.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import time
from fractions import Fraction
from pathlib import Path

from binpart import build_restricted_table, peak_k, sweeps
from binpart import best_bound
from binpart.checks import VERIFIED
from binpart.cli import EXIT_OK, main
from binpart.intervals import width
from binpart.qseries import euler_product_upper

from reference_values import (
    EULER_PRODUCT_HALF,
    P50K_VALUES,
    PK_VALUES,
    Q252_COMBINED_UPPER,
    Q252_PRODUCT_UPPER,
    Q252_WEIGHTED_UPPER,
    closed_form_even,
    closed_form_odd,
    contains,
    enumerate_partitions,
    fractions,
    partial_sign_sum_ratio,
    weighted_sum_upper,
)

GOLDEN_TABLE = Path(__file__).parent / "data" / "table50.csv"


def _report(tag: str, detail: str, t0: float, budget: float):
    elapsed = time.time() - t0
    print(f"\nACCEPTANCE {tag}: PASS ({detail}; {elapsed:.2f}s)")
    assert elapsed < budget, f"{tag} exceeded {budget}s budget ({elapsed:.2f}s)"


def _verified_claim(claim: str, checked: int) -> sweeps.ClaimSummary:
    """Run `claim` over its default range; it must verify exactly `checked` cases."""
    summary, = sweeps.run([claim], None, None)
    assert summary.outcome == VERIFIED, (claim, summary.counterexample)
    assert summary.checked == checked, (claim, summary.checked)
    return summary


def test_criterion_01_table_reproduction(capsys):
    t0 = time.time()
    code = main(["table", "50"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out == GOLDEN_TABLE.read_text()
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert [int(r[1]) for r in rows] == PK_VALUES
    assert [int(r[2]) for r in rows] == P50K_VALUES
    _report("01 table-50", "100/100 values exact", t0, 1.0)


def test_criterion_02_unimodality_to_1000(triangle_1000):
    t0 = time.time()
    _verified_claim("thm2", 997)
    for n in range(4, 1001):
        row = triangle_1000[n]
        peak_value = row[peak_k(n)]
        assert all(row[k] < peak_value for k in range(1, n + 1)
                   if k != peak_k(n)), n
    _report("02 unimodality", "rows 4..1000 strictly unimodal, peaks unique",
            t0, 60.0)


def test_criterion_03_row_bound_to_1000():
    t0 = time.time()
    worst = _verified_claim("thm3", 1000).min_margin
    _report("03 row-bound", f"n=1..1000 exact, min rel margin {worst:.3e}",
            t0, 120.0)


def test_criterion_04_diagonal_bounds_to_2000():
    t0 = time.time()
    summaries = [_verified_claim(claim, 2000)
                 for claim in ("prop1", "prop2")]
    worst_bits = max(s.max_precision_bits for s in summaries)
    worst_margin = min(s.min_margin for s in summaries)
    assert worst_margin > 0
    assert worst_bits <= 512
    _report("04 diagonal-bounds",
            f"n=1..2000, min margin {worst_margin:.3e} at <= {worst_bits} bits",
            t0, 120.0)


def test_criterion_05_product_constants():
    t0 = time.time()
    half = euler_product_upper(Fraction(1, 2), 48)
    assert width(half) <= 1e-12
    assert contains(half, EULER_PRODUCT_HALF)

    q, ell = Fraction(252, 500), 96
    product_lo, product_hi = fractions(euler_product_upper(q, ell))
    weighted_lo, weighted_hi = fractions(weighted_sum_upper(q, ell))
    assert product_hi < Fraction(Q252_PRODUCT_UPPER)
    assert weighted_hi < Fraction(Q252_WEIGHTED_UPPER)
    # both factors are positive, so the product of the upper endpoints
    # bounds the product of the enclosed values
    assert product_lo > 0 and weighted_lo > 0
    assert product_hi * weighted_hi < Fraction(Q252_COMBINED_UPPER)
    _report("05 product-constants",
            "F(1/2) enclosed at 1e-12; all three q=252/500 bounds reproduced",
            t0, 60.0)


def test_criterion_06_sign_sums_to_1000(table_2001):
    t0 = time.time()
    _verified_claim("lemma-links", 997)
    _verified_claim("lemma-rechts", 997)
    for n in (4, 10, 50, 100, 200, 300, 400, 500, 750, 1000):
        k = (n + 2) // 2
        assert partial_sign_sum_ratio(n, k, 3, table_2001) == closed_form_even(n)
    for n in (11, 101, 201, 301, 401, 501, 601, 701, 801, 1001):
        k = (n + 3) // 2
        assert partial_sign_sum_ratio(n, k, 7, table_2001) == closed_form_odd(n)
    _report("06 sign-sums",
            "signs exact for n=4..1000; closed forms match at 10+10 samples",
            t0, 60.0)


def test_criterion_07_dominance_to_500():
    t0 = time.time()
    _verified_claim("lemma-gr", 497)
    _report("07 dominance", "512*p(n,k) > 1745*C(n,k) on 4..500", t0, 60.0)


def test_criterion_08_product_bound_to_300():
    t0 = time.time()
    checked = _verified_claim("eq9", 44850).checked
    _report("08 product-bound",
            f"{checked} pairs verified, zero inconclusive at depth cap 256",
            t0, 120.0)


def test_criterion_09_oracle_equivalence(table_2001):
    t0 = time.time()
    for n in range(41):
        assert len(enumerate_partitions(n, max(n, 1))) == table_2001[n], n
    for k in range(1, 31):
        restricted = build_restricted_table(k, 30)
        for j in range(31):
            assert restricted[j] == len(enumerate_partitions(j, k)), (j, k)
    genfun = _verified_claim("genfun", 15)
    assert genfun.notes == {"degree": 60}
    _report("09 oracle-equivalence",
            "enumeration matches p(n) to 40 and p_k(j) to 30; series to k=15",
            t0, 120.0)


def test_criterion_10_recursion_full_triangle(triangle_1000):
    t0 = time.time()
    for n in range(1000):
        cur = triangle_1000[n]
        nxt = triangle_1000[n + 1]
        for k in range(1, n + 1):
            assert nxt[k] == cur[k] + cur[k - 1], (n + 1, k)
    _report("10 recursion", "exact over the full 1000-row triangle", t0, 60.0)


def test_criterion_11_certified_sweeps_to_2000():
    t0 = time.time()
    _verified_claim("lemma13", 1998)
    _verified_claim("apostol", 2000)
    _verified_claim("stirling", 2000)
    _report("11 certified-sweeps",
            "growth chain 3..2000, partition bound and central binomial 1..2000",
            t0, 120.0)


def test_criterion_note_mu_report_surrogate(table_120):
    t0 = time.time()
    bounds, best = best_bound(3, 2, False, table_120)
    assert bounds["pnk"] == 7 < bounds["reed"] == 10 < bounds["birkhoff"] == 40
    assert best == "pnk"
    _report("12 mu-surrogate", "pnk=7 < reed=10 < birkhoff=40 at (3,2)", t0, 10.0)
