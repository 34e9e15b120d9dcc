"""Row claims stream their rows: no sweep builds the p(n,k) triangle."""

import tracemalloc
from fractions import Fraction

import pytest

from binpart import binomial_sums, checks, cli, sweeps
from binpart.binomial_sums import dominance_check, peak_k, verify_unimodal_profile
from binpart.checks import VERIFIED, VIOLATED

from reference_values import (gap_row, peak_sign_sum_by_terms, reference_row,
                              reference_row_bound)


def test_sweeps_never_build_the_triangle(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a sweep built the whole triangle")

    monkeypatch.setattr(binomial_sums, "build_triangle", refuse)
    summaries = sweeps.run(sweeps.CLAIMS, 4, 60)
    assert [s.claim for s in summaries] == list(sweeps.CLAIMS)
    for summary in summaries:
        assert summary.outcome == VERIFIED, summary.claim
        assert summary.checked > 0, summary.claim


def test_row_claim_holds_rows_not_the_triangle():
    # build_triangle(600) alone peaks at about 13 MB under tracemalloc
    tracemalloc.start()
    try:
        summary = sweeps.run(["thm3"], 1, 600)[0]
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
        summary = sweeps.run(["lemma-gr"], 4, 600)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert summary.outcome == VERIFIED
    assert summary.checked == 597
    assert peak < 1.3 * 2**20


def test_gap_claim_reads_gap_rows(monkeypatch, triangle_1000):
    # p rows would pass dominance_check vacuously: every p(n,k) is positive
    seen = {}

    def spy(n, gap_tail):
        seen[n] = gap_tail
        return dominance_check(n, gap_tail)

    monkeypatch.setattr(sweeps, "dominance_check", spy)
    assert sweeps.run(["lemma-gr"], 4, 80)[0].outcome == VERIFIED
    assert sorted(seen) == list(range(4, 81))
    for n, gap_tail in seen.items():
        gaps = gap_row(n, triangle_1000[n])
        # the descent range, k = n down to floor((n+5)/2), heads the tail,
        # and dominance_check reads no entry past it
        assert gap_tail[:n - peak_k(n)] == gaps[:peak_k(n):-1], n
        # the rest is the gap row's left part, cut at 80 // 2 entries
        assert gap_tail == gaps[::-1][:40], n


def _row_results(claim, n, row, table):
    """(holds, margin) of every check the claim makes on row n; the sign
    lemmas' from the defining sum, which reads no row."""
    if claim == "lemma-links":
        return [(peak_sign_sum_by_terms(n, peak_k(n), table) > 0, None)]
    if claim == "lemma-rechts":
        return [(peak_sign_sum_by_terms(n, peak_k(n) + 1, table) < 0, None)]
    if claim == "thm2":
        return [(verify_unimodal_profile(n, row) is None, None)]
    if claim == "lemma-gr":
        return [(dominance_check(n, gap_row(n, row)[::-1]) is None, None)]
    if claim == "thm3":
        return [reference_row_bound(n, row)]
    return [(outcome == VERIFIED, margin)
            for outcome, margin, _ in reference_row(n, row)]


@pytest.mark.parametrize("claim, n_min, n_max", [
    ("thm2", 500, 700),
    ("thm3", 500, 700),
    ("lemma-gr", 500, 700),
    ("eq9", 250, 300),
    ("lemma-links", 500, 700),
    ("lemma-rechts", 500, 700),
])
def test_offset_range_matches_built_rows(claim, n_min, n_max, triangle_1000,
                                         table_2001):
    results = [result for n in range(n_min, n_max + 1)
               for result in _row_results(claim, n, triangle_1000[n], table_2001)]
    margins = [margin for _, margin in results if margin is not None]

    summary = sweeps.run([claim], n_min, n_max)[0]
    assert summary.checked == len(results)
    assert summary.outcome == (
        VERIFIED if all(holds for holds, _ in results) else VIOLATED)
    assert summary.min_margin == (min(margins) if margins else None)


def _cap_eq9_depth(monkeypatch):
    monkeypatch.setattr(checks, "DEFAULT_DEPTH_CAP", 4)


def _corrupt_row(n, k, change):
    """Patch the sweeps' row stream so that row n holds change(p(n,k)) at k."""
    def patch(monkeypatch):
        stream = sweeps.iter_triangle_rows
        monkeypatch.setattr(sweeps, "iter_triangle_rows", lambda *args: (
            (m, row[:k] + (change(row[k]),) + row[k + 1:] if m == n else row)
            for m, row in stream(*args)))
    return patch


def _gap_weights(change):
    """Patch the sweeps' gap weights: f(0..max_n) becomes change(f)."""
    def patch(monkeypatch):
        weights = sweeps.dominance_weights
        monkeypatch.setattr(sweeps, "dominance_weights", lambda table, max_n: (
            change(weights(table, max_n))))
    return patch


def _constants(lo, hi):
    """Patch pi_alpha so that pi and a both lie in [lo, hi], dyadic, at
    every rung."""
    def patch(monkeypatch):
        monkeypatch.setattr(checks, "pi_alpha", lambda bits: (
            (int(lo * 2**bits), int(hi * 2**bits)),) * 2)
    return patch


# pi and a in [-7/2, 7/2]: each claim's gap straddles zero at its first n,
# save stirling's, which C(1,2) = 0 holds at 1 whatever pi is, and which
# first straddles at n = 42; lemma13's exponent stays below 1
STRADDLING = _constants(Fraction(-7, 2), Fraction(7, 2))


def _corrupt_restricted_table(k, j):
    """Patch the sweeps' restricted tables so that p_k(j) is one more."""
    def patch(monkeypatch):
        build = sweeps.build_restricted_table
        monkeypatch.setattr(sweeps, "build_restricted_table", lambda m, degree: (
            build(m, degree) if m != k
            else tuple(p + (i == j) for i, p in enumerate(build(m, degree)))))
    return patch


def _replace_central_binomial(n, value):
    def patch(monkeypatch):
        walk = sweeps.iter_central_binomials
        monkeypatch.setattr(sweeps, "iter_central_binomials", lambda lo, hi: (
            (m, value if m == n else c) for m, c in walk(lo, hi)))
    return patch


@pytest.mark.parametrize("claim, n_min, n_max, patch, expected", [
    ("eq9", 2, 300, _cap_eq9_depth,
     {"checked": 736, "outcome": "inconclusive", "counterexample": [39, 33],
      "min_margin": 0.0013317596616809085}),
    # S(37,20) = 18 * (0 - p(37,19)) < 0; n = 36 reads row 36 alone
    ("lemma-links", 4, 100, _corrupt_row(37, 20, lambda p: 0),
     {"checked": 34, "outcome": "violated", "counterexample": [37, 20]}),
    # 512*p(n,k) > 2000*C(n,k) first fails at n = 36, at k = floor(41/2)
    ("lemma-gr", 4, 500, _gap_weights(lambda f: (512 - 2000,) + f[1:]),
     {"checked": 33, "outcome": "violated", "counterexample": [36, 20]}),
    # f(37) enters row 37 at k = 37 alone, with coefficient C(0,0) = 1
    ("lemma-gr", 4, 500,
     _gap_weights(lambda f: f[:37] + (f[37] - 10**40,) + f[38:]),
     {"checked": 34, "outcome": "violated", "counterexample": [37, 37]}),
    ("prop1", 1, 50, STRADDLING,
     {"checked": 1, "outcome": "inconclusive", "precision_bits": 4096}),
    ("prop1", 1, 50, _constants(-2, -1),
     {"checked": 1, "outcome": "violated", "counterexample": [1],
      "precision_bits": 128}),
    ("prop2", 1, 50, STRADDLING,
     {"checked": 1, "outcome": "inconclusive", "precision_bits": 4096}),
    ("prop2", 1, 50, _constants(-2, -1),
     {"checked": 1, "outcome": "violated", "counterexample": [1],
      "precision_bits": 128}),
    ("lemma13", 3, 50, STRADDLING,
     {"checked": 1, "outcome": "inconclusive", "precision_bits": 4096}),
    # at n = 3 the left gap is certainly negative while the right one
    # straddles zero: one gap certainly <= 0 violates the rung
    ("lemma13", 3, 50, _constants(-2, -1),
     {"checked": 1, "outcome": "violated", "counterexample": [3],
      "precision_bits": 128}),
    ("apostol", 1, 50, STRADDLING,
     {"checked": 1, "outcome": "inconclusive", "precision_bits": 4096}),
    # a negative pi makes the bound negative: p(1) = 1 exceeds it
    ("apostol", 1, 50, _constants(-2, -1),
     {"checked": 1, "outcome": "violated", "counterexample": [1],
      "precision_bits": 128}),
    # n = 1 to 41 hold at 128 bits; n = 42 straddles at every rung
    ("stirling", 1, 50, STRADDLING,
     {"checked": 42, "outcome": "inconclusive", "min_margin": 0.0020438530662778604,
      "precision_bits": 4096}),
    # a negative pi makes C^2*n*pi negative: every n holds, by a gap >= 1
    ("stirling", 1, 50, _constants(-2, -1),
     {"checked": 50, "outcome": "verified", "min_margin": 1.0,
      "precision_bits": 128}),
    # the minimum is taken over the n before the violation only: over
    # 1..2000 it is 0.002246473548619157, at n = 2000
    ("stirling", 1, 2000, _replace_central_binomial(1500, 2**1500),
     {"checked": 1500, "outcome": "violated", "counterexample": [1500, 751],
      "min_margin": 0.002997722203686728, "precision_bits": 128}),
    # the weighted identity first fails at coefficient 10 of k = 7's series
    ("genfun", 1, 15, _corrupt_restricted_table(7, 10),
     {"checked": 7, "outcome": "violated", "counterexample": [7, "weighted", 10],
      "notes": {"degree": 60}}),
], ids=["eq9-depth-cap-4", "lemma-links-broken-at-37", "lemma-gr-ratio-2000",
         "lemma-gr-weight-37", "prop1-straddling",
        "prop1-negative", "prop2-straddling", "prop2-negative",
        "lemma13-straddling", "lemma13-negative", "apostol-straddling",
        "apostol-negative", "stirling-straddling", "stirling-negative",
        "stirling-violated-at-1500", "genfun-table-broken-at-7"])
def test_sweep_stops_at_first_unverified_n(monkeypatch, claim, n_min, n_max,
                                           patch, expected):
    patch(monkeypatch)
    summary = sweeps.run([claim], n_min, n_max)[0]
    assert cli._summary_doc(summary) == {
        "claim": claim, "range": [n_min, n_max], **expected}


def test_sign_sum_sweep_takes_no_sum_past_the_first_unverified_n(monkeypatch):
    _corrupt_row(37, 20, lambda p: 0)(monkeypatch)
    corrupted, seen = sweeps.iter_triangle_rows, []
    monkeypatch.setattr(sweeps, "iter_triangle_rows", lambda *args: (
        seen.append(m) or (m, row) for m, row in corrupted(*args)))
    # the sampled sums at n = 64 and 100 lie past the violation at 37
    monkeypatch.setattr(sweeps, "peak_sign_sum", lambda *args: pytest.fail(
        "a sampled sum was taken"))
    assert sweeps.run(["lemma-links"], 4, 100)[0].outcome == VIOLATED
    assert seen == list(range(38))  # row 37 alone decides n = 37


@pytest.mark.parametrize("claim, n, n_max", [
    ("lemma-links", 64, 100),
    ("lemma-rechts", 64, 100),
    ("lemma-links", 70, 70),  # n_max is sampled too
    ("lemma-rechts", 70, 70),
])
def test_corrupted_row_at_a_sampled_n_fails_the_claim(monkeypatch, claim, n, n_max):
    # one unit more keeps every sign, so only the defining sum can tell
    k = peak_k(n) + (claim == "lemma-rechts")
    _corrupt_row(n, k, lambda p: p + 1)(monkeypatch)
    with pytest.raises(AssertionError, match=rf"S\({n},{k}\)"):
        sweeps.run([claim], 4, n_max)[0]


def test_certified_sweep_calls_no_check_past_the_first_unverified_n(monkeypatch):
    STRADDLING(monkeypatch)  # pi straddles zero: apostol's kernel gives no gap
    check, calls, read = checks.partition_bound_check, [], []

    def recording(ns, values):
        calls.append(ns)
        return check(ns, (read.append(value) or value for value in values))

    monkeypatch.setattr(checks, "partition_bound_check", recording)
    certified, kernels = checks._certified, []
    monkeypatch.setattr(checks, "_certified", lambda kernel, *args: certified(
        lambda bits, *constants: kernels.append(bits) or kernel(bits, *constants),
        *args))
    assert sweeps.run(["apostol"], 1, 50)[0].outcome == "inconclusive"
    # one check over the range; no rung has a gap to take at any n, and
    # only n = 1's value, p(1), is read, as the first n open
    assert calls == [range(1, 51)]
    assert kernels == [128 << i for i in range(6)]
    assert read == [1]


@pytest.mark.parametrize("stop", [40, None], ids=["violated-at-40", "verified"])
@pytest.mark.parametrize("claim, check", [
    ("prop1", "diagonal_bound_check"),
    ("prop2", "subdiagonal_bound_check"),
    ("lemma13", "growth_chain_check"),
    ("apostol", "partition_bound_check"),
    ("stirling", "central_binomial_check"),
])
def test_certified_sweep_checks_each_n_once_in_order(monkeypatch, claim, check, stop):
    # the claim's own check and kernel, but n = stop reports violated
    original, calls, seen, read = getattr(checks, check), [], [], []
    certified = checks._certified

    def recording(kernel, *args):
        def rung(bits, pi, alpha):
            gap = kernel(bits, pi, alpha)

            def recorded(n, value):
                seen.append(n)
                return (-1, -1) if n == stop else gap(n, value)
            return recorded
        return certified(rung, *args)

    def counted(values):
        for value in values:
            read.append(value)
            yield value

    monkeypatch.setattr(checks, "_certified", recording)
    monkeypatch.setattr(checks, check, lambda ns, *values: (
        calls.append(ns) or original(ns, *map(counted, values))))
    summary = sweeps.run([claim], None, 60)[0]
    n_min = sweeps.CLAIMS[claim][1][0]
    last = 60 if stop is None else stop
    assert calls == [range(n_min, 61)]
    assert seen == list(range(n_min, last + 1))
    # no value past the last n evaluated is read; lemma13 reads none
    assert len(read) == (0 if claim == "lemma13" else last - n_min + 1)
    assert (summary.checked, summary.outcome) == (
        last - n_min + 1, VERIFIED if stop is None else VIOLATED)


def test_run_all_builds_one_partition_table(monkeypatch):
    build, sizes = sweeps.build_partition_table, []
    monkeypatch.setattr(sweeps, "build_partition_table",
                        lambda max_n: sizes.append(max_n) or build(max_n))
    sweeps.run(sweeps.CLAIMS, 4, 200)
    assert sizes == [200]
    # at the default ranges the row claims end at 1000, and prop1, prop2
    # and apostol read the table to 2000
    sizes.clear()
    sweeps.run(sweeps.CLAIMS, None, None)
    assert sizes == [2000]
    # lemma13, stirling and genfun read no table, so a run of them builds none
    sizes.clear()
    sweeps.run(["lemma13", "stirling", "genfun"], None, None)
    assert sizes == []
    # the row pass and apostol share one table
    sweeps.run(["apostol", "thm3"], 1, 300)
    assert sizes == [300]


def _unchanged(monkeypatch):
    pass


@pytest.mark.parametrize("patch", [_unchanged, _corrupt_row(37, 20, lambda p: 0)],
                         ids=["unchanged", "corrupt-row-37"])
def test_run_all_matches_separate_runs(monkeypatch, patch):
    patch(monkeypatch)
    alone = [sweeps.run([claim], 4, 120)[0] for claim in sweeps.CLAIMS]

    # f(0) of every row stream: 1 for the p(n,k) rows, 512 - 1745 for the
    # gap rows, streamed from their right ends
    firsts = []
    for name in ("iter_triangle_rows", "iter_triangle_tails"):
        monkeypatch.setattr(sweeps, name, lambda *args, stream=getattr(sweeps, name): (
            firsts.append(args[2][0]) or stream(*args)))
    seen = {}
    for claim, (step, width) in list(sweeps.ROW_STEPS.items()):
        def spy(n, row, hi, table, claim=claim, step=step):
            seen.setdefault(claim, []).append(n)
            return step(n, row, hi, table)
        monkeypatch.setitem(sweeps.ROW_STEPS, claim, (spy, width))

    together = sweeps.run(sweeps.CLAIMS, 4, 120)
    assert together == alone
    assert sorted(firsts) == [512 - 1745, 1]
    # each row claim's steps run from its first n to its last n evaluated:
    # n_max, or the first n not verified
    for summary in together:
        if summary.claim in sweeps.ROW_STEPS:
            last = (summary.n_max if summary.outcome == VERIFIED
                    else summary.counterexample[0])
            assert seen[summary.claim] == list(range(summary.n_min, last + 1))
    if patch is not _unchanged:
        stopped = {s.claim for s in together if s.outcome != VERIFIED}
        assert {"thm2", "lemma-links"} <= stopped
        assert {"thm3", "eq9"}.isdisjoint(stopped)


def _count_row_streams(monkeypatch) -> list:
    """Patch the sweeps' p(n,k) row stream to note each stream's last n."""
    stream, streams = sweeps.iter_triangle_rows, []
    monkeypatch.setattr(sweeps, "iter_triangle_rows", lambda *args: (
        streams.append(args[0]) or stream(*args)))
    return streams


@pytest.mark.parametrize("claims, n_min, n_max, streams_to", [
    pytest.param(list(sweeps.CLAIMS), 1, 120, [120], id="1-120"),
    pytest.param(list(sweeps.CLAIMS), None, None, [1000], id="None-None"),
    pytest.param(["thm3"], 1, 80, [80], id="thm3-1-80"),
    pytest.param(["apostol", "eq9", "thm2"], 1, 120, [120],
                 id="apostol-eq9-thm2-1-120"),
    pytest.param(["lemma13", "stirling", "genfun"], 1, 120, [],
                 id="no-row-claim-1-120"),
])
def test_run_all_streams_the_rows_once_over_clamped_ranges(monkeypatch, claims,
                                                           n_min, n_max, streams_to):
    # thm2, lemma-links and lemma-rechts start at 4 and eq9 at 2, so at
    # 1..120, and at no range given, a claim's range is not the arguments
    streams = _count_row_streams(monkeypatch)
    summaries = sweeps.run(claims, n_min, n_max)
    assert streams == streams_to
    assert [s.claim for s in summaries] == claims
    assert all(s.outcome == VERIFIED for s in summaries)


def test_run_all_queues_steps_not_rows():
    # the row pass folds steps and holds no row past the one it is on; the
    # p(n,k) rows 0..400, all held, peak at about 4.9 MB under tracemalloc
    # pi_alpha's and the kernels' caches are filled outside the trace
    checks.partition_bound_check(range(1, 2), [1])
    tracemalloc.start()
    try:
        summaries = sweeps.run(sweeps.CLAIMS, 4, 400)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(s.outcome == VERIFIED for s in summaries)
    assert peak < 2 * 2**20


def test_row_pass_lets_its_rows_go_once_every_claim_closes():
    # the run's context, partition table and all, goes with the run
    tracemalloc.start()
    try:
        assert sweeps.run(["thm2"], 4, 1000)[0].outcome == VERIFIED
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # a stream left suspended at row 1000 holds rows 999 and 1000, about 250 KB
    assert held < 2**16


_SUMMARY_FIELDS = {
    "claim": "thm2", "n_min": 4, "n_max": 40, "checked": 37, "outcome": VERIFIED,
    "counterexample": (5, 2), "min_margin": 0.25, "max_precision_bits": 128,
    "notes": {"streamed": True},
}


def test_claim_summary_compares_field_by_field():
    """A run of every claim is checked against runs of one claim each by
    ==, so a summary equals another exactly when all nine fields do,
    however it was built."""
    summary = sweeps.ClaimSummary(**_SUMMARY_FIELDS)
    assert summary == sweeps.ClaimSummary(*_SUMMARY_FIELDS.values())
    assert vars(summary) == _SUMMARY_FIELDS
    for name in _SUMMARY_FIELDS:
        other = dict(_SUMMARY_FIELDS, **{name: "changed"})
        assert summary != sweeps.ClaimSummary(**other), name
    assert summary != tuple(_SUMMARY_FIELDS.values())


def test_claim_summary_defaults_and_unshared_notes():
    first = sweeps.ClaimSummary("genfun", 1, 5, 5, VERIFIED)
    second = sweeps.ClaimSummary("genfun", 1, 5, 5, VERIFIED)
    assert (first.counterexample, first.min_margin, first.max_precision_bits,
            first.notes) == (None, None, None, {})
    assert first == second
    first.notes["degree"] = 60
    assert second.notes == {}
    assert first != second
