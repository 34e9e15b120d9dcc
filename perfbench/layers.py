"""Per-layer metrics of the traced run and the end-to-end metric each should move.

This table is the single source for the per-layer metric names, their
units, which workload drives each one (the traced run fails if a metric
reads 0 on a workload listed for it) and which end-to-end metric a change
to that layer should move there.  A workload missing from a metric's map
is predicted not to move.
"""

from __future__ import annotations

V, R, Q = "verify-default", "rows-2000", "queries"

CHECKS = ("row_bound_check", "product_bound_check", "growth_chain_check",
          "partition_bound_check", "central_binomial_check",
          "diagonal_bound_check", "subdiagonal_bound_check")

CLAIMS = ("thm2", "thm3", "prop1", "prop2", "lemma-links", "lemma-rechts",
          "lemma-gr", "lemma13", "apostol", "stirling", "eq9", "genfun")
ROW_CLAIMS = ("thm2", "thm3", "lemma-gr")  # the claims rows-2000 runs

# Wrapped public functions: span name -> {driving workload: metrics moved}.
SPANS = {
    "partitions.build_partition_table": {Q: "op_p50_ms ops_per_s"},
    "partitions.build_restricted_table": {Q: "op_p50_ms ops_per_s"},
    "partitions.check_generating_functions": {V: "wall_s"},
    "binomial_sums.iter_triangle_rows": {R: "wall_s peak_rss_mb", Q: "op_p90_ms"},
    "binomial_sums.build_triangle": {R: "wall_s peak_rss_mb", Q: "op_p90_ms"},
    "binomial_sums.DiagonalTable": {V: "wall_s"},
    "binomial_sums.peak_sign_sum": {V: "wall_s"},
    "binomial_sums.dominance_check": {R: "wall_s", V: "wall_s"},
    "binomial_sums.verify_unimodal_profile": {Q: "op_p90_ms"},
    "checks.row_bound_check": {R: "wall_s", V: "wall_s"},
    "checks.product_bound_check": {V: "wall_s"},
    **{f"checks.{name}": {V: "wall_s"} for name in CHECKS[2:]},
    "intervals.decide_with_escalation": {V: "wall_s"},
    "qseries.enclose_euler_product": {Q: "op_p90_ms"},
    "qseries.euler_product_upper": {Q: "op_p90_ms"},
    "lie.best_bound": {Q: "op_p50_ms ops_per_s"},
    "cli.main": {Q: "op_p50_ms ops_per_s"},
    **{f"sweeps.{claim}": ({V: "wall_s", R: "wall_s"} if claim in ROW_CLAIMS
                           else {V: "wall_s"}) for claim in CLAIMS},
}

# Counters beyond calls and self time: name -> (unit, better, drives).
COUNTERS = {
    "binomial_sums.iter_triangle_rows.rows": ("count", "lower", SPANS["binomial_sums.iter_triangle_rows"]),
    "binomial_sums.build_triangle.peak_mb": ("MB", "lower", {R: "peak_rss_mb", Q: "peak_rss_mb"}),
    "intervals.rungs": ("count", "lower", {V: "wall_s"}),
    # every certified check decides at 128 bits at the seed, so these two read 0
    "intervals.rungs_above_128": ("count", "lower", {}),
    "intervals.undecided": ("count", "lower", {}),
    "intervals.first_rung_ratio": ("ratio", "higher", {V: "wall_s"}),
    "intervals.working_precision.enters": ("count", "lower", {V: "wall_s", Q: "op_p90_ms"}),
    "qseries.ell_sum": ("count", "lower", {Q: "op_p90_ms"}),
    **{f"sweeps.{claim}.checked": ("count", "higher", SPANS[f"sweeps.{claim}"])
       for claim in CLAIMS},
    "trace.overhead_s": ("s", "lower", {}),
}


def metric_table() -> dict[str, tuple[str, str, dict]]:
    """Every per-layer metric: name -> (unit, better, drives)."""
    table = {}
    for span, drives in SPANS.items():
        # the row stream and the sweeps are counted by rows / checked instead
        if span != "binomial_sums.iter_triangle_rows" and not span.startswith("sweeps."):
            table[span + ".calls"] = ("count", "lower", drives)
        table[span + ".self_s"] = ("s", "lower", drives)
        if span.startswith("checks."):
            table[span + ".us_per_call"] = ("us", "lower", drives)
    table.update(COUNTERS)
    return table
