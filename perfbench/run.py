#!/usr/bin/env python3
"""binpart benchmark: end-to-end metrics per workload, or per-layer metrics traced.

Run from the root of a binpart checkout:

    python3 perfbench/run.py --workload verify-default --seed 1 --seconds 25 --trace 0

Every pass of a workload runs in a fresh child process (perfbench/worker.py)
that imports binpart.cli and issues the workload's operations one at a time
through binpart.cli.main(argv), with stdout captured: a closed loop with
one client.  Passes repeat until --seconds have elapsed.  Every output is
checked by perfbench/oracle.py after the child exits, outside the timed
region.

--trace 0 prints the end-to-end metrics: setup_s, wall_s, peak_rss_mb,
op_p50_ms, op_p90_ms and ops_per_s.  --trace 1 follows every untraced
pass with a traced one and prints the per-layer metrics of
perfbench/layers.py, from the last traced pass, whose spans are written
to perfbench/traces/, plus the tracing overhead: the median over the
pairs of traced minus untraced wall time.  Either way the last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import SPANS, metric_table
from oracle import Oracle
from speed import kernel_seconds, reference_kernel, timed_kernel
from workloads import WORKLOADS, make_ops, repeat_share

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PER_PASS = 3
CHILD_TIMEOUT_S = 150
# Usual time of speed.reference_kernel on a quiet machine (Intel Xeon,
# 2 vCPUs, Python 3.11); normalised times are seconds at that speed.
REFERENCE_KERNEL_S = 0.00035

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
                    "op_p50_ms": "ms", "op_p90_ms": "ms", "ops_per_s": "1/s"}


class BenchError(Exception):
    pass


def child_env() -> dict:
    """The caller's environment with `src` importable and byte-compiled
    modules cached, so that set-up time does not depend on how the caller
    set PYTHONDONTWRITEBYTECODE."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(args: list[str], stdin_text: str | None = None) -> dict:
    """Run one worker child to completion and return its JSON result line."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args], input=stdin_text,
            capture_output=True, text=True, cwd=ROOT, env=child_env(),
            timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args[0]} timed out after {exc.timeout} s") from exc
    if proc.returncode != 0 or not proc.stdout:
        raise BenchError(f"worker {args[0]} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def normalised(seconds: float, start: float, samples: list[list[float]]) -> float:
    """`seconds` from `start` on, at reference speed."""
    return seconds * REFERENCE_KERNEL_S / kernel_seconds(samples, start, start + seconds)


def setup_sample() -> tuple[float, float]:
    """Seconds from spawning a child to `import binpart.cli` done, raw and
    at reference speed by kernel samples taken just before and after."""
    samples = [timed_kernel() for _ in range(3)]
    start = time.monotonic()
    seconds = spawn(["setup"])["ready"] - start
    samples += [timed_kernel() for _ in range(3)]
    return seconds, normalised(seconds, start, samples)


def measure(ops: list[list[str]], seconds: float, spans_file: Path | None
            ) -> tuple[list[dict], list[tuple[float, float]], list[dict]]:
    """Passes, each in a fresh child, until `seconds` have elapsed.

    Without `spans_file`, every pass is untraced, and SETUP_PER_PASS set-up
    samples (raw, normalised) are taken before each pass, so that they
    spread over the run like the passes do.  With it, every untraced pass
    is followed by a traced one, so that each traced pass can be compared
    with the untraced pass next to it.
    """
    stdin_text = json.dumps(ops)
    passes, setups, traced = [], [], []
    spawn(["setup"])  # warm-up: byte-compiles src/ on a fresh checkout
    reference_kernel()
    start = time.monotonic()
    while not passes or time.monotonic() - start < seconds:
        setups += [setup_sample() for _ in range(0 if spans_file else SETUP_PER_PASS)]
        passes.append(spawn(["pass"], stdin_text))
        if spans_file:
            traced.append(spawn(["pass", str(spans_file)], stdin_text))
    return passes, setups, traced


def percentile(samples: list[float], fraction: float) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[round(fraction * 100) - 1]


def check(oracle: Oracle, ops: list[list[str]], passes: list[dict]) -> list[str]:
    """Run the oracle on every output; return one line per failed operation."""
    failures = []
    for run in passes:
        for argv, (code, out, err, *_) in zip(ops, run["results"]):
            reason = oracle.check(argv, code, out, err)
            if reason is not None:
                failures.append(f"{' '.join(argv)}: {reason}")
    return failures


def end_to_end(passes: list[dict], setups: list[tuple[float, float]]) -> dict:
    """End-to-end metrics of a run, with times normalised to machine speed.

    Every pass repeats the same operations in a fresh process.  Each time is
    normalised to machine speed, so that slow phases of the shared machine,
    which last from seconds to minutes, do not read as changes of the
    program; the medians are then taken over the passes.  `raw` keeps the
    unnormalised figures.
    """
    per_pass = [normalised_seconds(run) for run in passes]
    latencies = [statistics.median(times) for times in zip(*per_pass)]
    wall_s = statistics.median(sum(times) for times in per_pass)
    return {
        "setup_s": statistics.median(norm for _, norm in setups) if setups else None,
        "wall_s": wall_s,
        "peak_rss_mb": statistics.median(run["peak_rss_mb"] for run in passes),
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_p90_ms": 1000 * percentile(latencies, 0.90),
        "ops_per_s": len(latencies) / wall_s,
        "raw": {"wall_s": statistics.median(run["wall_s"] for run in passes),
                "setup_s": statistics.median(raw for raw, _ in setups) if setups else None,
                "kernel_s": statistics.median(s for run in passes for _, s in run["speed_samples"])},
    }


def normalised_seconds(run: dict) -> list[float]:
    return [normalised(seconds, start, run["speed_samples"])
            for _, _, _, seconds, start in run["results"]]


def fmt_list(values: list[float]) -> str:
    return "[" + ", ".join(f"{v:.4f}" for v in values) + "]"


def per_layer(workload: str, trace: dict, overhead_s: float) -> dict:
    calls, self_s, total_s, counts = (trace[k] for k in ("calls", "self_s", "total_s", "counts"))
    values = dict(counts)
    for span in SPANS:
        values[span + ".calls"] = calls.get(span, 0)
        values[span + ".self_s"] = self_s.get(span, 0.0)
        if span.startswith("checks."):
            n = calls.get(span, 0)
            values[span + ".us_per_call"] = 1e6 * total_s.get(span, 0.0) / n if n else 0.0
    decided = calls.get("intervals.decide_with_escalation", 0)
    values["intervals.first_rung_ratio"] = (
        counts.get("intervals.decided_first_rung", 0) / decided if decided else 0.0)
    values["binomial_sums.build_triangle.peak_mb"] = trace["triangle_peak_mb"]
    values["trace.overhead_s"] = overhead_s

    metrics = {}
    silent = []
    for name, (unit, _, drives) in metric_table().items():
        metrics[name] = {"value": values.get(name, 0), "unit": unit}
        if workload in drives and not values.get(name):
            silent.append(name)
    if silent:
        raise BenchError(f"traced run: counters read 0 on {workload}, which drives "
                         f"them: {', '.join(silent)}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "binpart" / "cli.py").is_file():
        print(f"error: no binpart sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    ops = make_ops(args.workload, args.seed, args.tiny)
    spans_file = None
    if args.trace:
        spans_file = HERE / "traces" / f"{args.workload}-seed{args.seed}.json"
        spans_file.parent.mkdir(exist_ok=True)
    try:
        passes, setups, traced = measure(ops, args.seconds, spans_file)
        failures = check(Oracle(ops), ops, passes + traced)
        attempted = len(ops) * (len(passes) + len(traced))
        e2e = end_to_end(passes, setups)
        if not traced:
            metrics = {name: {"value": e2e[name], "unit": unit}
                       for name, unit in END_TO_END_UNITS.items()}
        else:
            untraced_s = [sum(normalised_seconds(run)) for run in passes]
            traced_s = [sum(normalised_seconds(run)) for run in traced]
            overhead_s = statistics.median(t - u for t, u in zip(traced_s, untraced_s))
            metrics = per_layer(args.workload, traced[-1]["trace"], overhead_s)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"workload={args.workload} seed={args.seed} passes={len(passes)} "
          f"ops_per_pass={len(ops)} latency_samples={len(ops)} (median of {len(passes)}) "
          f"setup_samples={len(setups)} "
          f"repeat_share={repeat_share(ops):.4f} "
          f"failed_share={len(failures) / attempted:.4f} ratio "
          f"({len(failures)}/{attempted})")
    if not traced:
        print(f"raw wall_s={e2e['raw']['wall_s']:.4f} s, "
              f"raw setup_s={e2e['raw']['setup_s']:.4f} s, "
              f"kernel_s={e2e['raw']['kernel_s']:.6f} s")
    else:
        print(f"traced wall_s={fmt_list(traced_s)} s, untraced wall_s={fmt_list(untraced_s)} s "
              f"(pass by pass, normalised), untraced pass-to-pass spread "
              f"{max(untraced_s) - min(untraced_s):.4f} s, "
              f"spans={sum(traced[-1]['trace']['calls'].values())}")
    for name, metric in metrics.items():
        print(f"  {name:48s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
