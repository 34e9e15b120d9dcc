"""Benchmark child process: imports binpart.cli and runs operations one at a time.

Started by run.py from the checkout root with `src` on PYTHONPATH:

    python3 perfbench/worker.py setup
        prints {"ready": <time.monotonic() once binpart.cli is imported>}
    python3 perfbench/worker.py pass [SPANS_FILE] < ops.json
        runs each argv in ops.json through binpart.cli.main in a closed loop
        (one client, one thread) and prints, as one JSON line, for each
        operation its exit code, captured stdout and stderr, seconds and
        start time (time.monotonic), then the pass's wall time, peak RSS and
        the reference kernel samples taken during the pass (speed.py).
        With SPANS_FILE the pass is traced and the spans go there.

Only `sys` and `time` are imported before `binpart.cli`, so that a set-up
child's time is the program's import and nothing the harness loads:
everything else, mpmath for speed.py included, is imported later.
"""

from __future__ import annotations

import sys
import time


def run_pass(ops: list[list[str]], spans_file: str | None) -> dict:
    import contextlib
    import io
    import json
    import resource
    import traceback

    import binpart.cli as cli
    from speed import SpeedSampler

    tracer = None
    if spans_file is not None:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    results = []
    with SpeedSampler() as sampler:
        for index, argv in enumerate(ops):
            if tracer is not None:
                tracer.op = index
            out, err = io.StringIO(), io.StringIO()
            start = time.monotonic()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except Exception:  # a traceback is a failed operation, not a crash
                    code = None
                    traceback.print_exc()
            stop = time.monotonic()
            results.append([code, out.getvalue(), err.getvalue(), stop - start, start])

    doc = {
        "results": results,
        # closed loop: the pass's wall time is the sum of its operations'
        "wall_s": sum(r[3] for r in results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "speed_samples": sampler.samples,
    }
    if tracer is not None:
        tracer.uninstall()
        doc["trace"] = tracer.summary()
        doc["trace"]["triangle_peak_mb"] = tracer.triangle_peak_mb()
        with open(spans_file, "w") as fh:
            json.dump({"fields": ["op", "id", "parent", "name", "start", "end"],
                       "spans": tracer.spans}, fh)
    return doc


def main(argv: list[str]) -> int:
    if argv[1:] == ["setup"]:
        import binpart.cli  # noqa: F401
        ready = time.monotonic()
        print(f'{{"ready": {ready!r}}}')
        return 0
    if argv[1:2] == ["pass"] and len(argv) <= 3:
        import json
        ops = json.load(sys.stdin)
        doc = run_pass(ops, argv[2] if len(argv) == 3 else None)
        sys.stdout.write(json.dumps(doc) + "\n")
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
