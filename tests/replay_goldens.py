"""Replay every golden command line in a fresh process and compare its bytes.

    python tests/replay_goldens.py

Runs each entry of tests/data/scale_golden.json, cli_golden.json and
product_golden.json as `python -m binpart ARGV...`, one fresh process
each, as users run them: eq9, the sign sums and stirling beyond their
default ranges, compute p 100000 on the series against the table's
bytes, lemma13, apostol, prop1 and prop2 to n = 20000 and lemma13 to
n = 100000; the fixed command lines of cli_golden.json, whose compute p
entries sit on both sides of the table/series switch; then the 335
product command lines of the queries mix.  Prints one line per command
with its wall time and its peak RSS (ru_maxrss from os.wait4), Python
start-up included, and fails a command under its own name when its exit
code or stdout differs from the golden or it runs past 300 s.  Exits 1
if any command failed, 0 otherwise.  binpart must be importable
(installed, or PYTHONPATH=src).  The commands run without
PYTHONDONTWRITEBYTECODE, as perfbench's workers do, so that their times
count start-up from cached bytecode however the caller set it.
"""

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

DATA = Path(__file__).parent / "data"
GOLDENS = ("scale_golden.json", "cli_golden.json", "product_golden.json")
TIMEOUT_S = 300


def run(argv: list[str]):
    """Run `python -m binpart ARGV` in a fresh process.

    Returns (exit code, stdout, wall seconds, peak RSS in MB), or None when
    the process was killed after TIMEOUT_S.  The process is reaped by
    os.wait4, whose resource usage holds its own peak RSS (Linux counts
    ru_maxrss in KiB).
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-m", "binpart", *argv],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, env=env) as proc:
        timer = threading.Timer(TIMEOUT_S, proc.kill)
        timer.start()
        try:
            stdout = proc.stdout.read()
        finally:
            timer.cancel()
        _, status, usage = os.wait4(proc.pid, 0)
        # reaped here, so Popen's exit must not wait for it again
        proc.returncode = os.waitstatus_to_exitcode(status)
    seconds = time.perf_counter() - start
    if seconds >= TIMEOUT_S:
        return None
    return proc.returncode, stdout, seconds, usage.ru_maxrss / 1024


def main() -> int:
    failed = 0
    entries = [entry for name in GOLDENS
               for entry in json.loads((DATA / name).read_text())]
    for entry in entries:
        argv = " ".join(entry["argv"])
        result = run(entry["argv"])
        if result is None:
            print(f"timed out after {TIMEOUT_S} s: {argv}")
            failed = 1
            continue
        code, stdout, seconds, peak_mb = result
        print(f"{seconds:7.2f} s {peak_mb:7.1f} MB  {argv}")
        if (code, stdout) != (entry["exit"], entry["stdout"]):
            print("differs from its golden:", argv)
            failed = 1
    return failed


if __name__ == "__main__":
    sys.exit(main())
