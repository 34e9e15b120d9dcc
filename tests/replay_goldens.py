"""Replay every golden command line in a fresh process and compare its bytes.

    python tests/replay_goldens.py

Runs each entry of tests/data/scale_golden.json, cli_golden.json and
product_golden.json as `python -m binpart ARGV...`, one fresh process
each, as users run them: eq9, the sign sums and stirling beyond their
default ranges, compute p 100000 on the series against the table's
bytes, lemma13, apostol, prop1 and prop2 to n = 20000 and lemma13 to
n = 100000; the fixed command lines of cli_golden.json, whose compute p
entries sit on both sides of the table/series switch; then the 335
product command lines of the queries mix.  Prints one line per command with its wall time, and fails
a command under its own name when its exit code or stdout differs from
the golden or it runs past 300 s.  Exits 1 if any command failed, 0
otherwise.  binpart must be importable (installed, or PYTHONPATH=src).
"""

import json
import subprocess
import sys
import time
from pathlib import Path

DATA = Path(__file__).parent / "data"
GOLDENS = ("scale_golden.json", "cli_golden.json", "product_golden.json")
TIMEOUT_S = 300


def main() -> int:
    failed = 0
    entries = [entry for name in GOLDENS
               for entry in json.loads((DATA / name).read_text())]
    for entry in entries:
        argv = " ".join(entry["argv"])
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-m", "binpart", *entry["argv"]],
                                  capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"timed out after {TIMEOUT_S} s: {argv}")
            failed = 1
            continue
        print(f"{time.perf_counter() - start:7.2f} s  {argv}")
        if (proc.returncode, proc.stdout) != (entry["exit"], entry["stdout"]):
            print("differs from its golden:", argv)
            failed = 1
    return failed


if __name__ == "__main__":
    sys.exit(main())
