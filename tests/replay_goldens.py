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
code or stdout differs from the golden or it runs past 300 s, with the
last line of its stderr.  Exits 1 if any command failed, 0 otherwise.
binpart must be importable (installed, or PYTHONPATH=src): the script
first runs `python -m binpart --help` once and, if that fails, prints
that binpart could not start, with the tail of its stderr, and exits 1
before replaying anything.  The commands run without
PYTHONDONTWRITEBYTECODE, as perfbench's workers do, so that their times
count start-up from cached bytecode however the caller set it.
"""

import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

DATA = Path(__file__).parent / "data"
GOLDENS = ("scale_golden.json", "cli_golden.json", "product_golden.json")
TIMEOUT_S = 300
STDERR_TAIL = 5  # lines of stderr shown when binpart cannot start


def binpart_starts() -> bool:
    """Whether `python -m binpart --help` exits 0; if not, print why."""
    proc = subprocess.run([sys.executable, "-m", "binpart", "--help"],
                          capture_output=True, text=True, timeout=TIMEOUT_S)
    if proc.returncode == 0:
        return True
    print(f"binpart could not start: `python -m binpart --help` exited "
          f"{proc.returncode}, its stderr ending")
    for line in proc.stderr.splitlines()[-STDERR_TAIL:]:
        print("   ", line)
    return False


def run(argv: list[str]):
    """Run `python -m binpart ARGV` in a fresh process.

    Returns (exit code, stdout, stderr, wall seconds, peak RSS in MB), or
    None when the process was killed after TIMEOUT_S.  The process is
    reaped by os.wait4, whose resource usage holds its own peak RSS (Linux
    counts ru_maxrss in KiB); stderr goes to a temporary file, so a child
    that writes much of it cannot block on a full pipe.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    start = time.perf_counter()
    with tempfile.TemporaryFile() as err, \
            subprocess.Popen([sys.executable, "-m", "binpart", *argv],
                             stdout=subprocess.PIPE, stderr=err,
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
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    seconds = time.perf_counter() - start
    if seconds >= TIMEOUT_S:
        return None
    return proc.returncode, stdout, stderr, seconds, usage.ru_maxrss / 1024


def main() -> int:
    if not binpart_starts():
        return 1
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
        code, stdout, stderr, seconds, peak_mb = result
        print(f"{seconds:7.2f} s {peak_mb:7.1f} MB  {argv}")
        if (code, stdout) != (entry["exit"], entry["stdout"]):
            print("differs from its golden:", argv)
            if stderr.strip():
                print("    stderr:", stderr.strip().splitlines()[-1])
            failed = 1
    return failed


if __name__ == "__main__":
    sys.exit(main())
