"""Apply each committed mutation to a copy of src and require a test to fail.

    python tests/mutants.py

Each entry of MUTANTS is (file under src, exact old text, new text, test
selection).  The script copies src to a temporary directory once, checks
that binpart imports from the copy and that the unmutated copy passes
every selection, then, for each entry, writes the file with the old text
replaced and runs the selection against the copy with pytest (`-x`,
`pythonpath` set to the copy).  An entry is killed when its selection
fails (pytest exit code 1), and the file is restored before the next
entry.  Prints one line per entry with its verdict and wall time.  Exits
1 if any entry survives, if its old text no longer occurs exactly once
in its file (so the list follows the code), or if the unmutated copy
fails a selection; 0 otherwise.  Each entry names a test selection small
enough to run in seconds; a mutation that is meant to be caught joins
the list with the selection that catches it.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EQ9 = "tests/test_checks.py::TestProductLadder"
ROW_PASS = "tests/test_sweeps.py::test_run_all_matches_separate_runs"
FIXED_POINT = "tests/test_checks.py::TestFixedPoint"
POINT_CONSTANTS = ("tests/test_checks.py::TestRawIntervalGaps::"
                   "test_kernels_hold_the_reference_at_point_constants")
DIGIT_LIMIT = "tests/test_cli.py::TestMu::test_digit_limit_is_exact_at_its_boundaries"

MUTANTS = [
    # eq9: an in-band k decided by the float alone, never on exact sides
    ("binpart/checks.py",
     "            if not (r < low or r > high):  # in the band, or NaN\n"
     "                lhs, rhs = _product_sides(n, k, row[k], binomials[k - 1], depth)\n"
     "                if lhs < rhs:\n"
     "                    cleared_k.append(k)\n"
     "                    cleared_r.append(lhs / rhs)\n"
     "                    continue\n"
     "            if r < low:\n",
     "            if r < 1:\n",
     EQ9),
    # eq9: a band k kept open goes on with lhs/rhs instead of its r^
    ("binpart/checks.py",
     "                if lhs < rhs:\n"
     "                    cleared_k.append(k)\n",
     "                r = lhs / rhs\n"
     "                if lhs < rhs:\n"
     "                    cleared_k.append(k)\n",
     EQ9),
    # eq9: the margin sought only among the k at the single largest r^
    ("binpart/checks.py",
     "        near = max(max(ratios) for _, _, ratios in before)"
     " - 4 * epsilon(before[-1][0])\n"
     "        sides = [_product_sides(n, k, row[k], binomials[k - 1], depth)\n"
     "                 for depth, cleared_k, ratios in before\n"
     "                 for k in compress(cleared_k, map(lt, repeat(near), ratios))]\n",
     "        near = max(max(ratios) for _, _, ratios in before)\n"
     "        sides = [_product_sides(n, k, row[k], binomials[k - 1], depth)\n"
     "                 for depth, cleared_k, ratios in before\n"
     "                 for k in compress(cleared_k, map(near.__eq__, ratios))]\n",
     EQ9),
    # eq9: r <- r*(1 - q_j) taken before q_j advances
    ("binpart/checks.py",
     "                qj *= q\n"
     "                r *= 1.0 - qj\n",
     "                r *= 1.0 - qj\n"
     "                qj *= q\n",
     EQ9),
    # thm3: 12769 raised to 12770, a bound the margin reads at every k
    ("binpart/checks.py",
     "    rhs = 12769 << (2 * n)\n",
     "    rhs = 12770 << (2 * n)\n",
     "tests/test_checks.py::TestRowBound::test_margin_matches_per_k_formula"),
    # lemma13's e^x: the refusal of x > 1 removed
    ("binpart/intervals.py",
     "    if x_hi > 1 << bits:\n"
     "        raise ValueError(\"exp_bracket takes x <= 1\")\n",
     "",
     f"{FIXED_POINT}::test_exp_bracket_refuses_x_past_one"),
    # the integer kernel, each rounded inward at one end: ln's upper end
    # floored, not ceiled
    ("binpart/intervals.py",
     "            -(-(b * two_hi + t_hi + z_hi + 1) >> LN_GUARD_BITS))",
     "            b * two_hi + t_hi + z_hi + 1 >> LN_GUARD_BITS)",
     f"{FIXED_POINT}::test_ln_of_powers_of_two_and_their_neighbours"),
    # atanh2's z = num/den ceiled, not floored, under its lower bound
    ("binpart/intervals.py",
     "    z = (num << w) // den\n",
     "    z = -(-(num << w) // den)\n",
     f"{FIXED_POINT}::test_atanh2_encloses_the_reference"),
    # exp_bracket's lower end ceiled, not floored, to 2^-bits
    ("binpart/intervals.py",
     "    return lo >> EXP_GUARD_BITS, -(-hi >> EXP_GUARD_BITS)",
     "    return -(-lo >> EXP_GUARD_BITS), -(-hi >> EXP_GUARD_BITS)",
     f"{FIXED_POINT}::test_exp_bracket_holds_e_to_the_x_over_random_widths"),
    # exp_point's closed form: the upper end 1 + delta, below e^delta
    ("binpart/intervals.py",
     "        return (1 << w) + x, (1 << w) + x + 1\n",
     "        return (1 << w) + x, (1 << w) + x\n",
     f"{FIXED_POINT}::test_exp_point_in_closed_form_below_the_square_root"),
    # exp_point's closed form: the lower end 1 + delta + 2^-w
    ("binpart/intervals.py",
     "        return (1 << w) + x, (1 << w) + x + 1\n",
     "        return (1 << w) + x + 1, (1 << w) + x + 1\n",
     f"{FIXED_POINT}::test_exp_point_in_closed_form_below_the_square_root"),
    # times' upper end floored, not ceiled
    ("binpart/intervals.py",
     "            -(-c_hi * (q_hi if c_hi >= 0 else q_lo) >> shift))",
     "            c_hi * (q_hi if c_hi >= 0 else q_lo) >> shift)",
     f"{POINT_CONSTANTS}[central-binomial]"),
    # over's upper end floored, not ceiled
    ("binpart/intervals.py",
     "            -((-c_hi << bits) // (d_lo if c_hi >= 0 else d_hi)))",
     "            (c_hi << bits) // (d_lo if c_hi >= 0 else d_hi))",
     f"{POINT_CONSTANTS}[growth-chain]"),
    # alpha_sqrt's sqrt(n)*2^bits taken as r alone, not [r, r + 1]
    ("binpart/intervals.py",
     "    return times(alpha, r, r + 1, bits)",
     "    return times(alpha, r, r, bits)",
     f"{POINT_CONSTANTS}[diagonal-bound]"),
    # lemma-gr's gap tails: G(n,n) seeded with f(0) + 1
    ("binpart/binomial_sums.py",
     "                tail += (f0,)\n",
     "                tail += (f0 + 1,)\n",
     "tests/test_binomial_sums.py::TestTriangleTails"),
    # pi_alpha: the lower ends of pi and a floored from their upper ends
    ("binpart/intervals.py",
     "    return tuple((to_int(mpf_shift(lo, bits), round_floor),\n",
     "    return tuple((to_int(mpf_shift(hi, bits), round_floor),\n",
     "tests/test_intervals.py::test_pi_alpha_holds_machins_pi"),
    # row pass: a claim closes at its n_max only, not at its first step
    # that is not verified
    ("binpart/sweeps.py",
     "                if step[1] != VERIFIED or n == hi:\n",
     "                if n == hi:\n",
     ROW_PASS),
    # row pass: every claim takes a step at every row, from row 0
    ("binpart/sweeps.py",
     "            if n >= lo:\n",
     "            if True:\n",
     ROW_PASS),
    # mu's digit limit: Birkhoff's n^(k+2) taken as n^(k+1)
    ("binpart/cli.py",
     "    birkhoff = (k + 2) * ln_n[0]",
     "    birkhoff = (k + 1) * ln_n[0]",
     DIGIT_LIMIT),
    # mu's digit limit: the corollary's 2^n taken as 2^(n-1)
    ("binpart/cli.py",
     "    corollary = n * ln(2, 1, bits)[0]",
     "    corollary = (n - 1) * ln(2, 1, bits)[0]",
     DIGIT_LIMIT),
]


def pytest_exit(src: Path, selection: str) -> int:
    """pytest's exit code for selection, run against the binpart in src.

    No bytecode is written: a mutant of the same size as the original,
    written within the same second, could otherwise load the other's.
    """
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "-o", f"pythonpath={src}", selection],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    ).returncode


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        where = subprocess.run(
            [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]);"
             " import binpart; print(binpart.__file__)", str(src)],
            capture_output=True, text=True).stdout.strip()
        if not Path(where).is_relative_to(src):
            print(f"binpart imports from {where or 'nowhere'}, not the copy in {src}")
            return 1
        for selection in dict.fromkeys(entry[3] for entry in MUTANTS):
            if pytest_exit(src, selection) != 0:
                print(f"the unmutated copy fails {selection}")
                return 1
        for number, (name, old, new, selection) in enumerate(MUTANTS, 1):
            path = src / name
            original = path.read_text()
            if original.count(old) != 1:
                print(f"mutant {number}: its old text occurs "
                      f"{original.count(old)} times in {name}, not once")
                failed = 1
                continue
            path.write_text(original.replace(old, new))
            start = time.perf_counter()
            try:
                code = pytest_exit(src, selection)
            finally:
                path.write_text(original)
            seconds = time.perf_counter() - start
            verdict = "killed" if code == 1 else f"SURVIVED (pytest exit {code})"
            print(f"{seconds:6.2f} s  mutant {number} in {name}: {verdict}")
            failed |= code != 1
    return failed


if __name__ == "__main__":
    sys.exit(main())
