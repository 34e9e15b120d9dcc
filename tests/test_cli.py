import json
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from binpart import binomial_sums, cli, partitions, sweeps
from binpart.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VIOLATION,
    _verify_exit,
    main,
)
from binpart.checks import INCONCLUSIVE, VERIFIED, VIOLATED
from binpart.partitions import rademacher_partition_number

from reference_values import reference_partition_table

GOLDEN_TABLE = Path(__file__).parent / "data" / "table50.csv"
REPO = Path(__file__).parents[1]
GOLDEN_VERIFY_ALL = REPO / "perfbench" / "golden" / "verify_all.json"
# stdout and exit code of fixed `compute`, `mu`, `product`, `peak` and `table`
# command lines
GOLDEN_CLI = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())
# stdout and exit code of the 335 distinct `product` command lines that
# perfbench's `queries` mix draws for seeds 1-10
GOLDEN_PRODUCT = json.loads(
    (Path(__file__).parent / "data" / "product_golden.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestCompute:
    def test_pnk(self, capsys):
        code, out = run(capsys, "compute", "pnk", "50", "26")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["value"] == "412637434996367"
        assert doc["args"] == [50, 26]

    def test_pk(self, capsys):
        code, out = run(capsys, "compute", "pk", "3", "5")
        assert code == EXIT_OK
        assert json.loads(out)["value"] == "5"

    def test_bad_arity(self, capsys):
        code, _ = run(capsys, "compute", "p", "1", "2")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("argv, message", [
        (("p", "-1"), "error: p needs N >= 0, got N=-1\n"),
        (("pk", "3", "-2"), "error: pk needs N >= 0, got K=3, N=-2\n"),
    ])
    def test_negative_n_names_the_argument(self, capsys, argv, message):
        code = main(["compute", *argv])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert (captured.out, captured.err) == ("", message)


class TestTable:
    def test_n50_matches_golden_fixture(self, capsys):
        code, out = run(capsys, "table", "50")
        assert code == EXIT_OK
        assert out == GOLDEN_TABLE.read_text()

    def test_markdown(self, capsys):
        code, out = run(capsys, "table", "10", "--format", "markdown")
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0] == "| k | p_k | p_n_k |"
        assert lines[-1].startswith("| 10 | 42 | ")

    def test_json(self, capsys):
        code, out = run(capsys, "table", "3", "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["rows"][0] == {"k": 1, "p_k": "1", "p_n_k": "4"}

    def test_deterministic(self, capsys):
        _, first = run(capsys, "table", "50")
        _, second = run(capsys, "table", "50")
        assert first == second

    def test_rejects_zero(self, capsys):
        code, _ = run(capsys, "table", "0")
        assert code == EXIT_USAGE


class TestVerify:
    def test_single_claim(self, capsys):
        code, out = run(capsys, "verify", "thm2", "4", "60")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["overall"] == VERIFIED
        assert doc["claims"][0]["claim"] == "thm2"
        assert doc["claims"][0]["checked"] == 57

    def test_all_claims_present(self, capsys):
        code, out = run(capsys, "verify", "all", "4", "30")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert len(doc["claims"]) == 12
        assert {c["claim"] for c in doc["claims"]} == set(sweeps.CLAIMS)

    def test_all_matches_golden_report(self, capsys):
        code, out = run(capsys, "verify", "all")
        assert code == EXIT_OK
        assert out == GOLDEN_VERIFY_ALL.read_text()

    @pytest.mark.parametrize("argv", [
        ["verify", "thm2", "1", "3"],
        ["verify", "eq9", "0", "1"],
        ["verify", "genfun", "0", "0"],
        ["verify", "all", "1", "3"],
    ])
    def test_empty_range_rejected(self, capsys, argv):
        # clamped to the claim's minimum n the range is empty: no vacuous pass
        code, out = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""

    @pytest.mark.parametrize("hi", range(4, 13))
    def test_gap_claim_small_ranges_keep_their_bytes(self, capsys, hi):
        # the tails of lemma-gr are cut at hi // 2 entries, 2 to 6 here
        code, out = run(capsys, "verify", "lemma-gr", "4", str(hi))
        assert code == 0
        assert out == (
            '{\n  "command": "verify",\n  "claims": [\n    {\n'
            '      "claim": "lemma-gr",\n      "range": [\n        4,\n'
            f'        {hi}\n      ],\n      "checked": {hi - 3},\n'
            '      "outcome": "verified"\n    }\n  ],\n'
            '  "overall": "verified"\n}\n')

    def test_unknown_claim(self, capsys):
        code, _ = run(capsys, "verify", "bogus")
        assert code == EXIT_USAGE

    def test_half_range_rejected(self, capsys):
        code, _ = run(capsys, "verify", "thm2", "4")
        assert code == EXIT_USAGE

    def test_inverted_range_rejected(self, capsys):
        code, _ = run(capsys, "verify", "thm2", "10", "4")
        assert code == EXIT_USAGE

    def test_exit_code_per_outcome(self):
        def summary(outcome):
            return sweeps.ClaimSummary(
                claim="x", n_min=1, n_max=2, checked=2, outcome=outcome
            )

        assert _verify_exit([summary(VERIFIED)]) == EXIT_OK
        assert _verify_exit([summary(VERIFIED), summary(INCONCLUSIVE)]) == EXIT_INCONCLUSIVE
        # violation dominates inconclusive
        assert _verify_exit(
            [summary(VIOLATED), summary(INCONCLUSIVE)]
        ) == EXIT_VIOLATION

    def test_violation_exit_propagates(self, capsys, monkeypatch):
        # force the aggregation path that reports a violation
        def fake_sweep(n_min, n_max, ctx):
            return sweeps.ClaimSummary(
                claim="thm2", n_min=n_min, n_max=n_max, checked=1,
                outcome=VIOLATED, counterexample=(5, 2),
            )

        monkeypatch.setitem(sweeps.CLAIMS, "thm2", (fake_sweep, (4, 1000)))
        code, out = run(capsys, "verify", "thm2", "4", "10")
        assert code == EXIT_VIOLATION
        doc = json.loads(out)
        assert doc["overall"] == VIOLATED
        assert doc["claims"][0]["counterexample"] == [5, 2]


class TestPeak:
    def test_n50(self, capsys):
        code, out = run(capsys, "peak", "50")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["peak_k"] == 26 == doc["scan_argmax"]
        assert doc["peak_value"] == "412637434996367"

    def test_small_n(self, capsys):
        code, _ = run(capsys, "peak", "3")
        assert code == EXIT_USAGE

    # row 10 is (1, 11, 56, 175, 376, 590, 702, 650, 478, 284, 139), peak at
    # k = 6; each case breaks it at the given indices.  Each side of a
    # broken row is scanned in full.
    @pytest.mark.parametrize("breaks, scan_argmax, strict_up, strict_down", [
        ({5: 702}, 5, "false", "true"),            # last ascent step
        ({7: 703}, 7, "true", "false"),            # first descent step
        ({3: 56, 9: 478}, 6, "false", "false"),    # both sides
    ])
    def test_row_that_is_not_unimodal(self, capsys, monkeypatch, breaks,
                                      scan_argmax, strict_up, strict_down):
        row = list(cli.triangle_row(10))
        for k, value in breaks.items():
            row[k] = value
        monkeypatch.setattr(cli, "triangle_row", lambda n, table=None: tuple(row))
        code, out = run(capsys, "peak", "10")
        assert code == EXIT_VIOLATION
        assert out == (
            '{\n  "n": 10,\n  "peak_k": 6,\n'
            f'  "scan_argmax": {scan_argmax},\n'
            f'  "strict_up": {strict_up},\n  "strict_down": {strict_down},\n'
            '  "peak_value": "702"\n}\n')


class TestProduct:
    # 1-q = 2^-16 puts the tail factor's upper endpoint near 2^(6e9), and at
    # 128 bits the enclosure of 1 - (2^200-1)/2^200 straddles 0; the width
    # of either must come out as inf, not as an exact rational
    @pytest.mark.parametrize("q_num, q_den", [
        (65535, 65536),
        (2**200 - 1, 2**200),
    ])
    def test_q_near_one_is_inconclusive_within_a_second(self, capsys, q_num, q_den):
        start = time.perf_counter()
        code, out = run(capsys, "product", str(q_num), str(q_den), "1e-3")
        assert time.perf_counter() - start < 1
        assert code == EXIT_INCONCLUSIVE
        assert json.loads(out)["detail"] == "width inf > tol 0.001 at ell=256"

    def test_q_out_of_range(self, capsys):
        code, _ = run(capsys, "product", "3", "2", "1e-6")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_non_finite_tol(self, capsys, tol):
        code, out = run(capsys, "product", "1", "2", tol)
        assert code == EXIT_USAGE
        assert out == ""


class TestMu:
    def test_50_26(self, capsys):
        code, out = run(capsys, "mu", "50", "26")
        assert code == EXIT_OK
        assert json.loads(out)["bounds"]["pnk"] == "412637434996367"

    def test_k_at_n_rejected(self, capsys):
        code, _ = run(capsys, "mu", "5", "5")
        assert code == EXIT_USAGE

    def test_dimension_one_rejected(self, capsys):
        code, out = run(capsys, "mu", "1", "1")
        assert (code, out) == (EXIT_USAGE, "")

    def test_filiform_flag_needs_maximal_class(self, capsys):
        code, _ = run(capsys, "mu", "5", "3", "--filiform")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("n, k", [(400000, 399999), (7000000, 5)])
    def test_output_above_digit_limit_is_refused_within_a_second(self, capsys, n, k):
        start = time.perf_counter()
        code = main(["mu", str(n), str(k)])
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert (code, captured.out) == (EXIT_USAGE, "")
        assert "more than 2000000 digits" in captured.err

    def test_digit_limit_is_exact_at_its_boundaries(self):
        # as the exact integers show: the corollary's upper endpoint with 6
        # decimals first reaches 10^2000000 at N = 6643847, Birkhoff's bound
        # at N = 400000 first at K = 357011
        too_long = [cli._mu_prints_too_many_digits(n, k) for n, k in
                    [(6643846, 1), (6643847, 1), (400000, 357010), (400000, 357011)]]
        assert too_long == [False, True, False, True]

    def test_filiform_at_ten_thousand_within_five_seconds(self, capsys):
        start = time.perf_counter()
        code, out = run(capsys, "mu", "10000", "9999", "--filiform")
        assert time.perf_counter() - start < 5
        assert code == EXIT_OK
        assert json.loads(out)["best"] == "filiform"

    def test_largest_printable_corollary_within_ten_seconds(self, capsys):
        # each endpoint prints 2,000,000 digits, its 6 decimals included;
        # str() takes about a minute for each under CPython 3.10 and 3.11
        start = time.perf_counter()
        code, out = run(capsys, "mu", "6643846", "1")
        assert time.perf_counter() - start < 10
        assert code == EXIT_OK
        corollary = json.loads(out)["corollary"]
        assert [len(corollary[side]) for side in ("lower", "upper")] == [2000001] * 2


@pytest.fixture
def no_digit_limit():
    """str() of any int while the test runs, as main's limit allows on 3.11."""
    if not hasattr(sys, "set_int_max_str_digits"):  # Python 3.10: no limit
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(old)


class TestIntStr:
    """cli._int_str against str(), at sizes where str() is still cheap."""

    @pytest.mark.parametrize("digits", [10**4, 3 * 10**4, 10**5, 3 * 10**5])
    def test_random_ints(self, no_digit_limit, digits):
        rng = random.Random(digits)
        x = rng.randrange(10 ** (digits - 1), 10**digits)
        assert cli._int_str(x) == str(x)

    @pytest.mark.parametrize("digits", [9999, 10**4, 10**4 + 1, 54321, 10**5])
    def test_powers_of_ten_and_their_neighbours(self, no_digit_limit, digits):
        for x in (10**digits - 1, 10**digits, 10**digits + 1):
            assert cli._int_str(x) == str(x)

    @pytest.mark.parametrize("bits", [cli._LONG_INT_BITS, cli._LONG_INT_BITS + 1,
                                      65536, 100003])
    def test_zero_runs_at_the_split_points(self, no_digit_limit, bits):
        # the low half of each split is 0, 1 or all ones: short or empty
        # halves must still fill their place in the decimal string
        half = bits >> 1
        rng = random.Random(bits)
        top = rng.getrandbits(bits - half) | 1 << (bits - half - 1)
        for x in (1 << (bits - 1), (1 << bits) - 1, top << half,
                  (top << half) + 1, (top << half) + (1 << half) - 1,
                  (1 << (bits - 1)) + (1 << (half >> 1))):
            assert cli._int_str(x) == str(x)

    def test_small_ints_take_str(self):
        for x in (0, 7, 10**300):
            assert cli._int_str(x) == str(x)


@pytest.mark.parametrize("argv", [
    ["mu", "300", "150"],
    ["mu", "300", "299", "--filiform"],
    ["peak", "300"],
    ["table", "300"],
    ["table", "300", "--format", "json"],
], ids=" ".join)
def test_single_value_and_row_commands_never_build_the_triangle(
        capsys, monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("the command built the whole triangle")

    monkeypatch.setattr(binomial_sums, "build_triangle", refuse)
    monkeypatch.setattr(cli, "build_triangle", refuse)
    code, out = run(capsys, *argv)
    assert code == EXIT_OK
    assert out


@pytest.mark.parametrize("argv", [
    ["compute", "p", str(10**20)],
    ["compute", "pk", "2", str(10**20)],
    ["table", str(10**20)],
    ["mu", str(10**20), "5"],
    ["peak", str(10**20)],
], ids=" ".join)
def test_index_overflow_is_a_usage_error(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def _run_module(module, argv, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", module, *argv],
                          capture_output=True, text=True, env=env, timeout=120,
                          **kwargs)


# `import binpart`, then `import binpart.cli`, then each argv of sys.argv[1]
# through cli.main, all in one interpreter; prints which of WATCHED are
# loaded after each step, the exit codes and the binpart modules loaded
_IMPORT_PROBE = """
import contextlib, io, json, sys
WATCHED = ("mpmath", "dataclasses", "inspect", "fractions", "decimal")
loaded = []
def watch():
    loaded.append([name for name in WATCHED if name in sys.modules])
import binpart
watch()
from binpart import cli
watch()
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
    watch()
print(json.dumps({"loaded": loaded, "codes": codes, "modules": sorted(
    name for name in sys.modules if name.startswith("binpart."))}))
"""


def _probe_imports(commands):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, json.dumps(commands)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# commands on exact integers alone
MPMATH_FREE = [
    ["compute", "pnk", "30", "10"], ["compute", "pk", "3", "20"],
    ["compute", "p", "100"], ["table", "20"], ["peak", "40"],
    ["verify", "thm2", "4", "30"], ["verify", "thm3", "1", "30"],
    ["verify", "lemma-links", "4", "30"], ["verify", "lemma-rechts", "4", "30"],
    ["verify", "lemma-gr", "4", "30"], ["verify", "eq9", "2", "30"],
    ["verify", "genfun", "1", "5"],
]


def test_import_and_integer_commands_load_no_mpmath():
    """Importing binpart and binpart.cli loads every binpart module but no
    mpmath, dataclasses, inspect, fractions or decimal, and the commands on
    exact integers leave them all unloaded.  typing, re and enum are not
    watched: the interpreter's `site` may load them before binpart."""
    probe = _probe_imports(MPMATH_FREE)
    assert probe["codes"] == [EXIT_OK] * len(MPMATH_FREE)
    assert probe["loaded"] == [[]] * (2 + len(MPMATH_FREE))
    assert {f"binpart.{name}" for name in (
        "binomial_sums", "checks", "cli", "intervals", "lie", "partitions",
        "qseries", "sweeps")} <= set(probe["modules"])


def test_mu_refused_for_its_length_loads_no_mpmath():
    """mu's digit limit is decided on the integer kernel of `intervals`."""
    probe = _probe_imports([["mu", "7000000", "5"]])
    assert probe["codes"] == [EXIT_USAGE]
    assert probe["loaded"] == [[], [], []]


@pytest.mark.parametrize("argv", [
    ["verify", "prop1", "1", "10"],
    ["compute", "p", "2000"],       # the series, from cli.P_SERIES_FROM
    ["product", "1", "3", "1e-10"],
    ["mu", "10", "3"],
    ["verify", "all", "4", "40"],
], ids=" ".join)
def test_real_valued_commands_load_mpmath_when_they_run(argv):
    """Of the other modules watched, only product and mu, which print
    rationals exactly, may load one: fractions, which imports decimal."""
    probe = _probe_imports([argv])
    assert probe["codes"] == [EXIT_OK]
    assert probe["loaded"][:2] == [[], []]
    exact = {"fractions", "decimal"} if argv[0] in ("product", "mu") else set()
    assert "mpmath" in probe["loaded"][2]
    assert set(probe["loaded"][2]) - {"mpmath"} <= exact


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


@pytest.mark.parametrize("argv", [
    ["compute", "pk", "3", str(10**10)],
    ["compute", "pnk", str(10**10), "1"],
    ["table", str(10**10)],
    ["peak", str(10**10)],
], ids=" ".join)
def test_argument_too_large_for_memory_is_a_usage_error(argv):
    # a table of 10^10 + 1 entries does not fit in 1 GiB of address space
    proc = _run_module("binpart", argv, preexec_fn=_limit_address_space)
    assert (proc.returncode, proc.stdout) == (EXIT_USAGE, "")
    assert "Traceback" not in proc.stderr
    assert "more memory than is available" in proc.stderr


@pytest.mark.parametrize("n", [cli.P_CEILING + 1, 10**10])
def test_compute_p_above_its_ceiling_is_refused_at_once(n):
    start = time.perf_counter()
    proc = _run_module("binpart", ["compute", "p", str(n)])
    assert time.perf_counter() - start < 10
    assert (proc.returncode, proc.stdout) == (EXIT_USAGE, "")
    assert "Traceback" not in proc.stderr
    assert str(cli.P_CEILING) in proc.stderr


def _refuse(*args, **kwargs):
    raise AssertionError("took the other route")


def test_compute_p_takes_the_series_from_its_threshold(capsys, monkeypatch):
    monkeypatch.setattr(cli, "build_partition_table", _refuse)
    code, out = run(capsys, "compute", "p", str(cli.P_SERIES_FROM))
    assert code == EXIT_OK
    assert json.loads(out)["value"] == str(
        reference_partition_table(cli.P_SERIES_FROM)[-1])


def test_compute_p_takes_the_table_below_its_threshold(capsys, monkeypatch):
    monkeypatch.setattr(cli, "rademacher_partition_number", _refuse)
    code, out = run(capsys, "compute", "p", str(cli.P_SERIES_FROM - 1))
    assert code == EXIT_OK
    assert json.loads(out)["value"] == str(
        reference_partition_table(cli.P_SERIES_FROM - 1)[-1])


def test_compute_p_falls_back_to_the_table_when_the_series_is_undecided(
        capsys, monkeypatch):
    undecided = []

    def capped(n):
        undecided.append(rademacher_partition_number(n))
        return undecided[-1]

    monkeypatch.setattr(partitions, "RADEMACHER_GUARD_BITS", 1)
    monkeypatch.setattr(partitions, "RADEMACHER_GUARD_CAP_BITS", 1)
    monkeypatch.setattr(cli, "rademacher_partition_number", capped)
    code, out = run(capsys, "compute", "p", "5000")
    assert undecided == [None]
    golden = next(e for e in GOLDEN_CLI if e["argv"] == ["compute", "p", "5000"])
    assert (code, out) == (golden["exit"], golden["stdout"])


def test_usage_error_on_no_args(capsys):
    assert main([]) == EXIT_USAGE


def _assert_module_runs_verify(module):
    proc = _run_module(module, ["verify", "thm2", "4", "10"])
    assert proc.returncode == EXIT_OK, proc.stderr
    assert json.loads(proc.stdout)["claims"][0]["checked"] == 7


def test_python_dash_m_entry_point():
    _assert_module_runs_verify("binpart")


def test_python_dash_m_cli_module():
    # without a __main__ guard this printed nothing and exited 0
    _assert_module_runs_verify("binpart.cli")


@pytest.mark.parametrize("argv, code, value", [(["compute", "p", "10"], EXIT_OK, "42"),
                                               (["compute"], EXIT_USAGE, None)],
                         ids=["success", "usage-error"])
def test_console_script_exits_with_mains_code(monkeypatch, capsys, argv, code, value):
    # pyproject.toml's `binpart` script is cli.entry, which reads sys.argv
    monkeypatch.setattr(sys, "argv", ["binpart", *argv])
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == code
    out = capsys.readouterr().out
    assert (json.loads(out)["value"] if out else None) == value


@pytest.mark.parametrize("entry", GOLDEN_CLI, ids=lambda e: " ".join(e["argv"]))
def test_mu_and_product_match_golden(capsys, entry):
    code, out = run(capsys, *entry["argv"])
    assert (code, out) == (entry["exit"], entry["stdout"])


@pytest.mark.parametrize("entry", GOLDEN_PRODUCT, ids=lambda e: " ".join(e["argv"]))
def test_product_matches_golden(capsys, entry):
    code, out = run(capsys, *entry["argv"])
    assert (code, out) == (entry["exit"], entry["stdout"])


def test_one_parser_serves_every_call_in_a_process(capsys):
    usage_errors = [["compute"], ["verify", "thm2", "5"], ["product", "1", "2", "nan"]]
    cli.build_parser.cache_clear()
    for i, entry in enumerate(GOLDEN_CLI + GOLDEN_CLI[::-1]):
        code, out = run(capsys, *entry["argv"])
        assert (code, out) == (entry["exit"], entry["stdout"]), entry["argv"]
        assert run(capsys, *usage_errors[i % 3]) == (EXIT_USAGE, "")
    assert cli.build_parser.cache_info().misses == 1
