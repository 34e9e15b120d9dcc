"""Operation lists for the three benchmark workloads.

Each workload is a list of argv lists for `binpart.cli.main`, derived only
from the seed, so the same seed always gives the same operations.  `tiny`
shrinks every size so the benchmark's own tests run in seconds.

Why these three (see README.md for the full reasoning):

- verify-default: `verify all` at the default ranges.  The certified checks
  (checks + intervals) dominate; the triangle is only 1000 rows.
- rows-2000: long row sweeps over a 2000-row triangle plus one `compute pnk`.
  Triangle streaming and exact-integer row checks do all the work; no
  certified check runs.  The mirror image of verify-default.
- queries: a shuffled closed-loop mix of single-value commands.  The only
  workload with the partition table, q-series and Lie-bound layers on the
  blocking path.
"""

from __future__ import annotations

import random

WORKLOADS = ("verify-default", "rows-2000", "queries")

# Lower end of each claim's default range: `verify CLAIM A B` checks
# B - max(A, floor) + 1 values of n.
VERIFY_FLOOR = {"thm2": 4, "thm3": 1, "lemma-gr": 4}

# The `queries` mix; README.md gives the source or reason for each.
PER_KIND = 40          # operations of each of the seven commands
P_MAX = 5000           # N of `compute p` and `compute pk`
PK_K_MAX = 15          # K of `compute pk`: the genfun claim's default range
TRIANGLE_MAX = 1000    # N of `compute pnk`, `peak` and `mu`: thm2/thm3 rows
TABLE_MAX = 300        # N of `table`: eq9, the sweep over whole rows
FILIFORM_SHARE = 0.2   # share of `mu` calls with --filiform
Q_DEN_MAX = 64         # denominator of q in `product`


def _strata(rng: random.Random, count: int, lo: int, hi: int) -> list[int]:
    """`count` integers in [lo, hi], one drawn from each of `count` equal strata.

    Stratifying keeps the mix of small and large inputs (and so the run
    time and the tail latency) nearly the same from seed to seed, while the
    exact inputs still change with the seed.
    """
    width = (hi - lo + 1) / count
    return [lo + int((i + rng.random()) * width) for i in range(count)]


def verify_default(seed: int, tiny: bool) -> list[list[str]]:
    del seed  # `verify all` has no inputs to draw
    return [["verify", "all", "4", "40"]] if tiny else [["verify", "all"]]


def rows_2000(seed: int, tiny: bool) -> list[list[str]]:
    n = 60 if tiny else 2000
    k = random.Random(seed).randint(0, n)
    return [
        ["verify", "thm2", "4", str(n)],
        ["verify", "lemma-gr", "4", str(n)],
        ["verify", "thm3", "1", str(n * 3 // 4)],
        ["compute", "pnk", str(n), str(k)],
    ]


def queries(seed: int, tiny: bool) -> list[list[str]]:
    """PER_KIND operations of each command, shuffled.

    README.md ("Where the `queries` mix comes from") gives the source of
    each weight and range, or the reason for it where the repository has
    no source to take it from.
    """
    rng = random.Random(seed)
    per_kind = 2 if tiny else PER_KIND
    n_p = 200 if tiny else P_MAX
    n_tri = 40 if tiny else TRIANGLE_MAX
    n_table = 12 if tiny else TABLE_MAX
    k_max = 5 if tiny else PK_K_MAX
    ops: list[list[str]] = []

    for n in _strata(rng, per_kind, 1, n_p):
        ops.append(["compute", "p", str(n)])

    # cost grows with K*N: pairing small K with large N keeps its spread
    # the same on every seed
    ks = _strata(rng, per_kind, 1, k_max)
    for k, n in zip(ks, reversed(_strata(rng, per_kind, 1, n_p))):
        ops.append(["compute", "pk", str(k), str(n)])

    for n in _strata(rng, per_kind, 1, n_tri):
        ops.append(["compute", "pnk", str(n), str(rng.randint(0, n))])

    for n in _strata(rng, per_kind, 1, n_table):
        ops.append(["table", str(n)])

    for n in _strata(rng, per_kind, 4, n_tri):
        ops.append(["peak", str(n)])

    for n in _strata(rng, per_kind, 2, n_tri):
        if rng.random() < FILIFORM_SHARE:
            ops.append(["mu", str(n), str(n - 1), "--filiform"])
        else:
            ops.append(["mu", str(n), str(rng.randint(1, n - 1))])

    # q <= 1/2 always encloses at the depth cap
    for den, digits in zip(_strata(rng, per_kind, 2, Q_DEN_MAX),
                           reversed(_strata(rng, per_kind, 12, 40))):
        num = rng.randint(1, den // 2)
        ops.append(["product", str(num), str(den), f"1e-{digits}"])

    rng.shuffle(ops)
    return ops


MAKERS = {"verify-default": verify_default, "rows-2000": rows_2000,
          "queries": queries}


def make_ops(workload: str, seed: int, tiny: bool = False) -> list[list[str]]:
    return MAKERS[workload](seed, tiny)


def _command_and_n(argv: list[str]) -> tuple:
    if argv[0] == "compute":
        n = argv[3] if argv[1] == "pk" else argv[2]
        return ("compute", argv[1], n)
    if argv[0] == "product":
        return ("product", argv[1] + "/" + argv[2])
    return (argv[0], argv[1])


def repeat_share(ops: list[list[str]]) -> float:
    """Share of operations whose (command, N) pair already occurred earlier.

    For `product` the pair is (product, q).  A cache keyed on the command and
    its size could at most answer this share of operations.
    """
    seen = set()
    repeats = 0
    for argv in ops:
        key = _command_and_n(argv)
        repeats += key in seen
        seen.add(key)
    return repeats / len(ops)
