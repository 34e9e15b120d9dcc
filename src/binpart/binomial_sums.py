"""The binomial partition sums p(n,k) and their unimodality structure.

Definition:  p(n,k) = sum_{j=0}^{k} C(n-j, k-j) * p(j),  with p(0) = 1.

Writing ell = n-k turns p(n,k) into the weighted binomial sum
F(n,ell) = sum_{j=0}^{n} C(n-j, ell) * f(j) with f = p, which obeys the
Pascal-style recursion F(n+1,ell) = F(n,ell) + F(n,ell-1).  Back in the
(n,k) coordinates that is

    p(n+1,k) = p(n,k) + p(n,k-1)        (1 <= k <= n)

with p(n,0) = 1 and p(n,n) = p(0) + ... + p(n), which is how
iter_triangle_rows streams the triangle row by row (triangle_row keeps
only the last row of that stream, build_triangle collects all of it into
a tuple of rows).  A single value p(n,k) is pnk_direct's O(k) direct sum.

For fixed n >= 4 the row k -> p(n,k) rises strictly to its unique peak at
k = floor((n+3)/2) and falls strictly afterwards.  The sign machinery that
decides ascent/descent at a given k is the exact integer sum

    S(n,k) = sum_{j=0}^{k} (n+1-2k+j) * C(n-j, k-j) * p(j)

which equals (n+1-k) * (2*p(n,k) - p(n+1,k)); its sign tells whether the
row is still ascending into k (positive) or already descending (negative).
The paper's closed rational forms of its truncated, C(n,k)-normalised
sums are references for the tests, not code the commands run.
"""

from __future__ import annotations

import math
import operator
from typing import Iterator

from .partitions import PartitionTable, build_partition_table


def pnk_direct(n: int, k: int, table: PartitionTable) -> int:
    """Evaluate p(n,k) term by term from the defining sum.

    O(k) terms on a partition table covering 0..k.  Binomials are updated
    incrementally, C(n-j-1, k-j-1) = C(n-j, k-j) * (k-j) / (n-j), as in
    peak_sign_sum.
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
    if table.max_n < k:
        raise ValueError(f"partition table covers only 0..{table.max_n}, need {k}")
    c = math.comb(n, k)  # C(n-j, k-j) at j=0, updated in the loop
    total = 0
    for j in range(k + 1):
        total += c * table[j]
        if j < k:
            c = c * (k - j) // (n - j)
    return total


def iter_triangle_rows(
    max_n: int, table: PartitionTable | None = None
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Yield (n, row n) for n = 0..max_n keeping only O(n) memory.

    Rows are produced by the recursion p(n+1,k) = p(n,k) + p(n,k-1); the
    diagonal is seeded with p(n+1,n+1) = p(n,n) + p(n+1) from the
    partition table.  This is the one row builder: the sweeps and
    triangle_row stream it, and build_triangle collects it.  Every row is
    spot-checked against the direct sum at k in {0, 1, n} before it is
    yielded (k = n against an independently accumulated prefix sum of the
    partition table, which is what the direct sum collapses to).
    """
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    if table is None:
        table = build_partition_table(max_n)
    if table.max_n < max_n:
        raise ValueError("partition table too small for requested triangle")

    row = (1,)
    prefix = 0
    for n in range(max_n + 1):
        if n:
            prev = row
            # interior k = 1..n-1: prev[k] + prev[k-1], pairing prev[1:] with prev
            row = (
                (1,)
                + tuple(map(operator.add, prev[1:], prev))
                + (prev[n - 1] + table[n],)
            )
        prefix += table[n]
        if row[0] != 1:
            raise AssertionError(f"p({n},0) != 1")
        if n >= 1 and row[1] != n + 1:
            raise AssertionError(f"p({n},1) != {n + 1}")
        if row[n] != prefix:
            raise AssertionError(f"p({n},{n}) != sum of p(0..{n})")
        yield n, row


def triangle_row(n: int, table: PartitionTable | None = None) -> tuple[int, ...]:
    """Row n of iter_triangle_rows, holding one row at a time on the way.

    Every row passed on the way keeps iter_triangle_rows' spot checks.
    """
    for _, row in iter_triangle_rows(n, table):
        pass
    return row


def build_triangle(
    max_n: int, table: PartitionTable | None = None
) -> tuple[tuple[int, ...], ...]:
    """Rows 0..max_n of iter_triangle_rows, collected: p(n,k) is [n][k].

    The rows carry iter_triangle_rows' spot checks; this adds none.
    """
    return tuple(row for _, row in iter_triangle_rows(max_n, table))


class DiagonalTable:
    """p(n,n) and p(n,n-1) for all n <= max_n, in O(n) memory.

    Uses p(n,n) = sum_{j<=n} p(j) and the incremental identity
    p(n,n-1) = p(n-1,n-2) + p(n-1,n-1); only these two columns are stored,
    which keeps sweeps over large n cheap.  `diagonal[n]` is p(n,n) and
    `subdiagonal[n]` is p(n,n-1) (0 at n = 0), as tuples indexed by n.
    """

    def __init__(self, max_n: int, table: PartitionTable | None = None):
        if max_n < 0:
            raise ValueError("max_n must be >= 0")
        if table is None:
            table = build_partition_table(max_n)
        if table.max_n < max_n:
            raise ValueError("partition table too small")
        diag = [0] * (max_n + 1)
        sub = [0] * (max_n + 1)
        acc = 0
        for n in range(max_n + 1):
            if n >= 1:
                sub[n] = sub[n - 1] + acc  # p(n,n-1) = p(n-1,n-2) + p(n-1,n-1)
            acc += table[n]
            diag[n] = acc
        self.max_n = max_n
        self.diagonal = tuple(diag)
        self.subdiagonal = tuple(sub)


def peak_k(n: int) -> int:
    """The unique maximizer floor((n+3)/2) of k -> p(n,k), valid for n >= 4.

    Below n = 4 the row can tie (p(3,1) = p(3,2) = 7), so asking for a
    unique peak is an error rather than a guess.
    """
    if n < 4:
        raise ValueError(f"peak is only unique for n >= 4 (got n={n})")
    return (n + 3) // 2


def verify_unimodal_profile(n: int, row: tuple[int, ...]) -> tuple[int, int] | None:
    """Check strict ascent to the peak and strict descent after it.

    Scans row = (p(n,0), ..., p(n,n)): p(n,1) < ... < p(n,peak) and
    p(n,peak) > ... > p(n,n).  Returns the (n, k) of the first broken
    step, k < peak on the ascent and k >= peak on the descent, or None.
    The descent is scanned only once the ascent holds.
    """
    if n < 4:
        raise ValueError("profiles are scanned for n >= 4")
    kn = peak_k(n)
    for k in range(1, kn):
        if not row[k] < row[k + 1]:
            return (n, k)
    for k in range(kn, n):
        if not row[k] > row[k + 1]:
            return (n, k)
    return None


def peak_sign_sum(n: int, k: int, table: PartitionTable) -> int:
    """Exact signed sum S(n,k) = sum_{j=0}^{k} (n+1-2k+j) * C(n-j,k-j) * p(j).

    Positive iff the row still ascends into k, negative iff it descends;
    equals (n+1-k) * (2*p(n,k) - p(n+1,k)).  Binomials are updated
    incrementally (one small multiply and one exact divide per term).
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got n={n}, k={k}")
    if table.max_n < k:
        raise ValueError("partition table too small")
    c = math.comb(n, k)  # C(n-j, k-j) at j=0, updated in the loop
    total = 0
    for j in range(k + 1):
        coef = n + 1 - 2 * k + j
        if coef:
            total += coef * c * table[j]
        if j < k:
            c = c * (k - j) // (n - j)
    return total


def dominance_check(n: int, row: tuple[int, ...]) -> int | None:
    """Exact check that 512 * p(n,k) > 1745 * C(n,k) on the descent range.

    row is row n of the triangle.  The range is floor((n+5)/2) <= k <= n,
    n >= 4.  Returns None when the inequality holds throughout, else the
    first violating k.
    """
    if n < 4:
        raise ValueError("defined for n >= 4")
    ell = (n + 5) // 2
    c = math.comb(n, ell)
    for k in range(ell, n + 1):
        if 512 * row[k] <= 1745 * c:
            return k
        c = c * (n - k) // (k + 1)  # C(n, k+1)
    return None
