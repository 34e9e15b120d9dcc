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
a PnkTriangle).  A single value p(n,k) is pnk_direct's O(k) direct sum.

For fixed n >= 4 the row k -> p(n,k) rises strictly to its unique peak at
k = floor((n+3)/2) and falls strictly afterwards.  The sign machinery that
decides ascent/descent at a given k is the exact integer sum

    S(n,k) = sum_{j=0}^{k} (n+1-2k+j) * C(n-j, k-j) * p(j)

which equals (n+1-k) * (2*p(n,k) - p(n+1,k)); its sign tells whether the
row is still ascending into k (positive) or already descending (negative).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

from .partitions import PartitionTable, build_partition_table


@dataclass(frozen=True)
class PnkTriangle:
    """Immutable triangle of p(n,k) for 0 <= k <= n <= max_n."""

    rows: tuple[tuple[int, ...], ...]

    @property
    def max_n(self) -> int:
        return len(self.rows) - 1

    def row(self, n: int) -> tuple[int, ...]:
        if not 0 <= n <= self.max_n:
            raise ValueError(f"row {n} outside triangle (max_n={self.max_n})")
        return self.rows[n]

    def value(self, n: int, k: int) -> int:
        row = self.row(n)
        if not 0 <= k <= n:
            raise ValueError(f"k={k} outside 0..{n}")
        return row[k]


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


def build_triangle(max_n: int, table: PartitionTable | None = None) -> PnkTriangle:
    """Collect rows 0..max_n of iter_triangle_rows into a PnkTriangle.

    The rows carry iter_triangle_rows' spot checks; this adds none.
    """
    return PnkTriangle(rows=tuple(row for _, row in iter_triangle_rows(max_n, table)))


class DiagonalTable:
    """p(n,n) and p(n,n-1) for all n <= max_n, in O(n) memory.

    Uses p(n,n) = sum_{j<=n} p(j) and the incremental identity
    p(n,n-1) = p(n-1,n-2) + p(n-1,n-1); only these two columns are stored,
    which keeps sweeps over large n cheap.  Shares the `value(n,k)`
    access contract with PnkTriangle for k in {n-1, n}.
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
        self._diag = tuple(diag)
        self._sub = tuple(sub)

    def value(self, n: int, k: int) -> int:
        if not 0 <= n <= self.max_n:
            raise ValueError(f"n={n} outside 0..{self.max_n}")
        if k == n:
            return self._diag[n]
        if k == n - 1 and n >= 1:
            return self._sub[n]
        raise ValueError(f"DiagonalTable holds only k in {{n-1, n}}, got k={k}")


def weighted_binomial_sum(f: Callable[[int], int], n: int, ell: int) -> int:
    """sum_{j=0}^{n} C(n-j, ell) * f(j), with C(m, ell) = 0 when m < ell.

    With f constant 1 this collapses to the hockey-stick value
    C(n+1, ell+1); with f the partition function and ell = n-k it equals
    p(n,k).
    """
    if not 0 <= ell <= n:
        raise ValueError(f"need 0 <= ell <= n, got n={n}, ell={ell}")
    return sum(math.comb(n - j, ell) * f(j) for j in range(n + 1))


@dataclass(frozen=True)
class GrowthConditionReport:
    """Which of the three growth conditions hold for f on 0..n_max.

    (a) f(n) > 0 everywhere and f(3) <= 2*f(0) + f(1)
    (b) f nondecreasing
    (c) f(n) < f(0) + ... + f(n-1) for every n >= 3

    A sequence satisfying all three has unimodal weighted binomial sums.
    Each counterexample field holds the first offending index, or None.
    """

    n_max: int
    holds_a: bool
    holds_b: bool
    holds_c: bool
    counterexample_a: int | None
    counterexample_b: int | None
    counterexample_c: int | None

    @property
    def all_hold(self) -> bool:
        return self.holds_a and self.holds_b and self.holds_c


def check_growth_conditions(f: Callable[[int], int], n_max: int) -> GrowthConditionReport:
    """Test conditions (a), (b), (c) for f on 0..n_max."""
    if n_max < 3:
        raise ValueError("need n_max >= 3 to test all conditions")
    values = [f(n) for n in range(n_max + 1)]

    ex_a = next((n for n, v in enumerate(values) if v <= 0), None)
    if ex_a is None and values[3] > 2 * values[0] + values[1]:
        ex_a = 3
    ex_b = next(
        (n + 1 for n in range(n_max) if values[n + 1] < values[n]), None
    )
    ex_c = None
    acc = values[0] + values[1] + values[2]
    for n in range(3, n_max + 1):
        if values[n] >= acc:
            ex_c = n
            break
        acc += values[n]

    return GrowthConditionReport(
        n_max=n_max,
        holds_a=ex_a is None,
        holds_b=ex_b is None,
        holds_c=ex_c is None,
        counterexample_a=ex_a,
        counterexample_b=ex_b,
        counterexample_c=ex_c,
    )


def peak_k(n: int) -> int:
    """The unique maximizer floor((n+3)/2) of k -> p(n,k), valid for n >= 4.

    Below n = 4 the row can tie (p(3,1) = p(3,2) = 7), so asking for a
    unique peak is an error rather than a guess.
    """
    if n < 4:
        raise ValueError(f"peak is only unique for n >= 4 (got n={n})")
    return (n + 3) // 2


@dataclass(frozen=True)
class UnimodalProfile:
    """Scan result of one triangle row over 1 <= k <= n."""

    n: int
    values: tuple[int, ...]  # p(n,1), ..., p(n,n)
    peak_k: int
    strict_up: bool
    strict_down: bool
    first_violation: tuple[int, int] | None  # (n, k) of first broken step

    @property
    def ok(self) -> bool:
        return self.strict_up and self.strict_down


def verify_unimodal_profile(n: int, row: tuple[int, ...]) -> UnimodalProfile:
    """Check strict ascent to the peak and strict descent after it.

    Scans row = (p(n,0), ..., p(n,n)): p(n,1) < ... < p(n,peak) and
    p(n,peak) > ... > p(n,n).  Any broken step is recorded as the first
    violation (the scan does not continue past it on that side).
    """
    if n < 4:
        raise ValueError("profiles are scanned for n >= 4")
    kn = peak_k(n)

    strict_up = True
    strict_down = True
    violation = None
    for k in range(1, kn):
        if not row[k] < row[k + 1]:
            strict_up = False
            violation = (n, k)
            break
    if violation is None:
        for k in range(kn, n):
            if not row[k] > row[k + 1]:
                strict_down = False
                violation = (n, k)
                break

    return UnimodalProfile(
        n=n,
        values=row[1:],
        peak_k=kn,
        strict_up=strict_up,
        strict_down=strict_down,
        first_violation=violation,
    )


def binomial_ratio(n: int, k: int, j: int) -> Fraction:
    """Exact C(n-j, k-j) / C(n, k) as a reduced fraction.

    Equals the falling product (k/n) * ((k-1)/(n-1)) * ... * ((k-j+1)/(n-j+1)),
    so it is bounded by (k/n)^j whenever k <= n.
    """
    if not 0 <= j <= k <= n:
        raise ValueError(f"need 0 <= j <= k <= n, got ({n},{k},{j})")
    return Fraction(math.comb(n - j, k - j), math.comb(n, k))


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


def partial_sign_sum_ratio(
    n: int, k: int, j_max: int, table: PartitionTable
) -> Fraction:
    """Exact sum_{j=0}^{j_max} (n+1-2k+j) * a(n,k,j) * p(j) as a fraction,

    where a(n,k,j) = C(n-j,k-j)/C(n,k) normalizes the sign sum by C(n,k).
    For the two peak candidates this truncated sum has closed rational
    forms (see closed_form_even / closed_form_odd).
    """
    if not 0 <= j_max <= k:
        raise ValueError("need 0 <= j_max <= k")
    return sum(
        (n + 1 - 2 * k + j) * binomial_ratio(n, k, j) * table[j]
        for j in range(j_max + 1)
    )


def closed_form_even(n: int) -> Fraction:
    """Value of partial_sign_sum_ratio(n, (n+2)/2, 3) for even n >= 4."""
    if n < 4 or n % 2:
        raise ValueError("defined for even n >= 4")
    return Fraction(n + 14, 4 * (n - 1))


def closed_form_odd(n: int) -> Fraction:
    """Value of partial_sign_sum_ratio(n, (n+3)/2, 7) for odd n >= 11."""
    if n < 11 or n % 2 == 0:
        raise ValueError("defined for odd n >= 11")
    num = 5 * (11 * n**4 + 120 * n**3 - 2966 * n**2 + 9864 * n + 10251)
    den = 128 * n * (n - 2) * (n - 4) * (n - 6)
    return Fraction(num, den)


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
