"""The binomial partition sums p(n,k) and their unimodality structure.

Definition:  p(n,k) = sum_{j=0}^{k} C(n-j, k-j) * p(j),  with p(0) = 1.

For any weight sequence f the weighted binomial sum

    F_f(n,k) = sum_{j=0}^{k} C(n-j, k-j) * f(j)

obeys the Pascal-style recursion

    F_f(n+1,k) = F_f(n,k) + F_f(n,k-1)        (1 <= k <= n)

with F_f(n,0) = f(0) and F_f(n,n) = f(0) + ... + f(n).  One Pascal step
(_pascal_step) streams the triangle of F_f row by row from either end:
iter_triangle_rows keeps the first entries of each row, k < width, and
iter_triangle_tails the last ones, G(n,i) = F_f(n,n-i) for i < width,
which obey the same recursion with the two seeds swapped.  Each stream
writes its seeds itself and spot-checks two entries of every row.  f = p
gives the p(n,k) triangle (triangle_row keeps only the last row of that
stream, build_triangle collects all of it into a tuple of rows).
f = 512*p - 1745*delta_0, that is f(0) = 512 - 1745 and
f(j) = 512*p(j) for j >= 1 (dominance_weights), gives the gap
512*p(n,k) - 1745*C(n,k) of the dominance lemma, because the delta_0 term
contributes exactly C(n,k); the lemma reads k > n/2 only, so its gap rows
are streamed from their right ends, at half width.  A single value p(n,k)
is pnk_direct's O(k) direct sum.

For fixed n >= 4 the row k -> p(n,k) rises strictly to its unique peak at
k = floor((n+3)/2) and falls strictly afterwards.  The sign machinery that
decides ascent/descent at a given k is the exact integer sum

    S(n,k) = sum_{j=0}^{k} (n+1-2k+j) * C(n-j, k-j) * p(j)

which equals (n+1-k) * (2*p(n,k) - p(n+1,k)), since
C(n+1-j, k-j) = (n+1-j)/(n+1-k) * C(n-j, k-j), and so, by the recursion
p(n+1,k) = p(n,k) + p(n,k-1), equals (n+1-k) * (p(n,k) - p(n,k-1)); its
sign tells whether the row is still ascending into k (positive) or
already descending (negative).  So the sweeps read it off row n of the
stream, cut just past the peak since no k to the right is read, and
peak_sign_sum takes the defining sum itself, term by term as pnk_direct
does, as evidence that shares nothing with the recursion.  iter_central_binomials
walks C(n, floor((n+3)/2)), the binomial at the peak, along n.
The paper's closed rational forms of its truncated, C(n,k)-normalised
sums are references for the tests, not code the commands run.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator, Sequence

from .partitions import build_partition_table


def _walked_binomials(n: int, k: int) -> Iterator[int]:
    """C(n-j, k-j) for j = 0..k, from one math.comb at j = 0, each next one
    by the exact update C(n-j-1, k-j-1) = C(n-j, k-j) * (k-j) / (n-j)."""
    c = math.comb(n, k)
    for j in range(k):
        yield c
        c = c * (k - j) // (n - j)
    yield c


def pnk_direct(n: int, k: int, table: Sequence[int]) -> int:
    """Evaluate p(n,k) term by term from the defining sum.

    O(k) terms on a partition table covering 0..k, on _walked_binomials.
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
    if len(table) <= k:
        raise ValueError(f"partition table covers only 0..{len(table) - 1}, need {k}")
    return sum(map(operator.mul, _walked_binomials(n, k), table))


def _pascal_step(first: int, prev: tuple[int, ...], width: int) -> tuple[int, ...]:
    """The next row of a Pascal recursion from its first entry and the row
    before, cut to `width` entries and without the new last entry, which
    the caller appends while the row is whole: (first, prev[1] + prev[0],
    prev[2] + prev[1], ...)."""
    # entry i >= 1 is prev[i] + prev[i-1]: prev[1:] paired with prev
    return (first,) + tuple(map(operator.add, prev[1:width], prev))


def iter_triangle_rows(
    max_n: int, width: int, weights: Sequence[int] | None = None
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Yield (n, row n of F_f) for n = 0..max_n keeping only O(n) memory.

    `weights` is f(0..max_n) (or longer); None means the partition numbers,
    so the rows are p(n,0..n).  Rows are produced by the recursion
    F_f(n+1,k) = F_f(n,k) + F_f(n,k-1) (_pascal_step); the diagonal is
    seeded with F_f(n+1,n+1) = F_f(n,n) + f(n+1).  Each row keeps its first
    `width` entries, k < width: the recursion reads no entry right of k, so
    a cut row is the start of the whole row, and width = max_n + 1 cuts
    none.  The sweeps of the p(n,k) rows and triangle_row stream it, and
    build_triangle collects it.  Every row is spot-checked against the
    direct sum at k in {1, n} before it is yielded, k = n only while the
    row is whole: F_f(n,1) = n*f(0) + f(1) and F_f(n,n) against an
    independently accumulated prefix sum of f.  For f = p these read
    p(n,1) = n+1 and p(n,n) = p(0)+...+p(n).
    """
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    if max_n and width < 2:
        raise ValueError("rows past row 0 keep k = 1: width must be >= 2")
    if weights is None:
        weights = build_partition_table(max_n)
    if len(weights) <= max_n:
        raise ValueError("weight sequence too short for requested triangle")

    f0 = weights[0]
    row = (f0,)
    prefix = 0
    for n in range(max_n + 1):
        if n:
            prev = row
            row = _pascal_step(f0, prev, width)
            if n < width:
                row += (prev[n - 1] + weights[n],)
        prefix += weights[n]
        if n >= 1 and row[1] != n * f0 + weights[1]:
            raise AssertionError(f"F({n},1) != {n}*f(0) + f(1)")
        if n < width and row[n] != prefix:
            raise AssertionError(f"F({n},{n}) != sum of f(0..{n})")
        yield n, row


def iter_triangle_tails(
    max_n: int, width: int, weights: Sequence[int]
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Yield (n, tail n) for n = 0..max_n: row n of F_f read from its
    right end, G(n,i) = F_f(n,n-i), cut after `width` entries, i < width.

    `weights` is f(0..max_n) (or longer).  The tails follow the rows'
    recursion, G(n,i) = G(n-1,i-1) + G(n-1,i) (_pascal_step), with the
    seeds swapped: G(n,0) = F_f(n,n) = f(0) + ... + f(n) and
    G(n,n) = F_f(n,0) = f(0).  So a cut tail needs only the cut tail
    before it, and streaming k > n - width of every row takes about
    width*max_n additions instead of max_n^2/2.  Every tail past row 0 is
    spot-checked before it is yielded, at F_f(n,n-1) = n*P(n-1) -
    sum_{j<n} j*f(j), P(n-1) = f(0) + ... + f(n-1), both sums accumulated
    apart from the stream, and, while the row is whole, at
    F_f(n,1) = n*f(0) + f(1).
    """
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    if max_n and width < 2:
        raise ValueError("tails past row 0 keep k = n-1: width must be >= 2")
    if len(weights) <= max_n:
        raise ValueError("weight sequence too short for requested triangle")

    f0 = weights[0]
    tail = (f0,)
    prefix = moment = 0
    for n in range(max_n + 1):
        if n:
            tail = _pascal_step(tail[0] + weights[n], tail, width)
            if n < width:
                tail += (f0,)
            if tail[1] != n * prefix - moment:
                raise AssertionError(f"F({n},{n - 1}) != {n}*P({n - 1}) - "
                                     f"sum of j*f(j) over j < {n}")
            if n < width and tail[n - 1] != n * f0 + weights[1]:
                raise AssertionError(f"F({n},1) != {n}*f(0) + f(1)")
        prefix += weights[n]
        moment += n * weights[n]
        yield n, tail


def triangle_row(n: int, weights: Sequence[int] | None = None) -> tuple[int, ...]:
    """Row n of iter_triangle_rows, holding one row at a time on the way.

    Every row passed on the way keeps iter_triangle_rows' spot checks.
    """
    for _, row in iter_triangle_rows(n, n + 1, weights):
        pass
    return row


def build_triangle(max_n: int) -> tuple[tuple[int, ...], ...]:
    """Rows 0..max_n of iter_triangle_rows, collected: p(n,k) is [n][k].

    The rows carry iter_triangle_rows' spot checks; this adds none.
    """
    return tuple(row for _, row in iter_triangle_rows(max_n, max_n + 1))


class DiagonalTable:
    """p(n,n) and p(n,n-1) for all n <= max_n, in O(n) memory.

    table is p(0..max_n) or longer.  Uses p(n,n) = sum_{j<=n} p(j) and the
    incremental identity p(n,n-1) = p(n-1,n-2) + p(n-1,n-1); only these two
    columns are stored, which keeps sweeps over large n cheap.
    `diagonal[n]` is p(n,n) and `subdiagonal[n]` is p(n,n-1) (0 at n = 0),
    as tuples indexed by n.
    """

    def __init__(self, max_n: int, table: Sequence[int]):
        if max_n < 0:
            raise ValueError("max_n must be >= 0")
        if len(table) <= max_n:
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


def strict_sides(n: int, row: tuple[int, ...]) -> tuple[bool, bool]:
    """(ascent holds, descent holds) for row = (p(n,0), ..., p(n,n)), n >= 4.

    The ascent is p(n,1) < ... < p(n,peak), the descent
    p(n,peak) > ... > p(n,n); each side is scanned in full, pairwise at C
    speed.
    """
    if n < 4:
        raise ValueError("profiles are scanned for n >= 4")
    kn = peak_k(n)
    return (all(map(operator.lt, row[1:kn], row[2:kn + 1])),
            all(map(operator.gt, row[kn:n], row[kn + 1:n + 1])))


def verify_unimodal_profile(n: int, row: tuple[int, ...]) -> tuple[int, int] | None:
    """Check strict ascent to the peak and strict descent after it.

    Scans row = (p(n,0), ..., p(n,n)) with strict_sides.  Returns the
    (n, k) of the first broken step, k < peak on the ascent and k >= peak
    on the descent, or None; only a row that fails the scan is walked step
    by step to locate its violation.
    """
    if all(strict_sides(n, row)):
        return None
    kn = peak_k(n)
    for k in range(1, kn):
        if not row[k] < row[k + 1]:
            return (n, k)
    for k in range(kn, n):
        if not row[k] > row[k + 1]:
            return (n, k)
    raise AssertionError(f"row {n} failed its scan but no step is broken")


def iter_central_binomials(n_min: int, n_max: int) -> Iterator[tuple[int, int]]:
    """Yield (n, C(n, floor((n+3)/2))) for n = n_min..n_max, walked along n.

    Below n = 4 the value is written directly: C(1,2) = 0 and
    C(2,2) = C(3,3) = 1, which the walk cannot start from.  From there, or
    from one math.comb at n_min, each next n takes one exact update:
    k = floor((n+3)/2) grows by one at odd n, C(n,k) = C(n-1,k-1) * n / k,
    and stays at even n, C(n,k) = C(n-1,k) * n / (n-k).
    """
    c = None
    for n in range(n_min, n_max + 1):
        k = (n + 3) // 2
        if n < 4:
            c = int(n >= 2)
        elif c is None:
            c = math.comb(n, k)
        elif n % 2:
            c = c * n // k
        else:
            c = c * n // (n - k)
        yield n, c


def peak_sign_sum(n: int, k: int, table: Sequence[int]) -> int:
    """Exact signed sum S(n,k) = sum_{j=0}^{k} (n+1-2k+j) * C(n-j,k-j) * p(j).

    Positive iff the row still ascends into k, negative iff it descends;
    equals (n+1-k) * (2*p(n,k) - p(n+1,k)) = (n+1-k) * (p(n,k) - p(n,k-1)).  The defining sum on
    _walked_binomials, as pnk_direct takes p(n,k): no row of the triangle
    is read, so the sweeps that read S off the rows call it at a sample of
    n as evidence from a second route.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got n={n}, k={k}")
    if len(table) <= k:
        raise ValueError("partition table too small")
    return sum(map(operator.mul, range(n + 1 - 2 * k, n + 2 - k),
                   map(operator.mul, _walked_binomials(n, k), table)))


def dominance_weights(table: Sequence[int], max_n: int) -> tuple[int, ...]:
    """f(0..max_n) with F_f(n,k) = 512*p(n,k) - 1745*C(n,k).

    f(0) = 512 - 1745 and f(j) = 512*p(j) for j >= 1: the defining sum of
    512*p(n,k) plus -1745*delta_0, whose binomial sum is -1745*C(n,k).
    iter_triangle_tails(max_n, width, f) streams the gap rows from their
    right ends, as dominance_check reads them.
    """
    if len(table) <= max_n:
        raise ValueError("partition table too small")
    return (512 - 1745,) + tuple(512 * p for p in table[1:max_n + 1])


def dominance_check(n: int, gap_tail: tuple[int, ...]) -> int | None:
    """Exact check that 512 * p(n,k) > 1745 * C(n,k) on the descent range.

    gap_tail is row n of the gap triangle 512*p(n,k) - 1745*C(n,k) read
    from its right end, (gap(n,n), gap(n,n-1), ...) (stream it with
    iter_triangle_tails on dominance_weights).  The range is
    ell = floor((n+5)/2) <= k <= n, n >= 4: the first n + 1 - ell
    entries, and no entry past them is read.  Returns None
    when every gap there is positive, else the smallest k in the range
    with a gap <= 0.
    """
    if n < 4:
        raise ValueError("defined for n >= 4")
    ell = (n + 5) // 2
    descent = gap_tail[:n + 1 - ell]
    if len(descent) <= n - ell:
        raise ValueError(f"row {n}'s descent range needs its last "
                         f"{n + 1 - ell} gaps, got {len(descent)}")
    if min(descent) > 0:
        return None
    return next(k for k, gap in enumerate(reversed(descent), ell) if gap <= 0)
