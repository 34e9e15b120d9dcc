"""Exact partition counting.

Everything here is arbitrary-precision integer arithmetic (Python ints).
The module provides two independent routes to partition counts, each
returning its table as a plain tuple indexed by n:

  1. build_partition_table  -- p(n) via Euler's pentagonal-number recurrence,
  2. build_restricted_table -- p_k(j) (largest part <= k) via the standard
     coin-counting dynamic program.

check_generating_functions checks route 2 against a third: the logarithmic
derivative of prod_{j=1}^{k} 1/(1-q^j), which gives the recurrence
j*p_k(j) = sum_{m=1}^{j} s_k(m)*p_k(j-m), where s_k(m) is the sum of the
divisors of m that are <= k.  It shares no step with the coin-counting DP.
The brute-force enumeration oracle lives with the tests.
"""

from __future__ import annotations


def build_partition_table(max_n: int) -> tuple[int, ...]:
    """Compute p(0..max_n) by the pentagonal-number recurrence.

    p(n) = sum_{k>=1} (-1)^(k-1) * [p(n - k(3k-1)/2) + p(n - k(3k+1)/2)]

    with p(0) = 1, at a cost of O(sqrt(n)) big-int additions per entry.
    Monotonicity and the sub-Fibonacci property p(n) <= p(n-1) + p(n-2)
    are asserted while the table is filled.
    """
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    values = [0] * (max_n + 1)
    values[0] = 1
    for n in range(1, max_n + 1):
        total = 0
        k = 1
        while True:
            g1 = n - k * (3 * k - 1) // 2
            if g1 < 0:
                break
            term = values[g1]
            g2 = n - k * (3 * k + 1) // 2
            if g2 >= 0:
                term += values[g2]
            total += term if k % 2 == 1 else -term
            k += 1
        values[n] = total
        if total < values[n - 1]:
            raise AssertionError(f"p({n}) < p({n - 1}): table corrupt")
        if n >= 2 and total > values[n - 1] + values[n - 2]:
            raise AssertionError(f"p({n}) exceeds p({n - 1}) + p({n - 2})")
    return tuple(values)


def build_restricted_table(k: int, max_n: int) -> tuple[int, ...]:
    """Compute p_k(0..max_n) by the coin-counting dynamic program.

    Parts are admitted one size at a time, so after processing sizes
    1..m the row holds partitions with all parts <= m.  No part above
    max_n fits, so sizes stop at min(k, max_n).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    values = [0] * (max_n + 1)
    values[0] = 1
    for part in range(1, min(k, max_n) + 1):
        for j in range(part, max_n + 1):
            values[j] += values[j - part]
    return tuple(values)


def _weighted_tail_series(k: int, degree: int) -> list[int]:
    """Coefficients 0..degree of sum_{j=1}^{k} j*q^j/(1-q^j).

    The j-th summand contributes j to every coefficient at a positive
    multiple of j, so summands with j > degree contribute nothing.
    """
    coeffs = [0] * (degree + 1)
    for j in range(1, min(k, degree) + 1):
        for m in range(j, degree + 1, j):
            coeffs[m] += j
    return coeffs


def _convolve_truncated(a: list[int], b: list[int], degree: int) -> list[int]:
    out = [0] * (degree + 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j in range(0, degree + 1 - i):
            bj = b[j]
            if bj:
                out[i + j] += ai * bj
    return out


def check_generating_functions(
    k: int, degree: int, table: tuple[int, ...] | None = None
) -> tuple[str, int] | None:
    """Verify the weighted series identity for p_k against the DP table.

    Identity "weighted": coefficient j of
    (sum_{i=1}^{k} i*q^i/(1-q^i)) * prod_{i=1}^{k} 1/(1-q^i) equals j*p_k(j),
    with the DP table standing in for the product's coefficients.  The
    identity is linear in the table, so it is anchored by p_k(0) = 1,
    reported as index 0; together they determine every p_k(j).  All
    coefficients are exact integers; comparison is for all j <= degree.
    Returns the first mismatch ("weighted", j), or None.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if degree < 1:
        raise ValueError("degree must be >= 1")
    if table is None:
        table = build_restricted_table(k, degree)
    if len(table) <= degree:
        raise ValueError("table does not cover the requested check")

    if table[0] != 1:
        return ("weighted", 0)
    weighted = _convolve_truncated(
        _weighted_tail_series(k, degree), table, degree
    )
    for j in range(degree + 1):
        if weighted[j] != j * table[j]:
            return ("weighted", j)
    return None
