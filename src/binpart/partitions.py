"""Exact partition counting.

The tables are arbitrary-precision integer arithmetic (Python ints).
The module provides two independent routes to partition counts, each
returning its table as a plain tuple indexed by n:

  1. build_partition_table  -- p(n) via Euler's pentagonal-number recurrence,
     each p(n) gathered by itemgetter and added by sum at C speed,
  2. build_restricted_table -- p_k(j) (largest part <= k) via the standard
     coin-counting dynamic program.

check_generating_functions checks a table of route 2, which its caller
builds, against a third: the logarithmic derivative of
prod_{j=1}^{k} 1/(1-q^j), which gives the recurrence
j*p_k(j) = sum_{m=1}^{j} s_k(m)*p_k(j-m), where s_k(m) is the sum of the
divisors of m that are <= k.  It shares no step with the coin-counting DP.
The brute-force enumeration oracle lives with the tests.

rademacher_partition_number gives a single p(n) without a table: the
unique integer inside a certified enclosure of Rademacher's convergent
series, truncated where Lehmer's remainder bound falls below 1/4.  It
costs about as much as the table at n = 1900 (cli.P_SERIES_FROM) and
less above.  Its enclosures are raw endpoint pairs at explicit
precision, from direct `libmpi` calls; no float and no global precision
enters the decision.  The series' functions import mpmath where they
call it, so building a table loads none.
"""

from __future__ import annotations

from math import isqrt
from operator import itemgetter

from .intervals import decide_with_escalation, int_interval

RADEMACHER_GUARD_BITS = 16      # first rung of the guard-bit ladder
RADEMACHER_GUARD_CAP_BITS = 256
_REMAINDER_BITS = 64            # precision of Lehmer's remainder bound
_QUARTER = (0, 1, -2, 1)        # 1/4 as a raw mpf


def build_partition_table(max_n: int) -> tuple[int, ...]:
    """Compute p(0..max_n) by the pentagonal-number recurrence.

    p(n) = sum_{k>=1} (-1)^(k-1) * [p(n - k(3k-1)/2) + p(n - k(3k+1)/2)]

    with p(0) = 1, at a cost of O(sqrt(n)) big-int additions per entry.
    The generalized pentagonal numbers g = k(3k-/+1)/2 <= max_n are listed
    once, split by the sign (-1)^(k-1).  While the table holds p(0..n-1),
    p(n - g) is its entry -g, so one itemgetter per sign reads every term
    of p(n) and sum adds them, both at C speed; the getters are rebuilt
    only when n reaches a new g.  Each getter also reads p(0) twice, so it
    returns a tuple even with fewer than two terms; the two sums' extra
    2*p(0) cancel.  Monotonicity and the sub-Fibonacci property
    p(n) <= p(n-1) + p(n-2) are asserted while the table is filled.
    """
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    # a max_n too large for an index or for memory fails here, before any loop
    values = [1] * (max_n + 1)
    del values[1:]
    plus, minus = [0, 0], [0, 0]  # offsets -g of each sign's terms, after p(0) twice
    joins = {}  # g -> the offsets its term joins
    k = 1
    while k * (3 * k - 1) // 2 <= max_n:
        joins[k * (3 * k - 1) // 2] = joins[k * (3 * k + 1) // 2] = plus if k % 2 else minus
        k += 1
    for n in range(1, max_n + 1):
        if n in joins:
            joins[n].append(-n)
            get_plus, get_minus = itemgetter(*plus), itemgetter(*minus)
        total = sum(get_plus(values)) - sum(get_minus(values))
        if total < values[-1]:
            raise AssertionError(f"p({n}) < p({n - 1}): table corrupt")
        if n >= 2 and total > values[-1] + values[-2]:
            raise AssertionError(f"p({n}) exceeds p({n - 1}) + p({n - 2})")
        values.append(total)
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


def check_generating_functions(k: int, degree: int,
                               table: tuple[int, ...]) -> tuple[str, int] | None:
    """Verify the weighted series identity for p_k against the DP table,
    p_k(0..degree) or longer, as build_restricted_table gives it.

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


def rademacher_truncation(n: int):
    """(N, R): the least N whose certified remainder bound R is below 1/4.

    After N terms of Rademacher's series, |p(n) - sum_{k<=N} t_k(n)| is
    below Lehmer's bound (Trans. AMS 1938)

        44 pi^2 / (225 sqrt 3) * N^(-1/2)
          + pi sqrt 2 / 75 * sqrt(N / (n-1)) * sinh(pi/N * sqrt(2n/3)).

    R is a raw mpf at least that bound: every operation rounds outward at
    _REMAINDER_BITS.  The bound falls as N grows, and its first part alone
    needs N >= 20, so the search doubles from 20 and then bisects.

    For n >= 1000 the bound is below 0.15 already at N = floor(mu_1), with
    mu_1 = pi sqrt(24n - 1)/6, and both of its parts fall as n grows.  So
    N <= mu_1 there: every mu_k = mu_1/k of the sum is >= 1, and the
    search tries no sinh argument below 1/2.  Both are far from the tiny
    arguments at which mpmath 1.3.0's exp rounds its upper endpoint down
    (see qseries).
    Needs n >= 2.
    """
    from mpmath.libmp import mpf_lt, mpi_add, mpi_div, mpi_mul, mpi_sqrt
    from mpmath.libmp.libmpi import mpi_cosh_sinh, mpi_pi

    bits = _REMAINDER_BITS
    pi = mpi_pi(bits)
    first = mpi_div(mpi_mul(int_interval(44, bits), mpi_mul(pi, pi, bits), bits),
                    mpi_mul(int_interval(225, bits),
                            mpi_sqrt(int_interval(3, bits), bits), bits), bits)
    second = mpi_div(mpi_mul(pi, mpi_sqrt(int_interval(2, bits), bits), bits),
                     mpi_mul(int_interval(75, bits),
                             mpi_sqrt(int_interval(n - 1, bits), bits), bits),
                     bits)
    argument = mpi_mul(pi, mpi_sqrt(mpi_div(int_interval(2 * n, bits),
                                            int_interval(3, bits), bits), bits),
                       bits)

    def bound(terms):
        count = int_interval(terms, bits)
        root = mpi_sqrt(count, bits)
        sinh = mpi_cosh_sinh(mpi_div(argument, count, bits), bits)[1]
        return mpi_add(mpi_div(first, root, bits),
                       mpi_mul(second, mpi_mul(root, sinh, bits), bits), bits)[1]

    low, high = 19, 20
    while not mpf_lt(bound(high), _QUARTER):
        low, high = high, 2 * high
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (low, mid) if mpf_lt(bound(mid), _QUARTER) else (mid, high)
    return high, bound(high)


def _positions(values: list[int], value: int) -> list[int]:
    """Every index of value in values, found by list.index at C speed."""
    found = []
    try:
        while True:
            found.append(values.index(value, found[-1] + 1 if found else 0))
    except ValueError:
        return found


def _selberg_indices(n: int, k: int, pentagonal: list[int]) -> tuple[list[int], bool]:
    """The l of Selberg's sum for A_k(n), and whether each counts twice.

    The sum runs over 0 <= l < 2k with (3l^2 + l)/2 = -n (mod k);
    pentagonal holds (3l^2 + l)/2 for at least l < k.  Going from l to
    l + k adds 3lk + k(3k+1)/2, which is 0 mod k for odd k and k/2 mod k
    for even k.  For odd k the l >= k repeat the l < k with sign and
    cosine both flipped, so only l < k are returned, each counting twice.
    """
    target = -n % k
    residues = list(map(k.__rmod__, pentagonal[:k]))
    low = _positions(residues, target)
    if k % 2:
        return low, True
    return low + [l + k for l in _positions(residues, (target - k // 2) % k)], False


def _cos_sum(k: int, indices: tuple[list[int], bool], pi, bits: int):
    """Selberg's sum S_k(n), with A_k(n) = sqrt(k/3) S_k(n), as an endpoint pair.

    S_k(n) adds (-1)^l cos(pi (6l+1) / (6k)) over the l of _selberg_indices.
    """
    from mpmath.libmp import fzero, mpi_add, mpi_cos, mpi_div, mpi_mul, mpi_sub
    from mpmath.libmp.libmpi import mpi_shift

    ls, doubled = indices
    six_k = int_interval(6 * k, bits)
    total = (fzero, fzero)
    for l in ls:
        angle = mpi_div(mpi_mul(pi, int_interval(6 * l + 1, bits), bits), six_k, bits)
        cos = mpi_cos(angle, bits)
        total = mpi_sub(total, cos, bits) if l % 2 else mpi_add(total, cos, bits)
    return mpi_shift(total, 1) if doubled else total


def rademacher_partition_number(n: int):
    """p(n) from Rademacher's series, or None when the enclosure never isolates it.

    With mu_k = pi sqrt(24n - 1) / (6k), the k-th term of the series is

        t_k(n) = 4 S_k(n) / (24n - 1) * (cosh mu_k - sinh mu_k / mu_k),

    where S_k is Selberg's sum (_cos_sum).  This is the usual
    A_k(n) sqrt(k)/(pi sqrt 2) * d/dn[sinh(C lambda/k)/lambda] with
    lambda = sqrt(n - 1/24) and C = pi sqrt(2/3), simplified.  The N terms
    of rademacher_truncation leave a remainder below R < 1/4, so p(n) is the
    one integer in [lo - R, hi + R] once the enclosure [lo, hi] of the sum
    is narrow enough.  Term k is about e^mu_k / n, and an error in mu_k
    grows by mu_k ~ sqrt(n), so it is computed at the bits of e^mu_k less
    half those of n, plus the guard bits (Johansson, LMS J. Comput. Math.
    2012, sizes each term the same way).  The guard bits climb on
    decide_with_escalation from RADEMACHER_GUARD_BITS to
    RADEMACHER_GUARD_CAP_BITS.  Needs n >= 2.
    """
    from mpmath.libmp import (fzero, mpf_add, mpf_sub, mpi_add, mpi_div, mpi_mul,
                              mpi_sqrt, mpi_sub, round_ceiling, round_floor, to_int)
    from mpmath.libmp.libmpi import mpi_cosh_sinh, mpi_pi

    terms, remainder = rademacher_truncation(n)
    root = isqrt(24 * n - 1) + 1
    drop = n.bit_length() // 2
    pentagonal = [l * (3 * l + 1) // 2 for l in range(terms)]
    plan = []  # (k, Selberg indices, bits of term k before the guard)
    for k in range(1, terms + 1):
        indices = _selberg_indices(n, k, pentagonal)
        if indices[0]:  # else A_k(n) = 0
            # log2(e) * pi/6 = 0.75551... < 7556/10000
            plan.append((k, indices, max(root * 7556 // (10000 * k) + 1 - drop, 1)))

    def evaluate(guard):
        top = plan[0][2] + guard
        pi_top = mpi_pi(top)
        pi_root = mpi_mul(pi_top, mpi_sqrt(int_interval(24 * n - 1, top), top), top)
        total = (fzero, fzero)
        for k, indices, bits in plan:
            bits += guard
            mu = mpi_div(pi_root, int_interval(6 * k, bits), bits)
            cosh, sinh = mpi_cosh_sinh(mu, bits)
            bracket = mpi_sub(cosh, mpi_div(sinh, mu, bits), bits)
            total = mpi_add(total, mpi_mul(_cos_sum(k, indices, pi_top, bits),
                                           bracket, bits), top)
        lo, hi = mpi_div(mpi_mul(int_interval(4, top), total, top),
                         int_interval(24 * n - 1, top), top)
        least = to_int(mpf_sub(lo, remainder, top, round_floor), round_ceiling)
        most = to_int(mpf_add(hi, remainder, top, round_ceiling), round_floor)
        return least if least == most else None

    return decide_with_escalation(evaluate, RADEMACHER_GUARD_BITS,
                                  RADEMACHER_GUARD_CAP_BITS)[0]
