"""Ado-type upper bounds on the minimal faithful module dimension.

For a nilpotent Lie algebra of dimension n and nilpotency class k the
classical bounds on the minimal dimension mu of a faithful module are

    birkhoff: mu <= 1 + n + n^2 + ... + n^(k+1)
    reed:     mu <= 1 + n^k

and the partition-sum bound mu <= p(n,k), which for k not small beats
both by a wide margin.  Filiform algebras (k = n-1) admit the sharper
mu <= 1 + p(n-2,n-2); both are binomial_sums.pnk_direct sums on a
partition table covering 0..k, never read from a triangle.  All of
these are exact integers, which best_bound returns keyed by label with
the label of the least; the dimension-only corollary bound
(3/sqrt(n)) * 2^n is a real and is reported as a certified enclosure,
never rounded into an integer claim; it is computed with mpmath's
`libmpi` interval functions on endpoint pairs at DEFAULT_PRECISION_BITS,
and returned as the raw endpoint pair (lower, upper), importing mpmath
where it is called.
"""

from __future__ import annotations

from .binomial_sums import pnk_direct
from .intervals import DEFAULT_PRECISION_BITS, int_interval


def birkhoff_bound(n: int, k: int) -> int:
    """1 + n + n^2 + ... + n^(k+1), exactly, as (n^(k+2) - 1) / (n - 1)."""
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    if n == 1:
        return k + 2
    return (n ** (k + 2) - 1) // (n - 1)


def reed_bound(n: int, k: int) -> int:
    """1 + n^k, exactly."""
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    return 1 + n**k


def filiform_bound(n: int, table: tuple[int, ...]) -> int:
    """1 + p(n-2,n-2), the sharper bound available when k = n-1.

    table must cover 0..n-2.
    """
    if n < 2:
        raise ValueError("filiform bound needs n >= 2")
    return 1 + pnk_direct(n - 2, n - 2, table)


def corollary_bound(n: int):
    """Certified endpoint pair (lower, upper) of (3/sqrt(n)) * 2^n.

    A strict upper bound for every p(n,k) (the exact row bound carries
    constant 113/40 < 3), hence a class-independent bound for mu.
    """
    from mpmath.libmp import mpi_div, mpi_mul, mpi_pow_int, mpi_sqrt

    if n < 1:
        raise ValueError("n must be >= 1")
    bits = DEFAULT_PRECISION_BITS
    # 2^n is exact at any precision (one mantissa bit), and no n-bit int is built
    two_to_n = mpi_pow_int(int_interval(2, bits), n, bits)
    numerator = mpi_mul(two_to_n, int_interval(3, bits), bits)
    return mpi_div(numerator, mpi_sqrt(int_interval(n, bits), bits), bits)


def best_bound(
    n: int, k: int, filiform: bool, table: tuple[int, ...]
) -> tuple[dict[str, int], str]:
    """Every applicable exact bound for (n, k), and the label of the least.

    The bounds are keyed birkhoff, reed, pnk and, when filiform is set,
    filiform, in that order.  Ties for the least prefer pnk, then
    filiform, then reed, then birkhoff.  The caller has checked
    1 <= k <= n-1; filiform set with k != n-1 raises ValueError.  table
    must cover 0..k, which also covers the filiform bound's n-2.
    """
    if filiform and k != n - 1:
        raise ValueError("the filiform bound needs k = n-1")
    bounds = {"birkhoff": birkhoff_bound(n, k), "reed": reed_bound(n, k),
              "pnk": pnk_direct(n, k, table)}
    if filiform:
        bounds["filiform"] = filiform_bound(n, table)
    best = min((label for label in ("pnk", "filiform", "reed", "birkhoff")
                if label in bounds), key=bounds.__getitem__)
    return bounds, best
