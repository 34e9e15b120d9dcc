"""Frozen golden values and the reference routes the test suite checks against.

The 50-row table lists (p(k), p(50,k)) for k = 1..50.  These are
long-established reference values for the partition function and the
binomial partition sums; the suite treats them as an external oracle
that the implementation must reproduce exactly.  mpf_to_fraction reads
high-precision mpmath reference values exactly; fractions and contains
read an enclosure's endpoint pair exactly.

The functions below are oracles no command runs: brute-force partition
enumeration, the pentagonal recurrence one term at a time, the dominance
gap by multiplicative binomials, thm3's bound one k at a time, eq. 9 by
a hand-written depth loop on math.comb, the paper's closed forms of the
truncated sign sums, the growth conditions behind unimodal weighted
binomial sums, the enclosure of S(q) = sum_{j>=1} j*q^j/(1-q^j), and a
bracket of pi by Machin's formula on integers alone.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, count

from mpmath import iv

from binpart import qseries
from binpart.checks import INCONCLUSIVE, VERIFIED
from binpart.intervals import DEFAULT_PRECISION_BITS, to_fraction


def mpf_to_fraction(x) -> Fraction:
    """Exact value of a finite mpf (a dyadic rational) as a Fraction."""
    sign, man, exp, _ = x._mpf_
    value = Fraction(int(man)) * Fraction(2) ** exp
    return -value if sign else value


def fractions(pair) -> tuple[Fraction, Fraction]:
    """Exact values of an endpoint pair (lower, upper) as Fractions."""
    return to_fraction(pair[0]), to_fraction(pair[1])


def contains(pair, x) -> bool:
    """Whether the enclosure given by its endpoint pair contains x."""
    lower, upper = fractions(pair)
    return lower <= Fraction(x) <= upper


@dataclass(frozen=True)
class PartitionMultiset:
    """One partition, stored as a nonincreasing tuple of positive parts."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if any(p <= 0 for p in self.parts):
            raise ValueError("parts must be positive")
        if any(a < b for a, b in zip(self.parts, self.parts[1:])):
            raise ValueError("parts must be nonincreasing")

    @property
    def total(self) -> int:
        return sum(self.parts)


def enumerate_partitions(n: int, max_part: int, cap: int = 60):
    """Every partition of n with all parts <= max_part, largest part first.

    In descending lexicographic order: n=5, max_part=3 gives 3+2, 3+1+1,
    2+2+1, 2+1+1+1, 1+1+1+1+1.  Refuses n above cap (p(60) ~ 1e6).
    """
    if not 0 <= n <= cap or max_part < 1:
        raise ValueError(f"need 0 <= n <= {cap}, max_part >= 1; got {n}, {max_part}")
    out, prefix = [], []

    def descend(remaining, limit):
        if remaining == 0:
            out.append(PartitionMultiset(parts=tuple(prefix)))
        for part in range(min(limit, remaining), 0, -1):
            prefix.append(part)
            descend(remaining - part, part)
            prefix.pop()

    descend(n, max_part)
    return out


def reference_partition_table(max_n: int) -> tuple:
    """p(0..max_n) by Euler's pentagonal recurrence, one term at a time:

    p(n) = sum_{k>=1} (-1)^(k-1) * [p(n - k(3k-1)/2) + p(n - k(3k+1)/2)].
    """
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
    return tuple(values)


def reference_row_bound(n: int, row) -> tuple:
    """(holds, margin) of thm3 on row n, one k at a time: every
    1600*n*p(n,k)^2 < 12769*4^n for 1 <= k <= n, and the least relative
    slack (rhs - lhs)/rhs over those k."""
    rhs = 12769 * 4**n
    lhs = [1600 * n * row[k] ** 2 for k in range(1, n + 1)]
    return all(x < rhs for x in lhs), min((rhs - x) / rhs for x in lhs)


def gap_row(n: int, row) -> tuple:
    """512*p(n,k) - 1745*C(n,k) for k = 0..n from row n of p, by math.comb."""
    return tuple(512 * p - 1745 * math.comb(n, k) for k, p in enumerate(row))


def reference_product(n: int, k: int, row, depth_cap: int = 256):
    """(outcome, margin, counterexample) of eq. 9 at (n, k), from the
    hand-written depth loop: each depth 4, 8, ... up to depth_cap
    rebuilds its partial products from j = 1, against C(n,k) by math.comb."""
    p_val = row[k]
    c = math.comb(n, k)
    depth = 4
    while True:
        depth = min(depth, depth_cap)
        num = 1
        den = 1
        npow = 1
        kpow = 1
        for _ in range(depth):
            npow *= n
            kpow *= k
            num *= npow
            den *= npow - kpow
        lhs = p_val * den
        rhs = c * num
        if lhs < rhs:
            return VERIFIED, (rhs - lhs) / rhs, None
        if depth >= depth_cap:
            return INCONCLUSIVE, None, (n, k)
        depth *= 2


def reference_row(n: int, row, depth_cap: int = 256) -> list:
    """reference_product for k = 1, 2, ..., ending at the first inconclusive k."""
    results = []
    for k in range(1, n):
        results.append(reference_product(n, k, row, depth_cap))
        if results[-1][0] != VERIFIED:
            break
    return results


def reference_row_fold(n: int, row, depth_cap: int = 256) -> tuple:
    """reference_row folded as product_bound_check folds its row:
    (checked, outcome, counterexample, least margin)."""
    results = reference_row(n, row, depth_cap)
    outcome, _, counterexample = results[-1]
    margins = [margin for _, margin, _ in results if margin is not None]
    return len(results), outcome, counterexample, min(margins, default=None)


def peak_sign_sum_by_terms(n: int, k: int, table) -> int:
    """S(n,k) = sum_{j<=k} (n+1-2k+j) * C(n-j,k-j) * p(j), one term at a time.

    The binomial is updated per term, C(n-j-1, k-j-1) = C(n-j, k-j) *
    (k-j) / (n-j), from one math.comb at j = 0.
    """
    c = math.comb(n, k)
    total = 0
    for j in range(k + 1):
        coef = n + 1 - 2 * k + j
        if coef:
            total += coef * c * table[j]
        if j < k:
            c = c * (k - j) // (n - j)
    return total


def binomial_ratio(n: int, k: int, j: int) -> Fraction:
    """Exact C(n-j, k-j) / C(n, k), a falling product bounded by (k/n)^j."""
    if not 0 <= j <= k <= n:
        raise ValueError(f"need 0 <= j <= k <= n, got ({n},{k},{j})")
    return Fraction(math.comb(n - j, k - j), math.comb(n, k))


def partial_sign_sum_ratio(n: int, k: int, j_max: int, table) -> Fraction:
    """peak_sign_sum(n, k) / C(n,k) truncated after term j_max, exactly."""
    if not 0 <= j_max <= k:
        raise ValueError("need 0 <= j_max <= k")
    return sum((n + 1 - 2 * k + j) * binomial_ratio(n, k, j) * table[j]
               for j in range(j_max + 1))


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
    return Fraction(num, 128 * n * (n - 2) * (n - 4) * (n - 6))


@dataclass(frozen=True)
class GrowthConditionReport:
    """First index at which f breaks each growth condition, or None.

    (a) f(n) > 0 everywhere and f(3) <= 2*f(0) + f(1); (b) f nondecreasing;
    (c) f(n) < f(0) + ... + f(n-1) for every n >= 3.  A sequence meeting
    all three has unimodal weighted binomial sums.
    """

    counterexample_a: int | None
    counterexample_b: int | None
    counterexample_c: int | None

    holds_a = property(lambda self: self.counterexample_a is None)
    holds_b = property(lambda self: self.counterexample_b is None)
    holds_c = property(lambda self: self.counterexample_c is None)
    all_hold = property(lambda self: self.holds_a and self.holds_b and self.holds_c)


def check_growth_conditions(f, n_max: int) -> GrowthConditionReport:
    """Test conditions (a), (b), (c) for f on 0..n_max."""
    if n_max < 3:
        raise ValueError("need n_max >= 3 to test all conditions")
    v = [f(n) for n in range(n_max + 1)]
    ex_a = next((n for n in range(n_max + 1) if v[n] <= 0), None)
    if ex_a is None and v[3] > 2 * v[0] + v[1]:
        ex_a = 3
    below = list(accumulate(v))  # below[n - 1] = f(0) + ... + f(n-1)
    return GrowthConditionReport(
        ex_a,
        next((n for n in range(1, n_max + 1) if v[n] < v[n - 1]), None),
        next((n for n in range(3, n_max + 1) if v[n] >= below[n - 1]), None))


def _weighted_steps(q):
    """S(q) per truncation point j, for qseries._walk_bounds: the partial
    sum, and q/(1-q)^3 plus the corrections j*q^j*(q^j-q)/((1-q^j)*(1-q))
    (nonpositive for j >= 2, zero at j = 1)."""
    leading = q / (1 - q) ** 3
    one_minus_q = 1 - q
    partial = iv.mpf(0)
    correction = iv.mpf(0)
    qj = iv.mpf(1)
    for j in count(1):
        qj = qj * q
        partial = partial + j * qj / (1 - qj)
        correction = correction + j * qj * (qj - q) / ((1 - qj) * one_minus_q)
        yield partial, leading + correction


def weighted_sum_upper(q: Fraction, ell: int):
    """Endpoint pair of S(q) over truncation points 2..ell, as F(q)'s is built."""
    return qseries._walk_bounds(q, DEFAULT_PRECISION_BITS, _weighted_steps)(ell)


MACHIN_GUARD_BITS = 64


def _arctan_inverse(x: int, w: int) -> tuple[int, int]:
    """(lo, hi) with lo < atan(1/x)*2^w < hi, for an integer x >= 2.

    atan(1/x) = sum_{k>=0} (-1)^k / ((2k+1) x^(2k+1)).  Each term scaled
    by 2^w is floored once from an exact integer quotient, so it loses
    less than a unit: an added term leaves the sum low and a subtracted
    one high, by less than 1 each, and the losses are counted by sign.
    The sum stops at the first term below a unit; the terms fall and
    alternate, so the tail lies strictly within one unit of 0.
    """
    one = 1 << w
    total = added = subtracted = 0
    power, k = x, 0  # power = x^(2k+1)
    while (2 * k + 1) * power <= one:
        term = one // ((2 * k + 1) * power)
        if k % 2:
            total -= term
            subtracted += 1
        else:
            total += term
            added += 1
        power *= x * x
        k += 1
    return total - subtracted - 1, total + added + 1


def machin_pi_bracket(bits: int) -> tuple[Fraction, Fraction]:
    """(lo, hi) with lo < pi < hi, by Machin's pi = 16 atan(1/5) - 4 atan(1/239).

    Both arctangents are integer series at 2^-(bits + MACHIN_GUARD_BITS)
    with counted floor losses (_arctan_inverse), so no mpmath routine, and
    no float, takes part.  The bracket is about 2^14 units of that scale
    wide at 4096 bits, far inside one unit of 2^-bits.
    """
    w = bits + MACHIN_GUARD_BITS
    lo5, hi5 = _arctan_inverse(5, w)
    lo239, hi239 = _arctan_inverse(239, w)
    return (Fraction(16 * lo5 - 4 * hi239, 1 << w),
            Fraction(16 * hi5 - 4 * lo239, 1 << w))


# p(k) for k = 1..50
PK_VALUES = [
    1, 2, 3, 5, 7, 11, 15, 22, 30, 42,
    56, 77, 101, 135, 176, 231, 297, 385, 490, 627,
    792, 1002, 1255, 1575, 1958, 2436, 3010, 3718, 4565, 5604,
    6842, 8349, 10143, 12310, 14883, 17977, 21637, 26015, 31185, 37338,
    44583, 53174, 63261, 75175, 89134, 105558, 124754, 147273, 173525, 204226,
]

# p(50,k) for k = 1..50
P50K_VALUES = [
    51,
    1276,
    20875,
    251126,
    2368708,
    18240890,
    117911248,
    652850403,
    3143939547,
    13327191287,
    50207862055,
    169422173829,
    515401493777,
    1421191021907,
    3568459118188,
    8190773240690,
    17243902126004,
    33393294003697,
    59630690096752,
    98399515067097,
    150323197512416,
    212938456376977,
    280067870621181,
    342413939297475,
    389526824102747,
    412637434996367,
    407312833046180,
    374834739612319,
    321717177399531,
    257604118720316,
    192465300826581,
    134186828954271,
    87302345518136,
    52999252173708,
    30018139013576,
    15859467681399,
    7814276022624,
    3589870410395,
    1537270615509,
    613479208559,
    228106170152,
    79012160892,
    25493798901,
    7662394094,
    2145558341,
    559858427,
    136194920,
    30906004,
    6547151,
    1295971,
]

# value of the infinite product prod_{j>=1} 1/(1 - (1/2)^j)
EULER_PRODUCT_HALF = 3.4627466194550636

# 25-digit bracket of the same product, cross-checked against a direct
# high-precision evaluation (mpmath.nprod at 200 bits); any certified
# enclosure must overlap it
EULER_PRODUCT_HALF_BRACKET = (
    "3.4627466194550636115379573",
    "3.4627466194550636115379574",
)

# valid upper bounds for q = 252/500 (enclosures must land below these)
Q252_PRODUCT_UPPER = "3.54029829"
Q252_WEIGHTED_UPPER = "2.81577392"
Q252_COMBINED_UPPER = "9.96867959"
