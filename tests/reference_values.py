"""Frozen golden values used across the test suite.

The 50-row table lists (p(k), p(50,k)) for k = 1..50.  These are
long-established reference values for the partition function and the
binomial partition sums; the suite treats them as an external oracle
that the implementation must reproduce exactly.  mpf_to_fraction reads
high-precision mpmath reference values exactly.
"""

from fractions import Fraction


def mpf_to_fraction(x) -> Fraction:
    """Exact value of a finite mpf (a dyadic rational) as a Fraction."""
    sign, man, exp, _ = x._mpf_
    value = Fraction(int(man)) * Fraction(2) ** exp
    return -value if sign else value


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
