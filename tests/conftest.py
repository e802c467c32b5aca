"""Shared test fixtures: the three worked instances, a row rescaling
helper, a pEF1+MPB start from Fraction prices and a builder for rounded
market-equilibrium inputs feeding the 4-EFX pipeline."""

import math
import random
from fractions import Fraction

from choreswap import Allocation, Instance
from choreswap.model import integer_row
from choreswap.pipelines import Pef1Solution


def F(a, b=1):
    return Fraction(a, b)


def make_instance(rows):
    return Instance(tuple(tuple(Fraction(v) for v in row) for row in rows))


def scale_rows(inst, factors):
    """A copy of inst with row i multiplied by factors[i] (> 0 each)."""
    return Instance(tuple(tuple(v * f for v in row) for row, f in zip(inst.d, factors)))


def pef1_start(x, prices):
    """A Pef1Solution pricing chore j at prices[j] (ints or Fractions): the
    prices times the lcm of their denominators, with that lcm as unit."""
    p = [Fraction(v) for v in prices]
    return Pef1Solution(x, tuple(integer_row(p)), math.lcm(*[v.denominator for v in p]))


def inst_i1():
    return make_instance([[1, 1, 10], [1, 1, 10]])


def inst_i2():
    return make_instance([[1, 2, 3, 4], [4, 3, 2, 1]])


def inst_i3():
    return make_instance([[1, 3, 1, 100], [1, 3, 1, 100]])


HALF = Fraction(1, 2)


def rounded_fixture(seed, high_counts, low_counts):
    """Random rounded equilibrium input for a given shape.

    high_counts[i] / low_counts[i] give the number of chores priced above
    and at-or-below 1/2 that agent i holds. Prices are drawn so that the
    five rounding properties hold by construction; disutilities equal
    prices on held chores and exceed them elsewhere.
    """
    rng = random.Random(seed)
    n = len(high_counts)
    chores = []  # (owner, price)
    for i in range(n):
        hc, lc = high_counts[i], low_counts[i]
        assert hc <= 2
        for _ in range(hc):
            chores.append((i, Fraction(rng.randint(51, 150), 100)))
        budget = [Fraction(3, 2), Fraction(1), HALF][hc]
        lows = []
        for t in range(lc):
            cap = min(HALF, budget / lc)
            price = Fraction(rng.randint(1, int(cap * 100)), 100)
            lows.append(price)
        if hc == 0:
            # property (v) needs total earnings >= 1/2
            assert lc >= 1
            lows[0] = HALF
            for t in range(1, lc):
                lows[t] = min(lows[t], Fraction(1, max(1, lc - 1)))
        for price in lows:
            chores.append((i, price))
    m = len(chores)
    owners = tuple(c[0] for c in chores)
    p = tuple(c[1] for c in chores)
    d = [[None] * m for _ in range(n)]
    for i in range(n):
        for j in range(m):
            if owners[j] == i:
                d[i][j] = p[j]
            else:
                d[i][j] = p[j] * (1 + Fraction(rng.randint(0, 8), 4))
    inst = Instance(tuple(tuple(row) for row in d))
    return inst, Allocation(n, owners), p


# Shape corpus for the 4-EFX pipeline: (seed, high_counts, low_counts).
# The first group re-allocates exactly one high chore per agent (no agent
# ends up with two); the later groups have more high chores than agents,
# so every agent receives at least one.
ROUNDED_SHAPES = (
    [(s, [1, 1], [2, 2]) for s in range(6)]
    + [(s, [2, 2], [1, 1]) for s in range(6, 10)]
    + [(s, [1, 1, 1], [2, 2, 1]) for s in range(10, 13)]
    + [(s, [2, 2, 1], [1, 1, 1]) for s in range(13, 16)]
    + [(s, [2, 1, 0], [1, 2, 3]) for s in range(16, 18)]
    + [(s, [1, 1, 1, 1], [2, 2, 1, 1]) for s in range(18, 20)]
    + [(s, [2, 2, 2, 2], [1, 1, 1, 1]) for s in range(20, 22)]
    + [(s, [2, 0], [1, 4]) for s in range(22, 24)]
)
