"""Minimum-pain-per-buck machinery.

MPB ratios and sets, MPB-allocation checking (an MPB allocation is fPO),
and exact price feasibility for a given integral allocation: one ratio
edge per ordered pair of agents, built from the integer rows and solved
for one scalar per agent by an integer Bellman-Ford. Prices are
Fractions only where they cross the module boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

from .errors import EmptyBundle, NonPositivePrice, PriceLengthMismatch
from .model import Allocation, Instance, _scaled_row


def mpb_ratio(row, price) -> Tuple[int, int]:
    """An agent's least value per price, min_j row[j] / price[j], as an
    integer pair (row[j], price[j]) at the first chore attaining it,
    compared by cross-multiplication. row and price are nonempty integer
    sequences with positive prices."""
    a, b = row[0], price[0]
    for r, p in zip(row, price):
        if r * b < a * p:
            a, b = r, p
    return a, b


def _positive_prices(m: int, P: Sequence[int], unit: int) -> Sequence[int]:
    """P, the integer prices P[j] / unit with unit > 0, after checking that
    there are m of them and that all are positive."""
    if len(P) != m:
        raise PriceLengthMismatch(f"expected {m} prices, got {len(P)}")
    if min(P, default=1) <= 0:
        raise NonPositivePrice(f"prices must be positive, got {Fraction(min(P), unit)}")
    return P


def _integer_prices(inst: Instance, p: Sequence[Fraction]) -> list:
    """p rescaled to positive integers; raises on a wrong length or a
    price that is not positive."""
    return _positive_prices(inst.m, *_scaled_row(p))  # same signs as p


@dataclass(frozen=True)
class MpbView:
    alpha: tuple  # per-agent MPB ratio
    mpb_sets: tuple  # per-agent frozenset of argmin chores


def mpb_view(inst: Instance, p: Sequence[Fraction]) -> MpbView:
    """Exact MPB ratios alpha_i = min_j d_ij / p_j and their argmin sets,
    from `mpb_ratio` on positively rescaled integer rows and prices (so
    prices must be positive)."""
    P = _integer_prices(inst, p)
    if not P:
        return MpbView((None,) * inst.n, (frozenset(),) * inst.n)
    alphas = []
    sets = []
    for i, row in enumerate(inst.integer_rows()):
        a, b = mpb_ratio(row, P)
        argmin = [j for j, (r, q) in enumerate(zip(row, P)) if r * b == a * q]
        alphas.append(inst.d[i][argmin[0]] / p[argmin[0]])
        sets.append(frozenset(argmin))
    return MpbView(tuple(alphas), tuple(sets))


def mpb_holds(rows, P, owners) -> bool:
    """True iff every chore j attains its owner's `mpb_ratio` under the
    integer rows and the positive integer prices P, owners[j] being the
    owner of chore j."""
    ratios = [mpb_ratio(row, P) for row in rows] if P else []
    for j, o in enumerate(owners):
        a, b = ratios[o]
        if rows[o][j] * b != a * P[j]:
            return False
    return True


def is_mpb_allocation(inst: Instance, X: Allocation, p: Sequence[Fraction]) -> bool:
    """True iff every chore attains its owner's MPB ratio: `mpb_holds` on
    the integer rows and p rescaled to integers.

    A true result certifies that X is fPO (First Welfare Theorem).
    """
    X.check_shape(inst.n, inst.m)
    return mpb_holds(inst.integer_rows(), _integer_prices(inst, p), X.owners)


@dataclass(frozen=True)
class InfeasibilityCycle:
    """Witness cycle of edges (u, v, a, b), each x_u <= (a / b) * x_v,
    whose coefficient product is < 1."""

    edges: tuple

    @property
    def product(self) -> Fraction:
        num = math.prod(a for _, _, a, _ in self.edges)
        return Fraction(num, math.prod(b for _, _, _, b in self.edges))

    def __str__(self):
        chain = " ; ".join(f"x{u} <= {Fraction(a, b)} * x{v}" for u, v, a, b in self.edges)
        return f"cycle product {self.product} < 1: {chain}"


def solve_ratio_system(
    n: int, edges: Sequence[tuple]
) -> Union[List[Tuple[int, int]], InfeasibilityCycle]:
    """Integer Bellman-Ford for x_u <= (a / b) * x_v over n variables, one
    edge (u, v, a, b) with positive integers a, b each, relaxed in the
    given order.

    Labels are unreduced integer pairs (num, den), den > 0, compared by
    cross-multiplication. Every label starts at 1 (a virtual source); a
    pass that changes nothing ends the search, and a relaxation surviving
    n passes exposes a cycle with product < 1, found through `pred`.
    Returns the labels, or the cycle's edges in order as a witness.
    """
    num, den = [1] * n, [1] * n
    pred: List[Optional[int]] = [None] * n
    for rnd in range(n + 1):
        changed = False
        for idx, (u, v, a, b) in enumerate(edges):
            if a * num[v] * den[u] < num[u] * b * den[v]:
                pred[u] = idx
                if rnd == n:
                    # Walk predecessors n steps to land inside the cycle.
                    for _ in range(n):
                        u = edges[pred[u]][1]
                    cycle, cur = [], u
                    while not cycle or cur != u:
                        cycle.append(edges[pred[cur]])
                        cur = edges[pred[cur]][1]
                    return InfeasibilityCycle(tuple(cycle[::-1]))
                num[u], den[u] = a * num[v], b * den[v]
                changed = True
        if not changed:
            break
    return list(zip(num, den))


def mpb_price_feasibility(
    inst: Instance, X: Allocation
) -> Union[tuple, InfeasibilityCycle]:
    """Positive prices making (X, p) an MPB allocation, or a witness cycle.

    Within a bundle the MPB equalities pin relative prices to disutilities,
    p_j = d_ij * t_i for j held by i, leaving one free scalar t_i per
    agent. (X, p) is then MPB iff t_k <= (d_ij / d_kj) * t_i for every
    i != k and every j held by k. One edge per ordered pair (k, i), in
    k-major order, keeps the tightest such chore, found by `mpb_ratio` on
    the integer rows: with s the row scales, d_ij / d_kj is
    (rows[i][j] * s_k) / (rows[k][j] * s_i). `solve_ratio_system` solves
    the edges exactly; only the returned prices are Fractions.
    """
    X.check_shape(inst.n, inst.m)
    bundles = X.bundles()
    for i, b in enumerate(bundles):
        if not b:
            raise EmptyBundle(i)
    rows, scales = inst.integer_rows(), inst.row_scales()
    edges = []
    for k, bundle in enumerate(bundles):
        own = [rows[k][j] for j in bundle]
        for i in range(inst.n):
            if i != k:
                a, b = mpb_ratio([rows[i][j] for j in bundle], own)
                edges.append((k, i, a * scales[k], b * scales[i]))
    res = solve_ratio_system(inst.n, edges)
    if isinstance(res, InfeasibilityCycle):
        return res
    return tuple(
        Fraction(rows[o][j] * res[o][0], scales[o] * res[o][1]) for j, o in enumerate(X.owners)
    )
