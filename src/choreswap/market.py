"""Minimum-pain-per-buck machinery.

MPB ratios and sets, MPB-allocation checking (an MPB allocation is fPO),
and exact price feasibility for a given integral allocation via a
multiplicative difference-constraint system over one scalar per agent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Union

from .errors import EmptyBundle, PriceLengthMismatch
from .model import Allocation, Instance


@dataclass(frozen=True)
class MpbView:
    alpha: tuple  # per-agent MPB ratio
    mpb_sets: tuple  # per-agent frozenset of argmin chores


def mpb_view(inst: Instance, p: Sequence[Fraction]) -> MpbView:
    """Exact MPB ratios alpha_i = min_j d_ij / p_j and their argmin sets."""
    if len(p) != inst.m:
        raise PriceLengthMismatch(f"expected {inst.m} prices, got {len(p)}")
    alphas = []
    sets = []
    for i in range(inst.n):
        row = inst.d[i]
        best = None
        argmin = []
        for j in range(inst.m):
            r = row[j] / p[j]
            if best is None or r < best:
                best = r
                argmin = [j]
            elif r == best:
                argmin.append(j)
        alphas.append(best)
        sets.append(frozenset(argmin))
    return MpbView(tuple(alphas), tuple(sets))


def is_mpb_allocation(inst: Instance, X: Allocation, p: Sequence[Fraction]) -> bool:
    """True iff every assigned chore attains its owner's MPB ratio.

    A true result certifies that X is fPO (First Welfare Theorem). X may
    be partial; unassigned chores only shape the ratios.
    """
    if len(p) != inst.m:
        raise PriceLengthMismatch(f"expected {inst.m} prices, got {len(p)}")
    view = mpb_view(inst, p)
    for j, owner in enumerate(X.owners):
        if owner is not None and j not in view.mpb_sets[owner]:
            return False
    return True


@dataclass(frozen=True)
class RatioConstraint:
    """value(u) <= c * value(v), with c a positive rational."""

    u: int
    v: int
    c: Fraction

    def __str__(self):
        return f"x{self.u} <= {self.c} * x{self.v}"


@dataclass(frozen=True)
class RatioConstraintSystem:
    num_vars: int
    constraints: tuple


@dataclass(frozen=True)
class InfeasibilityCycle:
    """Witness cycle of constraints whose coefficient product is < 1."""

    constraints: tuple

    @property
    def product(self) -> Fraction:
        prod = Fraction(1)
        for c in self.constraints:
            prod *= c.c
        return prod

    def __str__(self):
        chain = " ; ".join(str(c) for c in self.constraints)
        return f"cycle product {self.product} < 1: {chain}"


def solve_ratio_system(
    sys: RatioConstraintSystem,
) -> Union[List[Fraction], InfeasibilityCycle]:
    """Positive assignment satisfying every constraint, or a witness cycle.

    Labels start at 1 (a virtual source) and relax multiplicatively in
    deterministic (u, v) order; a relaxation surviving num_vars passes
    exposes a cycle with product < 1.
    """
    n = sys.num_vars
    cons = sorted(sys.constraints, key=lambda c: (c.u, c.v, c.c))
    labels = [Fraction(1)] * n
    pred: List[Optional[RatioConstraint]] = [None] * n
    for _ in range(n):
        changed = False
        for con in cons:
            cand = con.c * labels[con.v]
            if cand < labels[con.u]:
                labels[con.u] = cand
                pred[con.u] = con
                changed = True
        if not changed:
            return labels
    for con in cons:
        if con.c * labels[con.v] < labels[con.u]:
            pred[con.u] = con
            # Walk predecessors n steps to land inside the cycle.
            node = con.u
            for _ in range(n):
                node = pred[node].v
            cycle = []
            cur = node
            while True:
                edge = pred[cur]
                cycle.append(edge)
                cur = edge.v
                if cur == node:
                    break
            cycle.reverse()
            return InfeasibilityCycle(tuple(cycle))
    return labels


def mpb_constraints(inst: Instance, bundles) -> List[RatioConstraint]:
    """Cross-agent MPB inequalities reduced to agent scalars t_i.

    With p_j = d_ij * t_i for j held by i, (X, p) is an MPB allocation
    iff t_k <= (d_ij / d_kj) * t_i for every i and every j held by k.
    One constraint per ordered pair, using the tightest chore.
    """
    cons = []
    for k in range(inst.n):
        if not bundles[k]:
            continue
        for i in range(inst.n):
            if i == k:
                continue
            c = min(inst.d[i][j] / inst.d[k][j] for j in bundles[k])
            cons.append(RatioConstraint(k, i, c))
    return cons


def mpb_price_feasibility(
    inst: Instance, X: Allocation
) -> Union[tuple, InfeasibilityCycle]:
    """Positive prices making (X, p) an MPB allocation, or a witness cycle.

    Within a bundle the MPB equalities pin relative prices to disutilities,
    leaving one free scalar per agent; the cross-agent inequalities become
    a RatioConstraintSystem solved exactly.
    """
    bundles = X.bundles()
    for i, b in enumerate(bundles):
        if not b:
            raise EmptyBundle(i)
    sys = RatioConstraintSystem(inst.n, tuple(mpb_constraints(inst, bundles)))
    res = solve_ratio_system(sys)
    if isinstance(res, InfeasibilityCycle):
        return res
    prices = [None] * inst.m
    for j, owner in enumerate(X.owners):
        prices[j] = inst.d[owner][j] * res[owner]
    return tuple(prices)
