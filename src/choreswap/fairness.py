"""Exact checkers and factor computations for the fairness notions.

Envy quantification is over ordered pairs (i, h) with h != i; self-envy
is vacuous. Division-by-zero convention: a zero numerator over an empty
rival bundle is satisfied (ratio 0), a positive numerator over an empty
rival bundle is an Infinite factor.

Inputs and results are exact rationals. Comparisons are integer
cross-multiplications on per-row integer rescalings: every notion here
is invariant under scaling one agent's row (or the price vector) by a
positive constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Optional, Sequence, Union

from .errors import ChoreSwapError
from .market import _integer_prices
from .model import INFINITE, Allocation, Instance, bundle_disutility

DEFAULT_BUDGET = 1 << 22


def hat_d(inst: Instance, i: int, chores) -> Fraction:
    """d_i(S) minus the cheapest chore of S for agent i; 0 for |S| <= 1.

    Equals the worst single-removal residual max_{j in S} d_i(S \\ {j}).
    """
    chores = list(chores)
    total = bundle_disutility(inst, i, chores)
    if len(chores) <= 1:
        return Fraction(0)
    row = inst.integer_rows()[i]
    return total - Fraction(min(row[j] for j in chores), inst.row_scales()[i])


def _residual(vals, k: Optional[int] = None):
    """Total of a bundle's values (a list, which may be sorted in place)
    after dropping its k costliest, or, when k is None, its cheapest (0
    for at most one value). A k that is not a non-negative int raises
    ChoreSwapError: a negative slice would keep only the cheapest."""
    if k is None:
        return sum(vals) - min(vals) if len(vals) > 1 else 0
    if type(k) is not int or k < 0:
        raise ChoreSwapError(f"k must be a non-negative int, got {k!r}")
    vals.sort(reverse=True)
    return sum(vals[k:])


def _envy_terms(rows, X: Allocation, k: Optional[int] = None):
    """(nums, cross) for the allocation X under per-agent cost rows (ints,
    or Fractions): cross[i][h] is the cost of X_h under rows[i], and
    nums[i] the cost of X_i under rows[i] after the `_residual` removal.
    One pass over the owner vector per row gives both. X must allocate
    the len(rows[0]) chores among the len(rows) agents."""
    X.check_shape(len(rows), len(rows[0]))
    nums, cross = [], []
    for i, row in enumerate(rows):
        c, own = [0] * len(rows), []
        for o, v in zip(X.owners, row):
            c[o] += v
            if o == i:
                own.append(v)
        nums.append(_residual(own, k))
        cross.append(c)
    return nums, cross


def _worst_envy(nums, cross, agents=None):
    """Largest nums[i] / cross[i][h] over the given agents i (all by
    default) with nums[i] != 0 and every h != i, as an exact (num, den)
    pair: (0, 1) when nobody envies, den == 0 for an Infinite ratio."""
    worst_num, worst_den = 0, 1
    for i in range(len(nums)) if agents is None else agents:
        a = nums[i]
        if a == 0:
            continue
        for h, b in enumerate(cross[i]):
            if h == i:
                continue
            if b == 0:
                return a, 0
            if a * worst_den > worst_num * b:
                worst_num, worst_den = a, b
    return worst_num, worst_den


def _within(worst, lam) -> bool:
    """worst <= lam for a (num, den) pair of _worst_envy and a rational lam."""
    num, den = worst
    return num == 0 or (den != 0 and num * lam.denominator <= lam.numerator * den)


def _envy(rows, X: Allocation, k: Optional[int] = None):
    """_worst_envy of the allocation X under per-agent cost rows."""
    return _worst_envy(*_envy_terms(rows, X, k))


def _factor(worst) -> Union[Fraction, object]:
    """The ratio of a (num, den) pair of _worst_envy: INFINITE if den == 0."""
    num, den = worst
    return INFINITE if den == 0 else Fraction(num, den)


def efx_factor(inst: Instance, X: Allocation) -> Union[Fraction, object]:
    """Minimum lambda >= 0 such that X is lambda-EFX, or INFINITE."""
    return _factor(_envy(inst.integer_rows(), X))


def is_alpha_efx(inst: Instance, X: Allocation, lam: Fraction) -> bool:
    """True iff d_i(X_i \\ {j}) <= lam * d_i(X_h) for all i, h != i, j in X_i."""
    return _within(_envy(inst.integer_rows(), X), lam)


def is_alpha_efk(inst: Instance, X: Allocation, alpha: Fraction, k: int) -> bool:
    """True iff each agent, after dropping her k largest own chores, is
    within factor alpha of every rival bundle."""
    return _within(_envy(inst.integer_rows(), X, k), alpha)


def _price_envy(inst: Instance, X: Allocation, p: Sequence[Fraction], k: Optional[int]):
    """_worst_envy of X under p rescaled to a positive integer row P, one
    price per chore: the earnings serve as every agent's cross sums. The
    price length and signs are checked before the shape of X."""
    P = _integer_prices(inst, p)
    X.check_shape(inst.n, inst.m)
    own = [[P[j] for j in b] for b in X.bundles()]
    return _worst_envy([_residual(vals, k) for vals in own], [list(map(sum, own))] * X.n)


def is_pefk(
    inst: Instance, X: Allocation, p: Sequence[Fraction], alpha: Fraction, k: int
) -> bool:
    """Price-EFk: p_{-k}(X_i) <= alpha * p(X_h) for all i, h != i."""
    return _within(_price_envy(inst, X, p, k), alpha)


def is_pefx(
    inst: Instance, X: Allocation, p: Sequence[Fraction], alpha: Fraction
) -> bool:
    """Price-EFX: earnings after excluding the least priced own chore."""
    return _within(_price_envy(inst, X, p, None), alpha)


@dataclass(frozen=True)
class PoResult:
    status: str  # "po", "dominated", "budget-exceeded"
    witness: Optional[Allocation] = None

    @property
    def is_po(self) -> bool:
        return self.status == "po"


_PO = PoResult("po")  # frozen, so every PO verdict shares it


def is_po_bruteforce(
    inst: Instance, X: Allocation, budget: int = DEFAULT_BUDGET
) -> PoResult:
    """Pareto check: first dominating allocation in owner-vector
    lexicographic order, or PO. Intended for n^m <= budget.

    A depth-first search over owner vectors, chores and agents in index
    order, with two sound cuts on the integer rows. Every agent must stay
    at or below her cost in X. And since a dominating allocation costs
    one agent strictly less and none more, its total cost is below X's
    total `goal`: a node at chore j with assigned cost `cost` is cut when
    cost + rest[j] >= goal, where rest[j] is the cost of chores j.. each
    at its cheapest row. At a leaf that cut is the strict-improvement
    test. The cuts drop only subtrees without a dominating leaf, so the
    result has the same verdict and witness as the exhaustive search.

    The cut at the root, rest[0] >= goal, means no allocation costs less
    in total than X, so X is PO; it is tested before the search state is
    built. Every PO verdict is one shared `PoResult("po")`, which is
    frozen and equal to a fresh one.
    """
    X.check_shape(inst.n, inst.m)
    n, m = inst.n, inst.m
    if n**m > budget:
        return PoResult("budget-exceeded")
    cols = list(zip(*inst.integer_rows()))  # cols[j][a]: chore j's cost to agent a
    targets = [0] * n
    for o, col in zip(X.owners, cols):
        targets[o] += col[o]
    goal = sum(targets)
    rest = list(accumulate(map(min, reversed(cols)), initial=0))[::-1]
    if rest[0] >= goal:
        return _PO

    owners = [0] * m
    sums = [0] * n

    def dfs(j: int, cost: int):
        # Entered only with cost + rest[j] < goal: at a leaf, a strict gain.
        if j == m:
            return tuple(owners)
        bound = goal - rest[j + 1]
        for a, w in enumerate(cols[j]):
            if sums[a] + w > targets[a] or cost + w >= bound:
                continue
            owners[j] = a
            sums[a] += w
            hit = dfs(j + 1, cost + w)
            sums[a] -= w
            if hit is not None:
                return hit
        return None

    hit = dfs(0, 0)
    return _PO if hit is None else PoResult("dominated", Allocation(n, hit))


def envy_report(inst: Instance, X: Allocation, k: Optional[int] = None) -> str:
    """Pairwise envy quantities in the instance's own units, as CSV text:
    a header, then one row i,h,notion,numerator,denominator,ratio per
    ordered pair of distinct 1-based agents. The numerators are the EFX
    worst-removal ones by default, EFk removal of the k largest chores
    when k is given. A zero numerator has ratio 0, a positive one over
    an empty rival bundle the Infinite ratio."""
    nums, cross = _envy_terms(inst.d, X, k)
    notion = "efx" if k is None else f"ef{k}"
    out = ["i,h,notion,numerator,denominator,ratio"]
    for i, a in enumerate(nums):
        for h, b in enumerate(cross[i]):
            if h != i:
                ratio = 0 if a == 0 else INFINITE if b == 0 else Fraction(a, b)
                out.append(f"{i + 1},{h + 1},{notion},{a},{b},{ratio}")
    return "\n".join(out) + "\n"
