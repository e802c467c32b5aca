"""Application pipelines: each produces a starting allocation plus a valid
friendly certificate, then delegates to the swap framework.

- solve_2efx: pEF1+MPB search, strict certificate with lambda = 2
- solve_bivalued: {1,k} prices, weak certificate with lambda = 2 - 1/k, PO
- solve_small_m: two-phase round robin, weak certificate with lambda = 1
- solve_4efx: rounded earning-restricted input, strict certificate, lambda = 4
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .errors import (
    BudgetExceeded,
    CouplingUnsatisfiable,
    InvariantViolation,
    NotBivalued,
    PostconditionViolated,
    RhoNotLessThanK,
    RoundedInputInvalid,
    TooManyChores,
)
from .fairness import (
    DEFAULT_BUDGET,
    efx_factor,
    is_alpha_efx,
    is_pefk,
)
from .framework import FriendlyCertificate, SwapTrace, chore_swap, run_framework
from .market import (
    InfeasibilityCycle,
    is_mpb_allocation,
    mpb_price_feasibility,
    ratio_labels,
)
from .model import Allocation, Instance, allocation_from_bundles

NO_PEF1_MPB = "no pEF1+MPB allocation found within budget (existence finding)"
CANDIDATE_CAP = 5000


@dataclass(frozen=True)
class Pef1Solution:
    """An integral MPB allocation that is price-EF1, with its prices."""

    x: Allocation
    p: tuple


@dataclass
class SolveResult:
    x: Allocation
    trace: SwapTrace
    method: str
    cert: Optional[FriendlyCertificate] = None
    prices: Optional[tuple] = None
    notes: List[str] = field(default_factory=list)
    start: Optional[Allocation] = None  # run_framework's input; None if it did not run


def _trivial_trace(inst: Instance, X: Allocation, lam: Fraction, mode: str) -> SwapTrace:
    t = SwapTrace(lam=lam, mode=mode)
    t.final_factor = efx_factor(inst, X)
    return t


class _Pef1Search:
    """Lexicographic DFS over owner vectors with sound pruning.

    Pruning never changes the first feasible allocation found: branches
    are cut only when no completion can be MPB-feasible (a two-cycle of
    ratio constraints already multiplies below 1) or when too few chores
    remain to fill every empty bundle (only enforced when m >= n).
    """

    def __init__(self, inst: Instance, budget: int):
        self.inst = inst
        self.n, self.m = inst.n, inst.m
        if self.n**self.m > budget:
            raise BudgetExceeded(f"{self.n}^{self.m} allocations exceed budget {budget}")
        self.rows = inst.integer_rows()
        n, m = self.n, self.m
        self.owners = [None] * m
        # cmin[i][k]: least rows[i][j] / rows[k][j] over j in X_k, kept as
        # the integer pair (rows[i][j], rows[k][j]); None while X_k is empty.
        self.cmin = [[None] * n for _ in range(n)]
        self.sums = [0] * n
        self.maxv = [0] * n
        self.counts = [0] * n

    def leaf_check(self):
        """Return prices (tuple of Fractions) if the current complete
        allocation admits MPB + pEF1 prices, else None.

        With p_j = rows[o][j] * t_o, MPB is t_k <= cmin[i][k] * t_i and pEF1
        is t_i <= sums[h] / (sums[i] - maxv[i]) * t_h, both integer pairs.
        Each ordered pair keeps its smaller coefficient: in the full list,
        sorted by (u, v, c), the smaller c relaxes first (or holds), after
        which x_u <= c * x_v and the larger c never relaxes, in any pass.
        """
        n, cmin, sums, maxv = self.n, self.cmin, self.sums, self.maxv
        edges = []
        for u in range(n):
            rest = sums[u] - maxv[u]
            for v in range(n):
                if v == u:
                    continue
                c = cmin[v][u]
                if rest > 0:
                    if sums[v] == 0:
                        return None
                    if c is None or sums[v] * c[1] < c[0] * rest:
                        c = (sums[v], rest)
                if c is not None:
                    edges.append((u, v, *c))
        labels, cycle = ratio_labels(n, edges)
        if cycle is not None:
            return None
        return tuple(
            Fraction(self.rows[o][j] * labels[o][0], labels[o][1])
            for j, o in enumerate(self.owners)
        )

    def iter_solutions(self):
        """All feasible solutions in owner-vector lexicographic order."""
        for owners, prices in self._dfs(0):
            yield Pef1Solution(Allocation(self.n, owners), prices)

    def _dfs(self, j: int):
        n, m = self.n, self.m
        if j == m:
            prices = self.leaf_check()
            if prices is not None:
                yield tuple(self.owners), prices
            return
        if m >= n:
            empties = sum(1 for c in self.counts if c == 0)
            if m - j < empties:
                return
        rows, cmin = self.rows, self.cmin
        for a in range(n):
            w = rows[a][j]
            saved = [cmin[i][a] for i in range(n)]
            ok = True
            for i in range(n):
                if i == a:
                    continue
                # Ratios are (num, den) pairs with den > 0, compared by
                # cross-multiplication.
                cur = saved[i]
                w_i = rows[i][j]
                if cur is None or w_i * cur[1] < cur[0] * w:
                    cur = cmin[i][a] = (w_i, w)
                back = cmin[a][i]
                if back is not None and cur[0] * back[0] < cur[1] * back[1]:
                    ok = False
                    break
            if ok:
                self.owners[j] = a
                self.sums[a] += w
                om = self.maxv[a]
                if w > om:
                    self.maxv[a] = w
                self.counts[a] += 1
                yield from self._dfs(j + 1)
                self.counts[a] -= 1
                self.maxv[a] = om
                self.sums[a] -= w
                self.owners[j] = None
            for i in range(n):
                cmin[i][a] = saved[i]


def search_pef1_mpb(inst: Instance, budget: int = DEFAULT_BUDGET) -> Optional[Pef1Solution]:
    """First complete allocation, in owner-vector lexicographic order, that
    admits prices making it an MPB allocation that is pEF1."""
    return next(_Pef1Search(inst, budget).iter_solutions(), None)


class _BivaluedSearch(_Pef1Search):
    """pEF1+MPB search with prices restricted to {1, k} on an instance whose
    values are all 1 or k (k >= 1). Generic MPB pruning stays sound: a
    {1,k}-priced solution is in particular an unrestricted one.

    The leaf check is integer-only. For k > 1, every ratio d/p with d and p
    in {1, k} is k^e with e = [d = k] - [p = k] in {-1, 0, 1}, and k^e
    orders as e does, so agent a is MPB iff every chore in its bundle has
    a's least exponent over all chores. Agent a's MPB bundle has one
    ratio, so its prices are all 1, all k, or (when a values it at both 1
    and k) equal to a's values; those are the per-agent options, tried in
    `itertools.product` order. Earnings are counted in units of
    1/k.denominator: price 1 is k.denominator and price k is k.numerator.
    Both are positive integers, so sums and the pEF1 comparisons are exact
    on that common scale. With k = 1 every ratio is 1 and every price is 1.
    """

    def __init__(self, inst: Instance, k: Fraction, budget: int):
        super().__init__(inst, budget)
        self.k = k
        self.flat = k == 1
        self.unit, self.k_units = k.denominator, k.numerator
        # high[a][j] = [d[a][j] = k], for k > 1 (all 0 when k = 1).
        self.high = [[int(v != 1) for v in row] for row in inst.d]

    def leaf_check(self):
        n, m, high = self.n, self.m, self.high
        unit, k_units = self.unit, self.k_units
        bundles = [[] for _ in range(n)]
        for j, o in enumerate(self.owners):
            bundles[o].append(j)
        # Per agent: (in-bundle exponent, earning, top price, chores priced k).
        options = []
        for a, b in enumerate(bundles):
            size = len(b)
            if not size:
                options.append([(None, 0, 0, ())])
                continue
            n_high = sum(high[a][j] for j in b)
            if self.flat:
                options.append([(0, size * unit, unit, ())])
            elif 0 < n_high < size:
                earn = n_high * k_units + (size - n_high) * unit
                options.append([(0, earn, k_units, tuple(j for j in b if high[a][j]))])
            else:
                e = high[a][b[0]]
                options.append(
                    [
                        (e, size * unit, unit, ()),
                        (e - 1, size * k_units, k_units, tuple(b)),
                    ]
                )
        for combo in itertools.product(*options):
            if not _is_pef1(combo):
                continue
            priced_k = [0] * m
            for _, _, _, chores in combo:
                for j in chores:
                    priced_k[j] = 1
            if all(
                e is None or min(map(operator.sub, high[a], priced_k)) == e
                for a, (e, _, _, _) in enumerate(combo)
            ):
                k, one = self.k, Fraction(1)
                return tuple(k if f else one for f in priced_k)
        return None


def _is_pef1(combo) -> bool:
    """pEF1 on integer earnings: no agent's earning without its top price
    exceeds another agent's earning."""
    earn = [o[1] for o in combo]
    for i, (_, e_i, top, _) in enumerate(combo):
        rest = e_i - top
        if rest and any(rest > e_h for h, e_h in enumerate(earn) if h != i):
            return False
    return True


def _price_split(sol: Pef1Solution) -> Tuple[Fraction, List[Fraction]]:
    """The least earning rho and, per bundle, its highest price. Both
    certificate rules put an agent in N_H by comparing the two."""
    bundles = sol.x.bundles()
    rho = min(sum((sol.p[j] for j in b), Fraction(0)) for b in bundles)
    return rho, [max(sol.p[j] for j in b) for b in bundles]


def certificate_from_pef1(inst: Instance, sol: Pef1Solution) -> FriendlyCertificate:
    """Split agents by whether their highest-priced chore exceeds the least
    earner's income. Yields a valid strict certificate with lambda = 2.

    The certificate holds for `inst` as given: every certificate
    inequality compares one agent's own values, so scaling a row (as by
    1/alpha_i, which turns MPB values into prices) changes none of them.
    """
    if not is_mpb_allocation(inst, sol.x, sol.p):
        raise InvariantViolation("solution is not an MPB allocation")
    if not is_pefk(inst, sol.x, sol.p, Fraction(1), 1):
        raise InvariantViolation("solution is not pEF1")
    rho, top = _price_split(sol)
    nh = frozenset(i for i, t in enumerate(top) if t > rho)
    return FriendlyCertificate(Fraction(2), frozenset(range(inst.n)) - nh, nh, weak=False)


def solve_2efx(inst: Instance, budget: int = DEFAULT_BUDGET) -> SolveResult:
    """pEF1+MPB search, certificate construction, swap framework. The
    output is always verified 2-EFX. A search that finds no pEF1+MPB
    allocation raises PostconditionViolated: that would itself be a
    reportable finding."""
    sol = search_pef1_mpb(inst, budget)
    if sol is None:
        raise PostconditionViolated(NO_PEF1_MPB)
    if any(not b for b in sol.x.bundles()):
        # Only reachable when m < n: the pEF1 prices force singleton
        # bundles, which are exactly EFX already.
        trace = _trivial_trace(inst, sol.x, Fraction(2), "strict")
        return SolveResult(sol.x, trace, "pef1", prices=sol.p, notes=["m<n singleton"])
    cert = certificate_from_pef1(inst, sol)
    x, trace = run_framework(inst, sol.x, cert)
    return SolveResult(x, trace, "pef1", cert=cert, prices=sol.p, start=sol.x)


def _bivalued_candidate(
    norm: Instance, k: Fraction, lam: Fraction, sol: Pef1Solution, notes
) -> Optional[SolveResult]:
    """Run one pEF1+MPB candidate through the bivalued pipeline. Returns
    None when the run loses the MPB condition beyond repair (the caller
    then tries the next candidate)."""
    if is_alpha_efx(norm, sol.x, lam):
        trace = _trivial_trace(norm, sol.x, lam, "weak")
        return SolveResult(
            sol.x, trace, "bivalued", prices=sol.p, notes=notes + ["early-exit"]
        )
    rho, top = _price_split(sol)
    if not rho < k:
        raise RhoNotLessThanK(
            f"least earning {rho} >= k = {k} contradicts the bivalued derivation"
        )
    # Unlike the pEF1 rule, compare with k: unrestricted fallback prices
    # need not lie in {1, k}.
    nh = frozenset(i for i, t in enumerate(top) if t >= k)
    cert = FriendlyCertificate(lam, frozenset(range(norm.n)) - nh, nh, weak=True)
    x, trace = run_framework(norm, sol.x, cert)
    prices = sol.p
    steps = [trace.phase1]
    for swap in trace.swaps:
        steps.append(chore_swap(steps[-1], *swap))
    if not all(is_mpb_allocation(norm, step, prices) for step in steps):
        # A Phase-1 pick or a swap can hand an agent a chore outside her
        # MPB set when the round-robin tie-break is unlucky; the output
        # is still PO if the final allocation admits fresh MPB prices.
        fresh = mpb_price_feasibility(norm, x)
        if isinstance(fresh, InfeasibilityCycle):
            return None
        prices = fresh
        notes = notes + ["repriced: reallocation broke the maintained MPB prices"]
    return SolveResult(
        x, trace, "bivalued", cert=cert, prices=prices, notes=notes, start=sol.x
    )


def _bivalued_starts(norm: Instance, k: Fraction, budget: int):
    """Starting points for solve_bivalued, each with the notes it carries:
    the {1,k}-priced pEF1+MPB solutions in lexicographic order or, when
    there is none, the unrestricted ones."""
    found = False
    for sol in _BivaluedSearch(norm, k, budget).iter_solutions():
        found = True
        yield [], sol
    if not found:
        fallback = ["no {1,k}-priced pEF1+MPB solution; unrestricted fallback"]
        for sol in _Pef1Search(norm, budget).iter_solutions():
            yield fallback, sol


def solve_bivalued(inst: Instance, budget: int = DEFAULT_BUDGET) -> SolveResult:
    """(2 - 1/k)-EFX + PO for {1,k}-valued instances, carrying an MPB price
    certificate for the final allocation.

    pEF1+MPB starting points are tried in lexicographic order until one
    survives the swap framework with Pareto optimality intact; any valid
    starting point gives the EFX factor, but the round-robin tie-breaks
    can lose the MPB property for some of them. When none of the first
    CANDIDATE_CAP starting points survives, or there is none, it raises
    PostconditionViolated.
    """
    k = inst.bivalued_k()
    if k is None:
        raise NotBivalued("instance has more than two distinct disutility values")
    lo = min(v for row in inst.d for v in row) if inst.m else Fraction(1)
    norm = Instance(tuple(tuple(v / lo for v in row) for row in inst.d))
    lam = 2 - 1 / k
    tried = 0
    for notes, sol in _bivalued_starts(norm, k, budget):
        tried += 1
        if tried > CANDIDATE_CAP:
            break
        if tried > 1:
            notes = notes + [
                f"skipped {tried - 1} starting points that lost the MPB condition"
            ]
        res = _bivalued_candidate(norm, k, lam, sol, notes)
        if res is not None:
            return res
    raise PostconditionViolated(
        "no pEF1+MPB starting point yields a PO outcome within budget "
        f"(tried {tried}; existence finding)" if tried else NO_PEF1_MPB
    )


def _round_robin_two_phase(inst: Instance) -> Allocation:
    """Phase A: agents r..1 (r = m - n) pick their cheapest chore; Phase B:
    agents 1..n pick again, while chores remain. Ties to the lowest chore index. With
    m <= n Phase A is empty and each agent gets at most one chore. Picks
    compare integer rows, positive rescalings of d with the same order."""
    n, m = inst.n, inst.m
    rows = inst.integer_rows()
    pool = set(range(m))
    bundles = [set() for _ in range(n)]
    for i in [*range(m - n - 1, -1, -1), *range(n)]:
        if not pool:
            break
        j = min(pool, key=lambda c: (rows[i][c], c))
        pool.remove(j)
        bundles[i].add(j)
    return allocation_from_bundles(n, m, bundles)


def solve_small_m(inst: Instance) -> SolveResult:
    """Exact EFX for m <= 2n chores."""
    n, m = inst.n, inst.m
    if m > 2 * n:
        raise TooManyChores(f"m = {m} exceeds 2n = {2 * n}")
    y = _round_robin_two_phase(inst)
    if m <= n:
        # At most one chore each: EFX already, with no framework run.
        return SolveResult(y, _trivial_trace(inst, y, Fraction(1), "weak"), "small-m")
    cert = FriendlyCertificate(Fraction(1), frozenset(), frozenset(range(n)), weak=True)
    x, trace = run_framework(inst, y, cert)
    return SolveResult(x, trace, "small-m", cert=cert, start=y)


HALF = Fraction(1, 2)


@dataclass(frozen=True)
class ErRoundedInput:
    """Validated integral rounding of an earning-restricted equilibrium
    with earning requirements 1 and a uniform half-unit earning cap."""

    x: Allocation
    p: tuple
    h_set: frozenset  # chores priced above 1/2


def validate_rounded_er(
    inst: Instance, X: Allocation, p: Sequence[Fraction]
) -> Tuple[Optional[ErRoundedInput], List[str]]:
    """Check the five rounding properties plus the MPB and price-scaling
    conventions. Violations are data, not errors."""
    violations: List[str] = []
    if not X.complete:
        violations.append("allocation incomplete")
        return None, violations
    if len(p) != inst.m:
        violations.append("price vector length mismatch")
        return None, violations
    h_set = frozenset(j for j in range(inst.m) if p[j] > HALF)
    bundles = X.bundles()
    for i, b in enumerate(bundles):
        high = [j for j in b if j in h_set]
        low_earn = sum((p[j] for j in b if j not in h_set), Fraction(0))
        total = low_earn + sum((p[j] for j in high), Fraction(0))
        if len(high) > 2:
            violations.append(f"(i) agent {i + 1} holds {len(high)} high chores")
        if len(high) == 2 and low_earn > HALF:
            violations.append(f"(ii) agent {i + 1}: low earning {low_earn} > 1/2")
        if len(high) == 1 and low_earn > 1:
            violations.append(f"(iii) agent {i + 1}: low earning {low_earn} > 1")
        if len(high) == 0 and low_earn > Fraction(3, 2):
            violations.append(f"(iv) agent {i + 1}: low earning {low_earn} > 3/2")
        if total < HALF:
            violations.append(f"(v) agent {i + 1}: earning {total} < 1/2")
        for j in b:
            if inst.d[i][j] != p[j]:
                violations.append(
                    f"scaling: d[{i + 1}][{j + 1}] = {inst.d[i][j]} != p_{j + 1} = {p[j]}"
                )
    if not is_mpb_allocation(inst, X, p):
        violations.append("not an MPB allocation")
    if violations:
        return None, violations
    return ErRoundedInput(X, tuple(p), h_set), violations


def solve_4efx(
    inst: Instance, rounded: ErRoundedInput, budget: int = DEFAULT_BUDGET
) -> SolveResult:
    """4-EFX from a validated rounded earning-restricted equilibrium.

    Re-allocates the high-priced chores with the small-m construction,
    couples the resulting bundles to agents so every multi-chore receiver
    keeps low earnings at most 1, and runs the framework at lambda = 4.
    Trying more than `budget` of the n! couplings raises BudgetExceeded.
    """
    n, m = inst.n, inst.m
    if m <= 2 * n:
        raise RoundedInputInvalid(
            [f"m = {m} <= 2n = {2 * n}: the small-m pipeline applies instead"]
        )
    h = sorted(rounded.h_set)
    if len(h) > 2 * n:
        raise RoundedInputInvalid(
            [f"|H| = {len(h)} > 2n = {2 * n} violates the earning restriction"]
        )
    notes = []
    sub = Instance(tuple(tuple(row[j] for j in h) for row in inst.d))
    z_res = solve_small_m(sub)
    z_bundles = [frozenset(h[j] for j in b) for b in z_res.x.bundles()]

    x_bundles = rounded.x.bundles()
    low_earn = [
        sum(
            (rounded.p[j] for j in b if j not in rounded.h_set),
            Fraction(0),
        )
        for b in x_bundles
    ]

    has_low = [
        any(j not in rounded.h_set for j in b) for b in x_bundles
    ]

    def coupling_ok(zb):
        return (
            all(low_earn[i] <= 1 for i in range(n) if len(zb[i]) >= 2)
            and all(zb[i] or has_low[i] for i in range(n))
            and (
                not any(len(b) == 0 for b in zb)
                or not any(len(b) >= 2 for b in zb)
            )
        )

    if not coupling_ok(z_bundles):
        found = None
        for tried, perm in enumerate(itertools.permutations(range(n)), 1):
            if tried > budget:
                raise BudgetExceeded(f"more than {budget} couplings tried")
            cand = [z_bundles[perm[i]] for i in range(n)]
            if not coupling_ok(cand):
                continue
            cand_alloc = allocation_from_bundles(
                n, len(h), [[h.index(j) for j in b] for b in cand]
            )
            if efx_factor(sub, cand_alloc) <= 1:
                found = cand
                notes.append("re-coupled high-chore bundles")
                break
        if found is None:
            raise CouplingUnsatisfiable(
                "no assignment of high-chore bundles keeps every multi-chore "
                "receiver's low earnings at most 1"
            )
        z_bundles = found

    y_bundles = [
        (set(b) - rounded.h_set) | z_bundles[i]
        for i, b in enumerate(x_bundles)
    ]
    y = allocation_from_bundles(n, m, y_bundles)
    nh = frozenset(i for i in range(n) if len(z_bundles[i]) == 1)
    cert = FriendlyCertificate(
        Fraction(4), frozenset(range(n)) - nh, nh, weak=False
    )
    x, trace = run_framework(inst, y, cert)
    return SolveResult(
        x, trace, "er4", cert=cert, prices=rounded.p, notes=notes, start=y
    )
