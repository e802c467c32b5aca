"""Application pipelines: each produces a starting allocation plus a valid
friendly certificate, then delegates to the swap framework.

- solve_2efx: pEF1+MPB market start, strict certificate with lambda = 2
- solve_bivalued: the same start, whose prices lie in {1,k}, weak
  certificate with lambda = 2 - 1/k, PO
- solve_small_m: two-phase round robin, weak certificate with lambda = 1
- solve_4efx: rounded earning-restricted input, strict certificate, lambda = 4
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import sub
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
from .fairness import DEFAULT_BUDGET, efx_factor
from .framework import FriendlyCertificate, SwapTrace, chore_swap, run_framework
from .market import _positive_prices, is_mpb_allocation, mpb_holds, mpb_ratio
from .model import INFINITE, Allocation, Instance, allocation_from_bundles

MARKET_STEPS_PER_NM = 50  # the market loop stops past 50 * n * m steps


@dataclass(frozen=True)
class Pef1Solution:
    """An integral MPB allocation that is price-EF1, with its prices as
    integers P and their unit: chore j is priced P[j] / unit. The market
    loop's unit is its least price, so the least of p is 1."""

    x: Allocation
    P: tuple
    unit: int

    @property
    def p(self) -> tuple:
        """The prices P[j] / unit as Fractions, one shared Fraction per
        distinct integer price (as `Instance.d` shares its values): a
        {1, k}-priced start builds two. Each entry equals Fraction(P[j],
        unit), so the prices compare, hash and print as before."""
        shared = {v: Fraction(v, self.unit) for v in set(self.P)}
        return tuple([shared[v] for v in self.P])


@dataclass
class SolveResult:
    x: Allocation
    trace: SwapTrace
    method: str
    cert: Optional[FriendlyCertificate] = None
    prices: Optional[tuple] = None
    notes: List[str] = field(default_factory=list)
    start: Optional[Allocation] = None  # run_framework's input; None if it did not run


def _trivial_trace(inst: Instance, X: Allocation, mode: str) -> SwapTrace:
    t = SwapTrace(mode=mode)
    t.final_factor = efx_factor(inst, X)
    return t


def search_pef1_mpb(inst: Instance) -> Pef1Solution:
    """A pEF1+MPB allocation with its prices, from the price-lowering
    market loop for chores (Garg, Murhekar and Qin, AAAI 2022).

    Prices are integers on the scale of `Instance.common_rows`, and agent
    i's MPB chores are those attaining `mpb_ratio`. Every step keeps each
    chore MPB for its owner:

    - Start: chore j goes to the lowest-index agent with the least value
      for it, priced at that value.
    - Stop when pEF1 holds: max_i earning_i - top_i <= the least earning.
    - Move: a BFS from the lowest-index least earner L, agents in BFS
      order and chores in index order, follows MPB edges i -> j -> h to
      owners h it has not reached. It moves the first chore j with
      earning_h - p_j > earning_L to i, for which j is MPB.
    - Lower: with no such chore, the prices of every chore held in L's
      component fall by the largest beta < 1 at which a chore held
      outside becomes MPB for an agent inside. Inside agents then pay
      more per buck only on inside chores, outside agents only on
      chores they do not hold, so MPB holds. The inside prices are
      scaled by beta's numerator, the outside ones by its denominator,
      and all divided by their gcd.

    A pEF1 violator is never reached: it would be reached through a chore
    j with earning - p_j <= earning_L, and p_j is at most its top price.
    So a chore is held outside whenever the loop lowers. With bivalued
    values every beta is a power of 1/k.

    The loop is not known to terminate on every instance: more than
    MARKET_STEPS_PER_NM * n * m steps raises PostconditionViolated.
    The integer prices are returned with the least of them as their unit.
    """
    n, m = inst.n, inst.m
    rows = inst.common_rows()
    cols = list(zip(*rows))
    price = list(map(min, cols))
    owners = list(map(tuple.index, cols, price))  # the first agent at the least value
    earn, top = [0] * n, [0] * n  # each bundle's total and highest price
    for p, o in zip(price, owners):
        earn[o] += p
        if p > top[o]:
            top[o] = p
    for step in itertools.count():
        least = min(earn)
        if max(map(sub, earn, top)) <= least:
            break
        if step == MARKET_STEPS_PER_NM * n * m:
            raise PostconditionViolated(
                f"the market loop passed its cap of {step} steps (finding)"
            )
        low = earn.index(least)
        comp, inside = [low], [False] * n
        inside[low] = True
        ratio = {}
        move = None
        for i in comp:
            row = rows[i]
            a, b = ratio[i] = mpb_ratio(row, price)
            for j, h in enumerate(owners):
                if inside[h] or row[j] * b != a * price[j]:
                    continue
                if earn[h] - price[j] > least:
                    move = i, j, h
                    break
                inside[h] = True
                comp.append(h)
            if move:
                break
        if move:
            i, j, h = move
            owners[j] = i
            earn[h] -= price[j]
            earn[i] += price[j]
            top[i] = max(top[i], price[j])
            if price[j] == top[h]:
                top[h] = max((p for p, o in zip(price, owners) if o == h), default=0)
            continue
        # beta = max a * p_j / (b * row[j]) over inside agents (a / b their
        # MPB ratio) and chores j held outside.
        num, den = 0, 1
        for i in comp:
            row, (a, b) = rows[i], ratio[i]
            for j, h in enumerate(owners):
                if not inside[h] and a * price[j] * den > num * b * row[j]:
                    num, den = a * price[j], b * row[j]
        factor = [num if x else den for x in inside]  # per agent, before dividing by g
        price = [p * factor[o] for p, o in zip(price, owners)]
        g = math.gcd(*price)
        price = [p // g for p in price]
        earn = [e * f // g for e, f in zip(earn, factor)]
        top = [t * f // g for t, f in zip(top, factor)]
    return Pef1Solution(Allocation(n, tuple(owners)), tuple(price), min(price, default=1))


def _require_pef1_mpb(inst: Instance, sol: Pef1Solution) -> Tuple[int, list]:
    """The gate on a start: its integer prices sol.P, checked for length
    and sign, make it MPB and pEF1. Returns (rho, top): the least earning
    and each bundle's highest price (0 if empty), on sol.P's scale, on
    which every later price comparison of the pipeline runs. Both
    certificate rules read rho and top to put agents in N_H.

    pEF1 is `is_pefk(inst, X, p, 1, 1)`: each i whose earning less its
    top price, a_i, is positive has a_i <= earn_h for every h != i, and an
    empty rival (earn_h = 0) fails. One pass over the owners gives earn
    and top, and the gate tests max_i a_i <= rho = min_h earn_h, which is
    the same condition: a_i <= earn_i always holds (top_i >= 0), so h = i
    adds nothing; a_i = 0 passes both; a positive a_i fails both beside an
    empty bundle, where rho = 0; and with n = 1 both pass, as a_1 <= earn_1.
    """
    sol.x.check_shape(inst.n, inst.m)
    P = _positive_prices(inst.m, sol.P, sol.unit)
    if not mpb_holds(inst.integer_rows(), P, sol.x.owners):
        raise InvariantViolation("solution is not an MPB allocation")
    earn, top = [0] * inst.n, [0] * inst.n
    for p, o in zip(P, sol.x.owners):
        earn[o] += p
        if p > top[o]:
            top[o] = p
    rho = min(earn)
    if max(map(sub, earn, top)) > rho:
        raise InvariantViolation("solution is not pEF1")
    return rho, top


def certificate_from_pef1(inst: Instance, sol: Pef1Solution) -> FriendlyCertificate:
    """Split agents by whether their highest-priced chore exceeds the least
    earner's income. Yields a valid strict certificate with lambda = 2.

    The split compares the integers rho and top of the pEF1+MPB gate: its
    prices sol.P are sol.p times the positive unit, which leaves `top >
    rho` unchanged. The certificate holds for `inst` as given: every
    certificate inequality compares one agent's own values, so scaling a
    row (as by 1/alpha_i, which turns MPB values into prices) changes
    none of them.
    """
    rho, top = _require_pef1_mpb(inst, sol)
    nh = frozenset(i for i, t in enumerate(top) if t > rho)
    return FriendlyCertificate(Fraction(2), frozenset(range(inst.n)) - nh, nh, weak=False)


def solve_2efx(inst: Instance) -> SolveResult:
    """pEF1+MPB market start, certificate construction, swap framework.
    The output is always verified 2-EFX."""
    sol = search_pef1_mpb(inst)
    if len(set(sol.x.owners)) < inst.n:
        # Only reachable when m < n: the pEF1 prices force singleton
        # bundles, which are exactly EFX already.
        trace = _trivial_trace(inst, sol.x, "strict")
        return SolveResult(sol.x, trace, "pef1", prices=sol.p, notes=["m<n singleton"])
    cert = certificate_from_pef1(inst, sol)
    x, trace = run_framework(inst, sol.x, cert)
    return SolveResult(x, trace, "pef1", cert=cert, prices=sol.p, start=sol.x)


def _bivalued_candidate(
    inst: Instance, k: Fraction, sol: Pef1Solution, rho: int, top: list
) -> SolveResult:
    """Run a {1,k}-priced pEF1+MPB start through the bivalued pipeline,
    with (rho, top) what the pEF1+MPB gate returned for it.

    The start is returned as it is (an early exit) when its factor a / b
    is at most lambda = 2 - 1/k = (2 kn - kd) / kn for k = kn / kd, which
    is tested on integers: a * kn <= (2 kn - kd) * b, and never for an
    INFINITE factor. That is `factor <= lambda` cross-multiplied by the
    positive kn and b, so the same starts exit. lambda is built as a
    Fraction only for the framework run, and it equals 2 - 1/k.

    sol.unit is price 1 on the scale of sol.P. The least earning rho and
    each bundle's highest price t are compared with k as integers: rho *
    k.den against k.num * unit. A Phase-1 pick or a swap that breaks MPB
    under sol.P, which would cost the PO certificate, raises
    PostconditionViolated.
    """
    kn, kd = k.numerator, k.denominator
    trace = _trivial_trace(inst, sol.x, "weak")
    f = trace.final_factor
    if f is not INFINITE and f.numerator * kn <= (2 * kn - kd) * f.denominator:
        return SolveResult(sol.x, trace, "bivalued", prices=sol.p, notes=["early-exit"])
    one = sol.unit
    if not rho * kd < kn * one:
        raise RhoNotLessThanK(
            f"least earning {Fraction(rho, one)} >= k = {k} contradicts the bivalued derivation"
        )
    # Prices lie in {1, k}: N_H holds the agents with a chore priced k.
    nh = frozenset(i for i, t in enumerate(top) if t * kd >= kn * one)
    lam = Fraction(2 * kn - kd, kn)
    cert = FriendlyCertificate(lam, frozenset(range(inst.n)) - nh, nh, weak=True)
    x, trace = run_framework(inst, sol.x, cert)
    steps = [trace.phase1]
    for swap in trace.swaps:
        steps.append(chore_swap(steps[-1], *swap))
    rows = inst.integer_rows()
    if not all(mpb_holds(rows, sol.P, step.owners) for step in steps):
        raise PostconditionViolated(
            "the swap framework broke MPB under the start's prices (finding)", trace
        )
    return SolveResult(x, trace, "bivalued", cert=cert, prices=sol.p, start=sol.x)


def solve_bivalued(inst: Instance) -> SolveResult:
    """(2 - 1/k)-EFX + PO for {a, a*k}-valued instances, carrying an MPB price
    certificate for the final allocation.

    The start comes from `search_pef1_mpb`, whose prices must lie in
    {1, k} (PostconditionViolated if not) and which passes the pEF1+MPB
    gate of `certificate_from_pef1` (InvariantViolation if not), and runs
    once through the swap framework. The framework, MPB and EFX checks
    compare each agent's own values, so they run on `inst` as given.
    """
    k = inst.bivalued_k()
    if k is None:
        raise NotBivalued("instance has more than two distinct disutility values")
    sol = search_pef1_mpb(inst)
    # Price k is k * unit on the scale of sol.P, an integer only when kd
    # divides kn * unit; otherwise only price 1 is allowed.
    kp, r = divmod(k.numerator * sol.unit, k.denominator)
    if not ({sol.unit, kp} if r == 0 else {sol.unit}).issuperset(sol.P):
        span = ", ".join(map(str, sorted(set(sol.p))))
        raise PostconditionViolated(f"market prices {{{span}}} are not in {{1, {k}}} (finding)")
    return _bivalued_candidate(inst, k, sol, *_require_pef1_mpb(inst, sol))


def _round_robin_two_phase(inst: Instance) -> Allocation:
    """Phase A: agents r..1 (r = m - n) pick their cheapest chore, ties to
    the highest index; Phase B: agents 1..n pick again while chores
    remain, ties to the lowest index. Picks compare integer rows.

    The residual of agent i <= r is its Phase-A pick a_i: its Phase-B pick
    b_i was in the pool then, so d_i(a_i) <= d_i(b_i), with b_i the lower
    index on a tie, and `designated_chore` takes b_i. The framework's
    Phase 1 thus repeats Phase B, j_i = b_i, and invariant (ii) holds: i
    swaps only when d_i(b_i) > d_i(X_l) for its cheapest other bundle X_l,
    and each agent after i holds a Phase-B pick made after b_i, so l is
    before i. Agents before i hold only chores left when i picked a_i,
    none cheaper to i than a_i, so hat-d_i(X_l + a_i) = d_i(X_l) < d_i(j_i).
    """
    n, m = inst.n, inst.m
    rows = inst.integer_rows()
    pool = list(range(m))
    bundles = [set() for _ in range(n)]
    for i in [*range(m - n - 1, -1, -1), *range(n)]:
        if not pool:
            break
        # min takes the first least chore: Phase A, which leaves n chores,
        # scans from the highest index.
        j = min(reversed(pool) if len(pool) > n else pool, key=rows[i].__getitem__)
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
        return SolveResult(y, _trivial_trace(inst, y, "weak"), "small-m")
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
    low_earn: tuple  # per agent, the total price of its chores outside h_set


def validate_rounded_er(
    inst: Instance, X: Allocation, p: Sequence[Fraction]
) -> Tuple[Optional[ErRoundedInput], List[str]]:
    """Check the five rounding properties plus the MPB and price-scaling
    conventions, and carry each agent's low earning, which they read.
    Violations are data, not errors; an allocation of another shape than
    inst raises."""
    X.check_shape(inst.n, inst.m)
    if len(p) != inst.m:
        return None, ["price vector length mismatch"]
    violations = [f"price p_{j + 1} = {v} is not positive" for j, v in enumerate(p) if v <= 0]
    if violations:
        return None, violations
    h_set = frozenset(j for j in range(inst.m) if p[j] > HALF)
    lows = []
    for i, b in enumerate(X.bundles()):
        high = [j for j in b if j in h_set]
        low_earn = sum((p[j] for j in b if j not in h_set), Fraction(0))
        lows.append(low_earn)
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
    return ErRoundedInput(X, tuple(p), h_set, tuple(lows)), violations


def solve_4efx(
    inst: Instance, rounded: ErRoundedInput, budget: int = DEFAULT_BUDGET
) -> SolveResult:
    """4-EFX from a validated rounded earning-restricted equilibrium.

    Re-allocates the high-priced chores with the small-m construction,
    couples the resulting bundles to agents so every multi-chore receiver
    keeps low earnings at most 1, and runs the framework at lambda = 4.
    The bundles are coupled on the high-chore sub-instance's own indices.
    Prices are positive, so an agent holds a low chore iff its carried
    low earning is nonzero. Trying more than `budget` of the n! couplings
    raises BudgetExceeded.
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
    z_bundles = solve_small_m(sub).x.bundles()

    def coupling_ok(zb):
        """Multi-chore receivers keep low earnings <= 1, every agent ends
        with a chore, and no empty bundle sits beside a multi-chore one."""
        return all(
            (len(b) < 2 or low <= 1) and (b or low) for b, low in zip(zb, rounded.low_earn)
        ) and (all(zb) or max(map(len, zb)) < 2)

    if not coupling_ok(z_bundles):
        for tried, cand in enumerate(itertools.permutations(z_bundles), 1):
            if tried > budget:
                raise BudgetExceeded(f"more than {budget} couplings tried")
            if coupling_ok(cand) and efx_factor(sub, allocation_from_bundles(n, len(h), cand)) <= 1:
                z_bundles = cand
                notes.append("re-coupled high-chore bundles")
                break
        else:
            raise CouplingUnsatisfiable(
                "no assignment of high-chore bundles keeps every multi-chore "
                "receiver's low earnings at most 1"
            )

    owners = list(rounded.x.owners)
    for i, b in enumerate(z_bundles):
        for j in b:
            owners[h[j]] = i
    y = Allocation(n, tuple(owners))
    nh = frozenset(i for i in range(n) if len(z_bundles[i]) == 1)
    cert = FriendlyCertificate(
        Fraction(4), frozenset(range(n)) - nh, nh, weak=False
    )
    x, trace = run_framework(inst, y, cert)
    return SolveResult(
        x, trace, "er4", cert=cert, prices=rounded.p, notes=notes, start=y
    )
