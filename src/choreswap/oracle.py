"""Independent exact ground truth at desk scale.

The envy inequalities here are re-implemented from scratch on purpose and
do not call the solver-side checkers, so the two can cross-validate each
other. Budgets are allocation-count caps (default 2^22), not wall time.

`best_efx_factor` is an exact branch and bound over all n^m allocations.
It cuts a branch only when a lower bound on the factor of every
allocation below it already reaches the best factor found, so the
minimum it returns is the one full enumeration gives; the tests keep
an unpruned walk over every owner vector as the reference for that claim.
Each bound is one agent's current bundle value less its least chore
(which never shrinks) over an upper bound on its final least rival
bundle: (a) the cheapest rival given every chore left, (b) the average
of all rivals, (c) the (left+1)-th cheapest rival when `left` chores
remain, and (d) the average of the k cheapest rivals given every chore
left. The docstring of `best_efx_factor` gives the argument for each.
A chore's receiver has its (b) tested in O(1) before the chore's column
joins the cross sums: (b) reads only the receiver's own sum, least chore
and row total, so it cuts exactly the children that testing it after
the move would, and the search tree does not change.
The visit order (costly chores first, cheapest owner first) only finds
a good incumbent sooner: the result is the minimum value over all
leaves, which does not depend on the order the leaves are visited in.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .errors import (
    BudgetExceeded,
    CertificateInvalid,
    EmptyBundle,
    GenerationBudgetExceeded,
    TraceMismatch,
)
from .framework import FriendlyCertificate, SwapTrace
from .model import INFINITE, Allocation, Instance, allocation_from_bundles

DEFAULT_ORACLE_BUDGET = 1 << 22


def best_efx_factor(inst: Instance, budget: int = DEFAULT_ORACLE_BUDGET):
    """Minimum efx factor over every complete allocation, exactly.

    Depth-first branch and bound over the n^m owner vectors, with
    incremental pairwise bundle sums on integer rows (the factor is
    invariant under row scaling). Ratios are exact `(num, den)` integer
    pairs compared by cross-multiplication.

    Visit order: each row is weighed by W[i] = lcm(tot) / tot[i], with
    tot[i] its row sum, so rows[i][j] * W[i] is agent i's share of chore
    j on one common integer scale. Chores are taken by descending total
    share and each chore tries its owners by ascending share (ties to the
    lower index), so a cheap incumbent comes early and the bounds cut
    sooner. The order cannot change the result: it is the minimum value
    over all leaves, and a leaf whose factor is below the incumbent has
    every bound at or below that factor, so it is never cut. Any order
    returns the same `Fraction` (or INFINITE); only the node count moves.

    The pruning keeps the result exact. Agent i's final ratio is
    hat_i / min_h cross_i[h]. Its numerator hat_i (bundle sum minus
    bundle minimum) never shrinks as chores join i's bundle, and the
    chores still unassigned can add at most rem[i] in all to i's values
    of the rival bundles. With s_1 <= ... <= s_{n-1} agent i's current
    rival sums, S_k = s_1 + ... + s_k, and `left` chores unassigned,
    every leaf below a node has a factor of at least
        (a) hat_i / (s_1 + rem[i]),
        (b) hat_i * (n-1) / (tot[i] - cross_i[i]),
        (c) hat_i / s_{left+1}                      when left < n-1,
        (d) hat_i * k / (S_k + rem[i])              for 1 < k < n-1,
    because the final least rival sum is at most
        (a) the cheapest rival's sum once it gets every chore left;
        (b) the average of all n-1 final rival sums, S_{n-1} + rem[i]
            over n-1, where S_{n-1} + rem[i] = tot[i] - cross_i[i] as
            agent i's values of all chores sum to tot[i] (so (b) needs
            no rival sums at all);
        (c) the (left+1)-th cheapest rival's sum: `left` chores reach at
            most `left` of the left+1 cheapest rivals, so one of them
            ends with its current sum, which is at most s_{left+1};
        (d) the average of the k cheapest rivals' final sums, which
            together gain at most rem[i]; (a) is k = 1 and (b) is
            k = n-1.
    A branch where any bound already reaches the incumbent holds no leaf
    strictly below it, and only a strictly smaller leaf replaces the
    incumbent. Only the agent that receives a chore gets a larger
    numerator, so its bounds are tested before the child is entered; the
    other agents' bounds tighten as rem falls, so the child tests them.
    At a leaf rem[i] == 0 and hat_i / s_1 is i's exact ratio.

    The receiver a of chore j, when it already holds a chore, has (b)
    tested before column j joins the cross sums. (b) reads only a's own
    sum, its least chore and tot[a], and after the move those are
    own = cross_a[a] + w and min(w, minv[a]), with w = rows[a][j]; so the
    O(1) test cuts exactly the children that (b) on the moved state
    would, and a cut child never touches `cross`, `minv` or `cnt`. A
    child that stays moves the column and tests (a), (c) and (d). The
    search tree, the node count and every verdict are the same as with
    all four bounds tested after the move.
    """
    n, m = inst.n, inst.m
    if n**m > budget:
        raise BudgetExceeded(f"{n}^{m} allocations exceed budget {budget}")
    if n == 1 or m == 0:
        return Fraction(0)  # no rival bundle, or nothing, to envy
    rows = inst.integer_rows()
    tot = [sum(row) for row in rows]
    scale = math.lcm(*tot)
    shares = [[rows[i][j] * (scale // tot[i]) for i in range(n)] for j in range(m)]
    order = sorted(range(m), key=lambda j: -sum(shares[j]))
    cols = [[rows[i][j] for i in range(n)] for j in order]
    owners = [sorted(range(n), key=shares[j].__getitem__) for j in order]
    # rest[j][i]: agent i's value of the chores from position j on, the
    # rem[i] of every node at depth j.
    rest = [tot]
    for col in cols:
        rest.append([r - c for r, c in zip(rest[-1], col)])
    # cross[i][h]: agent i's value of agent h's current bundle.
    cross = [[0] * n for _ in range(n)]
    minv = [0] * n  # own-row minimum within the own bundle
    cnt = [0] * n
    rivals = n - 1
    # Incumbent as (num, den); (1, 0) means none yet. Only an infinite
    # bound reaches it, and infinite leaves are never the minimum.
    best_num, best_den = 1, 0

    def cut(i: int, j: int) -> bool:
        """Whether a bound of agent i (holding two chores or more) reaches
        the incumbent at depth j. Values are positive, so hat_i > 0."""
        row = cross[i]
        own = row[i]
        num = (own - minv[i]) * best_den  # hat_i, on the incumbent's denominator
        if num * rivals >= best_num * (tot[i] - own):
            return True  # (b)
        return cut_acd(row, own, num, rest[j][i], m - j)

    def cut_acd(row: list, own: int, num: int, rem: int, left: int) -> bool:
        """Whether bound (a), (c) or (d) of the agent with cross row `row`,
        own bundle sum `own` and numerator `num` (on the incumbent's
        denominator) reaches the incumbent with `left` chores unassigned."""
        s = sorted(row)
        s.remove(own)  # the rival sums, least first
        least = s[0]
        if num >= best_num * (least + rem):
            return True  # (a)
        if left < rivals and num >= best_num * s[left]:
            return True  # (c)
        for k in range(2, rivals):
            least += s[k - 1]
            if num * k >= best_num * (least + rem):
                return True  # (d)
        return False

    def dfs(j: int, got: int):
        # `got` received chore j - 1 and passed `cut` already (-1 at the root).
        nonlocal best_num, best_den
        if best_num == 0:
            return
        if j == m:
            worst_num, worst_den = 0, 1  # the leaf's factor
            for i in range(n):
                if cnt[i] < 2:
                    continue
                row = cross[i]
                own = row[i]
                num = own - minv[i]
                den = min(row)
                if den == own:  # the least rival sum is the second least
                    den = sorted(row)[1]
                if num * best_den >= best_num * den:
                    return
                if num * worst_den > worst_num * den:
                    worst_num, worst_den = num, den
            best_num, best_den = worst_num, worst_den
            return
        for i in range(n):
            if i != got and cnt[i] >= 2 and cut(i, j):
                return
        col = cols[j]
        rem = rest[j + 1]
        left = m - j - 1
        for a in owners[j]:
            w = col[a]
            held = cnt[a]
            saved_min = minv[a]
            if held:
                # (b) on a's sum and least chore once it holds chore j,
                # before the column moves.
                own = cross[a][a] + w
                low = w if w < saved_min else saved_min
                num = (own - low) * best_den
                if num * rivals >= best_num * (tot[a] - own):
                    continue  # (b)
                minv[a] = low
            else:
                minv[a] = w
            for i in range(n):
                cross[i][a] += col[i]
            cnt[a] = held + 1
            if not held or not cut_acd(cross[a], own, num, rem[a], left):
                dfs(j + 1, a)
            cnt[a] = held
            minv[a] = saved_min
            for i in range(n):
                cross[i][a] -= col[i]

    dfs(0, -1)
    if best_den == 0:
        return INFINITE
    return Fraction(best_num, best_den)


@dataclass(frozen=True)
class CertificateBounds:
    """Size and value ranges for random certificate generation."""

    n_max: int = 4
    m_max: int = 8
    value_max: int = 20
    lams: tuple = (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(4))
    modes: tuple = (False, True)  # strict, weak


def generate_valid_certificate(
    seed: int, bounds: CertificateBounds = CertificateBounds()
) -> Tuple[Instance, Allocation, FriendlyCertificate]:
    """Random (instance, allocation, certificate) triple that is Valid by
    construction.

    Residual chores are cheap (at most value_max) while every chore
    outside an agent's own bundle, and every designated chore, costs a
    planted B large enough that each certificate inequality holds with
    room to spare: B >= m * value_max / min(1, lambda - 1). For
    lambda = 1 the residuals are forced empty (strict) or singleton
    (weak) instead.
    """
    if bounds.n_max < 1 or bounds.m_max < 1 or bounds.value_max < 1:
        raise GenerationBudgetExceeded(f"degenerate bounds: {bounds}")
    rng = random.Random(seed)
    n = rng.randint(1, min(bounds.n_max, bounds.m_max))
    lam = rng.choice(bounds.lams)
    weak = rng.choice(bounds.modes)
    nh = frozenset(i for i in range(n) if rng.random() < 0.5)
    n0 = frozenset(range(n)) - nh

    sizes = [1] * n
    cap = [bounds.m_max] * n
    if lam == 1:
        for i in nh:
            cap[i] = 2 if weak else 1
    for _ in range(bounds.m_max - n):
        grow = [i for i in range(n) if sizes[i] < cap[i]]
        if not grow:
            break
        if rng.random() < 0.5:
            sizes[rng.choice(grow)] += 1
    m = sum(sizes)

    chores = list(range(m))
    rng.shuffle(chores)
    bundles = []
    pos = 0
    for i in range(n):
        bundles.append(sorted(chores[pos : pos + sizes[i]]))
        pos += sizes[i]
    desig = {i: rng.choice(bundles[i]) for i in nh}

    V = bounds.value_max
    if lam > 1:
        big = max(m * V, math.ceil(Fraction(m * V) / (lam - 1)))
    else:
        big = m * V
    d = [[0] * m for _ in range(n)]
    for i in range(n):
        own = set(bundles[i])
        for j in range(m):
            if j in own:
                if i in nh and j == desig[i]:
                    d[i][j] = big
                else:
                    d[i][j] = rng.randint(1, V)
            else:
                d[i][j] = big
    # Residual chores of other NH agents are unconstrained by the
    # certificate inequalities; randomize them for fuzzing value, but keep
    # them at value_max or above so each row's global minimum stays inside
    # the own residual.
    for i in range(n):
        for h in nh:
            if h == i:
                continue
            for j in bundles[h]:
                if j != desig[h]:
                    d[i][j] = rng.randint(V, big)

    inst = Instance(tuple(tuple(Fraction(v) for v in row) for row in d))
    alloc = allocation_from_bundles(n, m, bundles)
    cert = FriendlyCertificate(lam, n0, nh, weak=weak)
    return inst, alloc, cert


def _bundle_sum(inst: Instance, i: int, chores) -> Fraction:
    total = Fraction(0)
    for j in chores:
        total += inst.d[i][j]
    return total


def _hat(inst: Instance, i: int, chores) -> Fraction:
    vals = [inst.d[i][j] for j in chores]
    if len(vals) <= 1:
        return Fraction(0)
    return sum(vals, Fraction(0)) - min(vals)


def _lam_efx_ok(inst: Instance, bundles, i: int, lam: Fraction) -> bool:
    num = _hat(inst, i, bundles[i])
    if num == 0:
        return True
    for h in range(inst.n):
        if h != i and num > lam * _bundle_sum(inst, i, bundles[h]):
            return False
    return True


def verify_trace(
    inst: Instance, Y: Allocation, cert: FriendlyCertificate, trace: SwapTrace
) -> bool:
    """Replay the framework independently and compare every recorded pick,
    swap and the final factor against the trace.

    Raises TraceMismatch when the trace diverges from the replay (forged,
    reordered or missing events). Returns False when the replay itself
    breaks an invariant, True when everything checks out. A start of
    another shape than inst raises its shape error, N0, NH that do not
    partition the agents raise CertificateInvalid, and an empty start
    bundle raises EmptyBundle, before any replay.
    """
    n, m = inst.n, inst.m
    Y.check_shape(n, m)
    if cert.n0 | cert.nh != set(range(n)) or cert.n0 & cert.nh:
        raise CertificateInvalid(
            [f"N0 {sorted(cert.n0)} and NH {sorted(cert.nh)} do not partition agents 0..{n - 1}"]
        )
    bundles = [set(b) for b in Y.bundles()]
    for i, b in enumerate(bundles):
        if not b:
            raise EmptyBundle(i)
    order = sorted(cert.nh)
    lam = cert.lam

    def argmax_chore(i, bundle):
        best = None
        for j in sorted(bundle):
            if best is None or inst.d[i][j] > inst.d[i][best]:
                best = j
        return best

    desig = {i: argmax_chore(i, bundles[i]) for i in order}
    pool = set(desig.values())
    for i in order:
        bundles[i].discard(desig[i])
    picks = []
    picked = {}
    for i in order:
        j = min(pool, key=lambda c: (inst.d[i][c], c))
        pool.remove(j)
        bundles[i].add(j)
        picked[i] = j
        picks.append((i, j))
    if picks != list(trace.picks):
        raise TraceMismatch(f"picks diverge: replay {picks}, trace {list(trace.picks)}")

    swaps = []
    ok = True
    swapped = set()
    for pos, i in enumerate(order):
        if any(h in swapped for h in order[pos:]):
            ok = False
        if not _lam_efx_ok(inst, bundles, i, lam):
            l = min(
                (h for h in range(n) if h != i),
                key=lambda h: (_bundle_sum(inst, i, bundles[h]), h),
            )
            j_i = picked[i]
            bundles[i] |= bundles[l]
            bundles[i].discard(j_i)
            bundles[l] = {j_i}
            swapped.add(i)
            swapped.add(l)
            swaps.append((i, l, j_i))
            if not _lam_efx_ok(inst, bundles, i, lam):
                ok = False
            if cert.weak:
                bound = _hat(inst, i, bundles[i])
            else:
                bound = _bundle_sum(inst, i, bundles[i])
            if bound > lam * inst.d[i][j_i]:
                ok = False
        done = set(cert.n0) | set(order[: pos + 1])
        if not all(_lam_efx_ok(inst, bundles, h, lam) for h in done):
            ok = False
    if swaps != list(trace.swaps):
        raise TraceMismatch(f"swaps diverge: replay {swaps}, trace {list(trace.swaps)}")

    factor = Fraction(0)
    unbounded = False
    for i in range(n):
        num = _hat(inst, i, bundles[i])
        if num == 0:
            continue
        for h in range(n):
            if h == i:
                continue
            den = _bundle_sum(inst, i, bundles[h])
            if den == 0:
                unbounded = True
            elif num / den > factor:
                factor = num / den
    final = INFINITE if unbounded else factor
    recorded = trace.final_factor
    same = (
        isinstance(recorded, Fraction) and not unbounded and recorded == factor
    ) or (unbounded and recorded is INFINITE)
    if not same:
        raise TraceMismatch(
            f"final factor diverges: replay {final}, trace {recorded}"
        )
    if unbounded or not factor <= lam:
        ok = False
    if len(swaps) > len(order):
        ok = False
    return ok

