"""Chore-swap framework: friendly certificates, swaps, and the two-phase
algorithm that turns a friendly allocation into a lambda-EFX one.

All tie-breaks (designated chores, round-robin picks, most-envied agent)
go to the lowest index so runs are reproducible. Invariant monitoring is
always on; a failed invariant or final factor above lambda raises
PostconditionViolated carrying the full trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Tuple

from .errors import (
    BadRational,
    CertificateInvalid,
    ChoreNotHeld,
    EmptyBundle,
    PostconditionViolated,
    SelfSwap,
)
from .fairness import _envy_terms, _factor, _residual, _within, _worst_envy, efx_factor, hat_d
from .model import _EXACT, Allocation, Instance


@dataclass(frozen=True)
class FriendlyCertificate:
    """Partition N0/NH plus lambda, an int or a Fraction (anything else
    raises BadRational); weak selects the hat-d variant."""

    lam: Fraction
    n0: frozenset
    nh: frozenset
    weak: bool = False

    def __post_init__(self):
        if isinstance(self.lam, bool) or not isinstance(self.lam, _EXACT):
            raise BadRational(f"lambda = {self.lam!r} is not an int or Fraction")

    @property
    def mode(self) -> str:
        return "weak" if self.weak else "strict"


def designated_chore(inst: Instance, i: int, bundle) -> int:
    """argmax_{j in bundle} d_ij, ties to the lowest chore index. The
    integer row is a positive rescaling of d_i, so it has the same argmax."""
    return max(sorted(bundle), key=inst.integer_rows()[i].__getitem__, default=None)


@dataclass(frozen=True)
class Violation:
    condition: str  # "partition" or "i".."iv"
    agent: int
    other: Optional[int]
    lhs: object = None
    rhs: object = None

    def __str__(self):
        pair = f"i={self.agent + 1}"
        if self.other is not None:
            pair += f", k={self.other + 1}"
        return f"condition ({self.condition}) fails for {pair}: {self.lhs} <= {self.rhs} is false"


class _State:
    """One integer allocation state for a framework run: the owner list,
    the bundles (unsorted lists), and the EFX numerators nums[i] and cross
    sums cross[i][h] that `fairness._envy_terms` gives for the allocation:
    X_i under agent i's integer row less its cheapest chore, and the cost
    of bundle h under that row. A swap updates them in place. A move
    updates all but nums and records the two agents it touched in
    `moved`; `settle` then recomputes their numerators."""

    def __init__(self, rows, X: Allocation):
        self.rows = rows
        self.nums, self.cross = _envy_terms(rows, X)  # rejects an X of another shape first
        self.owners = list(X.owners)
        self.bundles = X.bundles()
        self.moved = set()  # agents whose numerators a move left stale

    def allocation(self) -> Allocation:
        return Allocation(len(self.rows), tuple(self.owners))

    def move(self, j: int, i: int):
        """Give chore j to agent i: two cross columns change, O(n)."""
        o = self.owners[j]
        if o == i:
            return
        self.owners[j] = i
        self.bundles[o].remove(j)
        self.bundles[i].append(j)
        for c, row in zip(self.cross, self.rows):
            c[o] -= row[j]
            c[i] += row[j]
        self.moved.update((o, i))

    def settle(self):
        """Recompute the numerators of the agents in `moved` from their
        bundles, in place; the others are still those of the start."""
        rows, bundles = self.rows, self.bundles
        for a in self.moved:
            self.nums[a] = _residual([rows[a][j] for j in bundles[a]])
        self.moved.clear()

    def swap(self, i: int, l: int, j_i: int):
        """The (i, l) chore swap in place: columns i and l of the cross
        sums and the numerators of i and l change."""
        _swap_owners(self.owners, i, l, j_i)
        bundles, rows = self.bundles, self.rows
        bundles[i] = [j for j in bundles[i] if j != j_i] + bundles[l]
        bundles[l] = [j_i]
        for c, row in zip(self.cross, rows):
            c[i] += c[l] - row[j_i]
            c[l] = row[j_i]
        for a in (i, l):
            self.nums[a] = _residual([rows[a][j] for j in bundles[a]])


def _certify(inst: Instance, X: Allocation, cert: FriendlyCertificate):
    """(violations, state, desig): the violations of `validate_certificate`,
    the `_State` of X and the designated chore of each agent in N_H."""
    violations: List[Violation] = []
    agents = frozenset(range(inst.n))
    if cert.n0 | cert.nh != agents or cert.n0 & cert.nh:
        raise CertificateInvalid(
            [Violation("partition", -1, None, sorted(cert.n0), sorted(cert.nh))]
        )
    rows = inst.integer_rows()
    state = _State(rows, X)
    nums, cross, bundles = state.nums, state.cross, state.bundles
    for i, c in enumerate(cross):
        if c[i] == 0:  # values are positive, so only an empty bundle costs 0
            raise EmptyBundle(i)
    scale = inst.row_scales()
    n0, nh = sorted(cert.n0), sorted(cert.nh)
    desig = {i: designated_chore(inst, i, bundles[i]) for i in nh}

    def check(cond, i, lhs, coef, others, on_row, cols):
        """Append a Violation for each k = others[t] with lhs > coef *
        on_row[cols[t]], all on row i's scale, for coef = a / b, b > 0."""
        if not others:
            return
        a, b = coef
        tight = (min if a >= 0 else max)(map(on_row.__getitem__, cols))
        if lhs * b <= a * tight:
            return
        s = scale[i]
        for k, c in zip(others, cols):
            if lhs * b > a * on_row[c]:
                violations.append(
                    Violation(cond, i, k, Fraction(lhs, s), Fraction(a * on_row[c], b * s))
                )

    # Conditions (i) and (iii) read agent k's bundle cost cross[i][k],
    # (ii) and (iv) the cost rows[i][c] of k's designated chore c.
    lam = (cert.lam.numerator, cert.lam.denominator)
    lam1 = (lam[0] - lam[1], lam[1])
    dcols = [desig[k] for k in nh]
    for i in n0:
        # nums[i] is hat-d_i(X_i) on row i's scale.
        lhs = nums[i] if cert.weak else cross[i][i]
        check("i", i, lhs, lam, n0, cross[i], n0)
        check("ii", i, lhs, lam, nh, rows[i], dcols)
    for i in nh:
        if cert.weak:
            h = hat_d(inst, i, [j for j in bundles[i] if j != desig[i]])
            lhs = h.numerator * scale[i] // h.denominator
        else:
            lhs = cross[i][i] - rows[i][desig[i]]
        check("iii", i, lhs, lam1, n0, cross[i], n0)
        check("iv", i, lhs, lam1, nh, rows[i], dcols)
    return violations, state, desig


def validate_certificate(
    inst: Instance, X: Allocation, cert: FriendlyCertificate
) -> List[Violation]:
    """Check every certificate inequality exactly; empty list means Valid.

    Strict mode checks the four friendly conditions with d_i on the left;
    weak mode uses hat-d on the left. Weak mode also asks that each N_H
    agent's cheapest bundle chore lie in its residual S_i, which always
    holds and is not checked: the designated chore is the costliest of
    its bundle, so a non-singleton bundle keeps a cheapest chore in S_i.
    A condition compares one left-hand side with coef * v_k over agents
    k, so all pairs hold iff the tightest does (least v_k if coef >= 0,
    else greatest). Both sides are integers on row i's scale s_i
    (`Instance.row_scales`): strict left-hand sides come from the integer
    rows and their cross sums, weak ones are hat-d times s_i. A Fraction
    is built only to report a violation.
    """
    return _certify(inst, X, cert)[0]


def _swap_owners(owners: list, i: int, l: int, j_i: int):
    """The (i, l) swap on an owner list, in place."""
    if i == l:
        raise SelfSwap(f"agent {i + 1} cannot swap with itself")
    if owners[j_i] != i:
        raise ChoreNotHeld(f"chore {j_i + 1} is not held by agent {i + 1}")
    for j, o in enumerate(owners):
        if o == l:
            owners[j] = i
    owners[j_i] = l


def chore_swap(X: Allocation, i: int, l: int, j_i: int) -> Allocation:
    """(i, l) swap: i takes l's whole bundle and hands over chore j_i."""
    owners = list(X.owners)
    _swap_owners(owners, i, l, j_i)
    return Allocation(X.n, tuple(owners))


@dataclass
class SwapTrace:
    """Ordered record of Phase-1 picks and Phase-2 swaps with per-iteration
    invariant results. All indices 0-based in memory, 1-based on the wire."""

    mode: str = "strict"
    picks: List[Tuple[int, int]] = field(default_factory=list)
    swaps: List[Tuple[int, int, int]] = field(default_factory=list)
    invariants: List[Tuple[int, str, bool]] = field(default_factory=list)
    phase1: Optional[Allocation] = None
    final_factor: object = None
    flags: List[str] = field(default_factory=list)

    @property
    def swap_count(self) -> int:
        return len(self.swaps)

    def to_log(self) -> str:
        lines = []
        for agent, chore in self.picks:
            lines.append(f"PICK {agent + 1} {chore + 1}")
        for agent, l, j in self.swaps:
            lines.append(f"SWAP {agent + 1} {l + 1} {j + 1}")
        for agent, name, ok in self.invariants:
            lines.append(f"INV {agent + 1} {name} {'PASS' if ok else 'FAIL'}")
        lines.append(f"FACTOR {self.final_factor}")
        return "\n".join(lines) + "\n"


def run_framework(
    inst: Instance, Y: Allocation, cert: FriendlyCertificate
) -> Tuple[Allocation, SwapTrace]:
    """Algorithm: re-allocate the designated high chores round-robin, then
    perform at most one chore swap per NH agent, in pick order.

    Requires a valid certificate. The returned allocation always satisfies
    efx_factor <= lambda; that postcondition and the three per-iteration
    invariants are re-verified and escalate on failure. Envy is compared
    on the integer rescaling of each row, which leaves lambda-EFX unchanged.

    One integer allocation state (`_State`) serves the whole run: the
    certificate check builds it with the bundles, numerators and cross
    sums of Y, and the designated chores of the N_H agents. Each Phase-1
    pick that gives a chore to a new owner moves it (two cross columns,
    O(n)), the numerators of the agents those moves touched are settled
    once after Phase 1, and each swap updates the state of i and l. When
    no pick moved a chore (N_H empty, or each pick stayed with its
    owner) Y is the Phase-1 allocation. With N_H empty neither phase has
    work and Y is also the result. The final factor is then read from
    the state, which holds exactly the numerators and cross sums that
    `efx_factor` would build for Y with the same kernel, so the value is
    the same. A run with N_H non-empty recomputes the final factor from
    scratch by `efx_factor`.

    Each N_H agent weakly prefers its own pick to every later agent's
    pick, so that is not checked: the agent takes the cheapest chore, by
    its own row, of a pool that only shrinks, and every later pick was
    still in the pool then.
    """
    violations, state, desig = _certify(inst, Y, cert)
    if violations:
        raise CertificateInvalid(violations)
    lam = cert.lam
    trace = SwapTrace(mode=cert.mode)
    rows = state.rows
    order = sorted(cert.nh)  # NH re-indexed as [r] in ascending agent order

    # Phase 1: pull out the designated chores and re-allocate round-robin.
    pool = sorted(desig.values())  # min takes the first, lowest index
    picked = {}
    for i in order:
        j = min(pool, key=rows[i].__getitem__)
        pool.remove(j)
        state.move(j, i)
        picked[i] = j
        trace.picks.append((i, j))
    X = trace.phase1 = state.allocation() if state.moved else Y

    # Phase 2: chore swaps in pick order, on the numerators settled after
    # Phase 1. A swap updates nums and cross in place.
    nums, cross = state.nums, state.cross

    def lam_efx(agents) -> bool:
        return _within(_worst_envy(nums, cross, agents), lam)

    swapped = set()
    if order:
        state.settle()
        inv3 = lam_efx(cert.n0)
    for pos, i in enumerate(order):
        # Invariant (i): agents at or after this position have not swapped.
        inv1 = all(h not in swapped for h in order[pos:])
        trace.invariants.append((i, "i", inv1))
        if not lam_efx((i,)):
            l = min((h for h in range(inst.n) if h != i), key=lambda h: (cross[i][h], h))
            j_i = picked[i]
            state.swap(i, l, j_i)
            swapped.add(i)
            swapped.add(l)
            trace.swaps.append((i, l, j_i))
            if l not in cert.n0 and l not in order[:pos]:
                trace.flags.append(f"swap-target l={l + 1} outside N0+[i-1]")
            # Invariant (ii): i is lambda-EFX and bounded by her designated
            # chore right after the swap (hat-d bound in weak mode).
            bound_lhs = nums[i] if cert.weak else cross[i][i]
            inv2 = lam_efx((i,)) and (
                bound_lhs * lam.denominator <= lam.numerator * rows[i][j_i]
            )
            trace.invariants.append((i, "ii", inv2))
            # A swap changes two bundles; without one, i is lambda-EFX and
            # invariant (iii) (N0 and NH up to i) carries over from i - 1.
            inv3 = lam_efx(cert.n0 | set(order[: pos + 1]))
        trace.invariants.append((i, "iii", inv3))
    if trace.swaps:
        X = state.allocation()

    factor = efx_factor(inst, X) if order else _factor(_worst_envy(nums, cross))
    trace.final_factor = factor
    failed = [rec for rec in trace.invariants if not rec[2]]
    if failed or trace.flags or not factor <= lam:
        raise PostconditionViolated(
            f"framework postcondition failed: factor={factor}, lambda={lam}, "
            f"failed invariants={failed}, flags={trace.flags}",
            trace,
        )
    return X, trace
