import hashlib
import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from choreswap import (
    INFINITE,
    Allocation,
    FriendlyCertificate,
    Instance,
    best_efx_factor,
    generate_random,
    run_framework,
    solve_2efx,
    validate_certificate,
    verify_trace,
)
from choreswap.errors import (
    BudgetExceeded,
    CertificateInvalid,
    EmptyBundle,
    GenerationBudgetExceeded,
    TraceMismatch,
)
from choreswap.model import Bivalued, UniformInt
from choreswap.framework import designated_chore
from choreswap.oracle import CertificateBounds, _bundle_sum, _hat, generate_valid_certificate
from choreswap.pipelines import _round_robin_two_phase, search_pef1_mpb

from conftest import inst_i1, make_instance


def test_best_efx_factor_examples():
    assert best_efx_factor(make_instance([[4], [9]])) == 0
    ones = make_instance([[1, 1, 1], [1, 1, 1]])
    assert best_efx_factor(ones) == 1
    assert best_efx_factor(inst_i1()) == Fraction(1, 10)


def test_best_efx_factor_budget():
    with pytest.raises(BudgetExceeded):
        best_efx_factor(inst_i1(), budget=4)


def _unpruned_best_efx_factor(inst):
    """Minimum factor over every owner vector, in lexicographic order, with
    the oracle's own Fraction sums and no pruning. The sums and hats are
    tabulated first for every agent and chore subset (a bit mask)."""
    n, m = inst.n, inst.m
    subsets = [[j for j in range(m) if mask >> j & 1] for mask in range(1 << m)]
    total = [[_bundle_sum(inst, i, b) for b in subsets] for i in range(n)]
    hat = [[_hat(inst, i, b) for b in subsets] for i in range(n)]
    best = INFINITE
    for owners in itertools.product(range(n), repeat=m):
        masks = [0] * n
        for j, o in enumerate(owners):
            masks[o] |= 1 << j
        worst = Fraction(0)
        for i in range(n):
            num = hat[i][masks[i]]
            dens = [total[i][masks[h]] for h in range(n) if h != i]
            if num == 0 or not dens:
                continue
            den = min(dens)
            worst = max(worst, INFINITE if den == 0 else num / den)
        best = min(best, worst)
    return best


def test_best_efx_factor_matches_unpruned_enumeration():
    # Bivalued rows give many tied ratios; fractional row factors keep the
    # oracle's integer rescaling honest. The last 20 trials, 4x6 and 5x5,
    # reach the count cut (c) and the water-level cut (d) often.
    rng = random.Random(41)
    m_max = {1: 8, 2: 8, 3: 6, 4: 5}
    dists = [UniformInt(1, 20), Bivalued(Fraction(2)), Bivalued(Fraction(3))]
    for trial, shape in enumerate([None] * 300 + [(4, 6), (5, 5)] * 10):
        if shape is None:
            n = rng.randint(1, 4)
            m = rng.randint(1, m_max[n])
        else:
            n, m = shape
        inst = generate_random(rng.randrange(1 << 30), n, m, rng.choice(dists))
        if trial % 2:
            scales = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n)]
            inst = Instance(
                tuple(tuple(v * s for v in row) for row, s in zip(inst.d, scales))
            )
        assert best_efx_factor(inst) == _unpruned_best_efx_factor(inst), (trial, inst.d)


# best_efx_factor on 420 seeded instances, as the branch and bound with
# only cuts (a) and (b) computed it: str() of each verdict, one a line.
ORACLE_DIGEST = "845af1905ecaefd60392e392f9e961816ef42943c02c691f6f9ae870bbc0373e"

# All shapes but 4x2 reach the count cut (c), and 4x6..4x9, 5x6 and 5x7
# the water-level cut (d); the last four have m < n - 1.
_DIGEST_SHAPES = (
    (4, 6), (4, 7), (4, 8), (4, 9), (3, 8), (3, 9), (5, 5),
    (5, 6), (5, 7), (6, 6), (4, 2), (5, 3), (6, 4), (6, 3),
)


def _random_oracle_case(rng, trial):
    """Uniform 1..20 or 1..3, or bivalued 2 or 5/2 rows; every third
    instance has fractional row factors."""
    n, m = _DIGEST_SHAPES[trial % len(_DIGEST_SHAPES)]
    dists = (UniformInt(1, 20), UniformInt(1, 3), Bivalued(Fraction(2)), Bivalued(Fraction(5, 2)))
    inst = generate_random(rng.randrange(1 << 30), n, m, rng.choice(dists))
    if trial % 3 == 2:
        scales = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n)]
        inst = Instance(tuple(tuple(v * s for v in row) for row, s in zip(inst.d, scales)))
    return inst


def test_best_efx_factor_digest():
    rng = random.Random(47)
    h = hashlib.sha256()
    for trial in range(420):
        h.update(f"{best_efx_factor(_random_oracle_case(rng, trial))}\n".encode())
    assert h.hexdigest() == ORACLE_DIGEST


def _permuted(inst, agents, chores):
    return Instance(tuple(tuple(inst.d[i][j] for j in chores) for i in agents))


def test_best_efx_factor_invariant_under_permutations():
    # The search order is a function of the values, so relabelling the
    # agents or the chores changes which leaves are visited first; the
    # minimum over all leaves must not move.
    rng = random.Random(43)
    dists = [UniformInt(1, 20), Bivalued(Fraction(2)), UniformInt(1, 9)]
    for trial in range(200):
        n = rng.randint(1, 4)
        m = rng.randint(0, 7)
        inst = generate_random(rng.randrange(1 << 30), n, m, dists[trial % 3])
        if trial % 3 == 2:
            scales = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n)]
            inst = Instance(
                tuple(tuple(v * s for v in row) for row, s in zip(inst.d, scales))
            )
        best = best_efx_factor(inst)
        agents = rng.sample(range(n), n)
        chores = rng.sample(range(m), m)
        for a, c in ((agents, range(m)), (range(n), chores), (agents, chores)):
            assert best_efx_factor(_permuted(inst, a, c)) == best, (trial, inst.d, a, c)


def test_best_efx_factor_order_edge_cases():
    for n in (2, 3):
        assert best_efx_factor(Instance(((),) * n)) == 0
    assert best_efx_factor(make_instance([[4, 5, 6]])) == 0
    # Identical (or proportional) rows tie every chore and owner key.
    for rows in (
        [[3, 1, 2, 2, 1]] * 2,
        [[3, 1, 2, 2]] * 3,
        [[2, 2, 2, 2, 2], [1, 1, 1, 1, 1]],
        [[1, 2, 3], [2, 4, 6], [3, 6, 9]],
    ):
        inst = make_instance(rows)
        assert best_efx_factor(inst) == _unpruned_best_efx_factor(inst), rows


def test_best_efx_factor_receiver_takes_a_new_least_chore():
    # Chores are visited costliest first, so a receiver's later chore is
    # often its new least chore (w < minv[a]). Bound (b) is tested with it
    # before the column moves, and the least chore kept for the subtree
    # must be the new one. In the first instance the optimum {3} | {2, 1}
    # gives agent 2 chore 1 after chore 2; with its least chore left at 2
    # it would read agent 2's residual as 1, not 2, and return 1/3.
    for rows, best in (
        ([[1, 2, 3], [1, 2, 3]], Fraction(2, 3)),
        ([[5, 1, 4, 2], [1, 6, 2, 5], [3, 3, 1, 4]], Fraction(2, 5)),
    ):
        inst = make_instance(rows)
        assert best_efx_factor(inst) == _unpruned_best_efx_factor(inst) == best, rows


def test_best_efx_factor_bound_b_meets_incumbent():
    # Three agents and six unit chores: the best split gives two chores
    # each, factor 1/2. Once that is the incumbent, an agent taking its
    # second chore has hat 1 over an average rival sum of (6 - 2) / 2, so
    # bound (b) equals the incumbent exactly and cuts: no leaf below it
    # is strictly smaller. The same holds for two agents and four chores.
    for rows in ([[1] * 6] * 3, [[1] * 4] * 2):
        inst = make_instance(rows)
        assert best_efx_factor(inst) == _unpruned_best_efx_factor(inst) == Fraction(1, 2)


def test_pef1_mpb_exists_examples():
    assert search_pef1_mpb(make_instance([[5, 6]])) is not None
    assert search_pef1_mpb(inst_i1()) is not None


def test_generate_valid_certificate_contract():
    nh_empty_seen = False
    weak_seen = strict_seen = False
    residuals = 0
    for seed in range(120):
        inst, alloc, cert = generate_valid_certificate(seed)
        assert validate_certificate(inst, alloc, cert) == []
        nh_empty_seen = nh_empty_seen or not cert.nh
        weak_seen = weak_seen or cert.weak
        strict_seen = strict_seen or not cert.weak
        if not cert.weak:
            continue
        # Weak mode: each N_H agent's cheapest residual chore is also a
        # global minimum of its row, not only of its bundle.
        for h in cert.nh:
            b = alloc.bundles()[h]
            residual = [j for j in b if j != designated_chore(inst, h, b)]
            if residual:
                residuals += 1
                assert min(inst.d[h][j] for j in residual) == min(inst.d[h]), (seed, h)
    assert nh_empty_seen and weak_seen and strict_seen
    assert residuals >= 20, residuals


def test_generate_valid_certificate_bounds():
    with pytest.raises(GenerationBudgetExceeded):
        generate_valid_certificate(0, CertificateBounds(n_max=0))
    inst, _, cert = generate_valid_certificate(
        3, CertificateBounds(n_max=3, lams=(Fraction(2),))
    )
    assert inst.n <= 3 and cert.lam == 2


def test_verify_trace_round_trip():
    for seed in range(40):
        inst, y, cert = generate_valid_certificate(seed)
        x, trace = run_framework(inst, y, cert)
        assert verify_trace(inst, y, cert, trace)


def test_verify_trace_replays_swap_phase():
    # Generated certificates never swap; two-phase round-robin starts with
    # every agent in N_H reach Phase 2 in about one run in ten.
    rng = random.Random(3)
    swaps = 0
    for _ in range(400):
        n = rng.randint(3, 8)
        m = rng.randint(n + 1, 2 * n)
        inst = generate_random(rng.randrange(1 << 30), n, m, UniformInt(1, 20))
        y = _round_robin_two_phase(inst)
        cert = FriendlyCertificate(Fraction(1), frozenset(), frozenset(range(n)), weak=True)
        x, trace = run_framework(inst, y, cert)
        assert verify_trace(inst, y, cert, trace)
        swaps += trace.swap_count
    assert swaps >= 40


def test_verify_trace_rejects_forged_swap():
    for seed in range(50):
        inst, y, cert = generate_valid_certificate(seed)
        if cert.nh and inst.n > 1:
            break
    x, trace = run_framework(inst, y, cert)
    forged = replace(trace)
    i = sorted(cert.nh)[0]
    other = next(h for h in range(inst.n) if h != i)
    forged.swaps = list(trace.swaps) + [(i, other, y.bundles()[i][0])]
    with pytest.raises(TraceMismatch):
        verify_trace(inst, y, cert, forged)


def test_verify_trace_rejects_forged_factor():
    inst, y, cert = generate_valid_certificate(1)
    x, trace = run_framework(inst, y, cert)
    forged = replace(trace)
    forged.final_factor = (trace.final_factor or Fraction(1)) + 1
    with pytest.raises(TraceMismatch):
        verify_trace(inst, y, cert, forged)


def test_verify_trace_empty_nh():
    inst = make_instance([[1, 2], [2, 1]])
    alloc = Allocation(2, (0, 1))
    cert = FriendlyCertificate(Fraction(2), frozenset({0, 1}), frozenset(), False)
    x, trace = run_framework(inst, alloc, cert)
    assert verify_trace(inst, alloc, cert, trace)
    # N0 and NH that do not partition the agents: an N_H agent out of
    # range, and an agent in both parts.
    for n0, nh in (({0}, {1, 2}), ({0, 1}, {1})):
        bad = FriendlyCertificate(Fraction(2), frozenset(n0), frozenset(nh), False)
        with pytest.raises(CertificateInvalid):
            verify_trace(inst, alloc, bad, trace)
    # A start with an empty bundle: run_framework and the replay both
    # raise EmptyBundle.
    inst = Instance(((1, 2, 3), (3, 2, 1), (2, 2, 2)))
    empty = Allocation(3, (0, 0, 1))
    cert = FriendlyCertificate(Fraction(2), frozenset({0, 1}), frozenset({2}), False)
    with pytest.raises(EmptyBundle):
        run_framework(inst, empty, cert)
    with pytest.raises(EmptyBundle):
        verify_trace(inst, empty, cert, trace)


def test_oracle_solver_agreement_sample():
    rng = random.Random(71)
    for trial in range(25):
        n = rng.choice([2, 3])
        m = rng.randint(n, 6)
        inst = generate_random(900 + trial, n, m, UniformInt(1, 20))
        best = best_efx_factor(inst)
        res = solve_2efx(inst)
        assert res is not None
        assert best <= 2
        assert best <= res.trace.final_factor

