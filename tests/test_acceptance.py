"""Acceptance suite: one test per top-level guarantee, each printing a
PASS line with its measured statistics. All fairness comparisons are
exact rational comparisons with zero tolerance."""

import random
import time
from fractions import Fraction

from choreswap import (
    Allocation,
    FriendlyCertificate,
    best_efx_factor,
    efx_factor,
    generate_random,
    hat_d,
    run_framework,
    solve_2efx,
    solve_4efx,
    solve_bivalued,
    solve_small_m,
    validate_rounded_er,
)
from choreswap.fairness import is_alpha_efk, is_pefk, is_pefx, is_po_bruteforce
from choreswap.market import is_mpb_allocation
from choreswap.model import Bivalued, UniformInt, bundle_disutility
from choreswap.oracle import CertificateBounds, generate_valid_certificate

from conftest import ROUNDED_SHAPES, inst_i3, rounded_fixture, scale_rows


def corpus_2efx():
    rng = random.Random(12345)
    out = []
    for idx in range(500):
        n = rng.choice([2, 3, 4])
        m = rng.randint(n, 8)
        out.append(generate_random(1000 + idx, n, m, UniformInt(1, 20)))
    return out


def test_criterion_1_two_efx_guarantee():
    t0 = time.perf_counter()
    worst = Fraction(0)
    for inst in corpus_2efx():
        res = solve_2efx(inst)
        assert res is not None, "solve_2efx returned no result; a failed market start raises"
        factor = efx_factor(inst, res.x)
        assert factor <= 2
        worst = max(worst, factor)
    elapsed = time.perf_counter() - t0
    assert elapsed < 600
    print(f"PASS criterion 1: 500/500 instances 2-EFX, "
          f"max factor {worst}, {elapsed:.1f}s")


def test_criterion_2_bivalued_guarantee():
    t0 = time.perf_counter()
    checked = 0
    for k in (2, 3, 5):
        rng = random.Random(777 + k)
        lam = 2 - Fraction(1, k)
        for idx in range(200):
            n = rng.randint(1, 4)
            m = rng.randint(n, 8)
            inst = generate_random(5000 + k * 1000 + idx, n, m, Bivalued(Fraction(k)))
            res = solve_bivalued(inst)
            assert efx_factor(inst, res.x) <= lam
            assert is_mpb_allocation(inst, res.x, res.prices)
            assert is_po_bruteforce(inst, res.x).is_po
            checked += 1
    elapsed = time.perf_counter() - t0
    print(f"PASS criterion 2: {checked} bivalued instances "
          f"(2-1/k)-EFX with MPB certificate and PO, {elapsed:.1f}s")


def test_criterion_3_small_m_guarantee():
    rng = random.Random(99)
    worst_ms = 0.0
    for idx in range(200):
        n = rng.randint(1, 5)
        m = rng.randint(0, 2 * n)
        inst = generate_random(4242 + idx, n, m, UniformInt(1, 20))
        solve_small_m(inst)  # warm up caches before timing
        best = None
        for _ in range(9):
            t0 = time.perf_counter()
            res = solve_small_m(inst)
            dt = time.perf_counter() - t0
            best = dt if best is None else min(best, dt)
        assert efx_factor(inst, res.x) <= 1
        worst_ms = max(worst_ms, best * 1000)
    assert worst_ms < 1.0
    print(f"PASS criterion 3: 200 instances exactly EFX, "
          f"worst runtime {worst_ms:.3f} ms")


def test_criterion_4_four_efx_pipeline():
    singleton_branch = multi_branch = 0
    for seed, highs, lows in ROUNDED_SHAPES:
        inst, x, p = rounded_fixture(seed, highs, lows)
        rounded, violations = validate_rounded_er(inst, x, p)
        assert violations == [], (seed, violations)
        if len(rounded.h_set) <= inst.n:
            singleton_branch += 1
        else:
            multi_branch += 1
        res = solve_4efx(inst, rounded)
        assert efx_factor(inst, res.x) <= 4
    assert len(ROUNDED_SHAPES) >= 20
    assert singleton_branch and multi_branch
    print(f"PASS criterion 4: {len(ROUNDED_SHAPES)} rounded fixtures 4-EFX "
          f"({singleton_branch} single-high, {multi_branch} multi-high)")


def test_criterion_5_framework_soundness():
    swaps_total = 0
    for seed in range(1000):
        inst, y, cert = generate_valid_certificate(seed, CertificateBounds())
        x, trace = run_framework(inst, y, cert)
        assert trace.swap_count <= len(cert.nh)
        assert all(ok for _, _, ok in trace.invariants)
        assert efx_factor(inst, x) <= cert.lam
        swaps_total += trace.swap_count
    # The generated corpus stays lambda-EFX after phase 1; exercise the
    # swap phase explicitly as well.
    inst = inst_i3()
    swap_cert = FriendlyCertificate(
        Fraction(2), frozenset(), frozenset({0, 1}), False
    )
    x, trace = run_framework(inst, Allocation(2, (0, 0, 1, 1)), swap_cert)
    assert trace.swap_count == 1
    assert all(ok for _, _, ok in trace.invariants)
    assert efx_factor(inst, x) <= 2
    print(f"PASS criterion 5: 1001 certificates, all invariants PASS, "
          f"{swaps_total + trace.swap_count} total swaps")


def test_criterion_6_oracle_cross_validation():
    t0 = time.perf_counter()
    worst = Fraction(0)
    for inst in corpus_2efx():
        best = best_efx_factor(inst)
        assert best <= 2
        res = solve_2efx(inst)
        assert best <= efx_factor(inst, res.x)
        worst = max(worst, best)
    elapsed = time.perf_counter() - t0
    print(f"PASS criterion 6: oracle best factor <= solver factor <= 2 "
          f"on 500 instances, max oracle factor {worst}, {elapsed:.1f}s")


def test_criterion_7_checker_algebra():
    rng = random.Random(31337)
    checks = 0
    while checks < 10000:
        n = rng.randint(2, 3)
        m = rng.randint(n, 6)
        inst = generate_random(rng.randrange(1 << 30), n, m, UniformInt(1, 12))
        x = Allocation(n, tuple(rng.randrange(n) for _ in range(m)))
        i = rng.randrange(n)
        s = [j for j in range(m) if rng.random() < 0.5]

        # scale invariance
        factors = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n)]
        assert efx_factor(inst, x) == efx_factor(scale_rows(inst, factors), x)
        checks += 1

        # EFk monotonicity
        alpha = Fraction(rng.randint(0, 30), 10)
        k = rng.randint(0, 2)
        if is_alpha_efk(inst, x, alpha, k):
            assert is_alpha_efk(inst, x, alpha + Fraction(1, 2), k)
            assert is_alpha_efk(inst, x, alpha, k + 1)
        checks += 1

        # pEFX implies pEF1
        p = tuple(Fraction(rng.randint(1, 9)) for _ in range(m))
        if is_pefx(inst, x, p, alpha):
            assert is_pefk(inst, x, p, alpha, 1)
        checks += 1

        # hat_d identity
        if s:
            assert hat_d(inst, i, s) + min(inst.d[i][j] for j in s) == (
                bundle_disutility(inst, i, s)
            )
        else:
            assert hat_d(inst, i, s) == 0
        checks += 1
    print(f"PASS criterion 7: {checks} checker algebra properties, all exact")
