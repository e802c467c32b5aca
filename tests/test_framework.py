import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choreswap import (
    Allocation,
    FriendlyCertificate,
    Instance,
    efx_factor,
    generate_random,
    hat_d,
    run_framework,
    validate_certificate,
)
from choreswap.errors import (
    BadRational,
    CertificateInvalid,
    ChoreNotHeld,
    EmptyBundle,
    IncompleteAllocation,
    PostconditionViolated,
    SelfSwap,
)
from choreswap import framework
from choreswap.fairness import _envy_terms
from choreswap.framework import Violation, chore_swap, designated_chore
from choreswap.model import UniformInt, bundle_disutility
from choreswap.oracle import CertificateBounds, generate_valid_certificate
from choreswap.pipelines import _round_robin_two_phase, solve_small_m

import test_golden

from conftest import inst_i1, inst_i3, make_instance, scale_rows


def cert(lam, n0, nh, weak=False):
    return FriendlyCertificate(Fraction(lam), frozenset(n0), frozenset(nh), weak)


def test_validate_i1_valid():
    x = Allocation(2, (0, 0, 1))
    assert validate_certificate(inst_i1(), x, cert(2, {0}, {1})) == []


def test_validate_i3_valid():
    x = Allocation(2, (0, 0, 1, 1))
    assert validate_certificate(inst_i3(), x, cert(2, set(), {0, 1})) == []


def test_validate_violation_pinned():
    x = Allocation(2, (0, 0, 1))
    violations = validate_certificate(inst_i1(), x, cert(1, {0, 1}, set()))
    assert violations
    v = violations[0]
    # agent 2's whole bundle (10) against agent 1's bundle (2) at lambda 1
    assert v.condition == "i"
    assert v.agent == 1 and v.other == 0
    assert v.lhs == 10 and v.rhs == 2


def test_validate_partition_and_empty_bundle():
    x = Allocation(2, (0, 0, 1))
    with pytest.raises(CertificateInvalid):
        validate_certificate(inst_i1(), x, cert(2, {0}, {0, 1}))
    with pytest.raises(EmptyBundle):
        validate_certificate(inst_i1(), Allocation(2, (0, 0, 0)), cert(2, {0}, {1}))
    with pytest.raises(IncompleteAllocation):  # raised by the constructor
        Allocation(2, (0, None, 1))
    # An inexact lambda is rejected when the certificate is built.
    for lam in (2.0, True, "2"):
        with pytest.raises(BadRational):
            FriendlyCertificate(lam, frozenset({0, 1}), frozenset())


def test_designated_chore_tie_break():
    inst = make_instance([[5, 5, 1]])
    assert designated_chore(inst, 0, [0, 1, 2]) == 0
    assert designated_chore(inst, 0, [2, 1]) == 1


def _fraction_designated(inst, i, bundle):
    best = None
    for j in sorted(bundle):
        if best is None or inst.d[i][j] > inst.d[i][best]:
            best = j
    return best


def _fraction_round_robin(inst):
    """Phase A ties to the highest chore index, Phase B to the lowest."""
    n, m = inst.n, inst.m
    pool = set(range(m))
    owners = [None] * m
    phase_a = [(i, -1) for i in range(m - n - 1, -1, -1)]
    for i, tie in [*phase_a, *((i, 1) for i in range(n))]:
        if not pool:
            break
        j = min(pool, key=lambda c: (inst.d[i][c], tie * c))
        pool.remove(j)
        owners[j] = i
    return Allocation(n, tuple(owners))


def test_integer_picks_match_fraction_reference():
    # Values from 1..3 force ties; fractional row factors make the integer
    # rows differ from d by a different scale per row.
    rng = random.Random(9090)
    ties = 0
    for _ in range(300):
        n = rng.randint(1, 6)
        m = rng.randint(0, 2 * n)
        inst = scale_rows(
            make_instance([[rng.randint(1, 3) for _ in range(m)] for _ in range(n)]),
            [Fraction(rng.randint(1, 50), rng.randint(1, 50)) for _ in range(n)],
        )
        for i in range(n):
            bundle = rng.sample(range(m), rng.randint(0, m))
            assert designated_chore(inst, i, bundle) == _fraction_designated(inst, i, bundle)
            vals = [inst.d[i][j] for j in bundle]
            ties += bool(vals) and vals.count(max(vals)) > 1
        assert _round_robin_two_phase(inst) == _fraction_round_robin(inst), inst.d
    assert ties > 100, ties


def test_chore_swap_examples():
    x = Allocation(2, (0, 0, 1))  # ({a,b},{c})
    assert chore_swap(x, 0, 1, 1).owners == (0, 1, 0)
    y = Allocation(2, (0, 1, 1))  # ({a},{b,c})
    assert chore_swap(y, 1, 0, 2).owners == (1, 1, 0)
    with pytest.raises(ChoreNotHeld):
        chore_swap(x, 0, 1, 2)
    with pytest.raises(SelfSwap):
        chore_swap(x, 0, 0, 0)


def test_run_framework_i3_golden():
    inst = inst_i3()
    y = Allocation(2, (0, 0, 1, 1))
    x, trace = run_framework(inst, y, cert(2, set(), {0, 1}))
    assert trace.picks == [(0, 1), (1, 3)]
    assert trace.swaps == [(1, 0, 3)]
    assert x.owners == (1, 1, 1, 0)
    assert trace.final_factor == Fraction(1, 25)
    assert efx_factor(inst, x) == Fraction(1, 25)
    log = trace.to_log()
    assert "PICK 1 2" in log and "PICK 2 4" in log
    assert "SWAP 2 1 4" in log
    assert log.strip().endswith("FACTOR 1/25")
    assert "FAIL" not in log


def test_run_framework_i1_zero_swaps():
    inst = inst_i1()
    y = Allocation(2, (0, 0, 1))
    x, trace = run_framework(inst, y, cert(2, {0}, {1}))
    assert x == y
    assert trace.picks == [(1, 2)]
    assert trace.swaps == []


def test_run_framework_empty_nh():
    inst = make_instance([[1, 2], [2, 1]])
    y = Allocation(2, (0, 1))
    x, trace = run_framework(inst, y, cert(2, {0, 1}, set()))
    assert x == y and trace.picks == [] and trace.swaps == []


def test_run_framework_rejects_invalid_certificate():
    inst = inst_i1()
    y = Allocation(2, (0, 0, 1))
    with pytest.raises(CertificateInvalid):
        run_framework(inst, y, cert(1, {0, 1}, set()))


def test_framework_preserves_chore_multiset():
    for seed in range(40):
        inst, y, c = generate_valid_certificate(seed, CertificateBounds(n_max=4, m_max=7))
        x, trace = run_framework(inst, y, c)
        assert x.m == inst.m and None not in x.owners
        assert sorted(j for b in x.bundles() for j in b) == list(range(inst.m))
        assert trace.swap_count <= len(c.nh)
        assert efx_factor(inst, x) <= c.lam


def test_incremental_state_matches_recompute(monkeypatch):
    # run_framework keeps one allocation state: after Phase 1 and after
    # every swap it must equal a from-scratch _envy_terms of the owners.
    checks = {"phase1": 0, "swap": 0}

    class CheckedState(framework._State):
        def check(self, when):
            X = self.allocation()
            nums, cross = _envy_terms(self.rows, X)
            assert [sorted(b) for b in self.bundles] == X.bundles()
            assert (self.nums, self.cross) == (nums, cross)
            checks[when] += 1

        def settle(self):
            super().settle()
            self.check("phase1")

        def swap(self, i, l, j_i):
            super().swap(i, l, j_i)
            self.check("swap")

    monkeypatch.setattr(framework, "_State", CheckedState)
    # The golden corpora of all four pipelines, with their outputs pinned.
    assert test_golden.golden_digest() == test_golden.GOLDEN_DIGEST
    assert checks["phase1"] > 0 and checks["swap"] > 0
    golden = dict(checks)
    # Small-m instances of the benchmark's shapes, where swaps are common.
    rng = random.Random(2323)
    swapped = 0
    for _ in range(2000):
        n = rng.randint(3, 8)
        m = rng.randint(n + 1, 2 * n)
        res = solve_small_m(generate_random(rng.randrange(1 << 30), n, m, UniformInt(1, 20)))
        swapped += res.trace.swap_count > 0
    assert checks["phase1"] == golden["phase1"] + 2000
    assert checks["swap"] - golden["swap"] >= swapped >= 200, swapped


def test_trace_log_shape():
    inst = inst_i3()
    y = Allocation(2, (0, 0, 1, 1))
    _, trace = run_framework(inst, y, cert(2, set(), {0, 1}))
    lines = trace.to_log().strip().split("\n")
    for ln in lines[:-1]:
        assert ln.split()[0] in ("PICK", "SWAP", "INV")
    assert lines[-1].startswith("FACTOR ")


def _row_scale_cases(rng):
    """Valid generated triples, the same triples with one agent moved
    across the partition or lambda cut, and random triples."""
    lams = CertificateBounds().lams
    for seed in range(300):
        inst, y, c = generate_valid_certificate(seed, CertificateBounds(n_max=4, m_max=7))
        yield inst, y, c
        i = rng.randrange(inst.n)
        nh = c.nh ^ {i}
        lam = rng.choice(lams)
        yield inst, y, FriendlyCertificate(lam, frozenset(range(inst.n)) - nh, nh, c.weak)
    for _ in range(300):
        n = rng.randint(1, 4)
        m = rng.randint(n, 8)
        inst = generate_random(rng.randrange(1 << 30), n, m, UniformInt(1, 6))
        owners = list(range(n)) + [rng.randrange(n) for _ in range(m - n)]
        rng.shuffle(owners)
        nh = frozenset(i for i in range(n) if rng.random() < 0.5)
        c = FriendlyCertificate(
            rng.choice(lams), frozenset(range(n)) - nh, nh, rng.random() < 0.5
        )
        yield inst, Allocation(n, tuple(owners)), c


def _run_outcome(inst, y, c):
    try:
        x, trace = run_framework(inst, y, c)
    except CertificateInvalid as e:
        return [(v.condition, v.agent, v.other) for v in e.violations]
    except PostconditionViolated as e:
        return e.trace.to_log()
    return x.owners, trace.to_log()


def test_certificate_and_run_are_row_scale_invariant():
    # Every certificate inequality and framework step compares one agent's
    # own values, so the pipelines may skip rescaling rows to prices.
    rng = random.Random(2718)
    valid = 0
    for inst, y, c in _row_scale_cases(rng):
        scaled = scale_rows(
            inst, [Fraction(rng.randint(1, 60), rng.randint(1, 60)) for _ in range(inst.n)]
        )
        before, after = (
            [(v.condition, v.agent, v.other) for v in validate_certificate(a, y, c)]
            for a in (inst, scaled)
        )
        assert before == after, (inst.d, y, c)
        valid += not before
        assert _run_outcome(inst, y, c) == _run_outcome(scaled, y, c), (inst.d, y, c)
    assert 300 <= valid < 900


def _pairwise_validate(inst, x, c):
    """Reference: every certificate inequality compared pair by pair in
    Fraction, with the Fraction designated chore."""
    violations = []
    bundles = x.bundles()
    desig = [_fraction_designated(inst, i, b) for i, b in enumerate(bundles)]
    residual = [[j for j in b if j != desig[i]] for i, b in enumerate(bundles)]
    lhs_of = hat_d if c.weak else bundle_disutility
    for i in sorted(c.n0):
        lhs = lhs_of(inst, i, bundles[i])
        for k in sorted(c.n0):
            rhs = c.lam * bundle_disutility(inst, i, bundles[k])
            if lhs > rhs:
                violations.append(Violation("i", i, k, lhs, rhs))
        for h in sorted(c.nh):
            rhs = c.lam * inst.d[i][desig[h]]
            if lhs > rhs:
                violations.append(Violation("ii", i, h, lhs, rhs))
    lam1 = c.lam - 1
    for i in sorted(c.nh):
        lhs = lhs_of(inst, i, residual[i])
        for k in sorted(c.n0):
            rhs = lam1 * bundle_disutility(inst, i, bundles[k])
            if lhs > rhs:
                violations.append(Violation("iii", i, k, lhs, rhs))
        for h in sorted(c.nh):
            rhs = lam1 * inst.d[i][desig[h]]
            if lhs > rhs:
                violations.append(Violation("iv", i, h, lhs, rhs))
        if c.weak and residual[i]:
            bundle_min = min(inst.d[i][j] for j in bundles[i])
            res_min = min(inst.d[i][j] for j in residual[i])
            if res_min > bundle_min:
                violations.append(Violation("bundle-min", i, None, res_min, bundle_min))
    return violations


LAMS = [Fraction(v) for v in ("-1", "0", "1/2", "1", "3/2", "2", "4")]


@st.composite
def certificate_triples(draw):
    """(instance, complete allocation without empty bundles, certificate).
    Small values make ties in bundles and designated chores common."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(n, 8))
    value = st.builds(Fraction, st.integers(1, 6), st.sampled_from([1, 1, 2, 3]))
    rows = draw(st.lists(st.lists(value, min_size=m, max_size=m), min_size=n, max_size=n))
    extra = draw(st.lists(st.integers(0, n - 1), min_size=m - n, max_size=m - n))
    owners = draw(st.permutations(list(range(n)) + extra))
    nh = draw(st.frozensets(st.integers(0, n - 1)))
    c = FriendlyCertificate(
        draw(st.sampled_from(LAMS)), frozenset(range(n)) - nh, nh, draw(st.booleans())
    )
    inst = Instance(tuple(tuple(row) for row in rows))
    return inst, Allocation(n, tuple(owners)), c


def test_validate_certificate_matches_pairwise_reference():
    seen = []

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(certificate_triples())
    def check(triple):
        inst, x, c = triple
        want = _pairwise_validate(inst, x, c)
        got = validate_certificate(inst, x, c)
        assert got == want
        assert [str(v) for v in got] == [str(v) for v in want]
        seen.append((c.lam, c.weak, bool(want)))

    check()
    assert {s[:2] for s in seen} == {(lam, weak) for lam in LAMS for weak in (False, True)}
    # Both outcomes are common: most of the 300 cases have a violation.
    with_violations = sum(s[2] for s in seen)
    assert len(seen) // 2 <= with_violations <= len(seen) - len(seen) // 10, with_violations
