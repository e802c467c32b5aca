import itertools
import random
from fractions import Fraction

import pytest

from choreswap import (
    Allocation,
    Instance,
    efx_factor,
    generate_random,
    search_pef1_mpb,
    solve_2efx,
    solve_4efx,
    solve_bivalued,
    solve_small_m,
    validate_certificate,
    validate_rounded_er,
)
from choreswap import pipelines
from choreswap.errors import (
    BudgetExceeded,
    InvariantViolation,
    NotBivalued,
    PostconditionViolated,
    RhoNotLessThanK,
    RoundedInputInvalid,
    TooManyChores,
)
from choreswap.fairness import is_alpha_efx, is_pefk, is_po_bruteforce
from choreswap.market import is_mpb_allocation
from choreswap.model import Bivalued, UniformInt
from choreswap.oracle import verify_trace
from choreswap.pipelines import certificate_from_pef1

from conftest import (
    HALF,
    ROUNDED_SHAPES,
    inst_i1,
    inst_i2,
    make_instance,
    pef1_start,
    rounded_fixture,
    scale_rows,
)


def test_search_pef1_mpb_i1_golden():
    # Every chore starts with agent 0 (ties go to the lowest index); one
    # move to the least earner, agent 1, makes the start pEF1.
    sol = search_pef1_mpb(inst_i1())
    assert sol.x.owners == (1, 0, 0)
    assert sol.p == (Fraction(1), Fraction(1), Fraction(10))


def test_search_pef1_mpb_single_agent():
    inst = make_instance([[2, 3, 4]])
    sol = search_pef1_mpb(inst)
    assert sol.x.owners == (0, 0, 0)
    assert is_mpb_allocation(inst, sol.x, sol.p)


def test_certificate_from_pef1_i1():
    inst = inst_i1()
    sol = pef1_start(Allocation(2, (0, 0, 1)), (1, 1, 10))
    cert = certificate_from_pef1(inst, sol)
    assert cert.lam == 2 and not cert.weak
    assert cert.n0 == frozenset({0}) and cert.nh == frozenset({1})
    assert validate_certificate(inst, sol.x, cert) == []


def test_certificate_from_pef1_all_n0():
    inst = make_instance([[2, 2, 3], [2, 2, 3]])
    sol = pef1_start(Allocation(2, (1, 1, 0)), (2, 2, 3))
    cert = certificate_from_pef1(inst, sol)
    assert cert.nh == frozenset()
    assert validate_certificate(inst, sol.x, cert) == []


def test_certificate_from_pef1_singletons():
    inst = make_instance([[1, 5], [5, 1]])
    sol = pef1_start(Allocation(2, (0, 1)), (1, 1))
    cert = certificate_from_pef1(inst, sol)
    assert cert.nh == frozenset()


def test_certificate_from_pef1_rejects_bad_solution():
    inst = make_instance([[1, 5], [5, 1]])
    bad = pef1_start(Allocation(2, (1, 0)), (1, 1))
    with pytest.raises(InvariantViolation):
        certificate_from_pef1(inst, bad)


def test_solve_2efx_i1():
    inst = inst_i1()
    res = solve_2efx(inst)
    assert res.trace.final_factor == Fraction(1, 10)
    assert res.trace.swap_count == 1
    assert verify_trace(inst, res.start, res.cert, res.trace)
    assert efx_factor(inst, res.x) <= 2


def test_solve_2efx_single_agent():
    inst = make_instance([[3, 4]])
    res = solve_2efx(inst)
    assert efx_factor(inst, res.x) == 0


def test_solve_2efx_fewer_chores_than_agents():
    inst = make_instance([[3], [4], [5]])
    res = solve_2efx(inst)
    assert efx_factor(inst, res.x) == 0


def test_solve_2efx_raises_without_start(monkeypatch):
    # A start that fails the pEF1+MPB gate is a finding, not a result.
    bad = pef1_start(Allocation(2, (1, 0, 0)), (1, 1, 1))
    monkeypatch.setattr(pipelines, "search_pef1_mpb", lambda inst: bad)
    with pytest.raises(InvariantViolation, match="^solution is not an MPB allocation$"):
        solve_2efx(inst_i1())


def test_solve_2efx_market_step_cap_is_a_finding(monkeypatch):
    # The start of inst_i1 is not pEF1, so one step is needed.
    monkeypatch.setattr(pipelines, "MARKET_STEPS_PER_NM", 0)
    with pytest.raises(PostconditionViolated, match="passed its cap of 0 steps") as e:
        solve_2efx(inst_i1())
    assert e.value.trace is None


def test_solve_bivalued_example():
    inst = make_instance([[1, 1, 2], [1, 1, 2]])
    res = solve_bivalued(inst)
    assert efx_factor(inst, res.x) <= Fraction(3, 2)
    assert is_mpb_allocation(inst, res.x, res.prices)
    assert is_po_bruteforce(inst, res.x).is_po


def test_solve_bivalued_k1_exact_efx():
    inst = make_instance([[3, 3, 3], [3, 3, 3]])
    res = solve_bivalued(inst)
    assert efx_factor(inst, res.x) <= 1


def test_solve_bivalued_scaled_values():
    # values {2, 6} give k = 3 after normalization
    inst = make_instance([[2, 6, 2, 6, 2], [6, 2, 2, 2, 6]])
    res = solve_bivalued(inst)
    assert efx_factor(inst, res.x) <= Fraction(5, 3)
    assert is_po_bruteforce(inst, res.x).is_po


def test_solve_bivalued_raises_without_start(monkeypatch):
    # A start that fails the pEF1+MPB gate is a finding, not a result.
    inst = make_instance([[1, 1, 2], [1, 1, 2]])
    bad = pef1_start(Allocation(2, (0, 0, 0)), (1, 1, 2))
    monkeypatch.setattr(pipelines, "search_pef1_mpb", lambda inst: bad)
    with pytest.raises(InvariantViolation, match="^solution is not pEF1$"):
        solve_bivalued(inst)


def test_solve_bivalued_rejects_a_start_priced_outside_1_k(monkeypatch):
    # An MPB, pEF1 start whose prices are not in {1, k} is a finding.
    inst = make_instance([[1, 2], [2, 1]])
    off = pef1_start(Allocation(2, (0, 1)), (1, Fraction(3, 2)))
    assert is_mpb_allocation(inst, off.x, off.p)
    monkeypatch.setattr(pipelines, "search_pef1_mpb", lambda inst: off)
    with pytest.raises(PostconditionViolated, match=r"^market prices \{1, 3/2\} are not in \{1, 2\} \(finding\)$"):
        solve_bivalued(inst)


def test_solve_bivalued_rejects_price_floor_k_when_k_is_not_a_whole_price(monkeypatch):
    # With k = 5/2 and unit 1, price k is not an integer on the start's
    # scale, so only price 1 is allowed; 2 = floor(k * unit) is not k.
    inst = make_instance([[2, 5], [5, 2]])
    off = pef1_start(Allocation(2, (0, 1)), (1, 2))
    monkeypatch.setattr(pipelines, "search_pef1_mpb", lambda inst: off)
    with pytest.raises(PostconditionViolated, match=r"^market prices \{1, 2\} are not in \{1, 5/2\} \(finding\)$"):
        solve_bivalued(inst)


def test_every_small_bivalued_matrix_has_a_1_k_start():
    # Every {1, 5/2} matrix with n = 2, m <= 6 and n = 3, m <= 4, plus the
    # single-valued shapes, gets a {1,k}-priced start from the market loop
    # and a (2 - 1/k)-EFX output that stays MPB under those prices.
    k = Fraction(5, 2)
    shapes = [(2, m) for m in range(1, 7)] + [(3, m) for m in range(1, 5)]
    instances = [
        Instance(tuple(cells[i * m : (i + 1) * m] for i in range(n)))
        for n, m in shapes
        for cells in itertools.product((Fraction(1), k), repeat=n * m)
    ]
    instances += [make_instance([[3] * m] * n) for n in range(1, 6) for m in range(1, 9)]
    assert len(instances) == 10180
    for inst in instances:
        k_inst = inst.bivalued_k()
        res = solve_bivalued(inst)
        assert set(res.prices) <= {1, k_inst}, inst.d
        assert efx_factor(inst, res.x) <= 2 - 1 / k_inst, inst.d
        assert is_mpb_allocation(inst, res.x, res.prices), inst.d


def _bivalued_cases(count, rng):
    """Seeded bivalued instances, k cycling through 2, 3, 5/2 and 7/3; one
    in four has every row scaled by one rational factor, which keeps k."""
    ks = [Fraction(2), Fraction(3), Fraction(5, 2), Fraction(7, 3)]
    for case in range(count):
        n = rng.randint(2, 3)
        inst = generate_random(case, n, rng.randint(2 * n + 1, 8), Bivalued(ks[case % 4]))
        if case // 4 % 4 == 3:
            inst = scale_rows(inst, [Fraction(rng.randint(1, 9), rng.randint(1, 9))] * n)
        yield inst


def test_bivalued_early_exit_iff_the_start_is_within_lambda():
    # The early exit is decided on integers; it must fire exactly when the
    # start's factor is at most 2 - 1/k. The last instance's start has
    # factor 3/2 = 2 - 1/2 exactly: agent 1 holds values 1, 1, 2 (3 after
    # dropping a 1) against agent 2's single chore of value 2.
    exact = make_instance([[1, 1, 2, 2], [2, 2, 2, 2]])
    seen = {True: 0, False: 0}
    for inst in [*_bivalued_cases(400, random.Random(33)), exact]:
        res = solve_bivalued(inst)
        start = res.x if res.start is None else res.start
        early = "early-exit" in res.notes
        assert early == (efx_factor(inst, start) <= 2 - 1 / inst.bivalued_k()), inst.d
        seen[early] += 1
    assert (res.x.owners, res.notes) == ((0, 0, 1, 0), ["early-exit"])
    assert efx_factor(exact, res.x) == Fraction(3, 2)
    assert min(seen.values()) >= 5, seen


def test_pef1_prices_share_one_fraction_per_distinct_price():
    # Pef1Solution.p equals the per-price Fractions and builds one per
    # distinct integer price.
    rng = random.Random(8)
    uniform = [generate_random(s, 3, 8, UniformInt(1, 20)) for s in range(20)]
    cases = [*_bivalued_cases(40, rng), *uniform]
    units = set()
    for inst in cases:
        sol = search_pef1_mpb(inst)
        assert sol.p == tuple(Fraction(v, sol.unit) for v in sol.P), inst.d
        assert len(set(map(id, sol.p))) == len(set(sol.P)), inst.d
        units.add(sol.unit)
    assert len(units) > 1


@pytest.mark.parametrize("k", [Fraction(3), Fraction(5, 2)])
@pytest.mark.parametrize("n, m, seeds", [(10, 100, (0, 1, 2)), (20, 200, (0, 1))])
def test_bivalued_ladder_is_verified(n, m, seeds, k):
    # Shapes far past the n^m owner vectors an exhaustive search can walk.
    for seed in seeds:
        inst = generate_random(seed, n, m, Bivalued(k))
        res = solve_bivalued(inst)
        assert is_alpha_efx(inst, res.x, 2 - 1 / k), seed
        assert is_mpb_allocation(inst, res.x, res.prices), seed
        if res.start is not None:
            assert verify_trace(inst, res.start, res.cert, res.trace), seed


@pytest.mark.parametrize("n, m, seeds, scaled", [
    (10, 100, (0, 1, 2), False),
    (20, 200, (0, 1), False),
    (10, 100, (7,), True),
])
def test_pef1_ladder_is_verified(n, m, seeds, scaled):
    # Shapes far past the n^m owner vectors an exhaustive search can walk;
    # the scaled case gives each row a fractional factor.
    rng = random.Random(5)
    for seed in seeds:
        inst = generate_random(seed, n, m, UniformInt(1, 20))
        if scaled:
            inst = scale_rows(inst, [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n)])
        res = solve_2efx(inst)
        assert is_alpha_efx(inst, res.x, 2), seed
        if res.start is not None:
            assert verify_trace(inst, res.start, res.cert, res.trace), seed
        if res.trace.swap_count == 0:
            assert is_mpb_allocation(inst, res.x, res.prices), seed


def test_solve_bivalued_raises_when_the_framework_loses_mpb(monkeypatch):
    # This instance runs the framework with one swap. The first integer
    # MPB test (the gate) passes and every replayed step then fails.
    inst = make_instance([[1, 1, 3], [1, 1, 3]])
    assert solve_bivalued(inst).trace.swap_count == 1
    answers = iter([True])
    monkeypatch.setattr(pipelines, "mpb_holds", lambda *args: next(answers, False))
    with pytest.raises(PostconditionViolated, match="broke MPB") as e:
        solve_bivalued(inst)
    assert e.value.trace.swap_count == 1


def test_bivalued_market_step_cap_is_a_finding(monkeypatch):
    # The start is not pEF1 for [[1, 1, 2], [1, 1, 2]], so one step is needed.
    monkeypatch.setattr(pipelines, "MARKET_STEPS_PER_NM", 0)
    with pytest.raises(PostconditionViolated, match="passed its cap of 0 steps"):
        solve_bivalued(make_instance([[1, 1, 2], [1, 1, 2]]))


class _Stop(Exception):
    pass


def _gate_starts(rng):
    """(instance, start) pairs: market starts of uniform, bivalued
    (k in {2, 5/2}) and row-scaled instances, each also with one owner
    moved and with one price raised."""
    for case in range(600):
        n, m = rng.randint(2, 4), rng.randint(1, 9)
        dist = [UniformInt(1, 20), Bivalued(Fraction(2)), Bivalued(Fraction(5, 2))][case % 3]
        inst = generate_random(case, n, m, dist)
        if case % 4 == 3:
            inst = scale_rows(inst, [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n)])
        sol = search_pef1_mpb(inst)
        owners, p = list(sol.x.owners), list(sol.p)
        j = rng.randrange(m)
        owners[j] = rng.choice([i for i in range(n) if i != owners[j]])
        p[rng.randrange(m)] *= rng.choice([Fraction(3, 2), 2, Fraction(5, 2)])
        yield inst, sol
        yield inst, pef1_start(Allocation(n, tuple(owners)), sol.p)
        yield inst, pef1_start(sol.x, p)


def test_integer_pef1_path_matches_the_fraction_checkers(monkeypatch):
    # The integer gate, the N_H splits and the bivalued rho < k test read
    # one integer price vector; each must agree with its Fraction form.
    # The bivalued candidate is stopped at the framework, and its factor
    # is patched past 2 - 1/k so that it reaches the rho test: no start
    # of the market loop has rho >= k.
    certs = []

    def stop(inst, Y, cert):
        certs.append(cert)
        raise _Stop

    monkeypatch.setattr(pipelines, "run_framework", stop)
    monkeypatch.setattr(pipelines, "efx_factor", lambda inst, X: Fraction(2))
    seen = {"mpb": 0, "pef1": 0, "pass": 0, "nh": 0, "rho": 0, "bivalued-nh": 0}
    for inst, start in _gate_starts(random.Random(21)):
        if not is_mpb_allocation(inst, start.x, start.p):
            want = "solution is not an MPB allocation"
        elif not is_pefk(inst, start.x, start.p, Fraction(1), 1):
            want = "solution is not pEF1"
        else:
            want = None
        try:
            gate = pipelines._require_pef1_mpb(inst, start)
        except InvariantViolation as e:
            assert str(e) == want, (inst.d, start)
            seen["mpb" if "MPB" in want else "pef1"] += 1
            continue
        assert want is None, (inst.d, start)
        seen["pass"] += 1
        bundles = start.x.bundles()
        if not all(bundles):
            continue
        earn = [sum((start.p[j] for j in b), Fraction(0)) for b in bundles]
        top = [max(start.p[j] for j in b) for b in bundles]
        nh = {i for i in range(inst.n) if top[i] > min(earn)}
        assert certificate_from_pef1(inst, start).nh == nh, (inst.d, start)
        seen["nh"] += bool(nh)
        k = inst.bivalued_k()
        if k is None:
            continue
        certs.clear()
        try:
            pipelines._bivalued_candidate(inst, k, start, *gate)
        except RhoNotLessThanK as e:
            assert not min(earn) < k
            assert str(e) == f"least earning {min(earn)} >= k = {k} contradicts the bivalued derivation"
            seen["rho"] += 1
        except _Stop:
            assert min(earn) < k
            assert certs[0].nh == {i for i in range(inst.n) if top[i] >= k}, (inst.d, start)
            seen["bivalued-nh"] += 1
    assert all(v >= 25 for v in seen.values()), sorted(seen.items())


@pytest.mark.parametrize("rows, owners, prices, text", [
    # A pEF1+MPB start whose least earning 7/2 reaches k = 5/2.
    ([["5/2", 1, 1, 1, 1, 1]] * 2, (0, 0, 1, 1, 1, 1), ["5/2", 1, 1, 1, 1, 1], "7/2"),
    # All prices k: rho is read in the start's own prices, not from min(P).
    ([["5/2"] * 3, ["5/2", "5/2", 1]], (0, 0, 1), ["5/2"] * 3, "5/2"),
])
def test_solve_bivalued_rejects_a_start_with_rho_at_least_k(monkeypatch, rows, owners, prices, text):
    # Such a start is EFX-close enough to exit early, so the factor is
    # patched past 2 - 1/k to reach the rho test.
    inst = make_instance([[Fraction(v) for v in row] for row in rows])
    start = pef1_start(Allocation(2, owners), [Fraction(v) for v in prices])
    monkeypatch.setattr(pipelines, "search_pef1_mpb", lambda inst: start)
    monkeypatch.setattr(pipelines, "efx_factor", lambda inst, X: Fraction(2))
    with pytest.raises(RhoNotLessThanK) as e:
        solve_bivalued(inst)
    assert str(e.value) == f"least earning {text} >= k = 5/2 contradicts the bivalued derivation"


def test_solve_bivalued_rejects_three_values():
    with pytest.raises(NotBivalued):
        solve_bivalued(make_instance([[1, 2, 3], [1, 2, 3]]))


def test_solve_small_m_i2_golden():
    inst = inst_i2()
    res = solve_small_m(inst)
    assert res.x.owners == (0, 0, 1, 1)
    assert res.trace.final_factor == Fraction(2, 7)


def test_solve_small_m_singletons():
    inst = make_instance([[4, 2], [2, 4]])
    res = solve_small_m(inst)
    assert efx_factor(inst, res.x) == 0


def test_solve_small_m_identical_rows():
    inst = make_instance([[1] * 6, [1] * 6, [1] * 6])
    res = solve_small_m(inst)
    assert res.trace.final_factor == Fraction(1, 2)


def test_solve_small_m_tie_sweep():
    # Both reproducers exited 2 while Phase A broke value ties to the lowest
    # chore index: a tie designated an agent's Phase-A pick, another agent
    # took it in Phase 1, and a swap then broke invariant (ii). Values 1..3
    # make such ties common; a failed invariant raises PostconditionViolated.
    for (n, m, seed), factor in [
        ((7, 12, 2076572547), Fraction(13, 14)),
        ((8, 15, 278791719), Fraction(8, 9)),
    ]:
        res = solve_small_m(generate_random(seed, n, m, UniformInt(1, 20)))
        assert (res.trace.final_factor, res.trace.swap_count) == (factor, 1)
    rng = random.Random(1103)
    swaps = 0
    for _ in range(1500):
        n = rng.randint(3, 8)
        m = rng.randint(n + 1, 2 * n)
        inst = generate_random(rng.randrange(1 << 30), n, m, UniformInt(1, 3))
        res = solve_small_m(inst)
        assert efx_factor(inst, res.x) <= 1
        swaps += res.trace.swap_count
    assert swaps > 20, swaps


def test_solve_small_m_rejects_large_m():
    with pytest.raises(TooManyChores):
        solve_small_m(make_instance([[1] * 5, [1] * 5]))


def test_validate_rounded_er_property_ii():
    # two high chores plus low earnings of 3/5 > 1/2
    p = (Fraction(3, 4), Fraction(3, 4), Fraction(3, 10), Fraction(3, 10), HALF)
    owners = (0, 0, 0, 0, 1)
    d = [list(p), list(p)]
    inst = Instance(tuple(tuple(r) for r in d))
    rounded, violations = validate_rounded_er(inst, Allocation(2, owners), p)
    assert rounded is None
    assert any("(ii)" in v for v in violations)


def test_validate_rounded_er_singletons_valid():
    p = (Fraction(3, 4), Fraction(1, 2), Fraction(3, 2))
    owners = (0, 1, 2)
    d = [list(p), list(p), list(p)]
    inst = Instance(tuple(tuple(r) for r in d))
    rounded, violations = validate_rounded_er(inst, Allocation(3, owners), p)
    assert violations == []
    assert rounded.h_set == frozenset({0, 2})


def test_validate_rounded_er_reports_non_positive_prices():
    # Returned as violations, as a length mismatch is, before the MPB test
    # (which would raise NonPositivePrice).
    inst = make_instance([[1, 1, 1], [1, 1, 1]])
    p = (HALF, Fraction(0), Fraction(-1, 2))
    assert validate_rounded_er(inst, Allocation(2, (0, 0, 1)), p) == (
        None,
        ["price p_2 = 0 is not positive", "price p_3 = -1/2 is not positive"],
    )
    assert validate_rounded_er(inst, Allocation(2, (0, 0, 1)), p[:2]) == (
        None,
        ["price vector length mismatch"],
    )


def test_validate_rounded_er_property_i():
    p = (Fraction(3, 4),) * 3 + (HALF,)
    owners = (0, 0, 0, 1)
    d = [list(p), list(p)]
    inst = Instance(tuple(tuple(r) for r in d))
    rounded, violations = validate_rounded_er(inst, Allocation(2, owners), p)
    assert rounded is None
    assert any("(i)" in v for v in violations)


def test_validate_rounded_er_scaling_and_mpb():
    inst, x, p = rounded_fixture(0, [1, 1], [2, 2])
    rounded, violations = validate_rounded_er(inst, x, p)
    assert violations == []
    bad = Instance(
        tuple(
            tuple(v * 2 if i == 0 else v for v in row)
            for i, row in enumerate(inst.d)
        )
    )
    _, violations = validate_rounded_er(bad, x, p)
    assert violations


def test_solve_4efx_rejects_small_m():
    inst, x, p = rounded_fixture(1, [1, 1], [1, 1])
    rounded, violations = validate_rounded_er(inst, x, p)
    assert violations == []
    with pytest.raises(RoundedInputInvalid):
        solve_4efx(inst, rounded)


def test_solve_4efx_fixture_corpus():
    assert len(ROUNDED_SHAPES) >= 20
    for seed, highs, lows in ROUNDED_SHAPES:
        inst, x, p = rounded_fixture(seed, highs, lows)
        rounded, violations = validate_rounded_er(inst, x, p)
        assert violations == [], (seed, violations)
        res = solve_4efx(inst, rounded)
        assert efx_factor(inst, res.x) <= 4, seed


def test_solve_4efx_coupling_budget():
    # The small-m bundles of this fixture fail the first (identity) coupling.
    inst, x, p = rounded_fixture(3, [0, 2, 2], [3, 1, 1])
    rounded, violations = validate_rounded_er(inst, x, p)
    assert violations == []
    assert solve_4efx(inst, rounded).notes == ["re-coupled high-chore bundles"]
    with pytest.raises(BudgetExceeded):
        solve_4efx(inst, rounded, budget=1)
