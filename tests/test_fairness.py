import itertools
import random
from fractions import Fraction

import pytest

from choreswap import (
    INFINITE,
    Allocation,
    efx_factor,
    envy_report,
    generate_random,
    hat_d,
    verify_trace,
)
from choreswap.errors import (
    AgentOutOfRange,
    ChoreOutOfRange,
    ChoreSwapError,
    IncompleteAllocation,
    PriceLengthMismatch,
)
from choreswap.fairness import (
    PoResult,
    _envy_terms,
    is_alpha_efk,
    is_alpha_efx,
    is_pefk,
    is_pefx,
    is_po_bruteforce,
)
from choreswap.framework import FriendlyCertificate, SwapTrace, validate_certificate
from choreswap.market import is_mpb_allocation, mpb_price_feasibility
from choreswap.pipelines import validate_rounded_er
from choreswap.model import UniformInt, bundle_disutility, integer_row

from conftest import inst_i1, inst_i3, make_instance, scale_rows


def test_efx_factor_i1():
    inst = inst_i1()
    assert efx_factor(inst, Allocation(2, (0, 0, 1))) == Fraction(1, 10)


def test_efx_factor_singletons_zero():
    inst = make_instance([[5, 7], [2, 3]])
    assert efx_factor(inst, Allocation(2, (0, 1))) == 0


def test_efx_factor_empty_rival_infinite():
    inst = inst_i1()
    assert efx_factor(inst, Allocation(2, (0, 0, 0))) is INFINITE


def test_efx_factor_requires_complete():
    with pytest.raises(IncompleteAllocation):  # raised by the constructor
        Allocation(2, (0, None, 1))


def test_checkers_reject_allocation_of_another_shape():
    # No verdict (such as "po" or an Infinite factor for a short owner
    # vector) and no IndexError or TypeError: a typed shape error.
    inst = inst_i1()
    p = (Fraction(1), Fraction(1), Fraction(10))
    one = Fraction(1)
    cert = FriendlyCertificate(Fraction(2), frozenset({0}), frozenset({1}))
    checks = {
        "efx_factor": lambda X: efx_factor(inst, X),
        "is_alpha_efx": lambda X: is_alpha_efx(inst, X, one),
        "is_pefk": lambda X: is_pefk(inst, X, p, one, 1),
        "envy_report": lambda X: envy_report(inst, X),
        "validate_certificate": lambda X: validate_certificate(inst, X, cert),
        "is_po_bruteforce": lambda X: is_po_bruteforce(inst, X),
        "is_mpb_allocation": lambda X: is_mpb_allocation(inst, X, p),
        "mpb_price_feasibility": lambda X: mpb_price_feasibility(inst, X),
        "validate_rounded_er": lambda X: validate_rounded_er(inst, X, p),
        "verify_trace": lambda X: verify_trace(inst, X, cert, SwapTrace()),
    }
    wrong = [
        (Allocation(3, (0, 1, 2)), AgentOutOfRange),
        (Allocation(1, (0, 0, 0)), AgentOutOfRange),
        (Allocation(2, (0, 0)), ChoreOutOfRange),
        (Allocation(2, (0, 0, 1, 1)), ChoreOutOfRange),
    ]
    for name, check in checks.items():
        for X, error in wrong:
            with pytest.raises(ChoreSwapError) as e:
                check(X)
            assert type(e.value) is error, (name, X)


def test_price_checks_test_the_price_length_first():
    inst = inst_i1()
    short = (Fraction(1), Fraction(1))
    for X in (Allocation(2, (0, 0, 1)), Allocation(3, (0, 1, 2)), Allocation(2, (0, 0))):
        with pytest.raises(PriceLengthMismatch):
            is_pefk(inst, X, short, Fraction(1), 1)
        with pytest.raises(PriceLengthMismatch):
            is_pefx(inst, X, short, Fraction(1))


def test_is_alpha_efk_examples():
    inst = inst_i1()
    x = Allocation(2, (0, 0, 1))
    assert is_alpha_efk(inst, x, Fraction(1), 1)
    assert is_alpha_efk(inst, Allocation(2, (0, 0, 0)), Fraction(0), 3)
    assert not is_alpha_efk(inst, Allocation(2, (0, 0, 0)), Fraction(1), 1)
    with pytest.raises(ChoreSwapError):  # would keep only the cheapest chore
        is_alpha_efk(inst, Allocation(2, (0, 0, 0)), Fraction(1), -1)


def test_efk_shortcut_matches_subset_enumeration():
    rng = random.Random(17)
    scale_rng = random.Random(19)
    for trial in range(60):
        n, m = 2, rng.randint(2, 6)
        inst = generate_random(trial, n, m, UniformInt(1, 12))
        if trial % 2:
            inst = scale_rows(
                inst, [Fraction(scale_rng.randint(1, 9), scale_rng.randint(2, 9)) for _ in range(n)]
            )
        x = Allocation(n, tuple(rng.randrange(n) for _ in range(m)))
        alpha = Fraction(rng.randint(0, 30), 10)
        k = rng.randint(0, 3)
        bundles = x.bundles()
        expected = True
        ratios = []
        for i in range(n):
            best = min(
                bundle_disutility(inst, i, set(bundles[i]) - set(s))
                for r in range(min(k, len(bundles[i])) + 1)
                for s in itertools.combinations(bundles[i], r)
            )
            worst = max(
                (bundle_disutility(inst, i, set(bundles[i]) - {j}) for j in bundles[i]),
                default=0,
            )
            for h in range(n):
                if h == i:
                    continue
                rival = bundle_disutility(inst, i, bundles[h])
                if best > alpha * rival:
                    expected = False
                if worst > 0:
                    ratios.append(INFINITE if rival == 0 else worst / rival)
        assert is_alpha_efk(inst, x, alpha, k) == expected
        factor = max(ratios, default=Fraction(0))
        assert efx_factor(inst, x) == factor
        assert is_alpha_efx(inst, x, alpha) == (factor <= alpha)


def test_pefk_and_pefx_examples():
    inst = inst_i1()
    x = Allocation(2, (0, 0, 1))
    p = (Fraction(1), Fraction(1), Fraction(10))
    assert is_pefk(inst, x, p, Fraction(1), 1)
    assert is_pefx(inst, x, p, Fraction(1))
    singles = Allocation(2, (0, 1))
    inst2 = make_instance([[1, 2], [2, 1]])
    assert is_pefk(inst2, singles, (Fraction(3), Fraction(4)), Fraction(0), 1)
    with pytest.raises(ChoreSwapError):
        is_pefk(inst, Allocation(2, (0, 0, 0)), p, Fraction(1), -1)


def test_is_po_bruteforce_examples():
    inst = make_instance([[1, 10], [10, 1]])
    res = is_po_bruteforce(inst, Allocation(2, (1, 0)))
    assert res.status == "dominated"
    assert res.witness == Allocation(2, (0, 1))

    ident = make_instance([[1, 2], [1, 2]])
    for owners in itertools.product(range(2), repeat=2):
        assert is_po_bruteforce(ident, Allocation(2, owners)).is_po

    one = make_instance([[4, 5]])
    assert is_po_bruteforce(one, Allocation(1, (0, 0))).is_po


def test_is_po_bruteforce_budget():
    inst = inst_i1()
    res = is_po_bruteforce(inst, Allocation(2, (0, 0, 1)), budget=2)
    assert res.status == "budget-exceeded"
    assert not res.is_po


def _first_dominating(inst, X):
    """Reference: walk every owner vector in lexicographic order, with
    costs summed in Fractions on inst.d, and return the first that
    dominates X (or None)."""
    n, m = inst.n, inst.m

    def costs(owners):
        out = [Fraction(0)] * n
        for j, o in enumerate(owners):
            out[o] += inst.d[o][j]
        return out

    target = costs(X.owners)
    for owners in itertools.product(range(n), repeat=m):
        c = costs(owners)
        if all(a <= b for a, b in zip(c, target)) and c != target:
            return owners
    return None


def test_is_po_bruteforce_matches_unpruned_enumeration():
    # Uniform, bivalued and fractional rows (some scaled by a fractional
    # row factor); X is a random owner vector or a perturbed cheapest-row
    # allocation, so both PO and dominated inputs are common.
    rng = random.Random(211)
    shapes = [(4, 8), (3, 8), (4, 7), (1, 0), (4, 0)]
    statuses = {"po": 0, "dominated": 0}
    for trial in range(360):
        if trial < len(shapes):
            n, m = shapes[trial]
        else:
            n, m = rng.randint(1, 4), rng.randint(0, 8)
            while n**m > 4096:
                m -= 1
        kind = trial % 3
        if kind == 0:
            d = [[rng.randint(1, 9) for _ in range(m)] for _ in range(n)]
        elif kind == 1:
            k = rng.choice([2, 3, Fraction(5, 2)])
            d = [[rng.choice([1, k]) for _ in range(m)] for _ in range(n)]
        else:
            d = [[Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(m)]
                 for _ in range(n)]
        if rng.random() < 0.3:
            d = [[v * Fraction(rng.randint(1, 7), rng.randint(1, 7)) for v in row] for row in d]
        inst = make_instance(d)
        if m and rng.random() < 0.2:
            owners = [min(range(n), key=lambda a: inst.d[a][j]) for j in range(m)]
            for _ in range(rng.randint(0, 2)):
                owners[rng.randrange(m)] = rng.randrange(n)
        else:
            owners = [rng.randrange(n) for _ in range(m)]
        X = Allocation(n, tuple(owners))
        expected = _first_dominating(inst, X)
        res = is_po_bruteforce(inst, X)
        if expected is None:
            assert res == PoResult("po"), (d, owners)
        else:
            assert res == PoResult("dominated", Allocation(n, expected)), (d, owners)
        statuses[res.status] += 1
    assert statuses["po"] >= 100 and statuses["dominated"] >= 100


def test_hat_d_examples():
    inst = inst_i3()
    assert hat_d(inst, 0, [2, 3]) == 100
    assert hat_d(inst, 0, [3]) == 0
    assert hat_d(inst, 0, []) == 0


def test_hat_d_identity():
    rng = random.Random(23)
    inst = generate_random(41, 2, 7, UniformInt(1, 99))
    for _ in range(100):
        s = [j for j in range(7) if rng.random() < 0.5]
        if not s:
            continue
        lo = min(inst.d[0][j] for j in s)
        assert hat_d(inst, 0, s) + lo == bundle_disutility(inst, 0, s)
        assert hat_d(inst, 0, s) == max(
            bundle_disutility(inst, 0, [t for t in s if t != j]) for j in s
        )


def test_factor_predicate_agreement():
    rng = random.Random(31)
    for trial in range(60):
        n = rng.randint(2, 3)
        m = rng.randint(n, 6)
        inst = generate_random(100 + trial, n, m, UniformInt(1, 15))
        x = Allocation(n, tuple(rng.randrange(n) for _ in range(m)))
        f = efx_factor(inst, x)
        for _ in range(4):
            lam = Fraction(rng.randint(0, 40), 10)
            if f is INFINITE:
                assert not is_alpha_efx(inst, x, lam)
            else:
                assert is_alpha_efx(inst, x, lam) == (f <= lam)


def test_scale_invariance():
    rng = random.Random(37)
    for trial in range(30):
        n, m = 2, rng.randint(2, 5)
        inst = generate_random(200 + trial, n, m, UniformInt(1, 9))
        factors = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n)]
        scaled = scale_rows(inst, factors)
        x = Allocation(n, tuple(rng.randrange(n) for _ in range(m)))
        assert efx_factor(inst, x) == efx_factor(scaled, x)
        assert is_po_bruteforce(inst, x).status == is_po_bruteforce(scaled, x).status


def test_efk_monotonicity():
    rng = random.Random(43)
    for trial in range(30):
        n, m = 2, rng.randint(2, 6)
        inst = generate_random(300 + trial, n, m, UniformInt(1, 9))
        x = Allocation(n, tuple(rng.randrange(n) for _ in range(m)))
        alpha = Fraction(rng.randint(0, 20), 10)
        k = rng.randint(0, 2)
        if is_alpha_efk(inst, x, alpha, k):
            assert is_alpha_efk(inst, x, alpha + 1, k)
            assert is_alpha_efk(inst, x, alpha, k + 1)


def test_pefx_implies_pef1():
    rng = random.Random(47)
    for trial in range(30):
        n, m = 2, rng.randint(2, 6)
        inst = generate_random(400 + trial, n, m, UniformInt(1, 9))
        x = Allocation(n, tuple(rng.randrange(n) for _ in range(m)))
        p = tuple(Fraction(rng.randint(1, 9)) for _ in range(m))
        alpha = Fraction(rng.randint(0, 20), 10)
        if is_pefx(inst, x, p, alpha):
            assert is_pefk(inst, x, p, alpha, 1)


def test_envy_report_csv():
    inst = inst_i1()
    csv = envy_report(inst, Allocation(2, (0, 0, 1)))
    lines = csv.strip().split("\n")
    assert lines[0] == "i,h,notion,numerator,denominator,ratio"
    assert lines[1] == "1,2,efx,1,10,1/10"
    assert lines[2] == "2,1,efx,0,2,0"


def test_po_result_shape():
    assert PoResult("po").is_po
    assert not PoResult("dominated").is_po


def _naive_terms(rows, x, k):
    """Per-bundle sums: the worst single removal (k None) or the bundle
    without its k costliest chores, and every rival bundle's cost."""
    bundles = x.bundles()
    nums = []
    for row, b in zip(rows, bundles):
        if k is None:
            nums.append(max((sum(row[h] for h in b if h != j) for j in b), default=0))
        else:
            nums.append(sum(sorted((row[j] for j in b), reverse=True)[k:]))
    return nums, [[sum(row[j] for j in b) for b in bundles] for row in rows]


def _naive_csv(inst, x, k):
    nums, cross = _naive_terms(inst.d, x, k)
    out = ["i,h,notion,numerator,denominator,ratio"]
    for i in range(inst.n):
        for h in range(inst.n):
            if h != i:
                a, b = nums[i], cross[i][h]
                ratio = 0 if a == 0 else INFINITE if b == 0 else Fraction(a, b)
                notion = "efx" if k is None else f"ef{k}"
                out.append(f"{i + 1},{h + 1},{notion},{a},{b},{ratio}")
    return "\n".join(out) + "\n"


def test_envy_terms_match_per_bundle_sums():
    # Integer rows, price rows and Fraction rows (envy_report), on allocations
    # that often leave a bundle empty; efx_factor and is_alpha_efx against the
    # naive worst ratio, Infinite past an empty bundle, and is_pefk and
    # is_pefx against the naive price envy.
    rng = random.Random(61)
    empty = infinite = 0
    for trial in range(300):
        n = rng.randint(1, 4)
        m = rng.randint(0, 7)
        inst = generate_random(trial, n, m, UniformInt(1, 9))
        if trial % 2:
            inst = scale_rows(inst, [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n)])
        x = Allocation(n, tuple(rng.randrange(n) for _ in range(m)))
        empty += not all(x.bundles())
        p = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(m))
        alpha = Fraction(rng.randint(0, 30), 10)
        nums, cross = _naive_terms(inst.d, x, None)
        ratios = [
            0 if nums[i] == 0 else INFINITE if cross[i][h] == 0 else nums[i] / cross[i][h]
            for i in range(n) for h in range(n) if h != i
        ]
        factor = max(ratios, default=0)
        infinite += factor is INFINITE
        assert efx_factor(inst, x) == factor
        assert is_alpha_efx(inst, x, alpha) == (factor <= alpha)
        for k in (None, 1, 2, 3):
            for rows in (inst.integer_rows(), [integer_row(p)] * n, inst.d):
                assert _envy_terms(rows, x, k) == _naive_terms(rows, x, k)
            assert envy_report(inst, x, k) == _naive_csv(inst, x, k)
            nums, cross = _naive_terms([p] * n, x, k)
            want = all(
                nums[i] <= alpha * cross[i][h] for i in range(n) for h in range(n) if h != i
            )
            if k is None:
                assert is_pefx(inst, x, p, alpha) == want
            else:
                assert is_pefk(inst, x, p, alpha, k) == want
    assert empty > 50 and infinite > 25, (empty, infinite)
