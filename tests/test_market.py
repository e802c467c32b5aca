import hashlib
import random
from fractions import Fraction

import pytest

from choreswap import (
    Allocation,
    Instance,
    generate_random,
    mpb_price_feasibility,
)
from choreswap.errors import (
    AgentOutOfRange,
    ChoreOutOfRange,
    EmptyBundle,
    IncompleteAllocation,
    NonPositivePrice,
    PriceLengthMismatch,
)
from choreswap.fairness import is_pefk, is_pefx, is_po_bruteforce
from choreswap.market import (
    InfeasibilityCycle,
    is_mpb_allocation,
    mpb_view,
    solve_ratio_system,
)
from choreswap.model import UniformInt

from conftest import inst_i1, make_instance


def test_mpb_view_examples():
    inst = make_instance([[1, 2], [2, 1]])
    view = mpb_view(inst, (Fraction(1), Fraction(1)))
    assert view.alpha == (Fraction(1), Fraction(1))
    assert view.mpb_sets == (frozenset({0}), frozenset({1}))

    solo = make_instance([[3, 5, 7]])
    view = mpb_view(solo, (Fraction(3), Fraction(5), Fraction(7)))
    assert view.alpha == (Fraction(1),)
    assert view.mpb_sets == (frozenset({0, 1, 2}),)

    view = mpb_view(inst_i1(), (Fraction(1), Fraction(1), Fraction(10)))
    assert view.alpha == (Fraction(1), Fraction(1))
    assert view.mpb_sets == (frozenset({0, 1, 2}), frozenset({0, 1, 2}))


def test_mpb_view_length_check():
    with pytest.raises(PriceLengthMismatch):
        mpb_view(inst_i1(), (Fraction(1),))


@pytest.mark.parametrize("bad", [Fraction(0), Fraction(-1)])
def test_non_positive_price_is_rejected(bad):
    inst = Instance(((1, 2),))
    X = Allocation(1, (0, 0))
    with pytest.raises(NonPositivePrice):
        is_mpb_allocation(inst, X, (bad, Fraction(1)))
    with pytest.raises(NonPositivePrice):
        mpb_view(inst, (Fraction(1), bad))
    with pytest.raises(NonPositivePrice):
        is_pefk(inst, X, (bad, Fraction(1)), Fraction(1), 1)
    with pytest.raises(NonPositivePrice):
        is_pefx(inst, X, (Fraction(1), bad), Fraction(1))


def test_is_mpb_allocation_examples():
    inst = make_instance([[1, 2], [2, 1]])
    p = (Fraction(1), Fraction(1))
    assert is_mpb_allocation(inst, Allocation(2, (0, 1)), p)
    assert not is_mpb_allocation(inst, Allocation(2, (1, 0)), p)
    solo = make_instance([[3, 5]])
    assert is_mpb_allocation(solo, Allocation(1, (0, 0)), (Fraction(3), Fraction(5)))
    # an allocation that leaves a chore unassigned cannot be built
    with pytest.raises(IncompleteAllocation):
        is_mpb_allocation(inst, Allocation(2, (0, None)), p)


def test_mpb_price_feasibility_examples():
    inst = make_instance([[1, 2], [2, 1]])
    p = mpb_price_feasibility(inst, Allocation(2, (0, 1)))
    assert not isinstance(p, InfeasibilityCycle)
    assert is_mpb_allocation(inst, Allocation(2, (0, 1)), p)

    bad = mpb_price_feasibility(inst, Allocation(2, (1, 0)))
    assert isinstance(bad, InfeasibilityCycle)
    assert bad.product == Fraction(1, 4)

    solo = make_instance([[3, 5]])
    p = mpb_price_feasibility(solo, Allocation(1, (0, 0)))
    assert p[0] / p[1] == Fraction(3, 5)


def test_mpb_price_feasibility_empty_bundle():
    with pytest.raises(EmptyBundle):
        mpb_price_feasibility(inst_i1(), Allocation(2, (0, 0, 0)))


def test_solve_ratio_system_examples():
    # x0 <= 2 * x1 and x1 <= 2 * x0: feasible, labels are (num, den) pairs.
    labels = solve_ratio_system(2, [(0, 1, 2, 1), (1, 0, 4, 2)])
    (a0, b0), (a1, b1) = labels
    assert a0 * b1 <= 2 * a1 * b0 and a1 * b0 <= 2 * a0 * b1

    # Unreduced halves: the witness keeps the edges as given.
    cyc = solve_ratio_system(2, [(0, 1, 1, 2), (1, 0, 2, 4)])
    assert isinstance(cyc, InfeasibilityCycle)
    assert cyc.product == Fraction(1, 4)
    assert cyc.edges == ((1, 0, 2, 4), (0, 1, 1, 2))
    assert str(cyc) == "cycle product 1/4 < 1: x1 <= 1/2 * x0 ; x0 <= 1/2 * x1"

    assert solve_ratio_system(3, []) == [(1, 1)] * 3


def test_round_trip_certification_fuzz():
    rng = random.Random(61)
    feasible = infeasible = 0
    for trial in range(120):
        n = rng.randint(2, 3)
        m = rng.randint(n, 6)
        inst = generate_random(600 + trial, n, m, UniformInt(1, 12))
        owners = list(range(n)) + [rng.randrange(n) for _ in range(m - n)]
        rng.shuffle(owners)
        x = Allocation(n, tuple(owners))
        res = mpb_price_feasibility(inst, x)
        if isinstance(res, InfeasibilityCycle):
            infeasible += 1
            assert res.product < 1
        else:
            feasible += 1
            assert all(v > 0 for v in res)
            assert is_mpb_allocation(inst, x, res)
            # fPO implies PO
            assert is_po_bruteforce(inst, x).is_po
            # price scale freedom
            assert is_mpb_allocation(inst, x, tuple(3 * v for v in res))
    assert feasible and infeasible


def test_deterministic_prices():
    inst = inst_i1()
    x = Allocation(2, (0, 0, 1))
    assert mpb_price_feasibility(inst, x) == mpb_price_feasibility(inst, x)


# Labels or witness cycles of solve_ratio_system on 500 seeded systems,
# computed with the Fraction Bellman-Ford the integer core replaced.
RATIO_SYSTEM_DIGEST = "20a47e429e7a4a9f98a6a923e9bc12ab8ee44e0335832f4ba4bb1c63c901ad9d"


def _random_ratio_system(rng):
    """Up to 3n edges with fractional coefficients, as (u, v, num, den) in
    sorted (u, v, coefficient) order; about a third repeat an earlier
    (u, v) pair with a new coefficient."""
    n = rng.randint(1, 5)
    cons = []
    for _ in range(rng.randint(0, 3 * n)):
        if cons and rng.random() < 0.3:
            u, v = rng.choice(cons)[:2]
        else:
            u, v = rng.randrange(n), rng.randrange(n)
        cons.append((u, v, Fraction(rng.randint(1, 9), rng.randint(1, 9))))
    return n, [(u, v, c.numerator, c.denominator) for u, v, c in sorted(cons)]


def test_solve_ratio_system_witness_digest():
    rng = random.Random(83)
    h = hashlib.sha256()
    feasible = infeasible = 0
    for _ in range(500):
        n, edges = _random_ratio_system(rng)
        res = solve_ratio_system(n, edges)
        if isinstance(res, InfeasibilityCycle):
            infeasible += 1
            cyc = res.edges
            assert all(e in edges for e in cyc)
            # Closed: each edge's v is the previous edge's u, around the cycle.
            assert all(cyc[t][1] == cyc[t - 1][0] for t in range(len(cyc)))
            assert res.product < 1
            out = ("cycle", [(u, v, str(Fraction(a, b))) for u, v, a, b in cyc])
        else:
            feasible += 1
            x = [Fraction(a, b) for a, b in res]
            assert all(v > 0 for v in x)
            assert all(x[u] <= Fraction(a, b) * x[v] for u, v, a, b in edges)
            out = ("labels", [str(v) for v in x])
        h.update(repr(out).encode())
    assert feasible > 100 and infeasible > 100
    assert h.hexdigest() == RATIO_SYSTEM_DIGEST


# Prices or witness cycles (text and product) of mpb_price_feasibility on
# 3,000 seeded (instance, allocation) pairs, as the Fraction constraint
# layer computed them before the integer edges replaced it.
PRICE_FEASIBILITY_DIGEST = "e5af02a685b6b4e915dcf8aef909b06419223c056ba4342d74f6e5bfec947866"


def _random_feasibility_case(rng, trial):
    """Fractional, bivalued or uniform-int rows in turn; every bundle is
    nonempty, and in about half the cases chores move to their cheapest
    agent, so both outcomes are common."""
    n = rng.randint(1, 4)
    m = rng.randint(n, 7)
    kind = trial % 3
    if kind == 0:
        d = [[Fraction(rng.randint(1, 6), rng.randint(1, 4)) for _ in range(m)]
             for _ in range(n)]
    elif kind == 1:
        a = Fraction(rng.randint(1, 3), rng.randint(1, 3))
        k = rng.choice((Fraction(2), Fraction(3), Fraction(5, 2)))
        d = [[a * k if rng.random() < 0.5 else a for _ in range(m)] for _ in range(n)]
    else:
        d = [[rng.randint(1, 12) for _ in range(m)] for _ in range(n)]
    owners = list(range(n)) + [rng.randrange(n) for _ in range(m - n)]
    rng.shuffle(owners)
    if rng.random() < 0.5:
        cols = list(zip(*d))
        for j in range(m):
            cheap = cols[j].index(min(cols[j]))
            if owners.count(owners[j]) > 1 and rng.random() < 0.7:
                owners[j] = cheap
    return Instance(tuple(map(tuple, d))), Allocation(n, tuple(owners))


def test_mpb_price_feasibility_digest():
    rng = random.Random(101)
    h = hashlib.sha256()
    outcomes = {"prices": 0, "cycle": 0}
    for trial in range(3000):
        inst, x = _random_feasibility_case(rng, trial)
        res = mpb_price_feasibility(inst, x)
        if isinstance(res, InfeasibilityCycle):
            assert res.product < 1
            out = ("cycle", str(res), str(res.product))
        else:
            assert is_mpb_allocation(inst, x, res)
            out = ("prices", [str(v) for v in res])
        outcomes[out[0]] += 1
        h.update(repr(out).encode())
    assert min(outcomes.values()) >= 500
    assert h.hexdigest() == PRICE_FEASIBILITY_DIGEST


def test_mpb_view_matches_definition():
    # Prices proportional to one agent's row on a random subset force
    # ties in that agent's ratios; rows and prices are fractional.
    rng = random.Random(89)
    for _ in range(300):
        n, m = rng.randint(1, 4), rng.randint(1, 7)
        d = [[Fraction(rng.randint(1, 6), rng.randint(1, 4)) for _ in range(m)]
             for _ in range(n)]
        a, s = rng.randrange(n), Fraction(rng.randint(1, 5), rng.randint(1, 5))
        p = [d[a][j] * s if rng.random() < 0.5 else
             Fraction(rng.randint(1, 8), rng.randint(1, 3)) for j in range(m)]
        view = mpb_view(Instance(tuple(map(tuple, d))), p)
        for i in range(n):
            ratios = [d[i][j] / p[j] for j in range(m)]
            alpha = min(ratios)
            assert view.alpha[i] == alpha and type(view.alpha[i]) is Fraction
            assert view.mpb_sets[i] == {j for j in range(m) if ratios[j] == alpha}


def test_is_mpb_allocation_matches_the_definition():
    # Prices tie several chores for one agent (proportional to its row on
    # a random subset) or are fractional; X gives each chore to a random
    # agent, or to one for which the chore is MPB, so both verdicts occur.
    rng = random.Random(97)
    verdicts = {True: 0, False: 0}
    for _ in range(400):
        n, m = rng.randint(1, 4), rng.randint(1, 7)
        d = [[Fraction(rng.randint(1, 6), rng.randint(1, 4)) for _ in range(m)]
             for _ in range(n)]
        a, s = rng.randrange(n), Fraction(rng.randint(1, 5), rng.randint(1, 5))
        p = [d[a][j] * s if rng.random() < 0.6 else
             Fraction(rng.randint(1, 8), rng.randint(1, 3)) for j in range(m)]
        alpha = [min(d[i][j] / p[j] for j in range(m)) for i in range(n)]
        mpb = [[i for i in range(n) if d[i][j] / p[j] == alpha[i]] for j in range(m)]
        if rng.random() < 0.5:
            owners = [rng.choice(mpb[j] or [rng.randrange(n)]) for j in range(m)]
            if rng.random() < 0.3:
                owners[rng.randrange(m)] = rng.randrange(n)
        else:
            owners = [rng.randrange(n) for _ in range(m)]
        inst, X = Instance(tuple(map(tuple, d))), Allocation(n, tuple(owners))
        expected = all(o in mpb[j] for j, o in enumerate(owners))
        view = mpb_view(inst, p)
        assert expected == all(j in view.mpb_sets[o] for j, o in enumerate(owners))
        assert is_mpb_allocation(inst, X, p) == expected
        verdicts[expected] += 1
    assert min(verdicts.values()) >= 100


def test_is_mpb_allocation_errors():
    inst = inst_i1()
    X = Allocation(2, (0, 0, 1))
    with pytest.raises(PriceLengthMismatch):
        is_mpb_allocation(inst, X, (Fraction(1), Fraction(1)))
    with pytest.raises(NonPositivePrice):
        is_mpb_allocation(inst, X, (Fraction(1), Fraction(-1, 2), Fraction(1)))
    # The shape of X is checked before the prices.
    with pytest.raises(AgentOutOfRange):
        is_mpb_allocation(inst, Allocation(3, (0, 0, 1)), (Fraction(1),))
    with pytest.raises(ChoreOutOfRange):
        is_mpb_allocation(inst, Allocation(2, (0, 0)), (Fraction(0),) * 3)
    # No chores: vacuously MPB, and a price vector of the wrong length
    # still raises.
    empty = Instance(((), ()))
    assert is_mpb_allocation(empty, Allocation(2, ()), ())
    with pytest.raises(PriceLengthMismatch):
        is_mpb_allocation(empty, Allocation(2, ()), (Fraction(1),))
