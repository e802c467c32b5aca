import dataclasses
import hashlib
import math
import random
from fractions import Fraction

import pytest

from choreswap import (
    Allocation,
    Instance,
    efx_factor,
    solve_bivalued,
    generate_random,
    parse_instance,
)
from choreswap.errors import (
    AgentOutOfRange,
    BadRational,
    ParseError,
    ChoreOutOfRange,
    IncompleteAllocation,
    InvalidDistribution,
    NonPositiveDisutility,
    RowCountMismatch,
)
from choreswap.market import is_mpb_allocation
from choreswap.model import (
    _RATIONAL_RE,
    Bivalued,
    UniformInt,
    bundle_disutility,
    integer_row,
    parse_allocation,
    parse_distribution,
    parse_prices,
    parse_rational,
    serialize_allocation,
    serialize_instance,
    serialize_prices,
)

from conftest import make_instance, scale_rows


def test_parse_instance_basic():
    inst = parse_instance("2 2\n1 2\n2 1\n")
    assert inst.n == 2 and inst.m == 2
    assert inst.d == ((Fraction(1), Fraction(2)), (Fraction(2), Fraction(1)))


def test_parse_instance_rational_cell():
    inst = parse_instance("1 1\n3/7\n")
    assert inst.d == ((Fraction(3, 7),),)


def test_parse_instance_rejects_zero():
    with pytest.raises(NonPositiveDisutility):
        parse_instance("2 1\n0\n5\n")


def test_parse_instance_comments_and_errors():
    inst = parse_instance("# header\n2 2\n# row comment\n1 2\n3 4\n")
    assert inst.n == 2
    with pytest.raises(RowCountMismatch):
        parse_instance("2 2\n1 2\n")
    with pytest.raises(BadRational):
        parse_instance("1 1\nx\n")


def test_parse_instance_zero_chores():
    inst = parse_instance("3 0\n")
    assert inst.n == 3 and inst.m == 0


def test_bundle_disutility_examples():
    inst = make_instance([[1, 1, 10]])
    assert bundle_disutility(inst, 0, [0, 1]) == 2
    assert bundle_disutility(inst, 0, []) == 0
    inst2 = make_instance([[Fraction(1, 2), Fraction(1, 3)]])
    assert bundle_disutility(inst2, 0, [0, 1]) == Fraction(5, 6)


def test_bundle_disutility_range_errors():
    inst = make_instance([[1, 2]])
    with pytest.raises(AgentOutOfRange):
        bundle_disutility(inst, 1, [0])
    with pytest.raises(ChoreOutOfRange):
        bundle_disutility(inst, 0, [5])


def test_bundle_disutility_additivity():
    rng = random.Random(3)
    inst = generate_random(11, 3, 8, UniformInt(1, 30))
    for _ in range(50):
        chores = list(range(8))
        rng.shuffle(chores)
        cut = rng.randint(0, 8)
        s, t = chores[:cut], chores[cut:]
        i = rng.randrange(3)
        assert bundle_disutility(inst, i, s) + bundle_disutility(
            inst, i, t
        ) == bundle_disutility(inst, i, chores)


def test_generate_random_deterministic():
    a = generate_random(1, 2, 3, UniformInt(1, 10))
    b = generate_random(1, 2, 3, UniformInt(1, 10))
    assert a == b
    c = generate_random(2, 2, 3, UniformInt(1, 10))
    assert a != c
    assert all(1 <= v <= 10 for row in a.d for v in row)


def test_generate_random_bivalued_support():
    inst = generate_random(7, 3, 4, Bivalued(Fraction(5)))
    assert all(v in (Fraction(1), Fraction(5)) for row in inst.d for v in row)
    # An int k takes the same route and gives the same instance.
    assert generate_random(7, 3, 4, Bivalued(5)) == inst


def test_distribution_validation():
    with pytest.raises(InvalidDistribution):
        UniformInt(0, 5)
    with pytest.raises(InvalidDistribution):
        Bivalued(Fraction(1, 2))
    for k in (2.5, True, "2"):
        with pytest.raises(InvalidDistribution, match="int or Fraction"):
            Bivalued(k)
    assert parse_distribution("uniform-int:1..10") == UniformInt(1, 10)
    assert parse_distribution("bivalued:4") == Bivalued(Fraction(4))
    with pytest.raises(InvalidDistribution):
        parse_distribution("uniform-int:0..5")
    with pytest.raises(InvalidDistribution):
        parse_distribution("gauss:1")
    for spec in ("uniform-int:\u0661..5", "uniform-int:1..\u0665", "bivalued:\u0663"):
        with pytest.raises(InvalidDistribution, match="bad distribution spec"):
            parse_distribution(spec)  # ASCII digits only


def test_instance_round_trip():
    for seed in range(10):
        inst = generate_random(seed, 3, 5, UniformInt(1, 50))
        assert parse_instance(serialize_instance(inst)) == inst
    frac = make_instance([[Fraction(3, 7), Fraction(1, 2)]])
    assert parse_instance(serialize_instance(frac)) == frac


def test_allocation_round_trip_and_unassigned():
    alloc = parse_allocation("1 2 2\n", 2, 3)
    assert alloc.owners == (0, 1, 1)
    assert serialize_allocation(alloc) == "1 2 2\n"
    assert alloc.bundles() == [[0], [1, 2]]
    # 0 is no longer "unassigned": like any index outside 1..n, it is rejected
    with pytest.raises(AgentOutOfRange, match="agent index 0 out of range 1..2"):
        parse_allocation("1 0 2", 2, 3)
    with pytest.raises(IncompleteAllocation, match="chore 2 has no owner"):
        Allocation(2, (0, None, 1))
    with pytest.raises(AgentOutOfRange):
        parse_allocation("3 1 1", 2, 3)
    with pytest.raises(RowCountMismatch):
        parse_allocation("1 1", 2, 3)


@pytest.mark.parametrize("owners", [(0.0, 1, 1), (True, 0, 0)])
def test_allocation_rejects_owners_that_are_not_ints(owners):
    # A float owner would fail later as a list index; True would count as 1.
    with pytest.raises(AgentOutOfRange, match="chore 1 is not an agent index in"):
        Allocation(2, owners)


def test_prices_round_trip():
    p = parse_prices("1 1/2 10\n", 3)
    assert p == (Fraction(1), Fraction(1, 2), Fraction(10))
    assert serialize_prices(p) == "1 1/2 10\n"
    with pytest.raises(Exception):
        parse_prices("1 -2 3", 3)


def test_parse_rational():
    assert parse_rational("3/7") == Fraction(3, 7)
    assert parse_rational("-2") == Fraction(-2)
    with pytest.raises(BadRational):
        parse_rational("1/0")
    with pytest.raises(BadRational):
        parse_rational("1.5")
    for token in ("\u0663/\u0662", "1/\u0662", "\u0663", "-\u0663"):
        with pytest.raises(BadRational):
            parse_rational(token)  # ASCII digits only


def _regex_rational(token, line, col):
    """A rational token read through _RATIONAL_RE alone."""
    m = _RATIONAL_RE.match(token)
    if m is None:
        raise BadRational(f"not a rational: {token!r}", line, col)
    den = int(m.group(2)) if m.group(2) is not None else 1
    if den == 0:
        raise BadRational(f"zero denominator: {token!r}", line, col)
    return Fraction(int(m.group(1)), den)


@pytest.mark.parametrize(
    "token",
    ["7", "007", "+7", "-7", "0", "12/4", "3/0", "\u0663", "\u00b2", "1_000",
     "1.5", "", "0x10"],
)
def test_parse_rational_fast_path_matches_regex(token):
    # parse_instance reads ASCII str.isdecimal() tokens with int(): exactly
    # the unsigned ones that [0-9]+ matches. '\u0663' (an Arabic-Indic
    # three) is decimal but not ASCII and '\u00b2' (a superscript two) is a
    # digit but not decimal, so both stay BadRationals. Every other token
    # goes through parse_rational.
    def outcome(parse):
        try:
            v = parse(token)
        except Exception as e:
            return type(e), str(e)
        return type(v), v

    def regex_entry(tok):
        v = _regex_rational(tok, 2, 2)
        if v <= 0:
            raise NonPositiveDisutility(f"disutility must be positive, got {tok}", 2, 2)
        return v

    read = outcome(lambda t: parse_rational(t, 2, 3))
    assert read == outcome(lambda t: _regex_rational(t, 2, 3))
    if token:  # an empty token is no matrix entry
        entry = outcome(lambda t: parse_instance(f"1 2\n1 {t}\n").d[0][1])
        assert entry == outcome(regex_entry)


def test_integer_rows_cached_and_outside_identity():
    rng = random.Random(4242)
    for case in range(200):
        n, m = rng.randint(1, 4), rng.randint(0, 6)
        inst = Instance(
            tuple(
                tuple(Fraction(rng.randint(1, 30), rng.randint(1, 12)) for _ in range(m))
                for _ in range(n)
            )
        )
        if case % 2:
            inst = scale_rows(inst, [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n)])
        twin = Instance(inst.d)
        before = (hash(inst), repr(inst))
        rows = inst.integer_rows()
        assert inst.integer_rows() is rows
        assert type(rows) is tuple and all(type(r) is tuple for r in rows)
        assert all(type(v) is int for r in rows for v in r)
        assert [list(r) for r in rows] == [integer_row(r) for r in inst.d]
        scales = inst.row_scales()
        assert inst.row_scales() is scales
        assert all(type(s) is int and s > 0 for s in scales)
        assert all(r == tuple(v * s for v in row) for r, row, s in zip(rows, inst.d, scales))
        assert inst == twin and (hash(inst), repr(inst)) == before == (hash(twin), repr(twin))


@pytest.mark.parametrize("kind", ["integer", "fractional", "mixed"])
def test_parsed_integer_rows_match_integer_row(kind):
    # The parser builds the integer rows itself; each value comes in
    # several spellings, which the token cache keeps apart.
    rng = random.Random(f"parse-{kind}")

    def token():
        v = rng.randint(1, 20)
        if kind == "fractional" or (kind == "mixed" and rng.random() < 0.3):
            return f"{v}/{rng.randint(2, 12)}"
        return rng.choice([str(v), f"+{v}", f"0{v}", f"{2 * v}/2"])

    for _ in range(100):
        n, m = rng.randint(1, 5), rng.randint(1, 8)
        text = f"{n} {m}\n" + "".join(
            " ".join(token() for _ in range(m)) + "\n" for _ in range(n)
        )
        inst = parse_instance(text)
        # Parsing builds the integer rows, and no Fraction matrix.
        assert "d" not in vars(inst)
        rows = inst.integer_rows()
        assert rows == tuple(tuple(integer_row(r)) for r in inst.d)
        assert all(type(r) is tuple for r in rows)
        assert all(type(v) is int for r in rows for v in r)
        assert inst == Instance(inst.d) and hash(inst) == hash(Instance(inst.d))


def _fraction_generate(seed, n, m, dist):
    """generate_random's draws, as a matrix of Fractions."""
    rng = random.Random(seed)
    if isinstance(dist, UniformInt):
        return tuple(
            tuple(Fraction(rng.randint(dist.lo, dist.hi)) for _ in range(m)) for _ in range(n)
        )
    values = (Fraction(1), dist.k)
    return tuple(tuple(values[rng.randint(0, 1)] for _ in range(m)) for _ in range(n))


def _fraction_bivalued_k(d):
    values = {v for row in d for v in row}
    if len(values) > 2:
        return None
    return max(values) / min(values) if len(values) == 2 else Fraction(1)


def _routed_cases():
    """(instance from parse_instance or generate_random, the same matrix
    as Fractions): uniform, bivalued k in {2, 5/2}, fractional files and
    files of row-scaled instances."""
    rng = random.Random(2323)
    for t in range(600):
        n, m = rng.randint(1, 5), rng.randint(0, 9)
        seed = rng.randrange(1 << 30)
        kind = t % 4
        if kind < 2:
            k = rng.choice([Fraction(2), Fraction(5, 2)])
            dist = UniformInt(1, 20) if kind == 0 else Bivalued(k)
            yield generate_random(seed, n, m, dist), _fraction_generate(seed, n, m, dist)
        elif kind == 2:
            toks = [
                [rng.choice([str(rng.randint(1, 9)), f"{rng.randint(1, 30)}/{rng.randint(1, 12)}"])
                 for _ in range(m)]
                for _ in range(n)
            ]
            text = f"{n} {m}\n" + "".join(" ".join(row) + "\n" for row in toks)
            yield parse_instance(text), tuple(tuple(Fraction(tok) for tok in row) for row in toks)
        else:
            base = generate_random(seed, n, m, UniformInt(1, 20))
            scaled = scale_rows(base, [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n)])
            yield parse_instance(serialize_instance(scaled)), scaled.d


def test_construction_routes_agree():
    # The parser and the generator build integer rows and scales; Instance(d)
    # derives them from d. Both routes must give the same instance, and the
    # first builds d only on first use.
    kinds = set()
    for inst, d in _routed_cases():
        ref = Instance(d)
        assert (inst.n, inst.m) == (ref.n, ref.m) == (len(d), len(d[0]))
        assert inst.integer_rows() == ref.integer_rows() == tuple(tuple(integer_row(r)) for r in d)
        assert inst.row_scales() == ref.row_scales()
        assert inst.row_scales() == tuple(math.lcm(*[v.denominator for v in r]) for r in d)
        assert inst.bivalued_k() == ref.bivalued_k() == _fraction_bivalued_k(d)
        assert inst == ref and ref == inst and hash(inst) == hash(ref)
        assert "d" not in vars(inst)  # nothing above built the Fraction matrix
        assert repr(inst) == repr(ref)
        assert inst.d == d and all(type(v) is Fraction for r in inst.d for v in r)
        # One shared Fraction per distinct value.
        assert len({id(v) for r in inst.d for v in r}) == len({v for r in d for v in r})
        kinds.add(inst.bivalued_k() is not None)
    assert kinds == {True, False}
    with pytest.raises(dataclasses.FrozenInstanceError):
        inst.n = 1
    assert inst != Instance(((1,),)) and inst != d


@pytest.mark.parametrize("text, error, line, col", [
    ("2 3\n1 x 2\n3 x 4\n", BadRational, 2, 2),
    ("# c\n2 3\n1 2 3\n3 0 0\n", NonPositiveDisutility, 4, 2),
    ("2 2\n1 2\n2 1/0\n", BadRational, 3, 2),
    ("2 2\n5 -1\n-1 5\n", NonPositiveDisutility, 2, 2),
])
def test_repeated_bad_token_reports_first_place(text, error, line, col):
    with pytest.raises(error) as info:
        parse_instance(text)
    assert isinstance(info.value, ParseError)
    assert (info.value.line, info.value.col) == (line, col)


def test_exact_arithmetic_identity():
    rng = random.Random(5)
    for _ in range(100):
        a, b, c, d = (rng.randint(1, 999) for _ in range(4))
        assert (Fraction(a, b) + Fraction(c, d)) * b * d == a * d + c * b


def test_instance_validation():
    with pytest.raises(NonPositiveDisutility):
        Instance(((Fraction(1), Fraction(-1)),))
    with pytest.raises(RowCountMismatch):
        Instance(((Fraction(1),), (Fraction(1), Fraction(2))))
    with pytest.raises(BadRational):
        Instance(((0.1, 0.2, 0.3), (0.3, 0.2, 0.1)))
    with pytest.raises(BadRational):
        Instance(((Fraction(1), True),))
    assert Instance(((1, Fraction(1, 2)),)).integer_rows() == ((2, 1),)


def test_allocation_validation():
    with pytest.raises(AgentOutOfRange):
        Allocation(2, (0, 5))
    # A caller's list is copied: editing it changes nothing, and the
    # allocation hashes.
    owners = [0, 1, 0]
    x = Allocation(2, owners)
    owners[0] = 5
    assert x.owners == (0, 1, 0) and x.bundles() == [[0, 2], [1]]
    assert hash(x) == hash(Allocation(2, (0, 1, 0)))


def test_int_entries_are_stored_exactly():
    # d is rebuilt from the integer rows as Fractions, so quotients of
    # entries (MPB ratios, k) stay exact.
    rows = ((Fraction(1), Fraction(2)),)
    assert Instance(rows).d == rows
    # The caller's matrix is not kept: editing it changes no instance.
    d = [[Fraction(1, 2), Fraction(3)], [Fraction(2), Fraction(1)]]
    inst = Instance(d)
    d[0][0] = Fraction(7)
    assert inst.d == ((Fraction(1, 2), 3), (2, 1))
    assert inst == Instance(((Fraction(1, 2), 3), (2, 1)))
    inst = Instance(((1, 2, 2), (2, 1, 1)))
    assert all(type(v) is Fraction for row in inst.d for v in row)
    k = inst.bivalued_k()
    assert k == 2 and type(k) is Fraction
    res = solve_bivalued(inst)
    assert efx_factor(inst, res.x) <= Fraction(3, 2)
    assert is_mpb_allocation(inst, res.x, res.prices)
    big = Instance(((10**17 + 1, 10**17),))
    assert not is_mpb_allocation(big, Allocation(1, (0, 0)), (1, 1))


def test_bivalued_k():
    # Equal values written differently count once.
    assert parse_instance("2 3\n1/2 2/4 3\n4/8 6/2 3\n").bivalued_k() == 6
    assert Instance(((2, Fraction(4, 2)), (2, 2))).bivalued_k() == 1
    # A third value, in any row, is not bivalued.
    assert Instance(((1, 2), (2, 3))).bivalued_k() is None
    assert Instance(((1, 1, 1), (1, 2, Fraction(1, 2)))).bivalued_k() is None
    # k is at least 1 whichever value comes first.
    rows = [(Fraction(2, 3), Fraction(5, 3)), (Fraction(5, 3), Fraction(2, 3))]
    for order in (rows, rows[::-1], [r[::-1] for r in rows]):
        k = Instance(tuple(order)).bivalued_k()
        assert k == Fraction(5, 2) and type(k) is Fraction
    assert Instance(((7, 7), (7, 7))).bivalued_k() == 1
    assert Instance(((), ())).bivalued_k() == 1


def test_bivalued_k_scans_once():
    inst = Instance(((1, 3, 3), (3, 1, 1)))
    assert "_bivalued_k" not in vars(inst)
    assert inst.bivalued_k() == 3
    assert vars(inst)["_bivalued_k"] == 3
    # The cached value is not part of equality or hashing.
    other = Instance(((1, 3, 3), (3, 1, 1)))
    assert other == inst and hash(other) == hash(inst)
    assert Instance(((1, 2), (2, 3))).bivalued_k() is None


def test_common_rows():
    # Every scale 1: the integer rows themselves, not a copy.
    ints = Instance(((1, 3, 3), (3, 1, 1)))
    assert ints.common_rows() is ints.integer_rows()
    # Scales 2 and 3 meet at 6; a row already at that scale is kept.
    inst = parse_instance("3 2\n1/2 1\n1/3 2/3\n1/6 5/6\n")
    assert inst.row_scales() == (2, 3, 6)
    assert inst.common_rows() == ((3, 6), (2, 4), (1, 5))
    assert inst.common_rows()[2] is inst.integer_rows()[2]
    assert inst.common_rows() is inst.common_rows()


GENERATED_DIGEST = "6f4220851739e374a8e738ac83d68e01a505ff248b9c983c63a29a33fcd4c15a"


def test_generated_instances_are_pinned():
    # The same seed draws the same entries: pinned for both distributions,
    # with and without a fractional k, and for empty rows.
    assert serialize_instance(generate_random(7, 3, 5, UniformInt(1, 20))) == (
        "3 5\n11 5 13 2 3\n18 4 12 19 2\n17 7 2 3 14\n"
    )
    assert serialize_instance(generate_random(11, 2, 6, Bivalued(Fraction(5, 2)))) == (
        "2 6\n5/2 5/2 5/2 1 1 5/2\n1 1 5/2 5/2 1 1\n"
    )
    h = hashlib.sha256()
    for seed in range(40):
        for dist in (UniformInt(1, 20), UniformInt(3, 3), UniformInt(1, 1000),
                     Bivalued(Fraction(3)), Bivalued(Fraction(7, 4))):
            for n, m in ((1, 0), (2, 5), (3, 9), (4, 1)):
                h.update(serialize_instance(generate_random(seed, n, m, dist)).encode())
    assert h.hexdigest() == GENERATED_DIGEST


def test_generate_random_draws_equal_randint():
    # generate_random inlines randint's rejection loop on getrandbits; every
    # entry must be the one Random(seed).randint draws, for widths of one,
    # three and twenty, for bivalued rows (width two) and for m = 0.
    dists = (UniformInt(1, 20), UniformInt(1, 3), UniformInt(5, 5),
             Bivalued(Fraction(2)), Bivalued(Fraction(5, 2)), Bivalued(Fraction(7, 3)))
    shapes = ((1, 0), (3, 0), (1, 1), (2, 5), (3, 9), (4, 1), (8, 16))
    for seed in range(2000):
        n, m = shapes[seed % len(shapes)]
        for dist in dists:
            assert generate_random(seed, n, m, dist).d == _fraction_generate(seed, n, m, dist), (
                seed, n, m, dist)
