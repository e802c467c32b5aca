"""Exact data model: instances, allocations, prices, random generation.

All numeric quantities are exact: `int` or `fractions.Fraction`, never
float or bool; no floating point enters any fairness computation.
Instances, allocations and price vectors are immutable after
construction and safe to share across threads, and none keeps a list
its caller passed in. An instance holds only its integer rows (each row
times the lcm of its denominators) and those lcms; the parser and the
generator build them straight from their input. Its Fraction matrix d,
its rows on one common scale and its bivalued ratio are built once
each, on first use.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .errors import (
    AgentOutOfRange,
    BadRational,
    ChoreOutOfRange,
    IncompleteAllocation,
    InvalidDistribution,
    MalformedHeader,
    NonPositiveDisutility,
    ParseError,
    RowCountMismatch,
)


class _Infinite:
    """Sentinel for an unbounded envy ratio (positive numerator over an
    empty rival bundle). Compares greater than every Fraction."""

    __slots__ = ()

    def __le__(self, other):
        return isinstance(other, _Infinite)

    def __lt__(self, other):
        return False

    def __ge__(self, other):
        return True

    def __gt__(self, other):
        return not isinstance(other, _Infinite)

    def __repr__(self):
        return "Infinite"


INFINITE = _Infinite()

# ASCII digits only: \d and int() also take other scripts' digits.
_RATIONAL_RE = re.compile(r"^([+-]?[0-9]+)(?:/([0-9]+))?$")


def parse_rational(token: str, line: int = None, col: int = None) -> Fraction:
    """Parse "a" or "a/b" into an exact Fraction."""
    m = _RATIONAL_RE.match(token)
    if m is None:
        raise BadRational(f"not a rational: {token!r}", line, col)
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) is not None else 1
    if den == 0:
        raise BadRational(f"zero denominator: {token!r}", line, col)
    return Fraction(num, den)


def _scaled_row(row: Sequence[Fraction]) -> tuple:
    """(row times s, s) for s the least common multiple of its denominators."""
    scale = math.lcm(*[v.denominator for v in row])
    return [v.numerator * (scale // v.denominator) for v in row], scale


def integer_row(row: Sequence[Fraction]) -> list:
    """row times the least common multiple of its denominators."""
    return _scaled_row(row)[0]


def _scaled_rows(rows) -> tuple:
    """(integer rows, scales) of rows of ints and Fractions: each row
    times its scale, the lcm of its denominators, as a tuple."""
    pairs = [_scaled_row(row) for row in rows]
    return tuple(tuple(row) for row, _ in pairs), tuple(s for _, s in pairs)


_EXACT = (int, Fraction)


@dataclass(frozen=True, init=False)
class Instance:
    """A chore division instance: n agents, m chores, strictly positive
    disutility matrix d (n rows, m columns).

    The data are the integer rows, each row of d times its scale s_i (the
    lcm of the row's denominators), and those scales. `parse_instance`
    and `generate_random` build them straight from their input, which
    they have already checked. `Instance(d)` checks d, with ints or
    Fractions as entries, derives them and does not keep d. d is built
    from the integer rows on first use, one shared Fraction per distinct
    value, so every quotient of two entries is exact.

    Two instances are equal iff their d are. d fixes the integer rows and
    scales and they fix d, so equality and hash compare those fields and
    build no d; repr shows d. Instances are immutable."""

    _rows: tuple
    _scales: tuple

    def __init__(self, d):
        if len(d) < 1:
            raise MalformedHeader("instance needs at least one agent")
        m = len(d[0])
        for i, row in enumerate(d):
            if len(row) != m:
                raise RowCountMismatch(f"row {i + 1} has {len(row)} entries, expected {m}")
            for j, v in enumerate(row):
                if isinstance(v, bool) or not isinstance(v, _EXACT):  # bool is an int
                    raise BadRational(f"d[{i + 1}][{j + 1}] = {v!r} is not an int or Fraction")
                if v.numerator <= 0:  # denominators are positive
                    raise NonPositiveDisutility(
                        f"d[{i + 1}][{j + 1}] = {v} is not positive"
                    )
        self._init(*_scaled_rows(d))

    @classmethod
    def _from_rows(cls, rows: tuple, scales: tuple) -> "Instance":
        """An instance from checked integer rows (tuples of positive ints,
        all of one length) and their scales: each row times the lcm of
        its denominators, as `integer_row` gives it, and that lcm."""
        if not rows:
            raise MalformedHeader("instance needs at least one agent")
        inst = cls.__new__(cls)
        inst._init(rows, scales)
        return inst

    def _init(self, rows: tuple, scales: tuple):
        self.__dict__.update(n=len(rows), m=len(rows[0]), _rows=rows, _scales=scales)

    def __repr__(self):
        return f"Instance(d={self.d!r})"

    @cached_property
    def d(self) -> tuple:
        """Row i is integer_rows()[i] over row_scales()[i], as Fractions."""
        values = {}  # (a, b) -> Fraction(a, b); equal values share one
        out = []
        for row, s in zip(self._rows, self._scales):
            for v in row:
                if (v, s) not in values:
                    f = Fraction(v, s)
                    values[v, s] = values.setdefault((f.numerator, f.denominator), f)
            out.append(tuple([values[v, s] for v in row]))
        return tuple(out)

    def check_agent(self, i: int):
        if not 0 <= i < self.n:
            raise AgentOutOfRange(f"agent index {i} out of range [0, {self.n})")

    def check_chore(self, j: int):
        if not 0 <= j < self.m:
            raise ChoreOutOfRange(f"chore index {j} out of range [0, {self.m})")

    def integer_rows(self) -> tuple:
        """Per-row integer rescalings of d (row-scale invariant uses only),
        as a tuple of int tuples."""
        return self._rows

    def row_scales(self) -> tuple:
        """The per-row scales s_i of the integer rows: integer_rows()[i]
        is d[i] times s_i, the lcm of row i's denominators."""
        return self._scales

    @cached_property
    def _common_rows(self) -> tuple:
        scale = math.lcm(*self._scales)
        if scale == 1:
            return self._rows
        return tuple(
            row if s == scale else tuple(v * (scale // s) for v in row)
            for row, s in zip(self._rows, self._scales)
        )

    def common_rows(self) -> tuple:
        """d times the lcm of the row scales: integer rows on one scale, so
        the values of different agents compare. With every scale 1 they
        are integer_rows() itself. Built once per instance."""
        return self._common_rows

    @cached_property
    def _bivalued_k(self) -> Optional[Fraction]:
        values = set()
        for row in self.common_rows():
            values.update(row)
            if len(values) > 2:
                return None
        if len(values) < 2:
            return Fraction(1)
        return Fraction(max(values), min(values))

    def bivalued_k(self) -> Optional[Fraction]:
        """If all entries take at most two values {a, b}, return
        k = max(a,b)/min(a,b); otherwise None. The values are compared
        on `common_rows`, and the scan stops after the first row that
        brings a third value. It runs once per instance."""
        return self._bivalued_k


def bundle_disutility(inst: Instance, i: int, chores: Iterable[int]) -> Fraction:
    """Exact additive disutility of agent i for a set of chores: the sum
    on the integer row over the row's scale."""
    inst.check_agent(i)
    total = 0
    row = inst.integer_rows()[i]
    for j in chores:
        inst.check_chore(j)
        total += row[j]
    return Fraction(total, inst.row_scales()[i])


def parse_instance(text: str) -> Instance:
    """Parse the plain-text instance format.

    Comment lines start with '#'. The first data line is "n m"; then n
    lines each with m positive rationals ("a" or "a/b").
    """
    lines = enumerate(map(str.strip, text.splitlines()), 1)
    data = [(idx, ln) for idx, ln in lines if ln and ln[0] != "#"]
    if not data:
        raise MalformedHeader("empty instance file")
    hline, header = data[0]
    parts = header.split()
    if len(parts) != 2:
        raise MalformedHeader(f"expected 'n m', got {header!r}", hline)
    try:
        if not header.isascii():  # int() also reads other scripts' digits
            raise ValueError(header)
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise MalformedHeader(f"expected integers in header, got {header!r}", hline)
    if n < 1 or m < 0:
        raise MalformedHeader(f"need n >= 1 and m >= 0, got n={n} m={m}", hline)
    rows_in = data[1:]
    if m == 0:
        if any(tok for _, tok in rows_in):
            raise RowCountMismatch("expected no matrix rows when m = 0")
        return Instance._from_rows(((),) * n, (1,) * n)
    if len(rows_in) != n:
        raise RowCountMismatch(f"expected {n} matrix rows, found {len(rows_in)}")
    values = {}  # token -> int, or Fraction if not integral; a bad one raises at once
    rows = []
    for i, (lno, ln) in enumerate(rows_in):
        toks = ln.split()
        if len(toks) != m:
            raise RowCountMismatch(
                f"row {i + 1} has {len(toks)} entries, expected {m}", lno
            )
        ascii_row = ln.isascii()  # so isdecimal() takes exactly what [0-9]+ matches
        for col, tok in enumerate(toks):
            if tok not in values:
                v = int(tok) if ascii_row and tok.isdecimal() else parse_rational(tok, lno, col + 1)
                if v <= 0:
                    raise NonPositiveDisutility(
                        f"disutility must be positive, got {tok}", lno, col + 1
                    )
                values[tok] = v.numerator if v.denominator == 1 else v
        rows.append(tuple([values[tok] for tok in toks]))
    if set(map(type, values.values())) == {int}:
        return Instance._from_rows(tuple(rows), (1,) * n)
    return Instance._from_rows(*_scaled_rows(rows))


def serialize_instance(inst: Instance) -> str:
    out = [f"{inst.n} {inst.m}"]
    for row, s in zip(inst.integer_rows(), inst.row_scales()):
        if s == 1:
            out.append(" ".join(map(str, row)))
        else:
            out.append(" ".join(str(Fraction(v, s)) for v in row))
    return "\n".join(out) + "\n"


@dataclass(frozen=True)
class Allocation:
    """Owner vector: owners[j] is the 0-based agent holding chore j. Every
    chore has exactly one owner, so the bundles partition the chores."""

    n: int
    owners: tuple

    def __post_init__(self):
        if type(self.owners) is not tuple:  # a caller's list stays theirs
            object.__setattr__(self, "owners", tuple(self.owners))
        n = self.n
        for j, o in enumerate(self.owners):
            # An exact int only: a float indexes nothing, and a bool is an int.
            if type(o) is not int or not 0 <= o < n:
                if o is None:
                    raise IncompleteAllocation(f"chore {j + 1} has no owner")
                raise AgentOutOfRange(
                    f"owner of chore {j + 1} is not an agent index in [0, {n}): {o!r}"
                )

    @property
    def m(self) -> int:
        return len(self.owners)

    def check_shape(self, n: int, m: int):
        """Raise unless this allocates exactly m chores among n agents."""
        if self.n != n:
            raise AgentOutOfRange(f"allocation is for {self.n} agents, not {n}")
        if self.m != m:
            raise ChoreOutOfRange(f"allocation has {self.m} chores, not {m}")

    def bundles(self) -> list:
        """Per-agent bundles as sorted chore-index lists."""
        out = [[] for _ in range(self.n)]
        for j, o in enumerate(self.owners):
            out[o].append(j)
        return out


def allocation_from_bundles(n: int, m: int, bundles) -> Allocation:
    owners = [None] * m
    for i, bundle in enumerate(bundles):
        for j in bundle:
            owners[j] = i
    return Allocation(n, tuple(owners))


def data_tokens(text: str) -> list:
    """Whitespace-separated tokens of every line that is not a '#' comment."""
    lines = (ln for ln in text.splitlines() if not ln.lstrip().startswith("#"))
    return [tok for ln in lines for tok in ln.split()]


def parse_agents(text: str, n: int) -> list:
    """The 0-based agents of text's entries, each an agent index in 1..n
    written in ASCII digits: a sign, an underscore or another script's
    digits, all of which int() takes, is not an agent index."""
    agents = []
    for col, tok in enumerate(data_tokens(text)):
        if not (tok.isascii() and tok.isdigit()):
            raise ParseError(f"not an agent index: {tok!r}", col=col + 1)
        v = int(tok)
        if not 1 <= v <= n:
            raise AgentOutOfRange(f"agent index {v} out of range 1..{n}")
        agents.append(v - 1)
    return agents


def parse_allocation(text: str, n: int, m: int) -> Allocation:
    """One line of m entries, each an owner's agent index in 1..n."""
    owners = parse_agents(text, n)
    if len(owners) != m:
        raise RowCountMismatch(f"expected {m} owner entries, found {len(owners)}")
    return Allocation(n, tuple(owners))


def serialize_allocation(alloc: Allocation) -> str:
    return " ".join(str(o + 1) for o in alloc.owners) + "\n"


def parse_prices(text: str, m: int) -> tuple:
    """One line of m positive rationals."""
    toks = data_tokens(text)
    if len(toks) != m:
        raise RowCountMismatch(f"expected {m} prices, found {len(toks)}")
    prices = []
    for col, tok in enumerate(toks):
        v = parse_rational(tok, col=col + 1)
        if v <= 0:
            raise ParseError(f"price must be positive, got {tok}", col=col + 1)
        prices.append(v)
    return tuple(prices)


def serialize_prices(p: Sequence[Fraction]) -> str:
    return " ".join(map(str, p)) + "\n"


@dataclass(frozen=True)
class UniformInt:
    lo: int
    hi: int

    def __post_init__(self):
        if self.lo < 1 or self.hi < self.lo:
            raise InvalidDistribution(f"need 1 <= LO <= HI, got {self.lo}..{self.hi}")

    def __str__(self):
        return f"uniform-int:{self.lo}..{self.hi}"


@dataclass(frozen=True)
class Bivalued:
    k: Fraction

    def __post_init__(self):
        if isinstance(self.k, bool) or not isinstance(self.k, _EXACT):
            raise InvalidDistribution(f"need k to be an int or Fraction, got {self.k!r}")
        if self.k < 1:
            raise InvalidDistribution(f"need k >= 1, got {self.k}")

    def __str__(self):
        return f"bivalued:{self.k}"


Distribution = Union[UniformInt, Bivalued]

_DIST_RE = re.compile(r"^uniform-int:([0-9]+)\.\.([0-9]+)$|^bivalued:([0-9/]+)$")


def parse_distribution(spec: str) -> Distribution:
    m = _DIST_RE.match(spec)
    if m is None:
        raise InvalidDistribution(f"bad distribution spec: {spec!r}")
    if m.group(1) is not None:
        return UniformInt(int(m.group(1)), int(m.group(2)))
    return Bivalued(parse_rational(m.group(3)))


def _randint_rows(rng: random.Random, n: int, m: int, lo: int, hi: int) -> tuple:
    """n rows of m draws, row by row, each equal to `rng.randint(lo, hi)`
    from the same state. CPython's randint draws r = getrandbits(k) with
    k the bit length of the width hi - lo + 1, and draws again while r is
    not below the width; that loop runs here inline."""
    bits = rng.getrandbits
    width = hi - lo + 1
    k = width.bit_length()
    rows = []
    for _ in range(n):
        row = []
        for _ in range(m):
            r = bits(k)
            while r >= width:
                r = bits(k)
            row.append(r + lo)
        rows.append(tuple(row))
    return tuple(rows)


def generate_random(seed: int, n: int, m: int, dist: Distribution) -> Instance:
    """Deterministic random instance for a fixed (seed, n, m, dist): entries
    drawn row by row, straight into integer rows. Each draw equals
    `random.Random(seed).randint`'s in the same sequence: an entry of
    `UniformInt(lo, hi)` is `randint(lo, hi)`, and a bivalued row holds k
    where `randint(0, 1)` gives 1."""
    rng = random.Random(seed)
    if isinstance(dist, UniformInt):
        return Instance._from_rows(_randint_rows(rng, n, m, dist.lo, dist.hi), (1,) * n)
    k = dist.k
    draws = _randint_rows(rng, n, m, 0, 1)
    # k = a/b in lowest terms: a row holding k is (b, a) on scale b, any
    # other row is all ones on scale 1.
    on_k = (k.denominator, k.numerator)
    rows = tuple(tuple([on_k[b] for b in row]) if any(row) else (1,) * m for row in draws)
    scales = tuple(k.denominator if any(row) else 1 for row in draws)
    return Instance._from_rows(rows, scales)
