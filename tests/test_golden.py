"""Golden output digest of the four pipelines on seeded corpora.

Each case contributes its owners, swap trace log, prices, notes and
certificate, or the type and message of the exception it raised. A
refactor that keeps every output byte-identical keeps the digest. A change
that alters an output on purpose updates GOLDEN_DIGEST and says why.
"""

import hashlib
import random
from fractions import Fraction

from choreswap import (
    Instance,
    generate_random,
    solve_2efx,
    solve_4efx,
    solve_bivalued,
    solve_small_m,
    validate_rounded_er,
)
from choreswap.errors import ChoreSwapError
from choreswap.model import Bivalued, UniformInt

from conftest import ROUNDED_SHAPES, rounded_fixture, scale_rows

GOLDEN_DIGEST = "d42de42da4685418db704eb22166d810f9aa39854668b4a80179a16a81e6c863"


def _outcome(solve, inst):
    try:
        res = solve(inst)
    except ChoreSwapError as e:
        return ("error", type(e).__name__, str(e))
    cert = res.cert
    if cert is not None:
        cert = (str(cert.lam), sorted(cert.n0), sorted(cert.nh), cert.weak)
    prices = None if res.prices is None else [str(v) for v in res.prices]
    return (res.method, res.x.owners, res.trace.to_log(), prices, res.notes, cert)


def _row_factors(rng, n):
    return [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n)]


def _pef1_corpus(rng):
    for t in range(120):
        n = rng.randint(1, 4)
        m = rng.randint(0, 3) if t % 10 == 0 else rng.randint(n, (8, 9, 8, 7)[n - 1])
        inst = generate_random(rng.randrange(1 << 30), n, m, UniformInt(1, 20))
        if t % 3 == 0:
            inst = scale_rows(inst, _row_factors(rng, n))
        yield inst


def _bivalued_corpus(rng):
    # Odd cases flip a fifth of one shared {1, k} row per agent: agents
    # that agree this much often leave the first start short of 2 - 1/k.
    ks = [Fraction(1), Fraction(4, 3), Fraction(2), Fraction(5, 2), Fraction(5), Fraction(7)]
    for t in range(120):
        if t % 2:
            n, k = rng.randint(3, 4), rng.choice(ks[-3:])
            m = rng.randint(2 * n, 9)
            flip = {Fraction(1): k, k: Fraction(1)}
            base = [rng.choice((Fraction(1), k)) for _ in range(m)]
            rows = [[flip[v] if rng.random() < 0.2 else v for v in base] for _ in range(n)]
            inst = Instance(tuple(tuple(row) for row in rows))
        else:
            n, k = rng.randint(1, 4), rng.choice(ks)
            m = rng.randint(0, 3) if t % 10 == 0 else rng.randint(2 * n, (8, 9, 9, 9)[n - 1])
            inst = generate_random(rng.randrange(1 << 30), n, m, Bivalued(k))
        if t % 4 < 2:
            inst = scale_rows(inst, [Fraction(rng.randint(1, 6), rng.randint(1, 6))] * n)
        yield inst


def _small_m_corpus(rng):
    for t in range(120):
        n = rng.randint(1, 6)
        m = rng.randint(0, 2 * n)
        inst = generate_random(rng.randrange(1 << 30), n, m, UniformInt(1, 20))
        if t % 3 == 0:
            inst = scale_rows(inst, _row_factors(rng, n))
        yield inst


def golden_records():
    rng = random.Random(20261018)
    for name, solve, corpus in (
        ("pef1", solve_2efx, _pef1_corpus),
        ("bivalued", solve_bivalued, _bivalued_corpus),
        ("small-m", solve_small_m, _small_m_corpus),
    ):
        for idx, inst in enumerate(corpus(rng)):
            yield name, idx, _outcome(solve, inst)
    for seed, highs, lows in ROUNDED_SHAPES:
        inst, x, p = rounded_fixture(seed, highs, lows)
        rounded, _ = validate_rounded_er(inst, x, p)
        yield "er4", seed, _outcome(lambda i: solve_4efx(i, rounded), inst)


def golden_digest() -> str:
    h = hashlib.sha256()
    for record in golden_records():
        h.update(repr(record).encode())
        h.update(b"\n")
    return h.hexdigest()


def test_golden_digest():
    assert golden_digest() == GOLDEN_DIGEST


def test_solve_bivalued_is_scale_invariant():
    # solve_bivalued runs on the instance as given, so every output ignores
    # a common factor. An error is compared by type: a CertificateInvalid
    # message quotes the instance's own values.
    rng = random.Random(515)
    runs = 0
    for t, inst in enumerate(_bivalued_corpus(rng)):
        if t % 4 == 0:  # the same pattern with values {2/3, 5/3}
            lo = min((v for row in inst.d for v in row), default=None)
            inst = Instance(tuple(
                tuple(Fraction(2, 3) if v == lo else Fraction(5, 3) for v in row)
                for row in inst.d
            ))
        c = Fraction(rng.randint(1, 30), rng.randint(1, 30))
        base = _outcome(solve_bivalued, inst)
        scaled = _outcome(solve_bivalued, scale_rows(inst, [c] * inst.n))
        if base[0] == "error":
            base, scaled = base[:2], scaled[:2]
        assert base == scaled, (inst.d, c)
        runs += base[0] == "bivalued" and "early-exit" not in base[4]
    assert runs >= 4, runs
