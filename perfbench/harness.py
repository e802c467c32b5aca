"""Workloads, closed-loop measurement and metrics of the choreswap benchmark.

Every workload is a closed loop with a single caller: one process, one
thread, and the next instance starts only after the previous one has been
verified. Inputs come in rounds: a round holds one freshly generated
instance per shape of the workload, and round ``r`` of a seed is the same
wherever it is generated. A run builds a fixed corpus of rounds from
``--seed`` and cycles through it until ``--seconds`` have passed, but runs
the whole corpus at least once, so which instances a run checks (and which
of them fail) depends on the seed only, never on the speed of the host.
The loop looks at the clock only between rounds.

Op and set-up times are the calling thread's CPU time. The loop is
single-threaded and does no I/O, so this equals its wall time except for
the time the host gives to other processes, which would otherwise make
runs on a shared machine disagree.

Layers are timed only from outside, by wrapping the public functions of
choreswap's modules, plus the private bivalued candidate step for its
count, through their module attributes (see ``spans``).
"""

from __future__ import annotations

import hashlib
import math
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from choreswap import fairness, framework, market, model, oracle, pipelines

from spans import Tracer

ORACLE = "best_efx_factor"
# Set-up builds the corpus at least SETUP_MIN_REPS times and until the
# builds have taken SETUP_MIN_S of CPU, and reports the median build.
SETUP_MIN_REPS = 3
SETUP_MIN_S = 1.0
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
MAX_FAILURE_RECORDS = 20


@dataclass(frozen=True)
class Workload:
    name: str
    method: str  # pipeline function in choreswap.pipelines, or ORACLE
    shapes: tuple  # (n, m, k): k is the Bivalued ratio, None for uniform-int 1..20
    tail_pct: float  # fixed per workload so a faster commit does not switch it
    rounds: int  # corpus size; one pass takes about 13 s of CPU on a 2-core x86 VM

    def lam(self, k: Optional[int]) -> Fraction:
        if self.method == "solve_bivalued":
            return 2 - Fraction(1, k)
        if self.method == "solve_small_m":
            return Fraction(1)
        return Fraction(2)


WORKLOADS: Dict[str, Workload] = {
    wl.name: wl
    for wl in (
        Workload(
            "pef1-general",
            "solve_2efx",
            tuple((n, m, None) for n in (2, 3, 4) for m in range(2 * n + 1, 10)),
            99.0,
            384,
        ),
        # n = 4 (m = 9) is left out: its op time has a coefficient of
        # variation of 1.1-3.1 (up to 2.4 s per instance), which makes
        # ops_per_s differ by 13-22 % between seeds at any mix tried.
        Workload(
            "bivalued-po",
            "solve_bivalued",
            tuple((n, m, k) for k in (2, 3, 5) for n in (2, 3) for m in range(2 * n + 1, 10)),
            99.0,
            80,
        ),
        Workload(
            "small-m-framework",
            "solve_small_m",
            tuple((n, m, None) for n in range(3, 9) for m in range(n + 1, 2 * n + 1)),
            99.0,
            160,
        ),
        Workload(
            "oracle-crossval",
            ORACLE,
            tuple((n, m, None) for n in (2, 3, 4) for m in range(n, 9)),
            90.0,
            28,
        ),
    )
}


class RoutingError(Exception):
    """A generated instance would not reach the workload's pipeline."""


def route(inst: model.Instance) -> str:
    """The pipeline ``choreswap solve --method auto`` picks."""
    if inst.m <= 2 * inst.n:
        return "solve_small_m"
    if inst.bivalued_k() is not None:
        return "solve_bivalued"
    return "solve_2efx"


@dataclass(frozen=True)
class Case:
    round: int
    n: int
    m: int
    k: Optional[int]
    inst_seed: int  # reproduce with `choreswap gen --seed inst_seed ...`
    text: str


def make_round(wl: Workload, seed: int, r: int) -> List[Case]:
    rng = random.Random(f"{wl.name}/{seed}/{r}")
    cases = []
    for n, m, k in wl.shapes:
        dist = model.Bivalued(Fraction(k)) if k else model.UniformInt(1, 20)
        inst_seed = rng.randrange(1 << 31)
        inst = model.generate_random(inst_seed, n, m, dist)
        if wl.method != ORACLE and route(inst) != wl.method:
            raise RoutingError(
                f"{wl.name}: n={n} m={m} seed={inst_seed} routes to {route(inst)}"
            )
        cases.append(Case(r, n, m, k, inst_seed, model.serialize_instance(inst)))
    return cases


def setup(wl: Workload, seed: int) -> Tuple[List[List[Case]], float]:
    """Build the corpus repeatedly; return it and the median build time.
    The builds must agree exactly."""
    times = []
    corpus = None
    while len(times) < SETUP_MIN_REPS or sum(times) < SETUP_MIN_S:
        t0 = time.thread_time()
        built = [make_round(wl, seed, r) for r in range(wl.rounds)]
        times.append(time.thread_time() - t0)
        if corpus is not None and built != corpus:
            raise RuntimeError(f"{wl.name}: corpus generation is not deterministic")
        corpus = built
    return corpus, statistics.median(times)


def prepare(wl: Workload, case: Case):
    """Untimed input of one op: the instance text for a solve, the parsed
    instance for an oracle verdict."""
    return model.parse_instance(case.text) if wl.method == ORACLE else case.text


def run_op(wl: Workload, payload):
    """The timed op. A solve is what `choreswap solve --method auto` does
    after reading the file; an oracle op is one best_efx_factor verdict."""
    if wl.method == ORACLE:
        return oracle.best_efx_factor(payload)
    inst = model.parse_instance(payload)
    res = getattr(pipelines, wl.method)(inst)
    factor = fairness.efx_factor(inst, res.x)
    po = fairness.is_po_bruteforce(inst, res.x)
    return inst, res, factor, po


def check(wl: Workload, case: Case, payload, out) -> Tuple[Optional[str], str, Fraction]:
    """Untimed output gate: (problem or None, digest token, realized factor)."""
    if wl.method == ORACLE:
        best = out
        ref = fairness.efx_factor(payload, pipelines.solve_2efx(payload).x)
        if not best <= ref <= 2:
            return f"oracle best {best}, solver factor {ref}: need best <= solver <= 2", "", best
        return None, str(best), best
    inst, res, factor, po = out
    token = " ".join(map(str, res.x.owners))
    lam = wl.lam(case.k)
    if factor != res.trace.final_factor:
        return f"recomputed factor {factor} != trace factor {res.trace.final_factor}", token, factor
    if not factor <= lam:
        return f"factor {factor} > lambda {lam}", token, factor
    if wl.method == "solve_bivalued":
        if not market.is_mpb_allocation(inst, res.x, res.prices):
            return "allocation is not MPB under the returned prices", token, factor
        if po.status != "po":
            return f"PO status {po.status}", token, factor
    return None, token, factor


@dataclass
class Stats:
    """``attempted``, ``failed``, ``wrong``, the factor sum and the digest
    count each corpus case once, from the first pass; the op time lists
    hold every op of every pass."""

    op_ns: List[int] = field(default_factory=list)  # every op
    ok_ns: List[int] = field(default_factory=list)  # verified ops only
    attempted: int = 0
    failed: int = 0
    wrong: int = 0  # failed because an output gate rejected the output
    unstable: int = 0  # repeated ops whose outcome differs from the first pass
    rounds: int = 0
    factor_sum: Fraction = Fraction(0)
    digest: "hashlib._Hash" = field(default_factory=hashlib.sha256)
    failures: List[dict] = field(default_factory=list)

    def fail(self, case: Case, what: str):
        self.failed += 1
        self.digest.update(f"{case.round} {case.n} {case.m} FAIL\n".encode())
        self.record(case, what)

    def record(self, case: Case, what: str):
        if len(self.failures) < MAX_FAILURE_RECORDS:
            dist = f"bivalued:{case.k}" if case.k else "uniform-int:1..20"
            self.failures.append(
                {"round": case.round, "n": case.n, "m": case.m, "dist": dist,
                 "inst_seed": case.inst_seed, "error": what.splitlines()[0][:300]}
            )


def measure(
    wl: Workload,
    corpus: List[List[Case]],
    seconds: float,
    min_rounds: Optional[int] = None,
    tracer: Optional[Tracer] = None,
) -> Stats:
    """Cycle through ``corpus`` until ``seconds`` have passed and at least
    ``min_rounds`` rounds (by default the whole corpus) have run. A repeated
    op must end as it did in the first pass."""
    stats = Stats()
    first: Dict[Tuple[int, int], Optional[str]] = {}  # token, or None if failed
    deadline = time.perf_counter() + seconds
    if min_rounds is None:
        min_rounds = len(corpus)
    r = 0
    while r < min_rounds or time.perf_counter() < deadline:
        repeat = r >= len(corpus)
        for i, case in enumerate(corpus[r % len(corpus)]):
            payload = prepare(wl, case)
            problem, wrong, token, factor = None, False, None, None
            t0 = time.thread_time_ns()
            try:
                if tracer is None:
                    out = run_op(wl, payload)
                else:
                    with tracer.op():
                        out = run_op(wl, payload)
            except Exception as exc:  # counted, never retried or dropped
                dt = time.thread_time_ns() - t0
                problem = f"{type(exc).__name__}: {exc}"
            else:
                dt = time.thread_time_ns() - t0
                try:
                    problem, token, factor = check(wl, case, payload, out)
                except Exception as exc:
                    problem = f"gate raised {type(exc).__name__}: {exc}"
                wrong = problem is not None
            stats.op_ns.append(dt)
            if problem is None:
                stats.ok_ns.append(dt)
            if repeat:
                if first[(case.round, i)] != (None if problem else token):
                    stats.unstable += 1
                    stats.record(case, f"repeat differs from first pass: {problem or token}")
                continue
            stats.attempted += 1
            first[(case.round, i)] = None if problem else token
            if problem is not None:
                stats.wrong += wrong
                stats.fail(case, problem)
                continue
            stats.factor_sum += factor
            stats.digest.update(f"{r} {case.n} {case.m} {token}\n".encode())
        r += 1
    stats.rounds = r
    return stats


def tail(values_ns: List[int], pct: float) -> Tuple[float, float, int]:
    """(percentile used, its value in ms, samples beyond it). Falls down the
    ladder from ``pct`` until at least 10 samples lie beyond."""
    ordered = sorted(values_ns)
    for p in (p for p in TAIL_LADDER if p <= pct):
        idx = max(0, math.ceil(p / 100 * len(ordered)) - 1)
        beyond = len(ordered) - idx - 1
        if beyond >= 10:
            break
    return p, ordered[idx] / 1e6, beyond


def end_to_end(wl: Workload, stats: Stats, setup_s: float) -> Tuple[dict, dict]:
    """(metrics, detail) of an untraced run."""
    verified = stats.attempted - stats.failed
    if verified == 0:
        raise RuntimeError(f"{wl.name}: no op was verified")
    pct, tail_ms, beyond = tail(stats.ok_ns, wl.tail_pct)
    factor_mean = stats.factor_sum / verified
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(stats.ok_ns) / (sum(stats.op_ns) / 1e9), "1/s"),
        "op_ms_p50": (statistics.median(stats.ok_ns) / 1e6, "ms"),
        "op_ms_tail": (tail_ms, "ms"),
        "verified_ratio": (verified / stats.attempted, "ratio"),
        "factor_mean": (float(factor_mean), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    detail = {
        "tail_percentile": pct,
        "tail_samples_beyond": beyond,
        "fail_ratio": stats.failed / stats.attempted,
        "factor_mean_exact": str(factor_mean),
    }
    return metrics, detail


# --- traced run --------------------------------------------------------


def _note_ratio_system(tracer, args, result):
    if not isinstance(result, market.InfeasibilityCycle):
        tracer.count("ratio_feasible")


def _note_po(tracer, args, result):
    if result.status != "budget-exceeded":
        tracer.count("po_decided")


def _note_framework(tracer, args, result):
    tracer.count("swaps", result[1].swap_count)
    tracer.count("nh", len(args[2].nh))


# (module, function, hook). Each gets <module>.<function>.calls_per_op and
# .self_ms, except the private candidate step, which feeds the bivalued
# ratios only.
PROBES = (
    (model, "parse_instance", None),
    (model, "bundle_disutility", None),
    (fairness, "hat_d", None),
    (fairness, "efx_factor", None),
    (fairness, "is_alpha_efx", None),
    (fairness, "is_pefk", None),
    (fairness, "is_po_bruteforce", _note_po),
    (market, "mpb_view", None),
    (market, "is_mpb_allocation", None),
    (market, "mpb_price_feasibility", None),
    (market, "solve_ratio_system", _note_ratio_system),
    (framework, "validate_certificate", None),
    (framework, "run_framework", _note_framework),
    (pipelines, "search_pef1_mpb", None),
    (pipelines, "certificate_from_pef1", None),
    (pipelines, "solve_2efx", None),
    (pipelines, "solve_bivalued", None),
    (pipelines, "solve_small_m", None),
    (oracle, "best_efx_factor", None),
    (pipelines, "_bivalued_candidate", None),
)
CANDIDATE = "pipelines._bivalued_candidate"


def probe_name(module, attr: str) -> str:
    return f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"


def probes():
    return [(probe_name(mod, attr), getattr(mod, attr), hook) for mod, attr, hook in PROBES]


def layer_metrics(tracer: Tracer, traced: Stats, untraced: Stats) -> dict:
    """Per-op layer metrics of a traced phase that ran the same rounds as
    the untraced phase before it."""
    ops = len(traced.op_ns)
    traced_s = sum(traced.op_ns) / 1e9
    untraced_s = sum(untraced.op_ns) / 1e9
    totals = tracer.totals()
    counters = tracer.counters

    def calls(name):
        return totals.get(name, (0, 0))[0]

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = {}
    for mod, attr, _ in PROBES:
        name = probe_name(mod, attr)
        if name == CANDIDATE:
            continue
        n_calls, self_ns = totals.get(name, (0, 0))
        metrics[f"{name}.calls_per_op"] = (n_calls / ops, "calls/op")
        metrics[f"{name}.self_ms"] = (self_ns / ops / 1e6, "ms")
    frameworks = calls("framework.run_framework")
    metrics.update({
        "market.solve_ratio_system.feasible_ratio": (
            ratio(counters.get("ratio_feasible", 0), calls("market.solve_ratio_system")), "ratio"),
        "fairness.is_po_bruteforce.decided_ratio": (
            ratio(counters.get("po_decided", 0), calls("fairness.is_po_bruteforce")), "ratio"),
        "pipelines.bivalued.candidates_per_op": (calls(CANDIDATE) / ops, "calls/op"),
        "pipelines.bivalued.framework_ratio": (ratio(frameworks, calls(CANDIDATE)), "ratio"),
        "framework.swaps_per_op": (counters.get("swaps", 0) / ops, "swaps/op"),
        "framework.nh_per_op": (counters.get("nh", 0) / ops, "agents/op"),
        "framework.swap_ratio": (ratio(counters.get("swaps", 0), counters.get("nh", 0)), "ratio"),
        # Self times partition the op spans, so they sum to the traced op time.
        "trace.op_ms": (sum(ns for _, ns in totals.values()) / ops / 1e6, "ms"),
        "trace.overhead_ratio": (
            (len(untraced.op_ns) / untraced_s) / (ops / traced_s), "ratio"),
    })
    return metrics


def layer_shares(metrics: dict) -> Dict[str, float]:
    """Self time of each layer as a share of the traced op time."""
    op_ms = metrics["trace.op_ms"][0]
    shares = {
        name[: -len(".self_ms")]: value / op_ms
        for name, (value, _) in metrics.items()
        if name.endswith(".self_ms") and op_ms
    }
    return {k: round(v, 4) for k, v in sorted(shares.items(), key=lambda kv: -kv[1]) if v >= 0.001}
