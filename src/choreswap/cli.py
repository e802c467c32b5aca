"""Command line interface: gen, solve, check, bench.

Exit codes: 0 success, 1 usage or IO or input-validation error (for
bench also a case that failed without a finding), 2 a reportable
finding: an `errors.Finding` such as a failed postcondition (dumped to
stderr, with the trace when it carries one), or a property that
`check` finds false (with the witness, for po).

Every factor printed in a report is recomputed by the independent
checker; a solver/checker disagreement aborts with exit 2. Decimal
renderings use 20 significant digits and are presentation only.
"""

from __future__ import annotations

import argparse
import decimal
import sys
import time
from pathlib import Path
from typing import List, Optional

from .errors import (
    ChoreSwapError,
    Finding,
    NotBivalued,
    PostconditionViolated,
    RoundedInputInvalid,
    TooManyChores,
    TraceMismatch,
)
from .fairness import (
    DEFAULT_BUDGET,
    efx_factor,
    envy_report,
    is_alpha_efk,
    is_alpha_efx,
    is_pefk,
    is_pefx,
    is_po_bruteforce,
)
from .framework import FriendlyCertificate, validate_certificate
from .market import InfeasibilityCycle, is_mpb_allocation, mpb_price_feasibility
from .model import (
    INFINITE,
    Allocation,
    generate_random,
    parse_agents,
    parse_allocation,
    parse_distribution,
    parse_instance,
    parse_prices,
    parse_rational,
    serialize_allocation,
    serialize_instance,
)
from .oracle import verify_trace
from .pipelines import (
    SolveResult,
    solve_2efx,
    solve_4efx,
    solve_bivalued,
    solve_small_m,
    validate_rounded_er,
)

CSV_HEADER = "instance,method,factor,factor_decimal,swaps,cert_mode,po,ms,flags"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FINDING = 2

METHODS = ("auto", "pef1", "bivalued", "small-m")  # bench; solve also takes er4
PO_BUDGET_HELP = "allocations the brute-force PO check may walk"

# Each `check` property's usage: its ':' fields are the ones it takes.
PROPS = {
    "efx": "efx:L",
    "efk": "efk:A:K",
    "pefk": "pefk:A:K",
    "pefx": "pefx:A",
    "mpb": "mpb",
    "po": "po",
    "cert": "cert:L:strict|weak",
}
NEEDS_PRICES = ("pefk", "pefx", "mpb")

class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this surface reserves 2 for
    findings, so remap usage errors to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def render_decimal(x, digits: int = 20) -> str:
    """20-significant-digit decimal rendering, presentation only."""
    if x is INFINITE:
        return "inf"
    ctx = decimal.Context(prec=digits)
    return str(
        ctx.divide(decimal.Decimal(x.numerator), decimal.Decimal(x.denominator))
    )


def render_factor(x) -> str:
    return "inf" if x is INFINITE else str(x)


def _read(path) -> str:
    """A user file's text, which must be UTF-8; an OSError otherwise, and
    either way the message names the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise OSError(f"{path} is not UTF-8 text: {e}") from None


def _report_row(
    instance_id: str, method: str, res: SolveResult, inst, ms: float, budget: int
) -> str:
    factor = efx_factor(inst, res.x)
    if factor != res.trace.final_factor:
        raise PostconditionViolated(
            f"solver/checker factor disagreement: checker {factor}, "
            f"solver {res.trace.final_factor}",
            res.trace,
        )
    po = _po_status(inst, res, budget)
    flags = ";".join(res.notes + res.trace.flags)
    return (
        f"{instance_id},{method},{render_factor(factor)},"
        f"{render_decimal(factor)},{res.trace.swap_count},{res.trace.mode},"
        f"{po},{ms:.3f},{flags}"
    )


def _po_status(inst, res: SolveResult, budget: int) -> str:
    """"po" when res.prices or mpb_price_feasibility make res.x MPB (so fPO,
    so PO); else, on an empty bundle or a cycle, the brute-force status."""
    if res.prices is not None and is_mpb_allocation(inst, res.x, res.prices):
        return "po"
    if all(res.x.bundles()):  # else mpb_price_feasibility raises EmptyBundle
        if not isinstance(mpb_price_feasibility(inst, res.x), InfeasibilityCycle):
            return "po"
    return is_po_bruteforce(inst, res.x, budget).status


def _verify(inst, res: SolveResult) -> bool:
    """Replay the run through the independent verify_trace; False when no
    framework ran."""
    if res.start is None:
        return False
    try:
        ok = verify_trace(inst, res.start, res.cert, res.trace)
    except TraceMismatch as e:
        raise PostconditionViolated(f"verify: {e}", res.trace)
    if not ok:
        raise PostconditionViolated("verify: the replay breaks an invariant", res.trace)
    return True


def _pick_method(inst) -> str:
    if inst.m <= 2 * inst.n:
        return "small-m"
    if inst.bivalued_k() is not None:
        return "bivalued"
    return "pef1"


def _run_method(inst, method: str, args) -> SolveResult:
    if method == "small-m":
        return solve_small_m(inst)
    if method == "bivalued":
        return solve_bivalued(inst)
    if method == "pef1":
        return solve_2efx(inst)
    # er4, which only solve runs
    alloc = parse_allocation(_read(args.alloc), inst.n, inst.m)
    prices = parse_prices(_read(args.prices), inst.m)
    rounded, violations = validate_rounded_er(inst, alloc, prices)
    if rounded is None:
        raise RoundedInputInvalid(violations)
    return solve_4efx(inst, rounded, args.budget)


def _solve_row(name: str, inst, method: str, args):
    """(res, row, ran): method run on inst, its CSV row with the run's
    wall time, and under --verify whether the replay ran (else None)."""
    t0 = time.perf_counter()
    res = _run_method(inst, method, args)
    ms = (time.perf_counter() - t0) * 1000
    row = _report_row(name, method, res, inst, ms, args.budget)
    return res, row, _verify(inst, res) if args.verify else None


def cmd_gen(args) -> int:
    if args.m < 0:
        raise ChoreSwapError(f"--m must be at least 0, got {args.m}")
    if args.count < 1:
        raise ChoreSwapError(f"--count must be at least 1, got {args.count}")
    dist = parse_distribution(args.dist)
    for idx in range(args.count):
        seed = args.seed + idx
        inst = generate_random(seed, args.n, args.m, dist)
        text = f"# seed={seed} n={args.n} m={args.m} dist={dist}\n" + serialize_instance(inst)
        if args.out is None:
            sys.stdout.write(text)
        else:
            out = Path(args.out)
            if args.count == 1 and not out.is_dir():
                out.write_text(text)
            else:
                out.mkdir(parents=True, exist_ok=True)
                name = f"gen-n{args.n}-m{args.m}-s{seed}.txt"
                (out / name).write_text(text)
    return EXIT_OK


def cmd_solve(args) -> int:
    inst = parse_instance(_read(args.instance))
    method = args.method
    if method == "auto":
        method = _pick_method(inst)
    if method == "er4" and (args.alloc is None or args.prices is None):
        raise ChoreSwapError("--method er4 requires --alloc and --prices")
    try:
        res, row, ran = _solve_row(args.instance, inst, method, args)
    except PostconditionViolated as e:
        print(f"solve: {e}", file=sys.stderr)
        if e.trace is not None:
            sys.stderr.write(e.trace.to_log())
        return EXIT_FINDING
    except Finding as e:
        print(f"solve: finding: {e}", file=sys.stderr)
        return EXIT_FINDING
    except (NotBivalued, TooManyChores, RoundedInputInvalid) as e:
        print(f"solve: error: {e}", file=sys.stderr)
        return EXIT_USAGE
    if args.verify:
        print("verify: ok" if ran else "verify: skipped (no framework run)", file=sys.stderr)
    if args.out is not None:
        Path(args.out).write_text(serialize_allocation(res.x))
    if args.trace is not None:
        Path(args.trace).write_text(res.trace.to_log())
    print(CSV_HEADER)
    print(row)
    return EXIT_OK


def _parse_k(tok: str) -> int:
    """The K of efk:A:K and pefk:A:K: int() reads it, so its errors stay,
    and then only ASCII digits with an optional leading '-' are taken."""
    k = int(tok)
    digits = tok.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ChoreSwapError(f"not an integer K: {tok!r}")
    return k


def _check_one(prop: str, inst, X: Allocation, p, nh_text, budget: int):
    """Return (ok, detail) for one property token."""
    name, *fields = prop.split(":")
    if name not in PROPS:
        raise ChoreSwapError(f"unknown property {prop!r}")
    if len(fields) != PROPS[name].count(":"):
        raise ChoreSwapError(f"expected {PROPS[name]}")
    if name in NEEDS_PRICES and p is None:
        raise ChoreSwapError(f"{name} requires --prices")
    if name == "cert" and nh_text is None:
        raise ChoreSwapError("cert requires --cert")
    if name == "efx":
        ok = is_alpha_efx(inst, X, parse_rational(fields[0]))
        return ok, f"factor {render_factor(efx_factor(inst, X))}"
    if name == "efk":
        return is_alpha_efk(inst, X, parse_rational(fields[0]), _parse_k(fields[1])), ""
    if name == "pefk":
        return is_pefk(inst, X, p, parse_rational(fields[0]), _parse_k(fields[1])), ""
    if name == "pefx":
        return is_pefx(inst, X, p, parse_rational(fields[0])), ""
    if name == "mpb":
        return is_mpb_allocation(inst, X, p), ""
    if name == "po":
        res = is_po_bruteforce(inst, X, budget)
        detail = ""
        if res.status == "dominated":
            detail = "witness " + serialize_allocation(res.witness).strip()
        elif res.status == "budget-exceeded":
            detail = "budget exceeded"
        return res.is_po, detail
    lam = parse_rational(fields[0])
    if fields[1] not in ("strict", "weak"):
        raise ChoreSwapError(f"cert mode must be strict or weak, got {fields[1]!r}")
    nh = frozenset(parse_agents(nh_text, inst.n))
    cert = FriendlyCertificate(lam, frozenset(range(inst.n)) - nh, nh, weak=fields[1] == "weak")
    violations = validate_certificate(inst, X, cert)
    return not violations, "; ".join(str(v) for v in violations)


def cmd_check(args) -> int:
    inst = parse_instance(_read(args.instance))
    X = parse_allocation(_read(args.alloc), inst.n, inst.m)
    p = parse_prices(_read(args.prices), inst.m) if args.prices is not None else None
    nh_text = _read(args.cert) if args.cert is not None else None
    all_ok = True
    for prop in args.props.split(","):
        prop = prop.strip()
        try:
            ok, detail = _check_one(prop, inst, X, p, nh_text, args.budget)
        except (ChoreSwapError, ValueError) as e:
            print(f"check: error: {prop}: {e}", file=sys.stderr)
            return EXIT_USAGE
        suffix = f" {detail}" if detail else ""
        print(f"{'PASS' if ok else 'FAIL'} {prop}{suffix}")
        all_ok = all_ok and ok
    if args.report:
        sys.stdout.write(envy_report(inst, X))
    return EXIT_OK if all_ok else EXIT_FINDING


def cmd_bench(args) -> int:
    if not Path(args.corpus).is_dir():
        raise ChoreSwapError(f"corpus {args.corpus} is not a directory")
    methods = [m.strip() for m in args.methods.split(",")]
    for method in methods:
        if method not in METHODS:
            raise ChoreSwapError(f"unknown method {method!r}; choose from {', '.join(METHODS)}")
    corpus = sorted(Path(args.corpus).glob("*.txt"))
    rows: List[str] = []
    worst = None
    swap_total = 0
    failures = 0
    verified = skipped = 0
    found = False
    for path in corpus:
        inst = parse_instance(_read(path))
        for method in methods:
            chosen = _pick_method(inst) if method == "auto" else method
            t0 = time.perf_counter()
            try:
                res, row, ran = _solve_row(path.name, inst, chosen, args)
                if args.verify:
                    verified += ran
                    skipped += not ran
                rows.append(row)
                f = res.trace.final_factor
                if worst is None or f > worst:
                    worst = f
                swap_total += res.trace.swap_count
            except ChoreSwapError as e:
                found = found or isinstance(e, Finding)
                failures += 1
                ms = (time.perf_counter() - t0) * 1000
                rows.append(
                    f"{path.name},{chosen},,,,,,{ms:.3f},error:{type(e).__name__}"
                )
                print(f"bench: {path.name} [{chosen}]: {e}", file=sys.stderr)
    out = "\n".join([CSV_HEADER] + rows) + "\n"
    if args.out is not None:
        Path(args.out).write_text(out)
    else:
        sys.stdout.write(out)
    if args.verify:
        print(f"bench: verify: {verified} ok, {skipped} skipped", file=sys.stderr)
    n_ok = len(rows) - failures
    mean_swaps = f"{swap_total / n_ok:.3f}" if n_ok else "n/a"
    print(
        f"bench: {n_ok} ok, {failures} failed, max factor "
        f"{render_factor(worst) if worst is not None else 'n/a'}, "
        f"mean swaps {mean_swaps}",
        file=sys.stderr,
    )
    if found:
        return EXIT_FINDING
    return EXIT_USAGE if failures else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="choreswap", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate random instances")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--count", type=int, default=1)
    g.add_argument("--dist", required=True, help="uniform-int:LO..HI or bivalued:K")
    g.add_argument("--out", help="output file (count=1) or directory")
    g.set_defaults(func=cmd_gen)

    s = sub.add_parser("solve", help="solve an instance and report")
    s.add_argument("instance")
    s.add_argument("--method", choices=METHODS + ("er4",), default="auto")
    s.add_argument("--alloc", help="rounded input allocation (er4)")
    s.add_argument("--prices", help="rounded input prices (er4)")
    s.add_argument("--out", help="write the allocation here")
    s.add_argument("--trace", help="write the swap trace log here")
    s.add_argument(
        "--budget", type=int, default=DEFAULT_BUDGET,
        help=f"{PO_BUDGET_HELP}, and couplings er4 may try",
    )
    s.add_argument("--verify", action="store_true", help="replay the trace independently")
    s.set_defaults(func=cmd_solve)

    c = sub.add_parser("check", help="check fairness properties of an allocation")
    c.add_argument("instance")
    c.add_argument("--alloc", required=True)
    c.add_argument("--prices")
    c.add_argument("--cert", help="file with 1-based N_H agent indices")
    c.add_argument("--props", required=True, help="comma list: " + ", ".join(PROPS.values()))
    c.add_argument("--report", action="store_true", help="append the envy CSV report")
    c.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    c.set_defaults(func=cmd_check)

    b = sub.add_parser("bench", help="run methods over a corpus directory")
    b.add_argument("corpus")
    b.add_argument("--methods", required=True, help="comma list of methods")
    b.add_argument("--out", help="write the CSV here instead of stdout")
    b.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help=PO_BUDGET_HELP)
    b.add_argument("--verify", action="store_true", help="replay every trace independently")
    b.set_defaults(func=cmd_bench)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ChoreSwapError as e:
        print(f"choreswap: error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as e:  # `_read` names a file that is not UTF-8 text
        print(f"choreswap: io error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
