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
    data_tokens,
    generate_random,
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

METHODS = ("auto", "pef1", "bivalued", "small-m", "er4")
BUDGET_HELP = "allocations the brute-force PO check may walk, and couplings er4 may try"

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


def parse_nh_file(text: str, n: int) -> frozenset:
    """Certificate companion file: space-separated 1-based agent indices
    forming N_H; blank or comment-only means N_H is empty."""
    nh = set()
    for tok in data_tokens(text):
        v = int(tok)
        if not 1 <= v <= n:
            raise ChoreSwapError(f"agent index {v} out of range 1..{n}")
        nh.add(v - 1)
    return frozenset(nh)


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
    if method == "er4":
        alloc = parse_allocation(Path(args.alloc).read_text(encoding="utf-8"), inst.n, inst.m)
        prices = parse_prices(Path(args.prices).read_text(encoding="utf-8"), inst.m)
        rounded, violations = validate_rounded_er(inst, alloc, prices)
        if rounded is None:
            raise RoundedInputInvalid(violations)
        return solve_4efx(inst, rounded, args.budget)
    raise ChoreSwapError(f"unknown method {method!r}")


def _require_er4_inputs(methods, args):
    """Reject an er4 run without its rounded input as a usage error."""
    if "er4" in methods and (args.alloc is None or args.prices is None):
        raise ChoreSwapError("--method er4 requires --alloc and --prices")


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
    inst = parse_instance(Path(args.instance).read_text(encoding="utf-8"))
    method = args.method
    if method == "auto":
        method = _pick_method(inst)
    _require_er4_inputs([method], args)
    t0 = time.perf_counter()
    try:
        res = _run_method(inst, method, args)
        ms = (time.perf_counter() - t0) * 1000
        row = _report_row(args.instance, method, res, inst, ms, args.budget)
        if args.verify:
            ran = _verify(inst, res)
            print("verify: ok" if ran else "verify: skipped (no framework run)", file=sys.stderr)
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
    if args.out is not None:
        Path(args.out).write_text(serialize_allocation(res.x))
    if args.trace is not None:
        Path(args.trace).write_text(res.trace.to_log())
    print(CSV_HEADER)
    print(row)
    return EXIT_OK


def _check_one(prop: str, inst, X: Allocation, p, nh_text, budget: int):
    """Return (ok, detail) for one property token."""
    parts = prop.split(":")
    name = parts[0]
    if name == "efx":
        lam = parse_rational(parts[1])
        ok = is_alpha_efx(inst, X, lam)
        return ok, f"factor {render_factor(efx_factor(inst, X))}"
    if name == "efk":
        alpha, k = parse_rational(parts[1]), int(parts[2])
        return is_alpha_efk(inst, X, alpha, k), ""
    if name == "pefk":
        if p is None:
            raise ChoreSwapError("pefk requires --prices")
        alpha, k = parse_rational(parts[1]), int(parts[2])
        return is_pefk(inst, X, p, alpha, k), ""
    if name == "pefx":
        if p is None:
            raise ChoreSwapError("pefx requires --prices")
        alpha = parse_rational(parts[1])
        return is_pefx(inst, X, p, alpha), ""
    if name == "mpb":
        if p is None:
            raise ChoreSwapError("mpb requires --prices")
        return is_mpb_allocation(inst, X, p), ""
    if name == "po":
        res = is_po_bruteforce(inst, X, budget)
        detail = ""
        if res.status == "dominated":
            detail = "witness " + serialize_allocation(res.witness).strip()
        elif res.status == "budget-exceeded":
            detail = "budget exceeded"
        return res.is_po, detail
    if name == "cert":
        if nh_text is None:
            raise ChoreSwapError("cert requires --cert")
        lam = parse_rational(parts[1])
        weak = parts[2] == "weak"
        if parts[2] not in ("strict", "weak"):
            raise ChoreSwapError(f"cert mode must be strict or weak, got {parts[2]!r}")
        nh = parse_nh_file(nh_text, inst.n)
        cert = FriendlyCertificate(lam, frozenset(range(inst.n)) - nh, nh, weak=weak)
        violations = validate_certificate(inst, X, cert)
        detail = "; ".join(str(v) for v in violations)
        return not violations, detail
    raise ChoreSwapError(f"unknown property {prop!r}")


def cmd_check(args) -> int:
    inst = parse_instance(Path(args.instance).read_text(encoding="utf-8"))
    X = parse_allocation(Path(args.alloc).read_text(encoding="utf-8"), inst.n, inst.m)
    p = None
    if args.prices is not None:
        p = parse_prices(Path(args.prices).read_text(encoding="utf-8"), inst.m)
    nh_text = Path(args.cert).read_text(encoding="utf-8") if args.cert is not None else None
    all_ok = True
    for prop in args.props.split(","):
        prop = prop.strip()
        if not prop:
            continue
        try:
            ok, detail = _check_one(prop, inst, X, p, nh_text, args.budget)
        except (ChoreSwapError, ValueError, IndexError) as e:
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
    _require_er4_inputs(methods, args)
    corpus = sorted(Path(args.corpus).glob("*.txt"))
    rows: List[str] = []
    worst = None
    swap_total = 0
    failures = 0
    verified = skipped = 0
    found = False
    for path in corpus:
        inst = parse_instance(path.read_text(encoding="utf-8"))
        for method in methods:
            chosen = _pick_method(inst) if method == "auto" else method
            t0 = time.perf_counter()
            try:
                res = _run_method(inst, chosen, args)
                ms = (time.perf_counter() - t0) * 1000
                row = _report_row(path.name, chosen, res, inst, ms, args.budget)
                if args.verify and _verify(inst, res):
                    verified += 1
                elif args.verify:
                    skipped += 1
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
    s.add_argument(
        "--method",
        choices=METHODS,
        default="auto",
    )
    s.add_argument("--alloc", help="rounded input allocation (er4)")
    s.add_argument("--prices", help="rounded input prices (er4)")
    s.add_argument("--out", help="write the allocation here")
    s.add_argument("--trace", help="write the swap trace log here")
    s.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help=BUDGET_HELP)
    s.add_argument("--verify", action="store_true", help="replay the trace independently")
    s.set_defaults(func=cmd_solve)

    c = sub.add_parser("check", help="check fairness properties of an allocation")
    c.add_argument("instance")
    c.add_argument("--alloc", required=True)
    c.add_argument("--prices")
    c.add_argument("--cert", help="file with 1-based N_H agent indices")
    c.add_argument(
        "--props",
        required=True,
        help="comma list: efx:L, efk:A:K, pefk:A:K, pefx:A, mpb, po, cert:L:strict|weak",
    )
    c.add_argument("--report", action="store_true", help="append the envy CSV report")
    c.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    c.set_defaults(func=cmd_check)

    b = sub.add_parser("bench", help="run methods over a corpus directory")
    b.add_argument("corpus")
    b.add_argument("--methods", required=True, help="comma list of methods")
    b.add_argument("--out", help="write the CSV here instead of stdout")
    b.add_argument("--alloc")
    b.add_argument("--prices")
    b.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help=BUDGET_HELP)
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
    except (OSError, UnicodeDecodeError) as e:  # a file that is not UTF-8 text
        print(f"choreswap: io error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
