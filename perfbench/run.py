"""Run one workload of the choreswap benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; choreswap is imported from its
``src/`` directory. With ``--trace 0`` the last line of standard output is
a JSON object with the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics, and the spans are written to ``perfbench/out/``. The
line before it (``# detail ...``) carries the tail percentile, the output
digest, the exact factor mean and reproducers for failed ops.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def emit(stats_list, metrics: dict, detail: dict, correct: bool):
    attempted = sum(s.attempted for s in stats_list)
    failed = sum(s.failed for s in stats_list)
    print("# detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "choreswap" / "__init__.py").is_file():
        print(f"run.py: no choreswap sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import choreswap

    if Path(choreswap.__file__).resolve().parent != (SRC / "choreswap").resolve():
        print(f"run.py: imported choreswap from {choreswap.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness
    from spans import Tracer

    wl = harness.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"run.py: unknown workload {args.workload!r}; "
              f"choose from {', '.join(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("run.py: --seconds must be positive", file=sys.stderr)
        return 2

    corpus, setup_s = harness.setup(wl, args.seed)
    detail = {"workload": wl.name, "seed": args.seed}
    if not args.trace:
        stats = harness.measure(wl, corpus, args.seconds)
        metrics, extra = harness.end_to_end(wl, stats, setup_s)
        runs = [stats]
    else:
        # Untraced for half the time, then the same rounds again traced.
        plain = harness.measure(wl, corpus, args.seconds / 2)
        tracer = Tracer()
        with tracer.installed(harness.probes()):
            traced = harness.measure(wl, corpus, 0, plain.rounds, tracer)
        metrics = harness.layer_metrics(tracer, traced, plain)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{wl.name}.csv"
        tracer.write_csv(spans_path)
        extra = {
            "layer_shares": harness.layer_shares(metrics),
            "spans": len(tracer.start),
            "spans_file": str(spans_path.relative_to(HERE.parent)),
            "traced_digest_matches": traced.digest.hexdigest() == plain.digest.hexdigest(),
        }
        runs = [plain, traced]
        stats = plain
    detail.update(extra)
    detail.update({
        "rounds": stats.rounds,
        "corpus_rounds": len(corpus),
        "ops": len(stats.op_ns),
        "digest": stats.digest.hexdigest(),
        "failures": [f for s in runs for f in s.failures],
    })
    correct = all(s.wrong == 0 and s.unstable == 0 for s in runs) and detail.get("traced_digest_matches", True)
    emit(runs, metrics, detail, correct)
    return 0


if __name__ == "__main__":
    sys.exit(main())
