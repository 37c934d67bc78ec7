"""``python -m benchmarks.perf run|compare`` — see README.md."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import spec
from .compare import compare
from .harness import HarnessError, Options, run_set, summary_line


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.perf",
        description="CLI-level performance benchmark for repro",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser(
        "run", help="time the CLI workloads and check their outputs",
    )
    run.add_argument("--workload", action="append", choices=spec.WORKLOADS,
                     help="workload to run (repeatable; default all four)")
    run.add_argument("--profile", choices=sorted(spec.PROFILES),
                     default="full",
                     help="input sizes (default full; see README.md)")
    run.add_argument("--seed", type=int, default=2014,
                     help="seed of every generated input (default 2014)")
    run.add_argument("--reps", type=_positive_int, default=5,
                     help="minimum timed runs per workload (default 5)")
    run.add_argument("--seconds", type=float, default=0.0,
                     help="keep adding timed runs until this many seconds "
                          "of timed runs have elapsed (default 0)")
    run.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                     const=1, default=0,
                     help="add one traced run per workload and print the "
                          "per-layer metrics in the final JSON line")
    run.add_argument("--out", type=Path, default=None,
                     help="write the repro.bench/2 result document here")
    diff = commands.add_parser(
        "compare", help="judge result set B against result set A",
    )
    diff.add_argument("a", type=Path, help="baseline result file")
    diff.add_argument("b", type=Path, help="candidate result file")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "compare":
        lines, regressed = compare(
            json.loads(args.a.read_text()), json.loads(args.b.read_text())
        )
        print("\n".join(lines))
        return 1 if regressed else 0
    names = [w for w in spec.WORKLOADS if w in (args.workload or spec.WORKLOADS)]
    options = Options(profile=args.profile, seed=args.seed, reps=args.reps,
                      seconds=args.seconds, trace=bool(args.trace))
    try:
        document = run_set(names, options, log=lambda line: print(
            line, flush=True))
    except HarnessError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(document, indent=1) + "\n")
        print(f"results -> {args.out}")
    summary = summary_line(document, options.trace)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
