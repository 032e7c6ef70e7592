"""Command-line entry point: run a check suite, print it, optionally save CSV.

Exit codes: 0 when every executed check passed (or the selection was empty),
1 when at least one check failed, 2 for configuration or infrastructure
errors.  Reports are deterministic for a fixed (config, seed) pair; see
``report``.  Run telemetry (the ``solve`` stage seconds, peak RSS and CPU
count, one line per Picard sweep and, when the cross-validation block runs,
one for the method-of-lines reference) goes to standard error, never into a
CSV.
"""

from __future__ import annotations

import argparse
import sys
import traceback

from .config import ConfigError, RunConfig
from .report import SUITE_RUNNERS

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_ERROR = 2


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="key = value config file (defaults otherwise)")
    common.add_argument("--out", metavar="DIR",
                        help="directory to write the suite CSV into")
    common.add_argument("--seed", type=int, metavar="N",
                        help="override the sampling seed")
    common.add_argument("--suite", metavar="NAME",
                        help="run only the named block of the command; an "
                             "unknown name yields an empty report")
    parser = argparse.ArgumentParser(
        prog="bo-halfline",
        description="Half-line dispersive solver check suites.")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("verify-symbols", parents=[common],
                   help="scaling identities, index invariance, controls")
    sub.add_parser("decay", parents=[common],
                   help="long-time decay slopes of the solution operators")
    sub.add_parser("solve", parents=[common],
                   help="Picard fixed point, growth fits, cross-validation")
    sub.add_parser("selfcheck", parents=[common],
                   help="quadrature-layer invariants")
    return parser


def load_config(args: argparse.Namespace) -> RunConfig:
    """Resolve the effective config: file, then environment, then flags."""
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    cfg = cfg.with_env_overrides()
    if args.seed is not None:
        cfg = cfg.replace(seed=args.seed)
    return cfg


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    runner = SUITE_RUNNERS[args.command]
    try:
        report = runner(cfg, suite=args.suite)
        if args.out:
            path = report.write(args.out)
        else:
            path = None
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception:
        traceback.print_exc()
        return EXIT_ERROR
    for line in report.telemetry:
        print(line, file=sys.stderr)
    for line in report.summary_lines():
        print(line)
    print(f"{report.suite}: {report.n_checked - report.n_failed}/"
          f"{report.n_checked} checks passed")
    if path is not None:
        print(f"wrote {path}")
    return EXIT_PASS if report.passed else EXIT_CHECK_FAILED


if __name__ == "__main__":
    raise SystemExit(main())
