"""Command line interface: analyze a Coxeter diagram file."""

from __future__ import annotations

import argparse
import json
import math
import sys

from .errors import HypvolError, NotLorentzian
from .lseries import PrecisionContext
from .prediction import analyze, render_text

EXIT_OK = 0
EXIT_STAGE_ERROR = 2
EXIT_NOT_LORENTZIAN = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypvol",
        description="Arithmeticity and volume analysis of hyperbolic Coxeter polytopes",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    an = sub.add_parser("analyze", help="run the full pipeline on a diagram file")
    an.add_argument("diagram", help="path to a diagram file, or - for stdin")
    an.add_argument("--precision", type=int, default=128,
                    help="geometry working precision in bits (default 128)")
    an.add_argument("--target-err", type=float, default=1e-3,
                    help="relative error target for the volume integrator (positive)")
    an.add_argument("--seed", type=int, default=20240, help="integrator RNG seed")
    an.add_argument("--max-samples", type=int, default=2**18,
                    help="per-replicate sample cap for one simplex")
    an.add_argument("--assume-volume", default=None,
                    help="externally computed volume (skips the integrator); "
                         "needs --assume-err")
    an.add_argument("--assume-err", type=float, default=None,
                    help="absolute error of the assumed volume")
    fmt = an.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="JSON report on stdout")
    fmt.add_argument("--text", action="store_true", help="text report (default)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.diagram == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.diagram, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_STAGE_ERROR
    if (args.assume_volume is None) != (args.assume_err is None):
        print("error: --assume-volume and --assume-err must be given together",
              file=sys.stderr)
        return EXIT_STAGE_ERROR
    if not (math.isfinite(args.target_err) and args.target_err > 0):
        print(f"error: --target-err must be finite and positive, not {args.target_err}",
              file=sys.stderr)
        return EXIT_STAGE_ERROR

    max_log2 = max(7, int(args.max_samples).bit_length() - 1)
    try:
        report = analyze(
            text,
            precision=args.precision,
            target_rel_err=args.target_err,
            seed=args.seed,
            assume_volume=args.assume_volume,
            assume_err=args.assume_err,
            lseries_context=PrecisionContext(max(args.precision, 256)),
            max_log2_samples=max_log2,
        )
    except NotLorentzian as exc:
        print(f"error: not Lorentzian: {exc}", file=sys.stderr)
        return EXIT_NOT_LORENTZIAN
    except HypvolError as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return EXIT_STAGE_ERROR

    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(render_text(report))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
