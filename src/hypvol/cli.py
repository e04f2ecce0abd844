"""Command line interface: analyze a Coxeter diagram file."""

from __future__ import annotations

import argparse
import json
import sys

from . import integration
from .errors import HypvolError, NotLorentzian
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
    an.add_argument("--target-err", type=float, default=1e-3,
                    help="relative error target for the volume integrator (positive)")
    an.add_argument("--max-samples", type=int, default=2**integration.DEFAULT_MAX_LOG2,
                    help="cap on cubature nodes per integrated piece and order, rounded down "
                         f"to a power of two, 1 to 2^30 (default 2^{integration.DEFAULT_MAX_LOG2})")
    an.add_argument("--assume-volume", default=None,
                    help="externally computed volume (skips the integrator); "
                         "needs --assume-err")
    an.add_argument("--assume-err", type=float, default=None,
                    help="absolute error of the assumed volume (finite, positive)")
    an.add_argument("--json", action="store_true",
                    help="JSON report on stdout instead of the text report")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.diagram == "-":
            # stdin's bytes are decoded strictly, whatever error handler the
            # locale gives the text layer; a text-only stand-in has no bytes
            buffer = getattr(sys.stdin, "buffer", None)
            text = sys.stdin.read() if buffer is None else buffer.read().decode("utf-8")
        else:
            with open(args.diagram, encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STAGE_ERROR

    try:
        report = analyze(
            text,
            target_rel_err=args.target_err,
            assume_volume=args.assume_volume,
            assume_err=args.assume_err,
            max_samples=args.max_samples,
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
