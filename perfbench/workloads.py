"""Seeded inputs for each workload, the call that runs one, and its check.

Every input is generated here from the benchmark seed; hypvol only ever sees
diagram text and arguments.  Each analysis is one closed-loop request: the
next starts when the previous one has returned.

recognize-5d / recognize-7d
    The headline call: integrate the bundled polytope at target 1e-4 and
    recognize q in vol = q * T.  Only the integrator seed varies.
    recognize-7d is not in BENCHMARK.json (see README.md) but runs the same way.
exact-assumed
    Facet relabelings of the 5D, 7D and ideal-triangle diagrams, analyzed with
    an assumed volume, so geometry and integration never run.  A volume
    carries 30 digits (continued-fraction recognition) or is coarse at
    relative error 3e-5 (smooth-denominator window).  An item goes through
    the CLI with --json (whose L-series context is the default, 256 bits and
    1e-30) or through the library with 256 bits / 1e-30 or 320 bits / 1e-40.
    These kinds take from under 1 ms to about 50 ms, so a random mix would
    give a median that jumps between them; each round instead holds every
    (diagram, volume, route) combination once, in seeded order with seeded
    relabelings and coarse values.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import hypvol
import hypvol.cli
import mpmath

from reference import Expected

TARGET_REL_ERR = 1e-4
COARSE_REL_ERR = 3e-5
FINE_DIGITS = 30
# (bits, target error) of the L-series context; the first is the CLI default
LSERIES_CONTEXTS = ((256, Fraction(1, 10**30)), (320, Fraction(1, 10**40)))
EXACT_BASES = ("5d", "7d", "triangle")
EXACT_KINDS = ("fine", "coarse")
EXACT_ROUTES = ("cli",) + LSERIES_CONTEXTS


@dataclass(frozen=True)
class Item:
    """One analysis request."""

    base: str                       # key into the reference table
    text: str                       # diagram text handed to hypvol
    route: str                      # "library" or "cli"
    kind: str                       # volume: "integrated", "fine" or "coarse"
    kwargs: dict = field(default_factory=dict)     # library keyword arguments
    argv: tuple[str, ...] = ()                     # CLI arguments


def relabel(text: str, rng: random.Random) -> str:
    """Same diagram with permuted facet indices and shuffled edge lines."""
    header, edges = [], []
    facets = 0
    for raw in text.splitlines():
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if parts[0] == "edge":
            edges.append((int(parts[1]), int(parts[2]), " ".join(parts[3:])))
        else:
            header.append(" ".join(parts))
            if parts[0] == "facets":
                facets = int(parts[1])
    perm = list(range(facets))
    rng.shuffle(perm)
    lines = []
    for i, j, label in edges:
        a, b = perm[i], perm[j]
        if rng.random() < 0.5:
            a, b = b, a
        lines.append(f"edge {a} {b} {label}")
    rng.shuffle(lines)
    return "\n".join(header + lines) + "\n"


def rounds(workload: str, seed: int, texts: dict[str, str], table: dict[str, Expected]):
    """Endless seeded stream of rounds, each a list of the workload's requests."""
    rng = random.Random(f"{workload}:{seed}")
    while True:
        if workload in ("recognize-5d", "recognize-7d"):
            base = workload.split("-")[1]
            yield [Item(base, texts[base], "library", "integrated",
                        kwargs={"target_rel_err": TARGET_REL_ERR,
                                "seed": rng.randrange(1, 2**31)})]
        elif workload == "exact-assumed":
            combos = list(itertools.product(EXACT_BASES, EXACT_KINDS, EXACT_ROUTES))
            rng.shuffle(combos)
            yield [_exact_item(rng, texts, table, *combo) for combo in combos]
        else:
            raise ValueError(f"unknown workload {workload!r}")


def _exact_item(rng: random.Random, texts: dict[str, str], table: dict[str, Expected],
                base: str, kind: str, route) -> Item:
    text = relabel(texts[base], rng)
    ref = table[base].volume
    if kind == "fine":
        value = mpmath.nstr(ref, FINE_DIGITS)
        err = float(ref) * 10.0 ** (2 - FINE_DIGITS)
    else:
        value = mpmath.nstr(ref * (1 + COARSE_REL_ERR * rng.uniform(-0.5, 0.5)), 12)
        err = float(ref) * COARSE_REL_ERR
    if route == "cli":
        argv = ("analyze", "-", "--json", "--assume-volume", value, "--assume-err", repr(err))
        return Item(base, text, "cli", kind, argv=argv)
    bits, target = route
    kwargs = {"assume_volume": value, "assume_err": err,
              "lseries_context": hypvol.PrecisionContext(bits, target)}
    return Item(base, text, "library", kind, kwargs=kwargs)


def run(item: Item) -> dict:
    """Run one request and return its report as the JSON-shaped dict.

    Exceptions propagate to the caller, which records them as failures.
    """
    if item.route == "library":
        return hypvol.analyze(item.text, **item.kwargs).to_dict()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            _stdin(item.text):
        code = hypvol.cli.main(list(item.argv))
    if code != 0:
        raise RuntimeError(f"cli exit code {code}: {err.getvalue().strip()}")
    return json.loads(out.getvalue())


@contextlib.contextmanager
def _stdin(text: str):
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        yield
    finally:
        sys.stdin = saved


def check(report: dict, exp: Expected) -> str | None:
    """Why the report is wrong, or None when it matches the reference."""
    try:
        return _mismatch(report, exp)
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed report: {exc!r}"


def _mismatch(report: dict, exp: Expected) -> str | None:
    if tuple(report["signature"]) != exp.signature:
        return f"signature {report['signature']} != {list(exp.signature)}"
    arith = report["arithmeticity"]
    if arith["classification"] != exp.classification:
        return f"classification {arith['classification']!r} != {exp.classification!r}"
    if arith["delta"] != exp.delta:
        return f"delta {arith['delta']} != {exp.delta}"
    rec = report.get("recognition")
    if exp.fraction is None:
        if rec is not None or "prediction" in report:
            return "prediction reported where none applies"
        return None
    if rec is None:
        return "no recognition"
    if rec["status"] != "recognized":
        return f"{rec['status']} (residual {rec['residual']:.3g})"
    got = Fraction(rec["numerator"], rec["denominator"])
    if got != exp.fraction:
        return f"fraction {got} != {exp.fraction}"
    return None


def bar_check(report: dict, exp: Expected) -> dict | None:
    """Reported and true relative error of an integrated volume, and whether
    the reported bar covers the true deviation; None without a volume."""
    try:
        value, bar = report["volume"]["value"], report["volume"]["abs_error"]
    except (KeyError, TypeError):
        return None
    ref = float(exp.volume)
    dev = abs(value - ref)
    return {"rel_bar": bar / ref, "rel_dev": dev / ref, "covers": bar >= dev}
