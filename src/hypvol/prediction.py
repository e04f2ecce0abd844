"""Volume predictions, rational recognition, and the analysis pipeline.

For a quasi-arithmetic reflection group over Q in odd dimension
n = 2m - 1 >= 3, the covolume is a rational multiple of a single
transcendental factor determined by the discriminant class delta of the
rational form:

  * delta a square:  T = zeta(m);
  * otherwise:       T = |D|^(n/2) * L(m, chi_D),
                     D the fundamental discriminant of Q(sqrt(delta)).

From n = 5 on such a group is nonuniform.  In n = 3 it may also be
cocompact, and delta is always negative, so T = |D|^(3/2) L(2, chi_D):
Humbert's volume of the Bianchi groups up to a rational factor, and Borel's
for the cocompact groups over Q.

``analyze`` runs diagram -> Gram -> classification -> prediction ->
realization -> volume -> recognition and reports every stage.  Recognized
identities are suggestions backed by numerics, never proofs.

``analyze`` imports ``hypvol.geometry`` and ``hypvol.integration`` only
when it integrates, so ``import hypvol`` compiles only the exact layers;
``VolumeEstimate`` lives here, as an assumed volume needs one without them.
"""

from __future__ import annotations

import bisect
import decimal
import functools
import math
import operator
import time
from fractions import Fraction
from typing import NamedTuple

from .arithmeticity import MAX_DISCRIMINANT, ArithmeticityReport, check_facet_count, classify
from .diagram import CoxeterDiagram, assert_lorentzian, gram_matrix, parse_diagram
from .errors import BadOption, TooLarge, excerpt
from .lseries import (
    DEFAULT_CONTEXT,
    PrecisionContext,
    dirichlet_L,
    fundamental_discriminant,
    riemann_zeta,
)
from .surd import prime_factors

RECOGNITION_SMOOTH_PRIMES = (2, 3, 5, 7)
RECOGNITION_SMOOTH_QMAX = 10**9
RECOGNITION_MAX_NUMERATOR = 16


class VolumeEstimate(NamedTuple):
    """Numeric volume with an honest absolute error estimate; an immutable
    tuple."""

    value: float
    abs_error: float
    samples: int
    strategy: str = "gauss-jacobi"
    capped: bool = False    # the node cap stopped the rule before the bar met the budget

    @property
    def rel_error(self) -> float:
        return self.abs_error / self.value if self.value else math.inf


class VolumePrediction(NamedTuple):
    """Transcendental factor T such that the covolume is in T * Q; an
    immutable tuple."""

    dimension: int
    delta: int
    case: str                       # "rational-field" or "quadratic-field"
    factor: Fraction                # a dyadic rational of at most ctx.workprec() bits
    factor_error: float
    discriminant: int | None = None

    @property
    def weight(self) -> int:
        return (self.dimension + 1) // 2


class RationalRecognition(NamedTuple):
    """Outcome of recognizing x as a fraction within a stated error; an
    immutable tuple.  Each result holds a dict of its own, empty when
    unrecognized, in ``q_factorization``."""

    status: str                     # "recognized" or "unrecognized"
    numerator: int | None
    denominator: int | None
    residual: float
    confidence: float
    method: str                     # "continued-fraction", "smooth-denominator", "none"
    q_factorization: dict[int, int]

    @property
    def fraction(self) -> Fraction | None:
        if self.status != "recognized":
            return None
        return Fraction(self.numerator, self.denominator)


def transcendental_factor(
    n: int, delta: int, ctx: PrecisionContext = DEFAULT_CONTEXT
) -> VolumePrediction:
    """The number-theoretic factor for odd dimension n and discriminant class delta.

    n = 1 gives weight 1, which the L-value refuses with a ValueError.
    For delta = 1 it is zeta(m) as ``riemann_zeta`` returns it.  Otherwise
    T = |D|^((n-1)/2) sqrt(|D|) L(m, chi_D) is formed in integers, with
    sqrt(|D|) to 2^-(w+16) from ``math.isqrt`` at w = ctx.workprec(), and
    rounded once to the nearest w-bit dyadic.  Its error is within
    2 |D|^(n/2) ctx.target_error, the bound of the L-value scaled by the
    lead factor.
    """
    m = (n + 1) // 2
    if delta == 1:
        value = riemann_zeta(m, ctx)
        return VolumePrediction(n, delta, "rational-field", value,
                                float(ctx.target_error), None)
    D = fundamental_discriminant(delta)
    L = dirichlet_L(m, D, ctx)
    w = ctx.workprec()
    k = w + 16
    lead = abs(D) ** (n // 2) * math.isqrt(abs(D) << 2 * k)    # |D|^(n/2) 2^k
    value = _nearest(lead * L.numerator, L.denominator << k, w)
    err = lead / (1 << k) * float(ctx.target_error) * 2
    return VolumePrediction(n, delta, "quadratic-field", value, err, D)


def _nearest(num: int, den: int, bits: int) -> Fraction:
    """num/den > 0 rounded to the nearest dyadic of ``bits`` significant bits."""
    # num 2^shift / den lies in (2^bits, 2^(bits+2)): its floor q has one or
    # two bits more than wanted, and adding half of their weight before
    # dropping them rounds the exact quotient, not only q
    shift = bits + 1 - num.bit_length() + den.bit_length()
    q = (num << shift) // den if shift >= 0 else num // (den << -shift)
    extra = q.bit_length() - bits
    man, exp = (q + (1 << (extra - 1))) >> extra, extra - shift
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


def _digits(x: Fraction, digits: int) -> str:
    """x > 0 to ``digits`` significant digits, ties rounded up: positional
    when the leading digit's exponent e has min(-(digits // 3), -5) < e <
    digits, else one digit, a point and ``e+NN`` or ``e-NN``; trailing
    zeros dropped, but a point always followed by a digit."""
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.rounding = digits, decimal.ROUND_HALF_UP
        d = decimal.Decimal(x.numerator) / x.denominator    # rounded once
    mantissa, e = "".join(map(str, d.as_tuple().digits)).rstrip("0"), d.adjusted()
    if not min(-(digits // 3), -5) < e < digits:
        return f"{mantissa[0]}.{mantissa[1:] or '0'}e{e:+d}"
    if e < 0:
        return f"0.{'0' * (-e - 1)}{mantissa}"
    return f"{mantissa[:e + 1].ljust(e + 1, '0')}.{mantissa[e + 1:] or '0'}"


def _continued_fraction_convergents(x: Fraction):
    p0, q0, p1, q1 = 0, 1, 1, 0
    while True:
        a = x.numerator // x.denominator
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        yield Fraction(p1, q1)
        frac = x - a
        if frac == 0:
            return
        x = 1 / frac


@functools.cache
def _smooth_denominators() -> tuple[int, ...]:
    """The RECOGNITION_SMOOTH_PRIMES-smooth integers up to
    RECOGNITION_SMOOTH_QMAX, ascending; built on first use."""
    out = [1]
    for p in RECOGNITION_SMOOTH_PRIMES:
        grown = []
        for q in out:
            v = q * p
            while v <= RECOGNITION_SMOOTH_QMAX:
                grown.append(v)
                v *= p
        out.extend(grown)
    return tuple(sorted(out))


def _smooth_candidates(x: Fraction, err: Fraction) -> list[Fraction]:
    """Every p/q within err of x with q smooth, 1 <= p <= the numerator cap
    and p the nearest integer to x*q.  For each p, |x - p/q| <= err is the q
    range [p/(x + err), p/(x - err)], open at the top when x <= err; an
    integer q lies in it iff ceil(p/(x + err)) <= q <= floor(p/(x - err)).
    In integers, with x = a/b and t = 2(a q - p b), p is the nearest iff
    |t| < b, or |t| = b (a tie) and p is even, as ``round`` breaks ties.
    Pairs are kept in lowest terms, and only the result is made Fractions."""
    table = _smooth_denominators()
    up, down = x + err, x - err
    a, b = x.numerator, x.denominator
    found = set()
    for p in range(1, RECOGNITION_MAX_NUMERATOR + 1):
        lo = bisect.bisect_left(table, -(-p * up.denominator // up.numerator))
        hi = (bisect.bisect_right(table, p * down.denominator // down.numerator)
              if down > 0 else len(table))
        for q in table[lo:hi]:
            t = abs(a * q - p * b) * 2
            if t < b or t == b and p % 2 == 0:
                g = math.gcd(p, q)
                found.add((p // g, q // g))
    return sorted(Fraction(p, q) for p, q in found)


def _recognized(fraction: Fraction, x: Fraction, confidence: float,
                method: str) -> RationalRecognition:
    """fraction as the recognition of x.  Its denominator's factorization is
    empty when trial division cannot factor it: the fraction stands either
    way."""
    try:
        factors = prime_factors(fraction.denominator)
    except TooLarge:
        factors = {}
    return RationalRecognition("recognized", fraction.numerator, fraction.denominator,
                               float(abs(x - fraction)), confidence, method, factors)


def recognize_rational(x, err) -> RationalRecognition:
    """Identify a positive real x, known to absolute error err, as a fraction.

    Primary route: the first continued-fraction convergent p/q within err,
    guarded by q <= (4 err)^(-1/2) so that noise cannot masquerade as a
    rational; the convergents are walked only up to that guard.  Confidence
    is the gap to the neighbouring convergent in units of err.

    When the guard rejects (the error window holds many fractions), a
    fallback looks for denominators with only small prime factors inside
    the window; it answers only if exactly one such candidate exists.
    These multipliers typically come out of index and covolume formulas as
    products of small primes, which is what makes the window search
    meaningful; an ambiguous window stays unrecognized, with no fraction
    and an infinite residual.  A recognized denominator too large for trial
    division is reported with an empty factorization.  A window that holds 0
    stays unrecognized as well: a multiplier is positive, and such a window
    holds every small enough fraction.  x and err are taken exactly, as
    Fractions.
    """
    x, err = Fraction(x), Fraction(err)
    if x <= 0 or err <= 0:
        raise ValueError("x and err must be positive")
    if x > err:
        guard = math.isqrt(int(1 / (4 * err)))
        prev_q = 1
        for conv in _continued_fraction_convergents(x):
            q = conv.denominator
            if q > guard:
                break
            if abs(x - conv) <= err:
                # the next convergent has denominator >= q + q_prev, so its
                # distance is at least 1/(q*(q + q_prev)); a competing simple
                # rational would have to live at least that far away
                nxt_gap = 1.0 / (q * prev_q + q ** 2)
                return _recognized(conv, x, nxt_gap / float(err), "continued-fraction")
            prev_q = q
        cands = _smooth_candidates(x, err)
        if len(cands) == 1:
            return _recognized(cands[0], x, 1.0, "smooth-denominator")
    return RationalRecognition("unrecognized", None, None, math.inf, 0.0, "none", {})


class AnalysisReport:
    """Everything the pipeline learned about one diagram.

    Built from the diagram, its signature and classification; each later
    stage sets what it found, and the class attributes stand for the rest."""

    prediction: VolumePrediction | None = None
    prediction_skipped: str | None = None
    volume: VolumeEstimate | None = None
    volume_source: str = "none"      # "integrated", "assumed", "none"
    target_rel_err: float | None = None     # the integrator's target, when it ran
    recognition: RationalRecognition | None = None
    vertex_counts: tuple[int, int] | None = None

    def __init__(self, diagram: CoxeterDiagram, signature: tuple[int, int, int],
                 arithmeticity: ArithmeticityReport, timings: dict[str, float] | None = None):
        self.diagram, self.signature, self.arithmeticity = diagram, signature, arithmeticity
        self.timings = {} if timings is None else timings

    def to_dict(self) -> dict:
        rep = {
            "diagram": {
                "dimension": self.diagram.dimension,
                "facets": self.diagram.facets,
                "edges": len(self.diagram.edges),
            },
            "signature": list(self.signature),
            "arithmeticity": {
                "field_generators": sorted(self.arithmeticity.field_generators),
                "field": self.arithmeticity.field_name,
                "delta": self.arithmeticity.delta,
                "classification": self.arithmeticity.classification.value,
                "witnesses": list(self.arithmeticity.witnesses),
            },
            "timings": self.timings,
        }
        if self.prediction is not None:
            rep["prediction"] = {
                "case": self.prediction.case,
                "dimension": self.prediction.dimension,
                "weight": self.prediction.weight,
                "delta": self.prediction.delta,
                "fundamental_discriminant": self.prediction.discriminant,
                "factor": _digits(self.prediction.factor, 30),
                "factor_error": self.prediction.factor_error,
            }
        if self.prediction_skipped:
            rep["prediction_skipped"] = self.prediction_skipped
        if self.vertex_counts is not None:
            rep["vertices"] = {"finite": self.vertex_counts[0], "ideal": self.vertex_counts[1]}
        if self.volume is not None:
            rep["volume"] = {
                "value": self.volume.value,
                "abs_error": self.volume.abs_error,
                "rel_error": self.volume.rel_error,
                "samples": self.volume.samples,
                "strategy": self.volume.strategy,
                "source": self.volume_source,
            }
            if self.volume.capped:
                rep["volume"]["capped"] = True
        if self.recognition is not None:
            rec = {
                "status": self.recognition.status,
                # strict JSON has no infinity: an unrecognized residual is null
                "residual": self.recognition.residual
                if math.isfinite(self.recognition.residual) else None,
                "confidence": self.recognition.confidence,
                "method": self.recognition.method,
            }
            if self.recognition.numerator is not None:
                rec["numerator"] = self.recognition.numerator
                rec["denominator"] = self.recognition.denominator
                rec["q_factorization"] = {
                    str(p): e for p, e in self.recognition.q_factorization.items()
                }
            rep["recognition"] = rec
        return rep


def _option(name: str, value, convert, ok, need: str):
    """convert(value), if that succeeds and passes ok; otherwise BadOption,
    naming the parameter, what it must be and an excerpt of the value given."""
    try:
        out = convert(value)
        good = ok(out)
    except (TypeError, ValueError, ArithmeticError):
        good = False
    if not good:
        raise BadOption(f"{name} must be {need}, not {excerpt(value)}")
    return out


def _finite_positive(x: float) -> bool:
    return math.isfinite(x) and x > 0


def analyze(
    diagram_text: str,
    *,
    target_rel_err: float = 1e-3,
    seed: int = 0,
    assume_volume: str | float | None = None,
    assume_err: float | None = None,
    lseries_context: PrecisionContext = DEFAULT_CONTEXT,
    max_samples: int = 2**19,  # 2**integration.DEFAULT_MAX_LOG2
) -> AnalysisReport:
    """Full pipeline on a diagram file's text.

    With ``assume_volume`` (an externally computed high-precision value)
    and its absolute error ``assume_err``, which must come together, the
    numeric integrator is skipped and recognition runs at that accuracy;
    otherwise the volume is integrated and recognition runs at the
    integrator's accuracy, which limits how large a denominator can be
    certified.  ``diagram_text`` must be a str.  The assumed volume must
    parse as a decimal to a finite positive number in the float64 range,
    checked before it becomes an exact Fraction, and its error be finite
    and positive;
    ``target_rel_err`` must be finite and positive, ``seed`` a non-negative
    integer, and ``max_samples``, the cap on cubature nodes per piece and
    order, an integer from 1 to 2^30, rounded down to a power of two;
    ``lseries_context`` is a PrecisionContext.  Every option is checked
    before any work, and a bad one raises BadOption.  The integrator is
    deterministic: ``seed`` is validated and otherwise unused, kept only
    for callers that still pass one.
    """
    if not isinstance(diagram_text, str):
        raise BadOption(f"diagram_text must be a str, not {type(diagram_text).__name__}")
    if (assume_volume is None) != (assume_err is None):
        raise BadOption("assume_volume and assume_err must be given together")
    target_rel_err = _option("target_rel_err", target_rel_err, float, _finite_positive,
                             "finite and positive")
    _option("seed", seed, operator.index, lambda s: s >= 0, "non-negative and an integer")
    max_log2 = _option("max_samples", max_samples, operator.index, lambda c: 1 <= c <= 2**30,
                       "an integer from 1 to 2^30").bit_length() - 1
    if not isinstance(lseries_context, PrecisionContext):
        raise BadOption("lseries_context must be a PrecisionContext, "
                        f"not {excerpt(lseries_context)}")
    volume_value: Fraction | None = None
    volume_err: float | None = None
    if assume_volume is not None:
        # the range check comes first: Fraction("1e999999999") is a billion-digit integer
        volume_value = Fraction(_option("assume_volume", assume_volume, decimal.Decimal,
                                        lambda v: v.is_finite() and 0 < float(v) < math.inf,
                                        "a finite positive number in the float64 range"))
        volume_err = _option("assume_err", assume_err, float, _finite_positive,
                             "finite and positive")
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    diagram = parse_diagram(diagram_text)
    check_facet_count(diagram.facets)  # before the exact N x N Gram matrix and its signature
    G = gram_matrix(diagram)
    sig = assert_lorentzian(G)
    timings["gram"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    arith = classify(G)
    timings["arithmeticity"] = time.perf_counter() - t0

    report = AnalysisReport(diagram, sig, arith, timings=timings)

    n = diagram.dimension
    if not arith.field_is_rational:
        report.prediction_skipped = "field of definition is not Q"
    elif n % 2 == 0:
        report.prediction_skipped = "even dimension (Gauss-Bonnet case)"
    elif arith.delta != 1 and (D := abs(fundamental_discriminant(arith.delta))) > MAX_DISCRIMINANT:
        report.prediction_skipped = (f"fundamental discriminant |D| = {D} exceeds "
                                     f"{MAX_DISCRIMINANT}, the largest whose L-value is evaluated")
    else:
        t0 = time.perf_counter()
        report.prediction = transcendental_factor(n, arith.delta, lseries_context)
        timings["prediction"] = time.perf_counter() - t0

    if assume_volume is not None:
        report.volume = VolumeEstimate(float(volume_value), volume_err, 0, "assumed")
        report.volume_source = "assumed"
    else:
        from . import geometry, integration
        t0 = time.perf_counter()
        realization = geometry.realize(G)
        geometry.enumerate_vertices(realization)
        report.vertex_counts = (
            len(realization.finite_vertices), len(realization.ideal_vertices)
        )
        kp = geometry.to_klein(realization)
        timings["geometry"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        est = integration.polytope_volume(kp, target_rel_err, max_log2)
        timings["volume"] = time.perf_counter() - t0
        report.volume = est
        report.volume_source = "integrated"
        report.target_rel_err = target_rel_err
        volume_value = Fraction(est.value)
        volume_err = est.abs_error

    if report.prediction is not None and volume_value is not None:
        t0 = time.perf_counter()
        T = report.prediction.factor
        x = volume_value / T
        err_x = (Fraction(volume_err) + abs(x) * Fraction(report.prediction.factor_error)) / T
        report.recognition = recognize_rational(x, err_x)
        timings["recognition"] = time.perf_counter() - t0

    return report


def render_text(report: AnalysisReport) -> str:
    """Human-readable summary of an analysis report."""
    a = report.arithmeticity
    lines = []
    lines.append(f"dimension {report.diagram.dimension}, "
                 f"{report.diagram.facets} facets, signature {report.signature}")
    lines.append(f"field of definition: {a.field_name}")
    lines.append(f"classification: {a.classification.value}")
    if a.delta is not None:
        lines.append(f"discriminant class delta = {a.delta}")
    for w in a.witnesses:
        lines.append(f"  witness: {w}")
    p = report.prediction
    if p is not None:
        if p.case == "rational-field":
            tdesc = f"zeta({p.weight})"
        else:
            tdesc = f"{abs(p.discriminant)}^({p.dimension}/2) * L({p.weight}, chi_{p.discriminant})"
        lines.append(f"covolume is a rational multiple of T = {tdesc}")
        lines.append(f"T = {_digits(p.factor, 25)}")
    elif report.prediction_skipped:
        lines.append(f"no volume prediction: {report.prediction_skipped}")
    if report.vertex_counts:
        lines.append(f"vertices: {report.vertex_counts[0]} finite, "
                     f"{report.vertex_counts[1]} ideal")
    v = report.volume
    if v is not None:
        lines.append(f"volume ({report.volume_source}): {v.value:.12g} "
                     f"+- {v.abs_error:.2g}")
        if v.capped:
            lines.append(f"  (capped: the node cap stopped the cubature at relative error "
                         f"{v.rel_error:.2g}, above the target {report.target_rel_err:.2g})")
    r = report.recognition
    if r is not None:
        if r.status == "recognized":
            fact = " * ".join(f"{p}^{e}" if e > 1 else str(p)
                              for p, e in sorted(r.q_factorization.items()))
            fact = fact or ("1" if r.denominator == 1 else "not factored")
            lines.append(
                f"suggested identity: volume = {r.numerator}/{r.denominator} * T "
                f"(denominator = {fact}; method {r.method}; residual {r.residual:.2g})"
            )
            lines.append("  (numerical suggestion, not a proof)")
            if r.method == "smooth-denominator":
                lines.append("  (weaker evidence: the continued-fraction guard rejected the "
                             "convergent; this is the window's only smooth candidate)")
        else:
            lines.append("no rational multiplier recognized at this accuracy")
    return "\n".join(lines)
