import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import mp

from hypvol.errors import EvenDimension
from hypvol.lseries import PrecisionContext, dirichlet_L, fundamental_discriminant, riemann_zeta
from hypvol.polytopes import IDEAL_TRIANGLE, POLYTOPE_5D, POLYTOPE_7D
from hypvol.prediction import (
    analyze,
    recognize_rational,
    render_text,
    transcendental_factor,
)

CTX = PrecisionContext(256)

VOL_5D = "0.0241330687945822699990"
VOL_7D = "0.000181338"


def test_transcendental_factor_5d():
    pred = transcendental_factor(5, 13, CTX)
    assert pred.case == "quadratic-field"
    assert pred.weight == 3
    assert pred.discriminant == 13
    with mp.workprec(300):
        expected = mp.mpf(13) ** mp.mpf("2.5") * dirichlet_L(3, fundamental_discriminant(13), CTX)
        assert abs(pred.factor - expected) < mp.mpf('1e-24')


def test_transcendental_factor_7d():
    pred = transcendental_factor(7, -11, CTX)
    assert pred.case == "quadratic-field"
    assert pred.weight == 4
    assert pred.discriminant == -11
    with mp.workprec(300):
        expected = mp.mpf(11) ** mp.mpf("3.5") * dirichlet_L(4, fundamental_discriminant(-11), CTX)
        assert abs(pred.factor - expected) < mp.mpf('1e-24')


def test_transcendental_factor_rational_field():
    pred = transcendental_factor(5, 1, CTX)
    assert pred.case == "rational-field"
    assert pred.discriminant is None
    with mp.workprec(300):
        assert abs(pred.factor - riemann_zeta(3, CTX)) == 0


def test_transcendental_factor_rejects():
    with pytest.raises(EvenDimension):
        transcendental_factor(6, 13, CTX)
    with pytest.raises(ValueError):
        transcendental_factor(3, 13, CTX)


def test_recognize_simple_half():
    rec = recognize_rational(0.5 + 1e-11, 1e-10)
    assert rec.status == "recognized"
    assert (rec.numerator, rec.denominator) == (1, 2)
    assert rec.method == "continued-fraction"
    assert rec.residual <= 1e-10


def test_recognize_pi_guard():
    # with err 1e-3 the q-guard is ~15, so 333/106-scale coincidences are
    # rejected, and no small smooth denominator fits either
    rec = recognize_rational(math.pi, 1e-3)
    assert rec.status == "unrecognized"
    assert rec.numerator is None


def test_recognize_exact_rational_input():
    rec = recognize_rational(Fraction(23, 92), Fraction(1, 10**12))
    assert (rec.numerator, rec.denominator) == (1, 4)
    assert rec.confidence > 1


def test_recognize_rejects_nonpositive():
    with pytest.raises(ValueError):
        recognize_rational(-1.0, 1e-3)
    with pytest.raises(ValueError):
        recognize_rational(1.0, 0.0)


def test_recognition_round_trip_random_rationals():
    rng = random.Random(314)
    for _ in range(1000):
        q = rng.randint(1, 10**6)
        p = rng.randint(1, 10**6)
        x = Fraction(p, q)
        xi = Fraction(rng.randint(-10**6, 10**6), 10**6) * Fraction(1, 2 * 10**14)
        rec = recognize_rational(x + xi, Fraction(1, 10**14))
        assert rec.status == "recognized"
        assert Fraction(rec.numerator, rec.denominator) == x


def test_recognize_5d_identity():
    """The 20-digit externally computed volume pins the multiplier 1/23040."""
    pred = transcendental_factor(5, 13, CTX)
    with mp.workprec(300):
        x = mp.mpf(VOL_5D) / pred.factor
        err = (mp.mpf("1e-19") + x * pred.factor_error) / pred.factor
    rec = recognize_rational(x, err)
    assert rec.status == "recognized"
    assert rec.method == "continued-fraction"
    assert (rec.numerator, rec.denominator) == (1, 23040)
    assert rec.q_factorization == {2: 9, 3: 2, 5: 1}
    assert rec.confidence > 10


def test_recognize_7d_identity_smooth_window():
    """Six digits cannot pin q ~ 2.3e7 by continued fractions; the smooth
    window has exactly one candidate and that is the answer."""
    pred = transcendental_factor(7, -11, CTX)
    with mp.workprec(300):
        x = mp.mpf(VOL_7D) / pred.factor
        err = (mp.mpf("5e-9") + x * pred.factor_error) / pred.factor
    rec = recognize_rational(x, err)
    assert rec.status == "recognized"
    assert rec.method == "smooth-denominator"
    assert (rec.numerator, rec.denominator) == (1, 2**13 * 3**4 * 5 * 7)
    assert rec.q_factorization == {2: 13, 3: 4, 5: 1, 7: 1}


def test_analyze_5d_assumed():
    rep = analyze(POLYTOPE_5D, assume_volume=VOL_5D, assume_err=1e-19)
    assert rep.signature == (5, 1, 2)
    assert rep.arithmeticity.delta == 13
    assert rep.volume_source == "assumed"
    assert rep.recognition.status == "recognized"
    assert (rep.recognition.numerator, rep.recognition.denominator) == (1, 23040)
    text = render_text(rep)
    assert "1/23040" in text
    assert "not a proof" in text


def test_analyze_assumed_volume_requires_error():
    with pytest.raises(ValueError):
        analyze(POLYTOPE_5D, assume_volume=VOL_5D)


def test_analyze_7d_assumed():
    rep = analyze(POLYTOPE_7D, assume_volume=VOL_7D, assume_err=5e-9)
    assert rep.arithmeticity.delta == -11
    assert (rep.recognition.numerator, rep.recognition.denominator) == (1, 23224320)


def test_analyze_integrated_small_case():
    rep = analyze(IDEAL_TRIANGLE, target_rel_err=1e-3, seed=3)
    assert rep.volume_source == "integrated"
    assert abs(rep.volume.value - math.pi) <= max(rep.volume.abs_error, math.pi * 1e-3)
    # dimension 2: no prediction branch
    assert rep.prediction is None
    assert "dimension" in rep.prediction_skipped or "Gauss-Bonnet" in rep.prediction_skipped


def test_first_integration_times_sobol_import_apart():
    # a fresh interpreter, so the first analysis pays the one-time scipy import
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import json, hypvol; from hypvol.polytopes import IDEAL_TRIANGLE; "
            "print(json.dumps(hypvol.analyze(IDEAL_TRIANGLE, target_rel_err=1e-2).timings))")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True).stdout
    timings = json.loads(out)
    assert timings["sobol_import"] > timings["volume"]


def test_analyze_quadratic_field_skips_prediction():
    # hyperbolic (2,4,5) triangle: field Q(sqrt 5), so no rational-field
    # prediction; the integrated area still matches Gauss-Bonnet pi/20
    rep = analyze("n 2\nfacets 3\nedge 1 2 4\nedge 0 2 5\n",
                  target_rel_err=1e-3, seed=8)
    assert rep.prediction is None
    assert "not Q" in rep.prediction_skipped
    ref = math.pi / 20
    assert abs(rep.volume.value - ref) / ref < 1e-3


def test_analyze_report_roundtrip_json():
    rep = analyze(POLYTOPE_5D, assume_volume=VOL_5D, assume_err=1e-19)
    payload = json.loads(json.dumps(rep.to_dict()))
    assert payload["arithmeticity"]["classification"] == "properly quasi-arithmetic"
    assert payload["recognition"]["denominator"] == 23040
    assert payload["volume"]["source"] == "assumed"


def test_analyze_report_schema():
    jsonschema = pytest.importorskip("jsonschema")
    schema = {
        "type": "object",
        "required": ["diagram", "signature", "arithmeticity", "timings"],
        "properties": {
            "diagram": {
                "type": "object",
                "required": ["dimension", "facets", "edges"],
                "properties": {
                    "dimension": {"type": "integer"},
                    "facets": {"type": "integer"},
                    "edges": {"type": "integer"},
                },
            },
            "signature": {
                "type": "array", "items": {"type": "integer"},
                "minItems": 3, "maxItems": 3,
            },
            "arithmeticity": {
                "type": "object",
                "required": ["field_generators", "field", "classification", "witnesses"],
                "properties": {
                    "delta": {"type": ["integer", "null"]},
                    "classification": {"type": "string"},
                },
            },
            "prediction": {
                "type": "object",
                "required": ["case", "factor", "factor_error"],
            },
            "volume": {
                "type": "object",
                "required": ["value", "abs_error", "rel_error", "samples", "strategy"],
            },
            "recognition": {
                "type": "object",
                "required": ["status", "residual", "confidence", "method"],
            },
            "timings": {"type": "object"},
        },
    }
    for kwargs in ({"assume_volume": VOL_5D, "assume_err": 1e-19}, {}):
        rep = analyze(POLYTOPE_5D if kwargs else IDEAL_TRIANGLE, **kwargs)
        jsonschema.validate(rep.to_dict(), schema)


def test_analyze_relabel_invariance():
    rng = random.Random(21)
    from hypvol.diagram import parse_diagram

    d = parse_diagram(POLYTOPE_5D)
    perm = list(range(d.facets))
    rng.shuffle(perm)
    lines = ["n 5", "facets 8"]
    for (i, j), lab in d.relabeled(perm).edges.items():
        from hypvol.diagram import Dashed, Finite

        if isinstance(lab, Finite):
            lines.append(f"edge {i} {j} {lab.m}")
        elif isinstance(lab, Dashed):
            lines.append(f"edge {i} {j} dashed sqrt(26)/4")
        else:
            lines.append(f"edge {i} {j} inf")
    rep = analyze("\n".join(lines), assume_volume=VOL_5D, assume_err=1e-19)
    assert rep.arithmeticity.delta == 13
    assert (rep.recognition.numerator, rep.recognition.denominator) == (1, 23040)


@pytest.mark.parametrize("target", [-1e-3, float("nan")])
def test_analyze_rejects_bad_target(target):
    with pytest.raises(ValueError, match="target_rel_err"):
        analyze(IDEAL_TRIANGLE, target_rel_err=target)
