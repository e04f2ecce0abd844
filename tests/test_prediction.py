import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from hypvol import cli, diagram, prediction
from hypvol.arithmeticity import MAX_DISCRIMINANT
from hypvol.diagram import eliminate, parse_diagram
from hypvol.errors import (BadOption, DisconnectedGraph, HypvolError,
                           NonConvergent, NotLorentzian, TooLarge)
from hypvol.lseries import PrecisionContext, dirichlet_L, fundamental_discriminant, riemann_zeta
from hypvol.polytopes import IDEAL_TRIANGLE, POLYTOPE_5D, POLYTOPE_7D
from hypvol.prediction import (
    AnalysisReport,
    _smooth_candidates,
    _smooth_denominators,
    analyze,
    recognize_rational,
    render_text,
    transcendental_factor,
)
from oracles import as_mpf, relabeled, smooth_candidates_by_scan

CTX = PrecisionContext(256)

VOL_5D = "0.0241330687945822699990"
VOL_7D = "0.000181338"


def test_transcendental_factor_5d():
    pred = transcendental_factor(5, 13, CTX)
    assert pred.case == "quadratic-field"
    assert pred.weight == 3
    assert pred.discriminant == 13
    with mp.workprec(300):
        L = as_mpf(dirichlet_L(3, fundamental_discriminant(13), CTX))
        expected = mp.mpf(13) ** mp.mpf("2.5") * L
        assert abs(as_mpf(pred.factor) - expected) < mp.mpf('1e-24')


def test_transcendental_factor_7d():
    pred = transcendental_factor(7, -11, CTX)
    assert pred.case == "quadratic-field"
    assert pred.weight == 4
    assert pred.discriminant == -11
    with mp.workprec(300):
        L = as_mpf(dirichlet_L(4, fundamental_discriminant(-11), CTX))
        expected = mp.mpf(11) ** mp.mpf("3.5") * L
        assert abs(as_mpf(pred.factor) - expected) < mp.mpf('1e-24')


def test_transcendental_factor_rational_field():
    pred = transcendental_factor(5, 1, CTX)
    assert pred.case == "rational-field"
    assert pred.discriminant is None
    with mp.workprec(300):
        assert abs(pred.factor - riemann_zeta(3, CTX)) == 0


# the report's factor string and factor_error, as computed by the mpf
# Euler-Maclaurin sum that the fixed-point kernel replaced
FACTOR_LITERALS = {
    (256, 5, 13): ("556.025905027175500776985822087", 1.2186763311068286e-27),
    (256, 7, -11): ("4211.46166992958402607823470857", 8.828855191926074e-27),
    (256, 5, 1): ("1.20205690315959428539973816151", 1e-30),
    (320, 5, 13): ("556.025905027175500776985822087", 1.2186763311068284e-37),
    (320, 7, -11): ("4211.46166992958402607823470857", 8.828855191926074e-37),
    (320, 5, 1): ("1.20205690315959428539973816151", 1e-40),
}


@pytest.mark.parametrize("bits, n, delta", list(FACTOR_LITERALS))
def test_transcendental_factor_report_literals(bits, n, delta):
    ctx = PrecisionContext(bits, Fraction(1, 10 ** (30 if bits == 256 else 40)))
    pred = transcendental_factor(n, delta, ctx)
    report = analyze(POLYTOPE_5D, assume_volume=VOL_5D, assume_err=1e-19)
    report.prediction = pred
    printed = report.to_dict()["prediction"]
    assert (printed["factor"], printed["factor_error"]) == FACTOR_LITERALS[bits, n, delta]


def test_transcendental_factor_rejects():
    # weight 1: the zeta and L-values need s >= 2
    for delta in (1, 13):
        with pytest.raises(ValueError):
            transcendental_factor(1, delta, CTX)


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
    # just past the guard: at err 1/40000 it is 100, and the first convergent
    # inside the window of 1/q + 1/120000 is 1/q itself, q = 101 or 103; both
    # fall through to the smooth search, which has one candidate for 101 and
    # three for 103
    err = Fraction(1, 40000)
    found = [recognize_rational(Fraction(1, q) + Fraction(1, 120000), err) for q in (101, 103)]
    assert [(rec.fraction, rec.method) for rec in found] == [
        (Fraction(5, 504), "smooth-denominator"), (None, "none")]


def test_recognize_exact_rational_input():
    rec = recognize_rational(Fraction(23, 92), Fraction(1, 10**12))
    assert (rec.numerator, rec.denominator) == (1, 4)
    assert rec.confidence > 1


def test_recognize_rejects_nonpositive():
    with pytest.raises(ValueError):
        recognize_rational(-1.0, 1e-3)
    with pytest.raises(ValueError):
        recognize_rational(1.0, 0.0)


@pytest.mark.parametrize("x, err", [(0.1, 0.2), (0.5, 0.5), (3.0, 4.0)])
def test_window_holding_zero_is_unrecognized(x, err):
    # a multiplier is positive: neither the convergent 0 of an x < 1 nor the
    # smooth window's lone candidate 3/1 of (3, 4) is an answer
    rec = recognize_rational(x, err)
    assert (rec.status, rec.fraction, rec.method, rec.residual) == (
        "unrecognized", None, "none", math.inf)


@settings(max_examples=200, deadline=None)
@given(st.fractions(min_value=Fraction(1, 10**9), max_value=10),
       st.fractions(min_value=1, max_value=10**6))
def test_no_window_holding_zero_is_recognized(x, scale):
    assert recognize_rational(x, x * scale).status == "unrecognized"


def test_unrecognized_results_do_not_share_a_factorization():
    first, second = recognize_rational(math.pi, 1e-3), recognize_rational(math.e, 1e-3)
    assert first.status == second.status == "unrecognized"
    assert first.q_factorization == {} and first.q_factorization is not second.q_factorization


def test_records_are_immutable():
    # assigning a field raises, so a PrecisionContext or CoxeterDiagram stays
    # as checked when it was built
    ctx = PrecisionContext(256)
    rep = analyze(POLYTOPE_5D, assume_volume=VOL_5D, assume_err=1e-20, lseries_context=ctx)
    records = [(ctx, "precision"), (rep.diagram, "dimension"),
               (rep.arithmeticity, "delta"), (rep.volume, "value"),
               (rep.prediction, "factor"), (rep.recognition, "numerator")]
    for record, name in records:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))


def test_replace_checks_the_new_record():
    assert PrecisionContext()._replace(precision=320) == PrecisionContext(320)
    with pytest.raises(BadOption):
        PrecisionContext()._replace(precision=32)
    with pytest.raises(ValueError):
        parse_diagram(POLYTOPE_5D)._replace(dimension=1)


def test_assumed_volume_near_zero_is_unrecognized():
    # x = 0.0000434 / T is about 7.8e-8, inside its error of about 1.8e-7
    rep = analyze(POLYTOPE_5D, assume_volume="0.0000434", assume_err=1e-4)
    rec = rep.recognition
    assert (rec.status, rec.numerator, rec.method) == ("unrecognized", None, "none")
    text = render_text(rep)
    assert text.endswith("\nno rational multiplier recognized at this accuracy")
    assert "suggested identity" not in text


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
    x = Fraction(VOL_5D) / pred.factor
    err = (Fraction("1e-19") + x * Fraction(pred.factor_error)) / pred.factor
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
    x = Fraction(VOL_7D) / pred.factor
    err = (Fraction("5e-9") + x * Fraction(pred.factor_error)) / pred.factor
    rec = recognize_rational(x, err)
    assert rec.status == "recognized"
    assert rec.method == "smooth-denominator"
    assert (rec.numerator, rec.denominator) == (1, 2**13 * 3**4 * 5 * 7)
    assert rec.q_factorization == {2: 13, 3: 4, 5: 1, 7: 1}


def test_smooth_window_matches_a_scan_of_every_denominator():
    # bisecting each numerator's q range finds the candidates that trying
    # every smooth denominator finds, for relative errors from 1e-12 to 0.3,
    # near smooth fractions and away from them, and with x <= err
    rng = random.Random(23)
    table = _smooth_denominators()
    pairs = [(Fraction(1, 10**6), Fraction(2, 10**6)), (Fraction(1, 23040), Fraction(1, 23040))]
    for k in range(60):
        rel = Fraction(10 ** rng.uniform(-12, math.log10(0.3)))
        if k % 2:
            x = Fraction(rng.randint(1, 16), rng.choice(table)) * (1 + rel * Fraction(rng.random() - 0.5))
        else:
            x = Fraction(rng.getrandbits(64) + 1, 2 ** rng.randint(40, 80))
        pairs.append((x, x * rel))
    sizes = []
    for x, err in pairs:
        cands = _smooth_candidates(x, err)
        assert cands == smooth_candidates_by_scan(x, err)
        sizes.append(len(cands))
    assert sizes.count(1) >= 10 and sum(size > 1 for size in sizes) >= 5


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


def test_text_report_marks_a_smooth_denominator_recognition_as_weaker():
    # seven digits of the 5D volume are too coarse for the continued-fraction
    # guard; the JSON report is the same as without the note
    coarse = analyze(POLYTOPE_5D, assume_volume="0.0241331", assume_err=7e-7)
    assert coarse.recognition.method == "smooth-denominator"
    assert (coarse.recognition.numerator, coarse.recognition.denominator) == (1, 23040)
    text = render_text(coarse)
    assert "weaker evidence: the continued-fraction guard rejected the convergent" in text
    assert "weaker evidence" not in json.dumps(coarse.to_dict())
    fine = analyze(POLYTOPE_5D, assume_volume=VOL_5D, assume_err=1e-19)
    assert fine.recognition.method == "continued-fraction"
    assert "weaker evidence" not in render_text(fine)


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


def test_integrated_analysis_and_cli_load_no_scipy():
    # a fresh interpreter: neither an integrated analysis nor the CLI imports scipy
    root = Path(__file__).resolve().parents[1]
    code = f"""
import contextlib, io, sys, hypvol
from hypvol import cli
from hypvol.polytopes import IDEAL_TRIANGLE
hypvol.analyze(IDEAL_TRIANGLE, target_rel_err=1e-2)
print('scipy' in sys.modules)
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = cli.main(['analyze', {str(root / 'diagrams' / 'polytope5d.diagram')!r}])
print(code, 'volume (integrated)' in out.getvalue(), 'scipy' in sys.modules)
"""
    out = subprocess.run([sys.executable, "-c", code],
                         env={**os.environ, "PYTHONPATH": str(root / "src")},
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["False", "0", "True", "False"]


NUMPY_FREE = f"""
import contextlib, io, json, sys
sys.modules["numpy"] = None    # from here on, any numpy import raises ImportError
import hypvol, hypvol.cli
from hypvol import analyze, cli
from hypvol.errors import DiagramSyntaxError
from hypvol.polytopes import POLYTOPE_5D, POLYTOPE_7D

def run(argv, text=""):
    sys.stdin = io.StringIO(text)
    with contextlib.redirect_stdout(io.StringIO()) as out, \\
            contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()

seen = []
for argv in (["--help"], ["analyze", "--help"]):
    code, out, _ = run(argv)
    seen.append([code, out.startswith("usage: hypvol")])
for text, volume, err in ((POLYTOPE_5D, {VOL_5D!r}, "1e-19"), (POLYTOPE_7D, {VOL_7D!r}, "5e-9")):
    rec = analyze(text, assume_volume=volume, assume_err=float(err)).recognition
    code, out, _ = run(["analyze", "-", "--json", "--assume-volume", volume, "--assume-err", err],
                       text)
    seen.append([rec.denominator, code, json.loads(out)["recognition"]["denominator"]])
try:
    analyze("n 2\\nfacets x\\n")
except DiagramSyntaxError as exc:
    seen.append(str(exc))
code, _, err = run(["analyze", "-"], "n 2\\nfacets x\\n")
seen.append([code, err.strip()])
seen.append(sorted(name for name, module in sys.modules.items()
                   if name.split(".")[0] == "numpy" and module is not None))
print(json.dumps(seen))
"""


def test_exact_routes_run_without_numpy():
    # a fresh interpreter in which numpy cannot be imported: the imports, the
    # help, the assumed-volume analyses and a typed input error all finish
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", NUMPY_FREE],
                         env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True).stdout
    assert json.loads(out) == [
        [0, True], [0, True],
        [23040, 0, 23040], [23224320, 0, 23224320],
        "line 2: bad facet count",
        [2, "error [DiagramSyntaxError]: line 2: bad facet count"],
        [],
    ]


INTEGRATED_TRIANGLE = """
import json, sys
{first}
import hypvol
from hypvol.polytopes import IDEAL_TRIANGLE
loaded = 'numpy' in sys.modules
report = hypvol.analyze(IDEAL_TRIANGLE).to_dict()
del report["timings"]
print(json.dumps([loaded, 'numpy' in sys.modules, report]))
"""


def test_integration_loads_numpy_on_first_use():
    # the same report whether numpy comes in with the first integration or before
    src = Path(__file__).resolve().parents[1] / "src"
    lazy, eager = (
        json.loads(subprocess.run([sys.executable, "-c", INTEGRATED_TRIANGLE.format(first=first)],
                                  env={**os.environ, "PYTHONPATH": str(src)},
                                  capture_output=True, text=True, check=True).stdout)
        for first in ("", "import numpy"))
    assert lazy[:2] == [False, True] and eager[:2] == [True, True]
    assert json.dumps(lazy[2]) == json.dumps(eager[2])
    assert lazy[2]["volume"]["source"] == "integrated"


MPMATH_FREE = f"""
import json, sys
{{first}}
import hypvol
from hypvol.polytopes import IDEAL_TRIANGLE, POLYTOPE_5D
reports = [hypvol.analyze(POLYTOPE_5D, assume_volume={VOL_5D!r}, assume_err=1e-19).to_dict(),
           hypvol.analyze(IDEAL_TRIANGLE, target_rel_err=1e-3).to_dict(),
           hypvol.analyze(POLYTOPE_5D, target_rel_err=1e-3).to_dict()]
for report in reports:
    del report["timings"]
print(json.dumps([sys.modules.get("mpmath") is not None, reports]))
"""


def test_analyses_run_without_mpmath():
    # a fresh interpreter in which mpmath cannot be imported gives the same
    # reports as one that has it loaded
    src = Path(__file__).resolve().parents[1] / "src"
    blocked, normal = (
        json.loads(subprocess.run([sys.executable, "-c", MPMATH_FREE.format(first=first)],
                                  env={**os.environ, "PYTHONPATH": str(src)},
                                  capture_output=True, text=True, check=True).stdout)
        for first in ('sys.modules["mpmath"] = None', "import mpmath"))
    assert blocked[0] is False and normal[0] is True
    assert json.dumps(blocked[1]) == json.dumps(normal[1])
    assert [r["volume"]["source"] for r in blocked[1]] == ["assumed", "integrated", "integrated"]
    recognized = [r["recognition"]["denominator"] for r in blocked[1] if "recognition" in r]
    assert recognized == [23040, 23040]


@pytest.fixture
def no_work(monkeypatch):
    """Fail if analyze gets as far as parsing the diagram."""
    def parse(text):
        raise AssertionError("the diagram was parsed before the options were checked")

    monkeypatch.setattr("hypvol.prediction.parse_diagram", parse)


@pytest.mark.parametrize("volume", ["abc", "nan", "inf", "-1", "0", "1e400", "1e-400"])
def test_analyze_rejects_bad_assumed_volume_before_any_work(no_work, volume):
    with pytest.raises(ValueError, match="assume_volume must be a finite positive number"):
        analyze(POLYTOPE_5D, assume_volume=volume, assume_err=1e-10)


@pytest.mark.parametrize("volume", ["1e999999999", "1e-999999999", "inf", "nan", "x"])
def test_assumed_volume_range_is_checked_before_any_fraction(no_work, monkeypatch, volume):
    # Fraction("1e999999999") would build a billion-digit integer
    def fraction(*args):
        raise AssertionError("an exact Fraction was made before the range check")

    monkeypatch.setattr("hypvol.prediction.Fraction", fraction)
    t0 = time.perf_counter()
    with pytest.raises(BadOption) as exc:
        analyze(POLYTOPE_5D, assume_volume=volume, assume_err=1e-10)
    assert time.perf_counter() - t0 < 1.0
    assert str(exc.value) == ("assume_volume must be a finite positive number in the float64 "
                              f"range, not {volume!r}")


@pytest.mark.parametrize("text", [POLYTOPE_5D.encode(), None, 5], ids=["bytes", "None", "int"])
def test_diagram_that_is_not_text_is_a_bad_option(no_work, text):
    with pytest.raises(BadOption) as exc:
        analyze(text, assume_volume=VOL_5D, assume_err=1e-19)
    assert str(exc.value) == f"diagram_text must be a str, not {type(text).__name__}"


@pytest.mark.parametrize("err", [math.nan, math.inf, -1.0, 0.0])
def test_analyze_rejects_bad_assumed_error_before_any_work(no_work, err):
    with pytest.raises(ValueError, match="assume_err must be finite and positive"):
        analyze(POLYTOPE_5D, assume_volume=VOL_5D, assume_err=err)


# each invalid option: the keyword arguments of analyze, the same option on
# the command line (None where argparse's types refuse it, or where the CLI
# has no such flag), and the one message both routes give
BAD_OPTIONS = {
    "lone-assume-volume": ({"assume_volume": VOL_5D}, ["--assume-volume", VOL_5D],
                           "assume_volume and assume_err must be given together"),
    "lone-assume-err": ({"assume_err": 1e-9}, ["--assume-err=1e-9"],
                        "assume_volume and assume_err must be given together"),
    "target-nan": ({"target_rel_err": math.nan}, ["--target-err=nan"],
                   "target_rel_err must be finite and positive, not nan"),
    "target-negative": ({"target_rel_err": -1e-3}, ["--target-err=-1e-3"],
                        "target_rel_err must be finite and positive, not -0.001"),
    "target-zero": ({"target_rel_err": 0.0}, ["--target-err=0"],
                    "target_rel_err must be finite and positive, not 0.0"),
    "target-text": ({"target_rel_err": "x"}, None,
                    "target_rel_err must be finite and positive, not 'x'"),
    "seed-negative": ({"seed": -1}, None, "seed must be non-negative and an integer, not -1"),
    "seed-text": ({"seed": "x"}, None, "seed must be non-negative and an integer, not 'x'"),
    "cap-zero": ({"max_samples": 0}, ["--max-samples=0"],
                 "max_samples must be an integer from 1 to 2^30, not 0"),
    "cap-negative": ({"max_samples": -5}, ["--max-samples=-5"],
                     "max_samples must be an integer from 1 to 2^30, not -5"),
    "cap-past-2^30": ({"max_samples": 2**30 + 1}, [f"--max-samples={2**30 + 1}"],
                      "max_samples must be an integer from 1 to 2^30, not 1073741825"),
    "cap-fraction": ({"max_samples": 1.5}, None,
                     "max_samples must be an integer from 1 to 2^30, not 1.5"),
    "context-text": ({"lseries_context": "x"}, None,
                     "lseries_context must be a PrecisionContext, not 'x'"),
    "context-long": ({"lseries_context": "x" * 5000}, None,
                     f"lseries_context must be a PrecisionContext, not '{'x' * 39}... "
                     "[4962 more characters]"),
    "volume-text": ({"assume_volume": "abc", "assume_err": 1e-10},
                    ["--assume-volume=abc", "--assume-err=1e-10"],
                    "assume_volume must be a finite positive number in the float64 range, "
                    "not 'abc'"),
    "volume-past-float64": ({"assume_volume": "1e400", "assume_err": 1e-10},
                            ["--assume-volume=1e400", "--assume-err=1e-10"],
                            "assume_volume must be a finite positive number in the float64 "
                            "range, not '1e400'"),
    "volume-long": ({"assume_volume": "7" * 5000, "assume_err": 1e-10},
                    ["--assume-volume=" + "7" * 5000, "--assume-err=1e-10"],
                    "assume_volume must be a finite positive number in the float64 range, "
                    f"not '{'7' * 39}... [4962 more characters]"),
    "error-nan": ({"assume_volume": VOL_5D, "assume_err": math.nan},
                  ["--assume-volume", VOL_5D, "--assume-err=nan"],
                  "assume_err must be finite and positive, not nan"),
    "error-text": ({"assume_volume": VOL_5D, "assume_err": "x"}, None,
                   "assume_err must be finite and positive, not 'x'"),
}


@pytest.mark.parametrize("case", BAD_OPTIONS)
def test_bad_option_is_one_message_from_library_and_cli(no_work, tmp_path, capsys, case):
    kwargs, argv, message = BAD_OPTIONS[case]
    if argv is not None:
        path = tmp_path / "poly.diagram"
        path.write_text(POLYTOPE_5D, encoding="utf-8")
        assert cli.main(["analyze", str(path), *argv]) == cli.EXIT_STAGE_ERROR
        assert capsys.readouterr().err == f"error [BadOption]: {message}\n"
    with pytest.raises(BadOption) as exc:
        analyze(POLYTOPE_5D, **kwargs)
    assert isinstance(exc.value, HypvolError) and isinstance(exc.value, ValueError)
    assert str(exc.value) == message


def test_unreachable_lseries_target_is_typed():
    ctx = PrecisionContext(1024, Fraction(1, 10**250))
    with pytest.raises(NonConvergent):
        analyze(POLYTOPE_5D, assume_volume=VOL_5D, assume_err=1e-19, lseries_context=ctx)


def test_recognized_denominator_too_large_to_factor_is_reported():
    # 1000003 * 1000033 has no prime factor up to the trial-division limit:
    # the fraction stands, with its factorization left empty
    q = 7 * 1000003 * 1000033
    rec = recognize_rational(Fraction(1, q), Fraction(1, 10**40))
    assert (rec.status, rec.fraction, rec.q_factorization) == ("recognized", Fraction(1, q), {})
    report = analyze(POLYTOPE_5D, assume_volume=VOL_5D, assume_err=1e-20)
    report.recognition = rec
    assert f"volume = 1/{q} * T (denominator = not factored;" in render_text(report)
    assert report.to_dict()["recognition"]["q_factorization"] == {}


def _eliminations(monkeypatch, text, **kwargs):
    """analyze(text, **kwargs) with every elimination counted: its volume
    source and the size of each matrix eliminated."""
    sizes = []

    def counted(entries):
        sizes.append(len(entries))
        return eliminate(entries)

    monkeypatch.setattr(diagram, "eliminate", counted)
    report = analyze(text, **kwargs)
    return report.volume_source, sizes


def test_integrated_analysis_eliminates_the_gram_matrix_once(monkeypatch):
    # analyze and geometry.realize both check the signature, and classify reads
    # the rational form: all three share the rescaled form's one elimination;
    # the census writes each cusp's parabolic set in closed form, so no other
    # matrix is eliminated
    for text in (POLYTOPE_5D, POLYTOPE_7D):
        size = parse_diagram(text).facets
        assert _eliminations(monkeypatch, text) == ("integrated", [size])


def test_assumed_volume_analysis_eliminates_the_gram_matrix_once(monkeypatch):
    size = parse_diagram(POLYTOPE_5D).facets
    assert _eliminations(monkeypatch, POLYTOPE_5D, assume_volume=VOL_5D,
                         assume_err=1e-19) == ("assumed", [size])


# the ideal triangle on facets 0-2, and facets 3 and 4 orthogonal to it:
# Lorentzian and disconnected when 3 and 4 are parallel, of signature
# (4, 1, 0) when they meet at pi/3
TRIANGLE_AND_PAIR = "n 3\nfacets 5\nedge 0 1 inf\nedge 1 2 inf\nedge 0 2 inf\nedge 3 4 {}\n"


@pytest.mark.parametrize("label, error, message", [
    ("inf", DisconnectedGraph, "facets [3, 4] are orthogonal to the rest"),
    ("3", NotLorentzian, "signature (4, 1, 0), expected (3, 1, 1) for a 3-dimensional "
                         "hyperbolic polytope with 5 facets"),
])
def test_signature_is_checked_before_connectivity(label, error, message):
    with pytest.raises(HypvolError) as info:
        analyze(TRIANGLE_AND_PAIR.format(label))
    assert (type(info.value), str(info.value)) == (error, message)


def test_facet_count_is_checked_before_the_gram_matrix():
    # 13 mutually orthogonal facets: not Lorentzian, but too many facets for
    # the cycle enumeration, which is what analyze reports first
    with pytest.raises(TooLarge):
        analyze("n 2\nfacets 13\n")


def test_huge_facet_count_fails_fast():
    # no 100000 x 100000 exact Gram matrix is built
    t0 = time.perf_counter()
    with pytest.raises(TooLarge):
        analyze("n 2\nfacets 100000\n")
    assert time.perf_counter() - t0 < 1.0


def test_analyze_rejects_negative_seed():
    with pytest.raises(ValueError, match="seed must be non-negative"):
        analyze(IDEAL_TRIANGLE, seed=-1)


@pytest.mark.parametrize("samples", [-1, 2**30 + 1, 2**40])
def test_analyze_rejects_node_cap_out_of_range(samples):
    with pytest.raises(ValueError, match=r"max_samples must be an integer from 1 to 2\^30"):
        analyze(IDEAL_TRIANGLE, max_samples=samples)


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
    label_of = {parse_diagram(f"n 2\nfacets 3\nedge 0 1 {lab}\n").edges[0, 1]: lab
                for lab in ("3", "inf", "dashed sqrt(26)/4")}
    lines = ["n 5", "facets 8"]
    for (i, j), entry in relabeled(d, perm).edges.items():
        lines.append(f"edge {i} {j} {label_of[entry]}")
    rep = analyze("\n".join(lines), assume_volume=VOL_5D, assume_err=1e-19)
    assert rep.arithmeticity.delta == 13
    assert (rep.recognition.numerator, rep.recognition.denominator) == (1, 23040)


@pytest.mark.parametrize("target", [-1e-3, float("nan")])
def test_analyze_rejects_bad_target(target):
    with pytest.raises(ValueError, match="target_rel_err"):
        analyze(IDEAL_TRIANGLE, target_rel_err=target)


_GOOD_LABELS = [None, None, "3", "4", "5", "6", "inf", "dashed 2", "dashed 3/2",
                "dashed sqrt(2)"]
# malformed, unsupported or extreme labels and lines
_ODD_LABELS = ["2", "7", "0", "-3", "x", "inf 3", "3 4", "dashed", "dashed 1", "dashed 1/2",
               "dashed 1/0", "dashed sqrt(0)", "dashed sqrt(-2)", "dashed (2", "dashed 2 +",
               "dashed 100000000000000000000", "dashed 1/100000000000000000000 + 1"]
_ODD_LINES = ["n", "n 2 3", "n x", "n -1", "n 0", "facets", "facets -2", "facets 1",
              "edge 0", "edge 0 0 3", "edge 0 9 3", "edge -1 0 3", "edge a b 3", "vertex 0",
              "# comment only", "", "edge 0 1 3 # trailing comment"]


@st.composite
def analysis_texts(draw):
    """Diagram text for n <= 4: a well-formed diagram, then up to two defects."""
    n = draw(st.integers(2, 4))
    N = draw(st.integers(n + 1, n + 3))
    lines = [f"n {n}", f"facets {N}"]
    for i in range(N):
        for j in range(i + 1, N):
            label = draw(st.sampled_from(_GOOD_LABELS))
            if label is not None:
                lines.append(f"edge {i} {j} {label}")
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, len(lines)))
        defect = draw(st.sampled_from(["label", "line", "drop", "duplicate"]))
        if defect == "label":
            i, j = draw(st.integers(0, N - 1)), draw(st.integers(0, N - 1))
            lines.insert(k, f"edge {i} {j} {draw(st.sampled_from(_ODD_LABELS))}")
        elif defect == "line":
            lines.insert(k, draw(st.sampled_from(_ODD_LINES)))
        elif lines and defect == "drop":
            lines.pop(min(k, len(lines) - 1))
        elif lines:
            lines.insert(k, lines[min(k, len(lines) - 1)])
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(analysis_texts())
def test_analyze_fuzz_yields_report_or_typed_error(text):
    try:
        rep = analyze(text, target_rel_err=0.2, max_samples=2**7)
    except HypvolError:
        return
    assert isinstance(rep, AnalysisReport)
    json.dumps(rep.to_dict(), allow_nan=False)


# a Lorentzian chain whose last edge gives delta = 5,063,162, so D = 20,252,648:
# properly quasi-arithmetic, with an L-value of minutes
LARGE_DISCRIMINANT = ("n 5\nfacets 6\nedge 0 1 3\nedge 1 2 3\nedge 2 3 3\nedge 3 4 3\n"
                      "edge 4 5 dashed sqrt(1009)/3\n")


def test_large_discriminant_skips_the_prediction_within_a_second():
    t0 = time.perf_counter()
    rep = analyze(LARGE_DISCRIMINANT, assume_volume="0.02", assume_err=1e-3)
    assert time.perf_counter() - t0 < 1.0
    assert rep.arithmeticity.classification.value == "properly quasi-arithmetic"
    assert rep.arithmeticity.delta == 5063162
    assert rep.prediction is None and rep.recognition is None
    assert rep.prediction_skipped == (f"fundamental discriminant |D| = 20252648 exceeds "
                                      f"{MAX_DISCRIMINANT}, the largest whose L-value is evaluated")
    assert rep.to_dict()["prediction_skipped"] == rep.prediction_skipped
    assert f"no volume prediction: {rep.prediction_skipped}" in render_text(rep)


@pytest.mark.parametrize("label, D", [("dashed 2", 17), ("dashed sqrt(7)", 56)])
def test_small_discriminant_keeps_the_prediction(monkeypatch, label, D):
    text = LARGE_DISCRIMINANT.replace("dashed sqrt(1009)/3", label)
    rep = analyze(text, assume_volume="0.02", assume_err=1e-3)
    assert rep.prediction.discriminant == D and rep.prediction_skipped is None
    # the bound itself still predicts; one below it skips
    monkeypatch.setattr(prediction, "MAX_DISCRIMINANT", D)
    assert analyze(text, assume_volume="0.02", assume_err=1e-3).prediction.discriminant == D
    monkeypatch.setattr(prediction, "MAX_DISCRIMINANT", D - 1)
    skipped = analyze(text, assume_volume="0.02", assume_err=1e-3)
    assert skipped.prediction is None and f"|D| = {D} exceeds {D - 1}" in skipped.prediction_skipped


def test_capped_cubature_says_so():
    # 2^10 nodes per piece stop the 5D rule at order 5, a bar about 1e5 times
    # the target; the report flags it, and only such a report has the key
    capped = analyze(POLYTOPE_5D, target_rel_err=1e-9, max_samples=2**10)
    assert capped.volume.capped and capped.volume.rel_error > 1e4 * 1e-9
    assert capped.to_dict()["volume"]["capped"] is True
    assert (f"capped: the node cap stopped the cubature at relative error "
            f"{capped.volume.rel_error:.2g}, above the target 1e-09") in render_text(capped)
    met = analyze(POLYTOPE_5D, target_rel_err=1e-4)
    assert not met.volume.capped and met.volume.rel_error <= 1e-4
    assert "capped" not in met.to_dict()["volume"] and "capped" not in render_text(met)
    assumed = analyze(POLYTOPE_5D, assume_volume=VOL_5D, assume_err=1e-19)
    assert "capped" not in assumed.to_dict()["volume"]
