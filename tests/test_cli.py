import inspect
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from hypvol import analyze, integration
from hypvol.cli import EXIT_NOT_LORENTZIAN, EXIT_OK, EXIT_STAGE_ERROR, build_parser, main
from hypvol.polytopes import IDEAL_TRIANGLE, POLYTOPE_5D

VOL_5D = "0.0241330687945822699990"


@pytest.fixture
def diagram_file(tmp_path: Path):
    def write(text, name="poly.diagram"):
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        return str(p)

    return write


def test_analyze_text_output(diagram_file, capsys):
    path = diagram_file(POLYTOPE_5D)
    code = main(["analyze", path, "--assume-volume", VOL_5D, "--assume-err", "1e-19"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "properly quasi-arithmetic" in out
    assert "delta = 13" in out
    assert "1/23040" in out
    assert "2^9 * 3^2 * 5" in out


def test_analyze_json_output(diagram_file, capsys):
    path = diagram_file(POLYTOPE_5D)
    code = main(["analyze", path, "--json",
                 "--assume-volume", VOL_5D, "--assume-err", "1e-19"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["arithmeticity"]["delta"] == 13
    assert payload["recognition"]["q_factorization"] == {"2": 9, "3": 2, "5": 1}


def test_analyze_integrates_when_no_assumed_volume(diagram_file, capsys):
    path = diagram_file(IDEAL_TRIANGLE)
    code = main(["analyze", path, "--target-err", "1e-3", "--json"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["volume"]["source"] == "integrated"
    assert abs(payload["volume"]["value"] - 3.14159265) < 1e-2


NOT_UTF8 = b"n 2\nfacets 3\nedge 0 1 inf \xff\xfe\n"


def test_non_utf8_diagram_file_is_stage_error(tmp_path, capsys):
    path = tmp_path / "bad.diagram"
    path.write_bytes(NOT_UTF8)
    code = main(["analyze", str(path)])
    assert code == EXIT_STAGE_ERROR
    assert capsys.readouterr().err.startswith("error: 'utf-8' codec can't decode")


def test_non_utf8_strict_stdin_is_stage_error(monkeypatch, capsys):
    # a UTF-8 locale other than C.UTF-8 decodes stdin strictly
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(NOT_UTF8), encoding="utf-8"))
    code = main(["analyze", "-"])
    assert code == EXIT_STAGE_ERROR
    assert capsys.readouterr().err.startswith("error: 'utf-8' codec can't decode")


def test_surrogateescape_stdin_is_decoded_strictly(monkeypatch, capsys):
    # the C and C.UTF-8 locales decode stdin with surrogateescape; its bytes
    # are read instead
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(NOT_UTF8), encoding="utf-8",
                                                       errors="surrogateescape"))
    code = main(["analyze", "-"])
    assert code == EXIT_STAGE_ERROR
    assert capsys.readouterr().err.startswith("error: 'utf-8' codec can't decode")


def test_non_utf8_stdin_under_the_c_locale_is_stage_error():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "LC_ALL": "C"}
    env.pop("PYTHONIOENCODING", None)
    done = subprocess.run([sys.executable, "-m", "hypvol.cli", "analyze", "-"], input=NOT_UTF8,
                          env=env, capture_output=True, timeout=60)
    assert done.returncode == EXIT_STAGE_ERROR
    assert done.stderr.startswith(b"error: 'utf-8' codec can't decode")


def test_not_lorentzian_exit_code(diagram_file, capsys):
    path = diagram_file("n 2\nfacets 3\n")  # all right angles: positive definite
    code = main(["analyze", path])
    assert code == EXIT_NOT_LORENTZIAN
    assert "not Lorentzian" in capsys.readouterr().err


@pytest.mark.parametrize("label, code, message", [
    ("inf", EXIT_STAGE_ERROR, "error [DisconnectedGraph]: facets [3, 4] are orthogonal to the rest"),
    ("3", EXIT_NOT_LORENTZIAN, "error: not Lorentzian: signature (4, 1, 0), expected (3, 1, 1)"),
])
def test_disconnected_diagram_exit_codes(diagram_file, capsys, label, code, message):
    # the ideal triangle plus two facets orthogonal to it: parallel ones leave
    # the signature Lorentzian, so connectivity fails; at pi/3 the signature does
    path = diagram_file("n 3\nfacets 5\nedge 0 1 inf\nedge 1 2 inf\nedge 0 2 inf\n"
                        f"edge 3 4 {label}\n")
    assert main(["analyze", path]) == code
    assert capsys.readouterr().err.startswith(message)


def test_repeated_header_is_stage_error(diagram_file, capsys):
    # the edge was checked against the first header, so a second one is refused
    path = diagram_file("n 3\nfacets 4\nedge 0 1 3\nn 2\nfacets 3\n")
    assert main(["analyze", path]) == EXIT_STAGE_ERROR
    assert capsys.readouterr().err.startswith(
        "error [DiagramSyntaxError]: line 4: repeated n header")


def test_too_many_facets_is_stage_error(diagram_file, capsys):
    # checked before the signature, so a 13-facet positive definite diagram
    # exits 2 (TooLarge), not 3 (not Lorentzian)
    path = diagram_file("n 2\nfacets 13\n")
    code = main(["analyze", path])
    assert code == EXIT_STAGE_ERROR
    assert "TooLarge" in capsys.readouterr().err


@pytest.mark.parametrize("facets", [10, 12])
def test_too_many_cycles_is_stage_error(diagram_file, capsys, facets):
    # pairwise parallel facets: Lorentzian, with 556,014 simple cycles on 10
    # facets and 59.7 M on 12, so the cycle count stops the run, as the
    # facet count does past 12
    edges = "".join(f"edge {i} {j} inf\n" for i in range(facets) for j in range(i + 1, facets))
    path = diagram_file(f"n {facets - 1}\nfacets {facets}\n{edges}")
    t0 = time.perf_counter()
    code = main(["analyze", path])
    assert time.perf_counter() - t0 < 1.0
    assert code == EXIT_STAGE_ERROR
    assert "error [TooLarge]" in capsys.readouterr().err


def test_stage_error_exit_code(diagram_file, capsys):
    path = diagram_file("n 2\nfacets 3\nedge 0 1 7\n")
    code = main(["analyze", path])
    assert code == EXIT_STAGE_ERROR
    assert "UnsupportedLabel" in capsys.readouterr().err


def test_missing_file_is_stage_error(capsys):
    code = main(["analyze", "/nonexistent/thing.diagram"])
    assert code == EXIT_STAGE_ERROR


def test_assume_err_requires_assume_volume(diagram_file, capsys):
    path = diagram_file(POLYTOPE_5D)
    code = main(["analyze", path, "--assume-err", "1e-9"])
    assert code == EXIT_STAGE_ERROR


def test_assume_volume_requires_assume_err(diagram_file, capsys):
    path = diagram_file(POLYTOPE_5D)
    code = main(["analyze", path, "--assume-volume", VOL_5D])
    assert code == EXIT_STAGE_ERROR
    assert "assume_volume and assume_err must be given together" in capsys.readouterr().err


def test_unrecognized_json_is_strict(capsys):
    # an unrecognized residual is infinite; strict JSON has no Infinity
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    path = str(Path(__file__).parents[1] / "diagrams" / "polytope5d.diagram")
    code = main(["analyze", path, "--json",
                 "--assume-volume", "0.02413", "--assume-err", "1e-5"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert payload["recognition"]["status"] == "unrecognized"
    assert payload["recognition"]["residual"] is None


def test_window_holding_zero_is_unrecognized_json(capsys):
    # the error window of an assumed 0.0000434 holds 0, so no multiplier is recognized
    path = str(Path(__file__).parents[1] / "diagrams" / "polytope5d.diagram")
    code = main(["analyze", path, "--json",
                 "--assume-volume", "0.0000434", "--assume-err", "1e-4"])
    assert code == EXIT_OK
    rec = json.loads(capsys.readouterr().out)["recognition"]
    assert rec == {"status": "unrecognized", "residual": None, "confidence": 0.0, "method": "none"}


def test_stdin_input(diagram_file, capsys, monkeypatch):
    # a StringIO has no byte buffer and is read as text
    monkeypatch.setattr("sys.stdin", io.StringIO(POLYTOPE_5D))
    code = main(["analyze", "-", "--assume-volume", VOL_5D, "--assume-err", "1e-19"])
    assert code == EXIT_OK
    assert "suggested identity" in capsys.readouterr().out


@pytest.mark.parametrize("target", ["-1e-3", "nan"])
def test_bad_target_err_is_stage_error(diagram_file, capsys, target):
    path = diagram_file(IDEAL_TRIANGLE)
    code = main(["analyze", path, f"--target-err={target}"])
    assert code == EXIT_STAGE_ERROR
    assert "error [BadOption]: target_rel_err must be finite and positive" in capsys.readouterr().err


@pytest.mark.parametrize("volume", ["abc", "nan", "-1", "1e400", "1e-400"])
def test_bad_assumed_volume_is_stage_error(diagram_file, capsys, volume):
    path = diagram_file(POLYTOPE_5D)
    code = main(["analyze", path, f"--assume-volume={volume}", "--assume-err=1e-10"])
    assert code == EXIT_STAGE_ERROR
    assert "error [BadOption]: assume_volume must be a finite positive number" in capsys.readouterr().err


@pytest.mark.parametrize("err", ["nan", "-1"])
def test_bad_assumed_error_is_stage_error(diagram_file, capsys, err):
    path = diagram_file(POLYTOPE_5D)
    code = main(["analyze", path, f"--assume-volume={VOL_5D}", f"--assume-err={err}"])
    assert code == EXIT_STAGE_ERROR
    assert "error [BadOption]: assume_err must be finite and positive" in capsys.readouterr().err


def test_defaults_come_from_the_integrator():
    args = build_parser().parse_args(["analyze", "poly.diagram"])
    assert args.max_samples == 2**integration.DEFAULT_MAX_LOG2
    assert (inspect.signature(analyze).parameters["max_samples"].default
            == 2**integration.DEFAULT_MAX_LOG2)


@pytest.mark.parametrize("samples", ["0", "-5", str(2**30 + 1), str(2**40)])
def test_max_samples_outside_the_node_cap_range_is_stage_error(diagram_file, capsys, samples):
    path = diagram_file(IDEAL_TRIANGLE)
    code = main(["analyze", path, f"--max-samples={samples}"])
    assert code == EXIT_STAGE_ERROR
    assert "error [BadOption]: max_samples must be an integer from 1 to 2^30" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["1", "-1"])
def test_seed_option_is_rejected(diagram_file, capsys, seed):
    # the integrator is deterministic; the CLI has no --seed
    path = diagram_file(IDEAL_TRIANGLE)
    with pytest.raises(SystemExit) as exc:
        main(["analyze", path, f"--seed={seed}"])
    assert exc.value.code == EXIT_STAGE_ERROR
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


def test_text_option_is_rejected(diagram_file, capsys):
    # the text report is the default; --json is the one format flag
    path = diagram_file(IDEAL_TRIANGLE)
    with pytest.raises(SystemExit) as exc:
        main(["analyze", path, "--text"])
    assert exc.value.code == EXIT_STAGE_ERROR
    assert "unrecognized arguments: --text" in capsys.readouterr().err


DEEP = "(" * 3000 + "2" + ")" * 3000
STALLING_INPUTS = {
    "deep-nesting": ("BadWeight", f"n 2\nfacets 3\nedge 0 1 dashed {DEEP}\nedge 1 2 3\nedge 0 2 3\n"),
    "large-sqrt": ("TooLarge", "n 2\nfacets 3\nedge 0 1 dashed sqrt(1000000000000000000000000000057)\n"
                               "edge 1 2 3\nedge 0 2 3\n"),
    "large-det": ("TooLarge", "n 3\nfacets 4\nedge 0 1 dashed 1000000007/1000\nedge 1 2 3\n"
                              "edge 2 3 3\nedge 0 3 3\n"),
    "huge-weight": ("TooLarge", "n 2\nfacets 3\nedge 0 1 inf\nedge 1 2 inf\nedge 0 2 dashed 1"
                                + "0" * 400 + "\n"),
    "pendant-clique": ("TooLarge", "n 11\nfacets 12\nedge 0 1 3\n"
                                   + "".join(f"edge {i} {j} 3\n" for i in range(1, 12)
                                             for j in range(i + 1, 12))),
}


@pytest.mark.parametrize("name", STALLING_INPUTS)
def test_hostile_weights_end_in_a_typed_error_within_a_second(diagram_file, capsys, name):
    # a weight nested past Python's recursion limit, integers from the input
    # too large to factor by trial division, and a weight of 10^400, past
    # the float64 range of the geometry, are stage errors, found at once; so
    # is a Lorentzian facet hung by one edge on a clique of 11, from which the
    # cycle search would walk about 10^7 simple paths that never close
    error, text = STALLING_INPUTS[name]
    path = diagram_file(text)
    t0 = time.perf_counter()
    code = main(["analyze", path])
    assert time.perf_counter() - t0 < 1.0
    assert code == EXIT_STAGE_ERROR
    assert f"error [{error}]" in capsys.readouterr().err


def test_integer_literal_past_the_digit_limit_is_bad_weight(diagram_file, capsys):
    # int() refuses more than 4300 decimal digits; the error names the limit
    # rather than the interpreter setting that lifts it
    text = f"n 2\nfacets 3\nedge 0 1 dashed {'7' * 4301}/3\nedge 1 2 3\nedge 0 2 3\n"
    path = diagram_file(text)
    t0 = time.perf_counter()
    code = main(["analyze", path])
    assert time.perf_counter() - t0 < 1.0
    assert code == EXIT_STAGE_ERROR == 2
    err = capsys.readouterr().err
    assert "error [BadWeight]" in err
    assert "integer literal longer than 4300 digits" in err
    assert "set_int_max_str_digits" not in err


@pytest.mark.parametrize("samples", ["1", str(2**30)])
def test_max_samples_bounds_are_accepted(diagram_file, capsys, samples):
    # both bounds pass the option check; one node per piece allows one order
    # at most, which gives no change to bound the error with
    path = diagram_file(IDEAL_TRIANGLE)
    code = main(["analyze", path, "--target-err", "0.1", f"--max-samples={samples}", "--json"])
    if samples == "1":
        assert code == EXIT_STAGE_ERROR
        assert "error [NonConvergent]" in capsys.readouterr().err
    else:
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["volume"]["samples"] > 0


def test_large_discriminant_reports_the_skipped_prediction(diagram_file, capsys):
    # D = 20,252,648: past the L-series bound, so the run ends fast, exit 0
    path = diagram_file("n 5\nfacets 6\nedge 0 1 3\nedge 1 2 3\nedge 2 3 3\nedge 3 4 3\n"
                        "edge 4 5 dashed sqrt(1009)/3\n")
    t0 = time.perf_counter()
    code = main(["analyze", path, "--json", "--assume-volume", "0.02", "--assume-err", "1e-3"])
    assert time.perf_counter() - t0 < 1.0
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert "prediction" not in payload and "recognition" not in payload
    assert "discriminant |D| = 20252648 exceeds" in payload["prediction_skipped"]


def test_capped_run_is_flagged(capsys):
    path = str(Path(__file__).parents[1] / "diagrams" / "polytope5d.diagram")
    code = main(["analyze", path, "--target-err", "1e-9", "--max-samples", "1024", "--json"])
    assert code == EXIT_OK
    volume = json.loads(capsys.readouterr().out)["volume"]
    assert volume["capped"] is True and volume["rel_error"] > 1e-9
