#!/usr/bin/env python3
"""hypvol benchmark: time to recognize vol(P) = q * T, and its layers.

    python3 perfbench/run.py --workload recognize-5d --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --quick

Run from the root of a checkout; the program is imported from ./src.  One
process runs one workload as a closed loop with a single client, one analysis
at a time, for --seconds.  Analyses come in rounds (one analysis on
recognize-*, every input kind once on exact-assumed).  The first round is a
warm-up, checked but not timed; the round in flight always finishes, a run
times at least one, and the next round starts only if the median round so
far still fits.  BLAS/OpenMP pools are pinned to one thread.

--trace 0 prints the end-to-end metrics: set-up (median of fresh
``import hypvol`` interpreters spread over the run) and analysis time (median
over rounds of the round's mean analysis time), both scaled to a reference
machine speed by the calibration kernels of calibrate.py, correct share,
error-bar coverage and peak RSS.  --trace 1 alternates untraced and traced rounds and
prints the per-layer metrics of the traced ones (see tracing.py), the import
breakdown from -X importtime, src line counts and the tracing overhead; its
spans are written to perfbench/out/.  The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.  --quick runs every
workload in both modes for one second and checks the output against
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 7
# the first analyses of a process pay one-off costs (first Sobol engine, caches);
# they are checked like the others but not timed
WARMUP_ROUNDS = 1
IMPORTTIME_REPEATS = 3
IMPORT_PACKAGES = ("scipy.stats", "numpy", "mpmath", "hypvol")
SRC_MODULES = ("surd", "diagram", "arithmeticity", "lseries", "geometry", "integration",
               "prediction", "cli", "errors", "polytopes", "__init__")
# recognize-7d runs one 30-40 s analysis per run and is left out of BENCHMARK.json
WORKLOADS = ("recognize-5d", "exact-assumed", "recognize-7d")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
IMPORT_SNIPPET = ("import time; t = time.perf_counter(); import hypvol; "
                  "print(time.perf_counter() - t)")


@dataclass
class Outcome:
    """One finished analysis."""

    base: str
    route: str
    kind: str
    round: int
    seconds: float
    traced: bool
    failure: str | None
    volume: dict | None
    method: str | None


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def timed_setup() -> tuple[float, float]:
    """Wall time of ``import hypvol`` in a fresh interpreter, and the set-up
    kernel's mean seconds just before and after it."""
    import calibrate

    kernel = calibrate.timer("setup")
    before = kernel()
    proc = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True,
                          check=True, timeout=120)
    return float(proc.stdout.split()[-1]), (before + kernel()) / 2


def import_breakdown() -> dict[str, float]:
    """Median cumulative -X importtime seconds of the main packages."""
    runs: dict[str, list[float]] = {p: [] for p in IMPORT_PACKAGES}
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import hypvol"],
                              cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              check=True, timeout=120)
        seen = {}
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = line.split("|")
            name = name.strip()
            if name in runs and name not in seen and cumulative.strip().isdigit():
                seen[name] = int(cumulative) / 1e6
        for p in IMPORT_PACKAGES:
            runs[p].append(seen.get(p, 0.0))
    return {p: statistics.median(v) for p, v in runs.items()}


def src_lines() -> dict[str, int]:
    """Line counts of the src/hypvol modules (0 for a module that is gone)."""
    files = {p.stem: p.read_text(encoding="utf-8").count("\n")
             for p in (SRC / "hypvol").glob("*.py")}
    lines = {m.strip("_"): files.get(m, 0) for m in SRC_MODULES}
    lines["total"] = sum(files.values())
    return lines


def environment() -> dict:
    import mpmath
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def measure(workload: str, seed: int, seconds: float, tracer,
            setup: list[tuple[float, float]] | None) -> tuple[list[Outcome], list[float]]:
    """Closed loop over the workload's rounds until the run length is used.

    Returns the outcomes and, per round, the calibration kernel's seconds.
    Given a ``setup`` list, appends SETUP_REPEATS fresh-import times to it,
    each with the set-up kernel's mean seconds around it, taken between
    rounds at even intervals so that they span the whole run.
    """
    import calibrate
    import reference
    import workloads
    from hypvol.polytopes import IDEAL_TRIANGLE, POLYTOPE_5D, POLYTOPE_7D

    texts = {"5d": POLYTOPE_5D, "7d": POLYTOPE_7D, "triangle": IDEAL_TRIANGLE}
    table = reference.expected_table()
    for base, text in texts.items():
        got = reference.numeric_signature(text)
        if got != table[base].signature:
            raise RuntimeError(f"reference signature of {base}: {got} != {table[base].signature}")

    stream = workloads.rounds(workload, seed, texts, table)
    kernel = calibrate.timer(workload)
    min_rounds = WARMUP_ROUNDS + (1 if tracer is None else 2)
    outcomes: list[Outcome] = []
    kernel_seconds = [kernel()]
    round_seconds: list[float] = []
    start = next_setup = time.perf_counter()
    r = 0
    while r < min_rounds or (
            time.perf_counter() - start + statistics.median(round_seconds) <= seconds):
        traced = tracer is not None and r > WARMUP_ROUNDS and r % 2 == 0
        t_round = time.perf_counter()
        for item in next(stream):
            outcomes.append(analyze_one(item, table[item.base], r, traced, tracer,
                                        len(outcomes)))
        if not traced:
            round_seconds.append(time.perf_counter() - t_round)
        if setup is not None and time.perf_counter() >= next_setup:
            setup.append(timed_setup())
            next_setup += seconds / SETUP_REPEATS
        kernel_seconds.append(kernel())
        r += 1
    while setup is not None and len(setup) < SETUP_REPEATS:
        setup.append(timed_setup())
    # the kernel's mean time on either side of each round
    return outcomes, [(a + b) / 2 for a, b in zip(kernel_seconds, kernel_seconds[1:])]


def analyze_one(item, exp, r: int, traced: bool, tracer, k: int) -> Outcome:
    """Run, time and check one request; a failure is recorded, never raised."""
    import workloads

    report = failure = None
    if traced:
        tracer.install(k)
    t0 = time.perf_counter()
    try:
        report = workloads.run(item)
    except Exception as exc:  # every failure is recorded; none aborts the run
        failure = f"{type(exc).__name__}: {exc}"
    finally:
        dt = time.perf_counter() - t0
        if traced:
            tracer.remove()
    if failure is None:
        failure = workloads.check(report, exp)
    volume = method = None
    if report is not None:
        method = (report.get("recognition") or {}).get("method")
        if item.kind == "integrated":
            volume = workloads.bar_check(report, exp)
    return Outcome(item.base, item.route, item.kind, r, dt, traced, failure, volume, method)


def round_means(outcomes: list[Outcome], traced: bool) -> dict[int, float]:
    """Mean analysis seconds of each timed round (all of a round is traced or none)."""
    by_round: dict[int, list[float]] = {}
    for o in outcomes:
        if o.traced == traced and o.round >= WARMUP_ROUNDS:
            by_round.setdefault(o.round, []).append(o.seconds)
    return {r: statistics.fmean(v) for r, v in by_round.items()}


def scaled_means(outcomes: list[Outcome], kernel: list[float], ref: float) -> list[float]:
    """Untraced round means at the reference machine speed (see calibrate.py)."""
    return [mean * ref / kernel[r] for r, mean in round_means(outcomes, False).items()]


def tail(durations: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(durations)
    p = math.floor(100 * (1 - 10 / n)) if n else 0
    if p < 50:
        return None
    return p, statistics.quantiles(durations, n=100, method="inclusive")[p - 1]


def end_to_end(outcomes: list[Outcome], kernel: list[float], ref: float,
               setup: list[tuple[float, float]]) -> dict[str, tuple[float, str]]:
    import calibrate

    integrated = [o.volume for o in outcomes if o.volume is not None]
    covers = (sum(v["covers"] for v in integrated) / len(integrated)) if integrated else 1.0
    return {
        "setup_s": (statistics.median(s * calibrate.reference("setup") / k for s, k in setup),
                    "s"),
        "analyze_s": (statistics.median(scaled_means(outcomes, kernel, ref)), "s"),
        "correct_frac": (sum(o.failure is None for o in outcomes) / len(outcomes), "frac"),
        "bar_covers_frac": (covers, "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


# per-layer metric -> span whose inclusive seconds or calls it reports
SPAN_SECONDS = {
    "diagram.parse_s": "diagram.parse",
    "diagram.gram_s": "diagram.gram",
    "diagram.inertia_s": "diagram.inertia",
    "arithmeticity.classify_s": "arithmeticity.classify",
    "arithmeticity.rational_form_s": "arithmeticity.rational_form",
    "lseries.factor_s": "lseries.factor",
    "lseries.hurwitz_s": "lseries.hurwitz",
    "geometry.realize_s": "geometry.realize",
    "geometry.vertices_s": "geometry.vertices",
    "geometry.klein_s": "geometry.klein",
    "integration.volume_s": "integration.volume",
    "prediction.recognition_s": "prediction.recognition",
    "cli.main_s": "cli.main",
}
SPAN_CALLS = {
    "diagram.inertia_calls": "diagram.inertia",
    "arithmeticity.enumerate_cycles_calls": "arithmeticity.enumerate_cycles",
    "lseries.hurwitz_calls": "lseries.hurwitz",
    "integration.simplex_volume_calls": "integration.simplex_volume",
}
COUNTS = ("surd.mul_calls", "surd.inverse_calls", "surd.sign_calls", "arithmeticity.cycles",
          "geometry.finite_vertices", "geometry.ideal_vertices", "geometry.simplices",
          "integration.sobol_engines", "integration.samples",
          "prediction.cf_recognitions", "prediction.smooth_recognitions")


def per_layer(outcomes: list[Outcome], tracer, imports: dict[str, float]
              ) -> dict[str, tuple[float, str]]:
    """Per traced analysis: span seconds and calls, counters, and self seconds."""
    import tracing

    n = sum(o.traced for o in outcomes)
    inclusive, calls, own = tracer.totals()
    m: dict[str, tuple[float, str]] = {
        f"import.{pkg.replace('.', '_')}_s": (imports[pkg], "s") for pkg in IMPORT_PACKAGES}
    m.update({k: (inclusive[span] / n, "s") for k, span in SPAN_SECONDS.items()})
    m.update({k: (calls[span] / n, "count") for k, span in SPAN_CALLS.items()})
    m.update({k: (tracer.counts[k] / n, "count") for k in COUNTS})
    volume_s = inclusive["integration.volume"]
    m["integration.samples_per_s"] = (
        tracer.counts["integration.samples"] / volume_s if volume_s else 0.0, "1/s")
    vols = [o.volume for o in outcomes if o.volume is not None]
    ratios = [v["rel_bar"] / v["rel_dev"] for v in vols if v["rel_dev"]]
    m["integration.bar_rel"] = (statistics.median(v["rel_bar"] for v in vols) if vols else 0.0,
                                "frac")
    m["integration.true_rel_dev"] = (
        statistics.median(v["rel_dev"] for v in vols) if vols else 0.0, "frac")
    m["integration.bar_over_dev"] = (statistics.median(ratios) if ratios else 0.0, "ratio")
    m["prediction.analyze_self_s"] = (own["prediction.analyze"] / n, "s")
    m.update({f"self.{k}_s": (v / n, "s") for k, v in tracing.self_by_module(own).items()})
    m["trace.overhead_frac"] = (statistics.median(round_means(outcomes, True).values())
                                / statistics.median(round_means(outcomes, False).values()) - 1,
                                "frac")
    m.update({f"src.lines.{k}": (v, "count") for k, v in src_lines().items()})
    return m


def describe(workload: str, seed: int, outcomes: list[Outcome], kernel: list[float],
             tracer=None) -> list[str]:
    """Human-readable lines printed before the JSON result."""
    import calibrate

    plain = sorted(o.seconds for o in outcomes if not o.traced and o.round >= WARMUP_ROUNDS)
    means = list(round_means(outcomes, False).values())
    lines = [f"workload {workload}, seed {seed}: {len(outcomes)} analyses in "
             f"{1 + max(o.round for o in outcomes)} rounds ({len(plain)} timed untraced analyses "
             f"in {len(means)} rounds; unscaled: median round mean {statistics.median(means):.6f} s, "
             f"median analysis {statistics.median(plain):.6f} s, "
             f"{len(plain) / sum(plain):.4f} analyses per second of analysis time)",
             f"calibration kernel median {statistics.median(kernel):.6f} s, "
             f"reference {calibrate.reference(workload)} s"]
    if len(means) <= 30:
        lines.append("unscaled round means " + " ".join(f"{d:.4f}" for d in means))
    t = tail(plain)
    lines.append(f"unscaled analysis p{t[0]} {t[1]:.6f} s over {len(plain)} samples" if t else
                 f"{len(plain)} timed untraced analyses support no tail percentile")
    mix = Counter(f"{o.base}/{o.route}/{o.kind}/{o.method}" for o in outcomes)
    lines.append("mix " + ", ".join(f"{k}={v}" for k, v in sorted(mix.items())))
    if not any(o.volume for o in outcomes):
        lines.append("bar_covers_frac: no integrated analyses, reported as 1.0")
    if tracer is not None:
        import tracing

        traced = sum(o.seconds for o in outcomes if o.traced)
        shares = tracing.self_by_module(tracer.totals()[2])
        lines.append("self-time share of traced analyses: " + ", ".join(
            f"{m} {100 * v / traced:.1f}%" for m, v in shares.most_common()))
    reasons = Counter(f"{o.base}: {o.failure}" for o in outcomes if o.failure)
    lines.extend(f"FAILED x{v}: {k}" for k, v in sorted(reasons.items()))
    return lines


def run(args) -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "hypvol" / "__init__.py").is_file():
        print(f"error: no hypvol sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hypvol
    import hypvol.cli  # noqa: F401  (traced; imported before the tracer resolves it)

    if Path(hypvol.__file__).resolve().parent != SRC / "hypvol":
        print(f"error: imported hypvol from {hypvol.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import calibrate
    import tracing

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    if args.trace:
        imports = import_breakdown()
        tracer = tracing.Tracer()
        outcomes, kernel = measure(args.workload, args.seed, args.seconds, tracer, None)
        metrics = per_layer(outcomes, tracer, imports)
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({
            "env": env, "fields": ["name", "start", "end", "parent", "item"],
            "spans": tracer.spans, "counts": tracer.counts}))
        print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    else:
        tracer = None
        setup: list[tuple[float, float]] = []
        outcomes, kernel = measure(args.workload, args.seed, args.seconds, None, setup)
        metrics = end_to_end(outcomes, kernel, calibrate.reference(args.workload), setup)
        print("unscaled setup runs " + " ".join(f"{s:.4f}" for s, _ in setup)
              + f", set-up kernel median {statistics.median(k for _, k in setup):.6f} s")
    for line in describe(args.workload, args.seed, outcomes, kernel, tracer):
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    failed = sum(o.failure is not None for o in outcomes)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def quick() -> int:
    """Every workload in both modes for one second, checked against BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ok = {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    for wl in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", wl,
                   "--seed", "1", "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            problems = []
            if proc.returncode != 0:
                problems.append(f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
            else:
                res = json.loads(proc.stdout.strip().splitlines()[-1])
                want = {m["name"]: m["unit"] for m in spec[key]}
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                if set(res) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append(f"result keys {sorted(res)}")
                if not res["correct"] or res["failed"] or res["attempted"] < 1:
                    problems.append(f"correct={res['correct']} attempted={res['attempted']} "
                                    f"failed={res['failed']}")
                if got != want:
                    problems.append(f"metrics differ: missing {sorted(set(want) - set(got))}, "
                                    f"extra {sorted(set(got) - set(want))}, units "
                                    f"{sorted(k for k in got if k in want and got[k] != want[k])}")
                bad = [k for k, v in res["metrics"].items()
                       if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"])]
                if bad:
                    problems.append(f"non-finite values {bad}")
            ok = ok and not problems
            print(f"{'ok  ' if not problems else 'FAIL'} {wl} trace={trace} "
                  + "; ".join(problems), flush=True)
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="self-check: every workload, both modes, one second each")
    args = parser.parse_args(argv)
    if args.quick:
        return quick()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
