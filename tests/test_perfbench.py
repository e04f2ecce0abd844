"""The benchmark's tracer wraps hypvol functions by name; a renamed or
removed name must fail here rather than only in a benchmark run."""

from pathlib import Path

import hypvol.cli  # noqa: F401  (the tracer wraps cli.main)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_resolves_traced_names(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import calibrate  # noqa: F401  (imports scipy.stats.qmc, whose Sobol the tracer counts)
    import tracing

    tracer = tracing.Tracer()
    tracer.install(0)
    tracer.remove()
