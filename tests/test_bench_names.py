"""The benchmark's tracer finds every name it times in the package.

`bench/tracing.py` looks its targets up by name (e.g.
`cli.analytic.magnetization`); a renamed one would drop its layer's
metrics without failing a run, so the names are checked here.
"""

import importlib
import runpy
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_tracer_finds_every_target():
    tracer = runpy.run_path(str(TRACING))["Tracer"]({
        name: importlib.import_module(f"cpmas.{name}")
        for name in ("core", "analytic", "powder", "oracle", "fitting", "cli")})
    assert tracer.missing == []
    assert tracer.absent_spans() == set()
