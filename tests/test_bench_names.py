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


def test_traced_ops_reach_the_closed_form_by_its_traced_names(tmp_path,
                                                             capsys):
    # a fit's powder passes and the single-orientation curve of `compare`
    # must reach the closed form through the names the tracer wraps, or
    # their per-layer metrics read 0 though no run fails
    modules = {name: importlib.import_module(f"cpmas.{name}")
               for name in ("core", "analytic", "powder", "oracle", "fitting",
                            "cli")}
    tracer = runpy.run_path(str(TRACING))["Tracer"](modules)
    root = TRACING.parents[1]
    fit = ["fit", "--data", str(root / "data" / "synthetic_buildup.csv"),
           "--d-khz", "22", "--free", "d,r,r1,t1rho,m0", "--mas-khz", "5",
           "--r-inv-us", "436", "--r1-inv-us", "207", "--t1rho-ms", "2.8",
           "--m0", "1.5", "--orient-set", "zcw:1",
           "--out", str(tmp_path / "fit.csv")]
    compare = ["compare", "--d-khz", "2.5", "--mas-khz", "2", "--b1i-khz",
               "80", "--b1s-khz", "80", "--beta-deg", "60", "--gamma-deg",
               "36", "--tmax-us", "100", "--dt-us", "1",
               "--out", str(tmp_path / "cmp.csv")]
    for argv in (fit, compare):
        tracer.call(modules["cli"].main, argv)
    capsys.readouterr()
    fit_spans, compare_spans = tracer.ops
    assert any(s.name == "powder.average" and "d" in s.info
               for s in fit_spans)
    assert any(s.name == "analytic.kernel" for s in compare_spans)
