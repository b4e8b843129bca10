"""Workload process of the cpmas benchmark; run.py starts it.

The first statement imports the CLI module, so the set-up time run.py
measures ends exactly there.  Every operation is an in-process call to
`cpmas.cli.main(argv)`, the code path of the `cpmas` console script; the
loop is closed, one operation at a time.

    worker.py --setup-only
    worker.py --self-test --work DIR
    worker.py --workload W --seed N --seconds S --trace 0|1 --work DIR --result FILE
"""

import time

import cpmas.cli

IMPORTED_AT = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import reference as ref  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import CheckFailed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ("core", "analytic", "powder", "oracle", "fitting", "cli")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WARMUP_OPS = 3        # untimed operations before the measured loop, at
WARMUP_S = 1.0        # least one, and no new one after this many seconds
HD_STEPS = 64         # integration steps per order statistic in _quantile
HD_MIN_SAMPLES = 10   # fewer samples: plain interpolated quantile
MAX_FAILURES_KEPT = 10

# The host's speed drifts by up to ~1.7x for seconds at a time (other
# tenants share the cores).  A fixed calibration task runs between
# operations, and each operation's wall time is scaled by
# CAL_REF_S / (median of the CAL_WINDOW calibrations on each side of it):
# end-to-end latencies are reported at the speed of a host on which the
# calibration takes CAL_REF_S.  The task is the benchmark's own code, so a
# change to cpmas cannot move it; it mimics the program's hot loops (a
# Python loop over orientations, numpy on short arrays, compensated sums),
# which tracked the program's slowdowns better than pure interpreter or
# large-array numpy work did.
CAL_REF_S = 0.0012
CAL_WINDOW = 3
_CAL_T = np.linspace(0.0, 3e-3, 121)
_CAL_ORIENT = list(zip(np.linspace(0.1, 3.0, 60), np.linspace(0.0, 6.2, 60)))


def _calibrate() -> float:
    """Seconds taken by a fixed 60-orientation average of eta on 121 points."""
    start = time.perf_counter()
    total = np.zeros_like(_CAL_T)
    comp = np.zeros_like(_CAL_T)
    for beta, gamma in _CAL_ORIENT:
        y = ref.eta(1.5e5, 3e4, beta, gamma, _CAL_T) / len(_CAL_ORIENT) - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return time.perf_counter() - start


def _speed_scaled(latencies: list[float], cals: list[float]) -> np.ndarray:
    """Latencies at the reference speed; cals[i] ran before operation i."""
    scaled = np.empty(len(latencies))
    for i, seconds in enumerate(latencies):
        near = cals[max(0, i - CAL_WINDOW + 1):i + CAL_WINDOW + 1]
        scaled[i] = seconds * CAL_REF_S / statistics.median(near)
    return scaled


def _call(argv, tracer=None):
    """One timed CLI call: (seconds, exit code or error text, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = tracer.call(cpmas.cli.main, argv) if tracer else cpmas.cli.main(argv)
        except Exception as exc:  # an escaped exception is a failed operation
            rc = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    return seconds, rc, out.getvalue(), err.getvalue()


def run(workload: str, seed: int, seconds: float, traced: bool,
        workdir: Path) -> dict:
    tracer = None
    if traced:
        tracer = tracing.Tracer({name: sys.modules.get(f"cpmas.{name}")
                                 for name in LAYERS})
    warmup_end = time.perf_counter() + WARMUP_S
    for k in range(WARMUP_OPS):
        if k and time.perf_counter() > warmup_end:
            break
        op = workloads.make_op(workload, seed, k, workdir, warmup=True)
        _call(op.argv)
        if tracer:
            _call(op.argv, tracer)
        _calibrate()
    if tracer:
        tracer.ops.clear()

    latencies = {False: [], True: []}
    figures = {"max_dev": [], "rel_err": []}
    layer_values, failures = [], []
    attempted = failed = 0
    cals = [_calibrate()]
    deadline = time.perf_counter() + seconds
    index = 0
    while index == 0 or time.perf_counter() < deadline:
        op = workloads.make_op(workload, seed, index, workdir)
        # traced and untraced calls of the same operation, alternating
        # which runs first, give the tracing overhead
        order = ((False, True) if index % 2 == 0 else (True, False)) if tracer else (False,)
        for with_trace in order:
            elapsed, rc, stdout, stderr = _call(op.argv, tracer if with_trace else None)
            attempted += 1
            latencies[with_trace].append(elapsed)
            try:
                for key, value in workloads.check(op, rc, stdout).items():
                    figures[key].append(value)
            except CheckFailed as exc:
                failed += 1
                if len(failures) < MAX_FAILURES_KEPT:
                    failures.append(f"op {index} {op.kind}: {exc} {stderr.strip()}")
            if with_trace:
                layer_values.append(tracing.op_layer_values(
                    tracer.ops[-1], workloads.work_size(op)))
        cals.append(_calibrate())
        index += 1

    result = {"attempted": attempted, "failed": failed, "failures": failures,
              "operations": index, "environment": _environment()}
    if tracer:
        overhead = sum(latencies[True]) / sum(latencies[False]) - 1.0
        metrics, samples, absent = tracing.layer_metrics(
            layer_values, tracer.absent_spans(), overhead)
        result.update(metrics=metrics, samples=samples, absent=absent,
                      missing_names=tracer.missing, spans=tracer.ops)
        return result
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    scaled = _speed_scaled(latencies[False], cals)
    wall = np.array(latencies[False])
    result["latencies_ms"] = {"scaled": (scaled * 1e3).tolist(),
                              "wall": (wall * 1e3).tolist()}
    result["metrics"] = {
        "ops_per_s": {"value": len(scaled) / float(scaled.sum()), "unit": "1/s"},
        "latency_p50_ms": {"value": _quantile(scaled, 0.5) * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": peak_kib / 1024.0, "unit": "MiB"}}
    diagnostics = {
        "latency_p75_ms": {"value": _quantile(scaled, 0.75) * 1e3, "unit": "ms"},
        "latency_p90_ms": {"value": _quantile(scaled, 0.9) * 1e3, "unit": "ms"},
        "wall_ops_per_s": {"value": len(wall) / float(wall.sum()), "unit": "1/s"},
        "wall_latency_p50_ms": {"value": _quantile(wall, 0.5) * 1e3, "unit": "ms"},
        "host_speed": {"value": CAL_REF_S / statistics.median(cals), "unit": "ratio"},
        "failed_frac": {"value": failed / attempted, "unit": "ratio"}}
    result["samples"] = {name: len(scaled) for name in [*result["metrics"], *diagnostics]}
    result["samples"].update(failed_frac=attempted, host_speed=len(cals))
    if figures["max_dev"]:
        diagnostics["max_dev"] = {"value": max(figures["max_dev"]), "unit": "1"}
        result["samples"]["max_dev"] = len(figures["max_dev"])
    if figures["rel_err"]:
        diagnostics["fit_rel_err"] = {"value": statistics.median(figures["rel_err"]),
                                      "unit": "ratio"}
        result["samples"]["fit_rel_err"] = len(figures["rel_err"])
    result["diagnostics"] = diagnostics
    return result


def _quantile(x: np.ndarray, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile of x.

    A Beta(p(n+1), (1-p)(n+1))-weighted mean of the order statistics.  Fit
    times come in steps of one LM iteration; a single order statistic jumps
    between steps from run to run, this weighted mean moves smoothly.
    """
    x = np.sort(x)
    n = len(x)
    if n < HD_MIN_SAMPLES:
        return float(np.quantile(x, p))
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    grid = np.linspace(0.0, 1.0, HD_STEPS * n + 1)[1:-1]
    log_pdf = (a - 1.0) * np.log(grid) + (b - 1.0) * np.log1p(-grid)
    pdf = np.concatenate([[0.0], np.exp(log_pdf - log_pdf.max()), [0.0]])
    cdf = np.concatenate([[0.0], np.cumsum(pdf[1:] + pdf[:-1])])
    return float(np.diff(cdf[::HD_STEPS]) @ x / cdf[-1])


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_name, "blas_threads": _blas_threads(),
            "thread_env": {k: os.environ.get(k) for k in THREAD_VARS}}


# -- self-test ------------------------------------------------------------------

# (data row, column) changed in a corrupted output, per operation kind
_CORRUPT_CELL = {"simulate": (-1, 1), "powder": (-1, 1), "compare": (-1, 2),
                 "oracle": (0, 1)}


def _corrupt(op, stdout: str) -> str:
    """Spoil the part of the output the check reads; returns the stdout to check."""
    if op.kind == "fit":
        return "\n".join(f"rss = {2.0 * float(line.partition(' = ')[2])!r}"
                         if line.startswith("rss = ") else line
                         for line in stdout.splitlines())
    lines = op.out.read_text(encoding="utf-8").splitlines()
    rows = [k for k, line in enumerate(lines) if line and not line.startswith("#")][1:]
    row, col = _CORRUPT_CELL[op.kind]
    fields = lines[rows[row]].split(",")
    fields[col] = repr(float(fields[col]) + 0.5)
    lines[rows[row]] = ",".join(fields)
    op.out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return stdout


def self_test(workdir: Path) -> int:
    """Check that inputs repeat per seed and that corrupted outputs fail."""
    problems = []
    kinds = {"powder-sweep": {"simulate", "powder"},
             "oracle-compare": {"oracle", "compare"},
             "fit-relax": {"fit"}, "fit-distance": {"fit"}}
    for workload, wanted in kinds.items():
        dirs = [workdir / "a", workdir / "b"]
        for d in dirs:
            d.mkdir(exist_ok=True)
        for i in range(3):
            a, b = (workloads.make_op(workload, 7, i, d) for d in dirs)
            same_argv = [x.replace(str(dirs[0]), "") for x in a.argv] == \
                        [x.replace(str(dirs[1]), "") for x in b.argv]
            files = sorted(p.name for p in dirs[0].iterdir())
            same_files = all((dirs[0] / f).read_bytes() == (dirs[1] / f).read_bytes()
                             for f in files)
            if not (same_argv and same_files):
                problems.append(f"{workload} op {i}: inputs differ for one seed")
        seen, index = set(), 0
        while seen != wanted and index < 50:
            op = workloads.make_op(workload, 7, index, workdir)
            index += 1
            if op.kind in seen:
                continue
            seen.add(op.kind)
            _, rc, stdout, _ = _call(op.argv)
            for label in ("correct output", "exit code 4", "corrupted output"):
                code, text = rc, stdout
                if label == "exit code 4":
                    code = 4
                elif label == "corrupted output":
                    text = _corrupt(op, stdout)
                try:
                    workloads.check(op, code, text)
                    passed = True
                except CheckFailed:
                    passed = False
                if passed != (label == "correct output"):
                    problems.append(f"{workload} {op.kind}: {label} "
                                    f"{'accepted' if passed else 'rejected'}")
                print(f"{workload:15s} {op.kind:9s} {label:17s} "
                      f"{'passes' if passed else 'fails'}")
        if seen != wanted:
            problems.append(f"{workload}: no operation of kind {wanted - seen}")
    for problem in problems:
        print(f"self-test problem: {problem}", file=sys.stderr)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main() -> int:
    src = (ROOT / "src").resolve()
    if src not in Path(cpmas.cli.__file__).resolve().parents:
        print(f"error: cpmas was imported from {cpmas.cli.__file__}, not {src}",
              file=sys.stderr)
        return 3
    parser = argparse.ArgumentParser()
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOAD_KEYS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path)
    parser.add_argument("--result", type=Path)
    args = parser.parse_args()
    if args.setup_only:
        cal = statistics.median(_calibrate() for _ in range(3))
        print(repr(IMPORTED_AT), repr(cal))
        return 0
    if args.self_test:
        return self_test(args.work)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.work)
    spans = result.pop("spans", None)
    if spans is not None:
        tracing.write_spans(args.result.with_suffix(".spans.jsonl"), spans)
    args.result.write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
