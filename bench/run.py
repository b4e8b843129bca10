"""Benchmark of the cpmas command line: one workload, one seed, one run.

    python3 bench/run.py --workload powder-sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20
    python3 bench/run.py --self-test

The package is imported from `src/` beside this directory; nothing needs
installing.  Each run starts fresh worker processes with BLAS threads
pinned to 1: a few that only import `cpmas.cli` (their median start-up is
`setup_s`), then one that runs the workload's operations for `--seconds`.
With `--trace 1` the per-layer metrics are reported instead of the
end-to-end ones.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the full record,
with the environment, is kept under `.bench_work/results/`.

This file uses only the standard library, so it can say why it cannot
run when the package is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
WORK_ROOT = ROOT / ".bench_work"
WORKLOADS = ("powder-sweep", "oracle-compare", "fit-relax", "fit-distance")
SETUP_RUNS = 7          # timed start-ups, after one untimed that fills caches
CAL_REF_S = 0.0012      # worker.CAL_REF_S; run.py imports nothing of numpy
RUN_LIMIT_S = 170.0     # one workload, set-up included, ends within this
MAX_SECONDS = 120.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONNOUSERSITE="1",
               PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def _worker(args: list[str], timeout: float, ok_codes=(0,),
            **kwargs) -> subprocess.CompletedProcess:
    """Run worker.py to completion; a timeout kills it and waits for it."""
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT,
                              env=_child_env(), text=True, timeout=timeout, **kwargs)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish within {timeout:.0f} s") from exc
    if proc.returncode not in ok_codes:
        raise BenchError(f"worker exited with {proc.returncode}: "
                         f"{(proc.stderr or '').strip()}")
    return proc


def measure_setup(deadline: float) -> list[float]:
    """Seconds from spawning a worker to the end of its `import cpmas.cli`,
    each scaled to the reference host speed by the calibration the worker
    runs right after the import (see worker.CAL_REF_S)."""
    samples = []
    for k in range(SETUP_RUNS + 1):
        start = time.monotonic()
        proc = _worker(["--setup-only"], deadline - start, capture_output=True)
        imported_at, cal = (float(v) for v in proc.stdout.split()[-2:])
        if k:
            samples.append((imported_at - start) * CAL_REF_S / cal)
    return samples


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return "unknown"


def host_environment() -> dict:
    return {"nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(), "git_commit": _git_commit()}


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload in fresh processes; returns the full result record."""
    deadline = time.monotonic() + RUN_LIMIT_S
    results = WORK_ROOT / "results"
    results.mkdir(parents=True, exist_ok=True)
    workdir = WORK_ROOT / f"run-{os.getpid()}-{workload}"
    workdir.mkdir(parents=True, exist_ok=True)
    result_path = results / f"{workload}-seed{seed}-trace{trace}.json"
    try:
        setup = [] if trace else measure_setup(deadline)
        _worker(["--workload", workload, "--seed", str(seed), "--seconds",
                 str(seconds), "--trace", str(trace), "--work", str(workdir),
                 "--result", str(result_path)],
                deadline - time.monotonic(), stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE)
        record = json.loads(result_path.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if setup:
        record["metrics"] = {"setup_s": {"value": statistics.median(setup), "unit": "s"},
                             **record["metrics"]}
        record["samples"]["setup_s"] = len(setup)
        record["setup_samples_s"] = setup
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "correct": record["failed"] == 0, **record,
              "environment": {**host_environment(), **record["environment"]}}
    result_path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    return record


def _print_table(records: list[dict]) -> None:
    """Every metric of every record, by name, with unit and sample count."""
    names = []
    for rec in records:
        for group in ("metrics", "diagnostics"):
            for name, entry in rec.get(group, {}).items():
                if (name, entry["unit"]) not in names:
                    names.append((name, entry["unit"]))
    print(f"{'metric':28s} {'unit':6s} " +
          " ".join(f"{rec['workload']:>22s}" for rec in records))
    for name, unit in names:
        cells = []
        for rec in records:
            entry = rec["metrics"].get(name) or rec.get("diagnostics", {}).get(name)
            n = rec["samples"].get(name, 0)
            cells.append(f"{entry['value']:>14.6g} (n={n:4d})" if entry else f"{'-':>22s}")
        print(f"{name:28s} {unit:6s} " + " ".join(cells))
    for rec in records:
        for name in rec.get("absent", []):
            print(f"{rec['workload']}: {name} absent (the program no longer has its name)")
        for failure in rec["failures"]:
            print(f"{rec['workload']}: failed {failure}")
    env = records[0]["environment"]
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check that inputs repeat per seed and that "
                             "corrupted outputs are counted as failed")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cpmas" / "cli.py").is_file():
        print(f"error: no cpmas sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or not 0.0 < args.seconds <= MAX_SECONDS:
        parser.error(f"need --seed >= 0 and 0 < --seconds <= {MAX_SECONDS:g}")

    try:
        if args.self_test:
            workdir = WORK_ROOT / f"selftest-{os.getpid()}"
            workdir.mkdir(parents=True, exist_ok=True)
            try:
                proc = _worker(["--self-test", "--work", str(workdir)], RUN_LIMIT_S,
                               ok_codes=(0, 1))
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            return proc.returncode
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        records = [run_workload(name, args.seed, args.seconds, args.trace)
                   for name in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _print_table(records)
    if args.workload == "all":
        return 0 if all(rec["correct"] for rec in records) else 1
    rec = records[0]
    print(json.dumps({"correct": rec["correct"], "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": rec["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
