"""Seeded operations of the four workloads and the check of each output.

Operation i of a workload is a pure function of (seed, workload, i): its
argv and, for fits, its build-up CSV are byte-identical for the same
seed.  Operations are generated one at a time, outside the timed
interval, so the sequence never repeats however fast the program gets.

The parameters that set an operation's cost are drawn stratified in
blocks of BLOCK operations (a Latin hypercube per block): every block
holds the same mix of small and large operations in a seeded order.
A run's median then depends on the program and the host, not on which
seed drew more large operations.  Every other parameter is drawn freely,
so couplings, noise and angles never repeat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference as ref

WORKLOAD_KEYS = {"powder-sweep": 1, "oracle-compare": 2, "fit-relax": 3,
                 "fit-distance": 4}
BLOCK = 16                # operations per stratified block
N_STRATA = 6              # stratified uniforms drawn for every operation

# `cpmas compare` exits 2 above its default threshold; the check applies
# the same limit to the deviation it recomputes from the CSV.
COMPARE_THRESHOLD = 0.02
CURVE_TOL = 1e-9          # |program - reference| for simulate and powder
RSS_SLACK = 1e-9          # fitted rss may exceed rss(truth) by this share

FIT_POINTS = 121
FIT_DT_US = 25.0
FIT_NOISE = 0.01          # Gaussian noise, as a share of m0
FIT_ORIENT_SET = "zcw:8"
# 1H-13C distances, Angstrom.  With d free the pair is longer: at 1.0-1.2
# Angstrom (d/2pi 18-30 kHz) the 25 us sampling undersamples the transfer
# oscillation, and about 1 fit in 60 wanders to another minimum in d and
# stops at the iteration cap (exit 4).  At 1.4-1.6 Angstrom (7-11 kHz)
# every fit seen converged within 10 iterations.
FIT_DISTANCE = (1.0, 1.2)
FIT_DISTANCE_FREE_D = (1.4, 1.6)

# fitted-report key and its factor to SI for each fit parameter
_REPORT_KEYS = {"d": ("d_rad_per_s", 1.0), "r": ("r_per_s", 1.0),
                "r1": ("r1_per_s", 1.0), "t1rho": ("t1rho_ms", ref.MS),
                "m0": ("m0", 1.0)}


@dataclass
class Op:
    """One CLI call: its argv, output path, and what its check needs."""

    kind: str
    argv: list[str]
    out: Path
    params: dict = field(default_factory=dict)


def _num(x: float) -> str:
    return repr(float(x))


def make_op(workload: str, seed: int, index: int, workdir: Path,
            warmup: bool = False) -> Op:
    """Operation `index` of `workload`; warm-up operations use their own stream.

    Warm-up operation 0 is the workload's largest: every stratified
    parameter at the top of its range.  Each run's peak memory then
    includes it, whichever operations the run reaches.
    """
    key = [seed, WORKLOAD_KEYS[workload], int(warmup)]
    block, slot = divmod(index, BLOCK)
    strata = np.random.default_rng([*key, 0, block]).permuted(
        np.tile(np.arange(BLOCK), (N_STRATA, 1)), axis=1)[:, slot]
    rng = np.random.default_rng([*key, 1, index])
    u = (strata + rng.random(N_STRATA)) / BLOCK
    if warmup and index == 0:
        u = np.full(N_STRATA, np.nextafter(1.0, 0.0))
    return _GENERATORS[workload](u, rng, Path(workdir))


def _sphere_angles(rng) -> tuple[float, float]:
    """(beta_deg, gamma_deg) drawn uniformly over the sphere."""
    beta = math.degrees(math.acos(rng.uniform(-1.0, 1.0)))
    return beta, rng.uniform(0.0, 360.0)


def _pick(u: float, lo: int, hi: int) -> int:
    """Integer in [lo, hi] from a uniform u in [0, 1)."""
    return lo + int(u * (hi - lo + 1))


def _powder_sweep(u, rng, workdir: Path) -> Op:
    # stratified: u[0] kind and orientation set, u[1] grid columns, u[2] samples
    p = {"d_khz": rng.uniform(5.0, 30.0), "mas_khz": rng.uniform(2.0, 15.0),
         "dt_us": float(rng.choice([1.0, 2.0, 5.0, 10.0]))}
    n_t = _pick(u[2], 201, 801)
    p["tmax_us"] = (n_t - 1) * p["dt_us"]
    argv = ["--d-khz", _num(p["d_khz"]), "--mas-khz", _num(p["mas_khz"]),
            "--tmax-us", _num(p["tmax_us"]), "--dt-us", _num(p["dt_us"])]
    if u[0] < 0.25:
        kind = "simulate"
        p["beta_deg"], p["gamma_deg"] = _sphere_angles(rng)
        argv += ["--beta-deg", _num(p["beta_deg"]),
                 "--gamma-deg", _num(p["gamma_deg"])]
    else:
        kind = "powder"
        w = (u[0] - 0.25) / 0.75
        if w < 0.5:
            p["orient_set"] = f"grid:{_pick(2.0 * w, 24, 48)}x{_pick(u[1], 24, 48)}"
        else:
            p["orient_set"] = f"zcw:{_pick(2.0 * w - 1.0, 6, 11)}"
        argv += ["--orient-set", p["orient_set"]]
        if rng.random() < 0.5:
            p["relax"] = {"r_inv_us": rng.uniform(200.0, 400.0),
                          "r1_inv_us": rng.uniform(100.0, 200.0),
                          "t1rho_ms": rng.uniform(1.5, 3.0),
                          "m0": rng.uniform(0.8, 1.5)}
            for key, value in p["relax"].items():
                argv += [f"--{key.replace('_', '-')}", _num(value)]
    out = workdir / f"{kind}.csv"
    return Op(kind, [kind, *argv, "--out", str(out)], out, p)


def _oracle_compare(u, rng, workdir: Path) -> Op:
    # stratified: u[0] lock amplitude, u[1] offset, u[2] dt, u[3] points, u[4] kind
    p = {"d_khz": rng.uniform(1.0, 5.0), "mas_khz": rng.uniform(1.0, 10.0),
         "b1_khz": 40.0 + 80.0 * u[0]}
    p["offset_khz"] = (2.0 * u[1] - 1.5) * p["b1_khz"] if u[1] >= 0.5 else 0.0
    p["beta_deg"], p["gamma_deg"] = _sphere_angles(rng)
    p["dt_us"] = (0.5, 1.0, 2.0)[_pick(u[2], 0, 2)]
    p["tmax_us"] = (_pick(u[3], 200, 1000) - 1) * p["dt_us"]
    kind = "oracle" if u[4] < 0.25 else "compare"
    argv = [kind, "--d-khz", _num(p["d_khz"]), "--mas-khz", _num(p["mas_khz"]),
            "--b1i-khz", _num(p["b1_khz"]), "--b1s-khz", _num(p["b1_khz"])]
    if p["offset_khz"]:
        argv += ["--offset-i-khz", _num(p["offset_khz"]),
                 "--offset-s-khz", _num(p["offset_khz"])]
    argv += ["--beta-deg", _num(p["beta_deg"]), "--gamma-deg", _num(p["gamma_deg"]),
             "--tmax-us", _num(p["tmax_us"]), "--dt-us", _num(p["dt_us"])]
    out = workdir / f"{kind}.csv"
    return Op(kind, [*argv, "--out", str(out)], out, p)


def _fit(u, rng, workdir: Path, free_d: bool) -> Op:
    # stratified: u[0] distance, u[1] spinning rate, u[2:6] initial guesses
    lo, hi = FIT_DISTANCE_FREE_D if free_d else FIT_DISTANCE
    r_ang = lo + (hi - lo) * u[0]
    mas_khz = 5.0 + 5.0 * u[1]
    inv = {"r_inv_us": rng.uniform(200.0, 400.0),
           "r1_inv_us": rng.uniform(100.0, 200.0),
           "t1rho_ms": rng.uniform(1.5, 3.0), "m0": rng.uniform(0.8, 1.5)}
    truth = {"d": ref.coupling_1h13c(r_ang), "r": 1.0 / (inv["r_inv_us"] * ref.US),
             "r1": 1.0 / (inv["r1_inv_us"] * ref.US),
             "t1rho": inv["t1rho_ms"] * ref.MS, "m0": inv["m0"]}

    t_us = np.arange(FIT_POINTS) * FIT_DT_US
    t = t_us * ref.US
    model = ref.envelope(
        t, ref.powder_eta(truth["d"], mas_khz * ref.KHZ,
                          ref.orientation_set(FIT_ORIENT_SET), t),
        truth["m0"], truth["r"], truth["r1"], truth["t1rho"])
    data = model + rng.normal(0.0, FIT_NOISE * truth["m0"], FIT_POINTS)
    csv = workdir / "buildup.csv"
    csv.write_text("time_us,magnetization\n" + "".join(
        f"{_num(a)},{_num(b)}\n" for a, b in zip(t_us, data)), encoding="utf-8")

    argv = ["fit", "--data", str(csv), "--mas-khz", _num(mas_khz),
            "--orient-set", FIT_ORIENT_SET]
    for key, value, uk in zip(inv, inv.values(), u[2:6]):
        argv += [f"--{key.replace('_', '-')}", _num(value * (0.7 + 0.7 * uk))]
    if free_d:
        free = ("d", "r", "r1", "t1rho", "m0")
        guess = truth["d"] * (1.0 + rng.uniform(-0.1, 0.1)) / ref.KHZ
        argv += ["--d-khz", _num(guess), "--free", ",".join(free)]
    else:
        free = ("r", "r1", "t1rho", "m0")
        argv += ["--distance-angstrom", _num(r_ang)]
    out = workdir / "overlay.csv"
    rss_truth = float(np.sum((model - data) ** 2))
    return Op("fit", [*argv, "--out", str(out)], out,
              {"truth": truth, "free": free, "rss_truth": rss_truth})


def work_size(op: Op) -> dict:
    """Sizes of the operation's work, from its inputs: orientations and
    samples per powder average, and substeps per propagation."""
    p = op.params
    if op.kind == "fit":
        return {"n_orient": len(ref.orientation_set(FIT_ORIENT_SET)[0]),
                "n_t": FIT_POINTS}
    n_t = ref.grid_points(p["tmax_us"], p["dt_us"])
    if op.kind == "powder":
        return {"n_orient": len(ref.orientation_set(p["orient_set"])[0]), "n_t": n_t}
    if op.kind in ("oracle", "compare"):
        return {"n_t": n_t, "substeps": (n_t - 1) * ref.substeps(
            p["b1_khz"], p["offset_khz"], p["mas_khz"], p["dt_us"])}
    return {"n_t": n_t}


_GENERATORS = {
    "powder-sweep": _powder_sweep,
    "oracle-compare": _oracle_compare,
    "fit-relax": lambda u, rng, wd: _fit(u, rng, wd, free_d=False),
    "fit-distance": lambda u, rng, wd: _fit(u, rng, wd, free_d=True),
}


# -- checks -------------------------------------------------------------------

class CheckFailed(Exception):
    """An operation's output disagrees with the benchmark's reference."""


def check(op: Op, rc, stdout: str) -> dict:
    """Raise CheckFailed unless `op` succeeded with a correct output.

    Returns the quality figures the output yields: ``max_dev`` for
    compare, ``rel_err`` for fit.
    """
    if rc != 0:
        raise CheckFailed(f"exit code {rc}")
    return _CHECKS[op.kind](op, stdout)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _table(op: Op, names: list[str]) -> dict[str, np.ndarray]:
    try:
        cols = ref.read_csv(op.out)
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"unreadable output: {exc}") from exc
    _require(list(cols) == names, f"columns {list(cols)}, expected {names}")
    n = ref.grid_points(op.params["tmax_us"], op.params["dt_us"])
    _require(len(cols[names[0]]) == n, f"{len(cols[names[0]])} rows, expected {n}")
    return cols


def _check_curve(op: Op, stdout: str) -> dict:
    p = op.params
    relax = p.get("relax")
    cols = _table(op, ["t_us", "m" if relax else "eta"])
    n = ref.grid_points(p["tmax_us"], p["dt_us"])
    t = np.arange(n) * (p["dt_us"] * ref.US)
    d, omega_r = p["d_khz"] * ref.KHZ, p["mas_khz"] * ref.KHZ
    if op.kind == "simulate":
        expected = ref.eta(d, omega_r, p["beta_deg"] * ref.DEG,
                           p["gamma_deg"] * ref.DEG % (2.0 * math.pi), t)
    else:
        expected = ref.powder_eta(d, omega_r, ref.orientation_set(p["orient_set"]), t)
    if relax:
        expected = ref.envelope(t, expected, relax["m0"], 1.0 / (relax["r_inv_us"] * ref.US),
                                1.0 / (relax["r1_inv_us"] * ref.US),
                                relax["t1rho_ms"] * ref.MS)
    err = float(np.max(np.abs(cols["t_us"] - np.arange(n) * p["dt_us"])))
    _require(err <= CURVE_TOL, f"time column off by {err:.3e}")
    err = float(np.max(np.abs(cols["m" if relax else "eta"] - expected)))
    _require(err <= CURVE_TOL, f"curve differs from reference by {err:.3e}")
    return {}


def _check_compare(op: Op, stdout: str) -> dict:
    cols = _table(op, ["t_us", "eta_analytic", "sy_oracle"])
    dev = float(np.max(np.abs(cols["eta_analytic"] - cols["sy_oracle"])))
    _require(dev <= COMPARE_THRESHOLD, f"deviation {dev:.3e} above threshold")
    return {"max_dev": dev}


def _check_oracle(op: Op, stdout: str) -> dict:
    cols = _table(op, ["t_us", "sy", "iy", "dq_y"])
    _require(abs(cols["iy"][0] - 1.0) <= CURVE_TOL, f"iy[0] = {cols['iy'][0]!r}")
    _require(abs(cols["sy"][0]) <= CURVE_TOL, f"sy[0] = {cols['sy'][0]!r}")
    peak = float(np.max(np.abs(cols["sy"])))
    _require(peak <= 1.0 + CURVE_TOL, f"|sy| reaches {peak!r}")
    return {}


def _report(stdout: str) -> dict[str, float]:
    values = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            try:
                values[key.strip()] = float(value)
            except ValueError:
                pass
    return values


def _check_fit(op: Op, stdout: str) -> dict:
    report = _report(stdout)
    truth = op.params["truth"]
    _require("rss" in report, "fit report has no rss")
    limit = (1.0 + RSS_SLACK) * op.params["rss_truth"]
    _require(report["rss"] <= limit,
             f"rss {report['rss']!r} above rss at the truth {op.params['rss_truth']!r}")
    rel_err = 0.0
    for name in op.params["free"]:
        key, scale = _REPORT_KEYS[name]
        _require(key in report, f"fit report has no {key}")
        rel_err = max(rel_err, abs(report[key] * scale - truth[name]) / abs(truth[name]))
    return {"rel_err": rel_err}


_CHECKS = {"simulate": _check_curve, "powder": _check_curve,
           "compare": _check_compare, "oracle": _check_oracle, "fit": _check_fit}
