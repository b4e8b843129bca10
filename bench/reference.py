"""The benchmark's own numpy implementation of the paper's formulas.

Inputs are generated from these formulas and outputs are checked against
them, so neither depends on the code under test: a change to `cpmas`
cannot shift the benchmark's inputs or its notion of a correct answer.

Units follow the package: rad/s, seconds, radians internally; the CLI
takes kHz, microseconds and degrees.
"""

from __future__ import annotations

import math

import numpy as np

KHZ = 2.0 * math.pi * 1e3
US = 1e-6
MS = 1e-3
DEG = math.pi / 180.0
SQRT2 = math.sqrt(2.0)

# Point-dipole constants (SI) and 1H/13C gyromagnetic ratios, rad/(s T).
HBAR = 1.0545718e-34
MU0_OVER_4PI = 1e-7
GAMMA_1H = 267.522187e6
GAMMA_13C = 67.2828e6

# Stability rule of the density-matrix propagator: at least this many
# substeps per period of the fastest coherent frequency.
STEPS_PER_FASTEST_PERIOD = 50

# Orientations evaluated per block in `powder_eta`; keeps the reference's
# memory far below the program's so the workload's peak RSS is the program's.
ORIENT_BLOCK = 64


def zcw_set(level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(beta, gamma, weight) of the CLI's `zcw:L` set (Fibonacci spiral)."""
    fib = [8, 13]
    n = 21
    for _ in range(level - 1):
        fib.append(n)
        n = fib[-1] + fib[-2]
    j = np.arange(n)
    gamma = 2.0 * math.pi * np.mod(j * fib[-1] / n, 1.0)
    beta = np.arccos(2.0 * j / n - 1.0)
    return beta, gamma, np.full(n, 1.0 / n)


def grid_set(n_beta: int, n_gamma: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(beta, gamma, weight) of the CLI's `grid:NxM` midpoint set."""
    beta = (np.arange(n_beta) + 0.5) * math.pi / n_beta
    gamma = (np.arange(n_gamma) + 0.5) * 2.0 * math.pi / n_gamma
    raw = np.sin(beta)
    weight = raw / (raw.sum() * n_gamma)
    return (np.repeat(beta, n_gamma), np.tile(gamma, n_beta),
            np.repeat(weight, n_gamma))


def orientation_set(text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    kind, _, arg = text.partition(":")
    if kind == "zcw":
        return zcw_set(int(arg))
    nb, _, ng = arg.partition("x")
    return grid_set(int(nb), int(ng))


def phase(d: float, omega_r: float, beta, gamma, t) -> np.ndarray:
    """Accumulated dipolar phase phi(t); beta/gamma broadcast against t."""
    s2b = np.sin(2.0 * beta)
    sb2 = np.sin(beta) ** 2
    if omega_r == 0.0:
        return d * (SQRT2 * s2b * np.cos(gamma) - sb2 * np.cos(2.0 * gamma)) * t
    wt = omega_r * t + gamma
    return d / (2.0 * omega_r) * (
        2.0 * SQRT2 * s2b * (np.sin(wt) - np.sin(gamma))
        - sb2 * (np.sin(2.0 * wt) - np.sin(2.0 * gamma)))


def eta(d: float, omega_r: float, beta, gamma, t) -> np.ndarray:
    """Transfer efficiency (1 - cos phi)/2."""
    return 0.5 * (1.0 - np.cos(phase(d, omega_r, beta, gamma, t)))


def powder_eta(d: float, omega_r: float, oset, t: np.ndarray) -> np.ndarray:
    """Weighted orientation average of eta, evaluated block by block."""
    beta, gamma, weight = oset
    total = np.zeros_like(t)
    for lo in range(0, len(beta), ORIENT_BLOCK):
        sl = slice(lo, lo + ORIENT_BLOCK)
        block = eta(d, omega_r, beta[sl, None], gamma[sl, None], t[None, :])
        total += weight[sl] @ block
    return total


def envelope(t: np.ndarray, eta_t: np.ndarray, m0: float, r: float,
             r1: float, t1rho: float) -> np.ndarray:
    """M(t) = m0 {1 - e^(-r t)/2 - e^(-r1 t)(1 - 2 eta)/2} e^(-t/T1rho)."""
    return m0 * (1.0 - 0.5 * np.exp(-r * t)
                 - 0.5 * np.exp(-r1 * t) * (1.0 - 2.0 * eta_t)) * np.exp(-t / t1rho)


def coupling_1h13c(r_angstrom: float) -> float:
    """Point-dipole coupling d in rad/s for a 1H-13C pair."""
    r = r_angstrom * 1e-10
    return MU0_OVER_4PI * GAMMA_1H * GAMMA_13C * HBAR / r**3


def grid_points(tmax_us: float, dt_us: float) -> int:
    """Sample count of the CLI's uniform grid t_k = k*dt, t <= tmax."""
    return int(math.floor(tmax_us / dt_us + 1e-9)) + 1


def substeps(b1_khz: float, offset_khz: float, mas_khz: float, dt_us: float) -> int:
    """Propagator substeps per grid interval for matched, equal-offset locks."""
    w1e = math.hypot(offset_khz, b1_khz) * KHZ
    omega_fast = max(2.0 * w1e, 2.0 * mas_khz * KHZ)
    max_step = 2.0 * math.pi / (STEPS_PER_FASTEST_PERIOD * omega_fast)
    return max(1, math.ceil(dt_us * US / max_step - 1e-9))


def read_csv(path) -> dict[str, np.ndarray]:
    """Columns of a CSV with '#' comment lines and one header row."""
    names, rows = None, []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if names is None:
                names = line.split(",")
            else:
                rows.append([float(v) for v in line.split(",")])
    if names is None:
        raise ValueError(f"{path}: no header")
    table = np.array(rows, dtype=float).reshape(len(rows), len(names))
    return {name: table[:, k] for k, name in enumerate(names)}
