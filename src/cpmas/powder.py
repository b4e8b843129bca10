"""Orientation ensembles and powder averaging.

A powder curve is the solid-angle average of single-orientation curves,
weights proportional to sin(beta) so that a constant integrand averages to
itself.  Two generators are provided: a transparent midpoint grid in
(beta, gamma) used for convergence checks, and an equal-weight
low-discrepancy set (golden-ratio style, Fibonacci point counts) that
reaches the same accuracy with far fewer orientations and is the default
for fitting.

Every average runs one array kernel.  An `OrientationSet` stores its
orientations once, sorted by (beta, gamma, weight), as arrays of weights,
gamma, sin(gamma), sin(2*gamma) and the two phase coefficients; the kernel
evaluates eta over blocks of ORIENT_BLOCK orientations x all times and adds
the weighted blocks in that fixed order.  The result is therefore
bit-identical however the entries were ordered, and no temporary grows
with the set size.  On request the same pass also returns d(eta)/dd, the
slope the fit's Jacobian needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .analytic import CpCurve, CurveKind
from .core import SQRT2, CouplingParams, Orientation, SpinningParams, TimeGrid

WEIGHT_SUM_TOL = 1e-12

# Orientations per kernel block: 64 x 801 doubles is ~400 kB per temporary,
# so a block's working set stays cache-resident at the largest grids used.
ORIENT_BLOCK = 64

# Supported low-discrepancy set sizes (level -> orientation count); the
# counts follow the Fibonacci recursion used by the generator.
ZCW_SET_SIZES = {
    1: 21, 2: 34, 3: 55, 4: 89, 5: 144, 6: 233, 7: 377,
    8: 610, 9: 987, 10: 1597, 11: 2584, 12: 4181, 13: 6765, 14: 10946,
}

# First level with >= 610 points; converges below 5e-3 in max-norm for the
# curve shapes this package produces (see the powder tests).
DEFAULT_FIT_LEVEL = 8


def _table_field():
    return field(init=False, repr=False, compare=False)


@dataclass(frozen=True)
class OrientationSet:
    """Weighted orientations; weights are > 0 and sum to 1.

    Besides ``entries`` the set holds read-only arrays in canonical
    (beta, gamma, weight) order: ``weights``, ``gamma``, ``sin_gamma``,
    ``sin_2gamma`` and the phase coefficients ``c1`` = 2*sqrt(2)*sin(2*beta)
    and ``c2`` = sin(beta)^2, computed with the same scalar calls as
    `core.dipolar_phase`.
    """

    entries: tuple[tuple[Orientation, float], ...]
    weights: np.ndarray = _table_field()
    gamma: np.ndarray = _table_field()
    sin_gamma: np.ndarray = _table_field()
    sin_2gamma: np.ndarray = _table_field()
    c1: np.ndarray = _table_field()
    c2: np.ndarray = _table_field()

    def __post_init__(self):
        if len(self.entries) == 0:
            raise ValueError("orientation set must be nonempty")
        weights = [w for _, w in self.entries]
        total = math.fsum(weights)
        if any(w <= 0.0 for w in weights):
            raise ValueError("orientation weights must be > 0")
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"orientation weights must sum to 1, got {total}")
        betas = [o.beta for o, _ in self.entries]
        gammas = [o.gamma for o, _ in self.entries]
        columns = {
            "weights": np.array(weights),
            "gamma": np.array(gammas),
            "sin_gamma": np.array([math.sin(g) for g in gammas]),
            "sin_2gamma": np.array([math.sin(2.0 * g) for g in gammas]),
            "c1": np.array([2.0 * SQRT2 * math.sin(2.0 * b) for b in betas]),
            "c2": np.array([s * s for s in map(math.sin, betas)]),
        }
        canonical = np.lexsort((columns["weights"], columns["gamma"],
                                np.array(betas)))
        for name, column in columns.items():
            array = column[canonical]
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    def __len__(self) -> int:
        return len(self.entries)


def grid_orientation_set(n_beta: int, n_gamma: int) -> OrientationSet:
    """Midpoint (beta, gamma) grid with sin(beta) weights, normalized to 1.

    beta_i = (i + 1/2)*pi/n_beta, gamma_j = (j + 1/2)*2*pi/n_gamma.
    """
    if n_beta < 1 or n_gamma < 1:
        raise ValueError("grid counts must be >= 1")
    betas = (np.arange(n_beta) + 0.5) * math.pi / n_beta
    gammas = (np.arange(n_gamma) + 0.5) * 2.0 * math.pi / n_gamma
    raw = np.sin(betas)
    norm = raw.sum() * n_gamma
    entries = []
    for beta, w in zip(betas, raw):
        for gamma in gammas:
            entries.append((Orientation(beta=float(beta), gamma=float(gamma)),
                            float(w / norm)))
    return OrientationSet(entries=tuple(entries))


def zcw_orientation_set(level: int) -> OrientationSet:
    """Equal-weight low-discrepancy orientation set covering the full sphere.

    Point counts follow the Fibonacci sequence in ``ZCW_SET_SIZES``; gamma
    advances by a Fibonacci-ratio increment while cos(beta) sweeps [-1, 1)
    uniformly.  This is a Fibonacci spiral on the sphere, named ``zcw``
    after the Zaremba-Conroy-Wolfsberg family it resembles; it is not the
    Conroy-Wolfsberg construction itself.

    Raises:
        ValueError: if ``level`` is not one of the supported levels.
    """
    if level not in ZCW_SET_SIZES:
        supported = ", ".join(str(k) for k in sorted(ZCW_SET_SIZES))
        raise ValueError(f"unsupported orientation-set level {level}; "
                         f"supported levels: {supported}")
    fib = [8, 13]
    n = 21
    for _ in range(level - 1):
        fib.append(n)
        n = fib[-1] + fib[-2]
    g = fib[-1]
    j = np.arange(n)
    gammas = 2.0 * math.pi * np.mod(j * g / n, 1.0)
    betas = np.arccos(2.0 * j / n - 1.0)
    weight = 1.0 / n
    entries = tuple(
        (Orientation(beta=float(b), gamma=float(gm)), weight)
        for b, gm in zip(betas, gammas))
    return OrientationSet(entries=entries)


def _efficiency_kernel(d: float, omega_r: float, t: np.ndarray,
                       oset: OrientationSet, with_slope: bool):
    """Weighted sum over the set of eta(t) and, if asked, of d(eta)/dd.

    eta and the phase are formed with the operations of
    `analytic.transfer_efficiency` and `core.dipolar_phase`, so a one-entry
    set reproduces the single-orientation curve bit for bit.  The slope is
    (1/2)*sin(phi)*dphi/dd with dphi/dd taken from the phase bracket, never
    as phi/d, so d = 0 is safe.
    """
    eta = np.zeros(t.shape)
    slope = np.zeros(t.shape) if with_slope else None
    spinning = omega_r != 0.0
    per_d = 1.0  # dphi/dd = per_d * (bracket, or d(0)/d * t when stationary)
    if spinning:
        wr_t = omega_r * t
        pref = d / (2.0 * omega_r)
        per_d = 1.0 / (2.0 * omega_r)
    for start in range(0, len(oset), ORIENT_BLOCK):
        blk = slice(start, start + ORIENT_BLOCK)
        if spinning:
            # phase bracket: c1*(sin(wt) - sin(g)) - c2*(sin(2wt) - sin(2g))
            wt = wr_t + oset.gamma[blk, None]
            bracket = np.sin(wt)
            bracket -= oset.sin_gamma[blk, None]
            bracket *= oset.c1[blk, None]
            wt *= 2.0
            second = np.sin(wt, out=wt)
            second -= oset.sin_2gamma[blk, None]
            second *= oset.c2[blk, None]
            bracket -= second
            phi = np.multiply(bracket, pref, out=second)
        else:
            # stationary branch: phi = d(0)*t, with d(0)/d per orientation
            g = oset.gamma[blk]
            rate = (0.5 * oset.c1[blk] * np.cos(g)
                    - oset.c2[blk] * np.cos(2.0 * g))
            phi = np.multiply.outer(d * rate, t)
        w = oset.weights[blk, None]
        if with_slope:
            ds = np.sin(phi)
            ds *= bracket if spinning else np.multiply.outer(rate, t)
            ds *= (0.5 * per_d) * w
            slope += ds.sum(axis=0)
        block = np.cos(phi, out=phi)
        np.subtract(1.0, block, out=block)
        block *= 0.5
        block *= w
        eta += block.sum(axis=0)
    return (eta, slope) if with_slope else eta


def averaged_efficiency(coupling: CouplingParams, spin: SpinningParams,
                        times, oset: OrientationSet, *,
                        with_slope: bool = False):
    """Powder-averaged transfer efficiency at arbitrary sample times.

    Pointwise form of `powder_average`, free of its uniform-grid
    requirement; on a uniform grid the two agree bit for bit.  With
    ``with_slope`` returns ``(eta, deta_dd)``, the derivative with respect
    to the coupling constant from the same kernel pass; eta is bit-identical
    either way.
    """
    t = np.asarray(times, dtype=float)
    out = _efficiency_kernel(coupling.d, spin.omega_r, t.ravel(), oset,
                             with_slope)
    if with_slope:
        return out[0].reshape(t.shape), out[1].reshape(t.shape)
    return out.reshape(t.shape)


def powder_average(coupling: CouplingParams, spin: SpinningParams,
                   grid: TimeGrid, oset: OrientationSet) -> CpCurve:
    """Powder-averaged transfer-efficiency curve on a uniform time grid."""
    values = _efficiency_kernel(coupling.d, spin.omega_r, grid.times(), oset,
                                False)
    return CpCurve(grid=grid, values=values, kind=CurveKind.EFFICIENCY)
