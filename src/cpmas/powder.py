"""Orientation ensembles and powder averaging.

A powder curve is the solid-angle average of single-orientation curves,
weights proportional to sin(beta) so that a constant integrand averages to
itself.  Two generators are provided: a transparent midpoint grid in
(beta, gamma) used for convergence checks, and the equal-weight ZCW set
(Fibonacci point counts) that reaches the same accuracy with far fewer
orientations and is the default for fitting.

Every average runs one array kernel.  An `OrientationSet` is three arrays,
beta, gamma and weights, stored once in canonical (beta, gamma, weight)
order.  The kernel takes the phase of each block of ORIENT_BLOCK
orientations x all times from `core`'s dipolar formulas and adds the
weighted blocks in that fixed order, so the result is bit-identical however
the orientations were ordered and no temporary grows with the set size.
On request the same pass also returns d(eta)/dd for the fit's Jacobian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import CpCurve, CurveKind
from .core import (CouplingParams, SpinningParams, TimeGrid,
                   coupling_shape, phase_bracket)

WEIGHT_SUM_TOL = 1e-12

# Orientations per kernel block: 64 x 801 doubles is ~400 kB per temporary,
# so a block's working set stays cache-resident at the largest grids used.
ORIENT_BLOCK = 64

# Supported ZCW set sizes (level -> orientation count); the
# counts follow the Fibonacci recursion used by the generator.
ZCW_SET_SIZES = {
    1: 21, 2: 34, 3: 55, 4: 89, 5: 144, 6: 233, 7: 377,
    8: 610, 9: 987, 10: 1597, 11: 2584, 12: 4181, 13: 6765, 14: 10946,
}

# First level with >= 610 points; converges below 5e-3 in max-norm for the
# curve shapes this package produces (see the powder tests).
DEFAULT_FIT_LEVEL = 8


@dataclass(frozen=True, eq=False)
class OrientationSet:
    """Weighted orientations as three read-only arrays of equal length.

    ``beta`` lies in [0, pi] and ``gamma`` in [0, 2*pi), as for
    `core.Orientation`; ``weights`` are finite, > 0 and sum to 1.  The
    arrays are copied and put in canonical (beta, gamma, weight) order at
    construction.
    """

    beta: np.ndarray
    gamma: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        beta, gamma, weights = (np.array(a, dtype=float) for a in
                                (self.beta, self.gamma, self.weights))
        if beta.ndim != 1 or not beta.shape == gamma.shape == weights.shape:
            raise ValueError("beta, gamma and weights must be 1-D arrays of "
                             f"equal length, got shapes {beta.shape}, "
                             f"{gamma.shape}, {weights.shape}")
        if len(beta) == 0:
            raise ValueError("orientation set must be nonempty")
        if not np.all((beta >= 0.0) & (beta <= math.pi)):
            raise ValueError("beta must be in [0, pi]")
        if not np.all((gamma >= 0.0) & (gamma < 2.0 * math.pi)):
            raise ValueError("gamma must be in [0, 2*pi)")
        if not np.all(np.isfinite(weights) & (weights > 0.0)):
            raise ValueError("orientation weights must be finite and > 0")
        total = math.fsum(weights.tolist())
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"orientation weights must sum to 1, got {total}")
        canonical = np.lexsort((weights, gamma, beta))
        for name, column in (("beta", beta), ("gamma", gamma),
                             ("weights", weights)):
            array = column[canonical]
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    def __len__(self) -> int:
        return len(self.weights)


def grid_orientation_set(n_beta: int, n_gamma: int) -> OrientationSet:
    """Midpoint (beta, gamma) grid with sin(beta) weights, normalized to 1.

    beta_i = (i + 1/2)*pi/n_beta, gamma_j = (j + 1/2)*2*pi/n_gamma.
    """
    if n_beta < 1 or n_gamma < 1:
        raise ValueError("grid counts must be >= 1")
    betas = (np.arange(n_beta) + 0.5) * math.pi / n_beta
    gammas = (np.arange(n_gamma) + 0.5) * 2.0 * math.pi / n_gamma
    raw = np.sin(betas)
    weights = raw / (raw.sum() * n_gamma)
    return OrientationSet(beta=np.repeat(betas, n_gamma),
                          gamma=np.tile(gammas, n_beta),
                          weights=np.repeat(weights, n_gamma))


def zcw_orientation_set(level: int) -> OrientationSet:
    """Equal-weight ZCW orientation set covering the full sphere.

    The Zaremba-Conroy-Wolfsberg set as given by Eden & Levitt (JMR 132,
    220, 1998): N = F(M+2) points (``ZCW_SET_SIZES``), cos(beta_j) =
    2*j/N - 1 and a gamma step of F(M+1)/N turns.  Their alpha step is
    F(M)/N, and F(M+1) = -F(M) (mod N), so gamma here is their alpha
    mirrored to 2*pi - alpha; beta is the same bit for bit.

    Raises:
        ValueError: if ``level`` is not one of the supported levels.
    """
    if level not in ZCW_SET_SIZES:
        supported = ", ".join(str(k) for k in sorted(ZCW_SET_SIZES))
        raise ValueError(f"unsupported orientation-set level {level}; "
                         f"supported levels: {supported}")
    g, n = 13, 21  # F(M+1), F(M+2)
    for _ in range(level - 1):
        g, n = n, g + n
    j = np.arange(n)
    return OrientationSet(beta=np.arccos(2.0 * j / n - 1.0),
                          gamma=2.0 * math.pi * np.mod(j * g / n, 1.0),
                          weights=np.full(n, 1.0 / n))


def _efficiency_kernel(d: float, omega_r: float, t: np.ndarray,
                       oset: OrientationSet, with_slope: bool):
    """Weighted sum over the set of eta(t) and, if asked, of d(eta)/dd.

    phi comes from core's bracket (or stationary rate) and eta from the
    operations of `analytic.transfer_efficiency`, so a one-orientation set
    reproduces the single-orientation curve bit for bit.  The slope is
    (1/2)*sin(phi)*dphi/dd with dphi/dd = phi/d taken from the bracket or
    the rate, never by dividing by d, so d = 0 is safe.
    """
    eta = np.zeros(t.shape)
    slope = np.zeros(t.shape) if with_slope else None
    spinning = omega_r != 0.0
    # dphi/dd = per_d * (bracket, or rate * t when stationary)
    per_d = 1.0 / (2.0 * omega_r) if spinning else 1.0
    for start in range(0, len(oset), ORIENT_BLOCK):
        blk = slice(start, start + ORIENT_BLOCK)
        if spinning:
            bracket = phase_bracket(oset.beta[blk, None],
                                    oset.gamma[blk, None], omega_r * t)
            phi = (d / (2.0 * omega_r)) * bracket
        else:
            rate = coupling_shape(oset.beta[blk], oset.gamma[blk], 0.0)
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
    values = averaged_efficiency(coupling, spin, grid.times(), oset)
    return CpCurve(grid=grid, values=values, kind=CurveKind.EFFICIENCY)
