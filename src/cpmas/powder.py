"""Orientation ensembles and powder averaging.

A powder curve is the solid-angle average of single-orientation curves,
weights proportional to sin(beta) so that a constant integrand averages to
itself.  Two generators are provided: a transparent midpoint grid in
(beta, gamma) used for convergence checks, and the equal-weight ZCW set
(Fibonacci point counts) that reaches the same accuracy with far fewer
orientations and is the default for fitting.

`averaged_efficiency` is the one evaluation of the closed form: at one
orientation, over a set or from a phase table, at a 1-d array of sample
times, with d scaled by the locks' factor `core.tilt_scale`.  An
`OrientationSet` is three arrays, beta, gamma and weights, stored once in
canonical (beta, gamma, weight) order.  The phase is linear in d:
phi = d*B/(2*omega_r), B the `core.bracket_sum` of the rotor-angle terms,
taken once per average, and the coefficients, taken once per set (or
phi = d times the stationary rate times t).  A point's one transcendental
is tau = tan(phi/2): eta = u/(1 + u) and the slope's (1/2)*sin(phi) =
tau/(1 + u), with u = tau**2.  Blocks of ORIENT_BLOCK orientations x all
times are weighted and summed over orientations by one einsum each and
added in that fixed order, so the result is bit-identical however the
orientations were ordered; every block reuses one set of buffers, sized
to the set.  A fit, which averages one set at many d, reads read-only
blocks built once as a `phase_table`, bit for bit alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (CouplingParams, Orientation, RfScheme, SpinningParams,
                   TimeGrid, bracket_coefficients, bracket_sum,
                   coupling_shape, rotor_terms, tilt_scale)

WEIGHT_SUM_TOL = 1e-12

# Orientations per kernel block: 64 x 801 doubles is ~400 kB per temporary,
# so a block's working set stays cache-resident at the largest grids used.
ORIENT_BLOCK = 64

# Largest phase table, in bytes, that `phase_table` caches.  A fit keeps
# its table for its whole run, so the cap is what caching may add to a
# fit's memory: 16 MiB stays below half of the ~40 MiB a fit process holds
# anyway and still covers every ZCW level up to 11 (2584 orientations) at
# 801 points.  A larger set is averaged straight from the set instead.
PHASE_TABLE_BUDGET = 16 * 2**20

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


@dataclass(frozen=True, eq=False)
class PhaseTable:
    """The d-independent phase units of one set, rotor frequency and times.

    phi is linear in d: phi = d*B/(2*omega_r) with the bracket B of
    `core.phase_bracket` when spinning, and phi = (d*rate)*t with the
    stationary rate d(0)/d when omega_r = 0.  ``blocks`` holds, one block
    of ORIENT_BLOCK orientations at a time and in kernel order, B (block x
    times) or the rate (block,), read-only, with the block's weights.
    """

    omega_r: float
    times: np.ndarray
    blocks: tuple


def _phase_units(oset: OrientationSet, omega_r: float, t: np.ndarray,
                 fresh: bool = False):
    """(unit, weights) per block of ORIENT_BLOCK orientations, in order.

    The rotor-angle terms, stacked as one (4, times) array, and the
    coefficients of the whole set (or the stationary rates) are taken
    once, up front.  Unless ``fresh``, every spinning block's B is written
    into one buffer that the next block overwrites.
    """
    if omega_r == 0.0:
        rates = coupling_shape(oset.beta, oset.gamma, 0.0)
        for start in range(0, len(oset), ORIENT_BLOCK):
            blk = slice(start, start + ORIENT_BLOCK)
            yield rates[blk], oset.weights[blk, None]
        return
    terms = np.array(rotor_terms(omega_r * t))
    coeffs = np.array(bracket_coefficients(oset.beta, oset.gamma))
    unit_buf = np.empty((min(ORIENT_BLOCK, len(oset)), t.size))
    for start in range(0, len(oset), ORIENT_BLOCK):
        blk = slice(start, start + ORIENT_BLOCK)
        w = oset.weights[blk, None]
        unit = np.empty((len(w), t.size)) if fresh else unit_buf[:len(w)]
        bracket_sum(coeffs[:, blk, None], terms, unit)
        yield unit, w


def phase_table(spin: SpinningParams, times,
                oset: OrientationSet) -> PhaseTable | OrientationSet:
    """Phase units for repeated averages over one set, spin and time array.

    Returns the table when its units fit in PHASE_TABLE_BUDGET bytes, and
    ``oset`` itself otherwise; `averaged_efficiency` gives bit-identical
    results from either.
    """
    t = np.array(times, dtype=float)
    t.flags.writeable = False
    per_orientation = t.size if spin.omega_r != 0.0 else 1
    if len(oset) * per_orientation * t.itemsize > PHASE_TABLE_BUDGET:
        return oset
    blocks = tuple(_phase_units(oset, spin.omega_r, t, fresh=True))
    for unit, _ in blocks:
        unit.flags.writeable = False
    return PhaseTable(spin.omega_r, t, blocks)


def averaged_efficiency(rf: RfScheme, coupling: CouplingParams,
                        spin: SpinningParams, times,
                        source: Orientation | OrientationSet | PhaseTable, *,
                        with_slope: bool = False):
    """Transfer efficiency at the 1-d array ``times``, averaged over
    ``source``, for the coupling tilted by the locks ``rf``.

    ``source`` is an `Orientation` (the one-point set of weight 1), an
    orientation set, whose units are built block by block for this call, or a
    `phase_table` for ``spin`` and ``times``, whose blocks are reused; the
    result is bit-identical either way, and at an `Orientation` is
    `analytic.transfer_efficiency` at the tilted d, whose operations it runs:
    tau = tan(phi/2), u = tau**2 and eta = u/(1 + u), phi/2 being d/2 times a
    block's unit.  With ``with_slope`` returns ``(eta, deta_dd)``, the
    derivative with respect to the untilted d: the tilt times
    (1/2)*sin(phi)*dphi/dd, with (1/2)*sin(phi) = tau/(1 + u) and dphi/dd =
    phi/d taken from the unit, never by dividing by d, so d = 0 is safe; eta
    is bit-identical either way.

    Raises:
        ValueError: for locks off the match (`core.tilt_scale`), or a
            phase table built for another rotor frequency or other times.
    """
    t = np.asarray(times, dtype=float)
    tilt = tilt_scale(rf)
    d, omega_r = tilt * coupling.d, spin.omega_r
    if isinstance(source, Orientation):
        source = OrientationSet(beta=[source.beta], gamma=[source.gamma],
                                weights=[1.0])
    if isinstance(source, PhaseTable):
        if source.omega_r != omega_r or not np.array_equal(source.times, t):
            raise ValueError("phase table was built for another rotor "
                             "frequency or other times")
        units, rows = source.blocks, len(source.blocks[0][1])
    else:
        units = _phase_units(source, omega_r, t)
        rows = min(ORIENT_BLOCK, len(source))
    eta = np.zeros(t.shape)
    slope = np.zeros(t.shape) if with_slope else None
    spinning = omega_r != 0.0
    # dphi/dd = per_d * (bracket, or rate * t when stationary)
    per_d = 1.0 / (2.0 * omega_r) if spinning else 1.0
    # halving is exact, so half_d * unit rounds as half of d * unit
    half_d = 0.5 * (d / (2.0 * omega_r)) if spinning else 0.5 * d
    tau_buf = np.empty((rows, t.size))
    u_buf = np.empty_like(tau_buf)
    den_buf = np.empty_like(tau_buf) if with_slope else None
    for unit, w in units:
        tau = tau_buf[:len(w)]
        if spinning:
            np.multiply(half_d, unit, out=tau)
        else:
            np.multiply.outer(half_d * unit, t, out=tau)
        np.tan(tau, out=tau)
        u = np.multiply(tau, tau, out=u_buf[:len(w)])
        # without the slope, tau is spent once u is formed
        den = np.add(1.0, u, out=den_buf[:len(w)] if with_slope else tau)
        eta += np.einsum("o...,o...->...", w, np.divide(u, den, out=u))
        if with_slope:
            ds = np.divide(tau, den, out=tau)
            ds *= unit if spinning else np.multiply.outer(unit, t)
            slope += np.einsum("o...,o...->...", per_d * w, ds)
    return (eta, tilt * slope) if with_slope else eta


def powder_average(rf: RfScheme, coupling: CouplingParams,
                   spin: SpinningParams, grid: TimeGrid,
                   oset: OrientationSet) -> np.ndarray:
    """Powder-averaged transfer efficiency on a uniform time grid."""
    # bench/tracing.py times the CLI's calls to this by its name
    return averaged_efficiency(rf, coupling, spin, grid.times(), oset)
