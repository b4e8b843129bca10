"""Closed-form cross-polarization dynamics.

Under a Hartmann-Hahn matched spin lock the zero-quantum part of the
two-spin problem rotates by exactly the accumulated dipolar phase phi(t),
while the double-quantum part is pinned by the strong RF sum field.  The
transfer efficiency is therefore

    eta(t) = (1 - cos(phi(t))) / 2,

normalized to [0, 1] so that it is directly comparable to the reference
propagator's <S_y>/<I_y>(0) and so that the relaxation-damped magnetization
model

    M(t) = M0 * {1 - exp(-R*t)/2 - exp(-R1*t)*(1 - 2*eta(t))/2} * exp(-t/T1rho)

reduces to the classic stationary-sample result (cosine oscillation under
the same envelope) when the spinning is switched off.

Curves are plain arrays over sample times.  `efficiency_curve` and
`magnetization` are the command line's uniform-grid forms of
`transfer_efficiency` and `damped_magnetization`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (CouplingParams, Orientation, SpinningParams, TimeGrid,
                   dipolar_phase)


@dataclass(frozen=True)
class RelaxationParams:
    """Phenomenological damping of the transfer curve.

    Attributes:
        m0: full equilibrium amplitude (dimensionless, > 0).
        r: polarization inflow rate from remote I spins, 1/s.
        r1: damping rate of the coherent transfer oscillation, 1/s.
        t1rho: rotating-frame relaxation time in seconds; ``math.inf``
            disables the envelope decay entirely.
    """

    m0: float = 1.0
    r: float = 0.0
    r1: float = 0.0
    t1rho: float = math.inf

    def __post_init__(self):
        if not (math.isfinite(self.m0) and self.m0 > 0.0):
            raise ValueError(f"m0 must be finite and > 0, got {self.m0}")
        if not (0.0 <= self.r < math.inf and 0.0 <= self.r1 < math.inf):
            raise ValueError(f"rates r and r1 must be finite and >= 0, got "
                             f"r={self.r}, r1={self.r1}")
        if not self.t1rho > 0.0:
            raise ValueError(f"t1rho must be > 0 (inf allowed), got {self.t1rho}")


def transfer_efficiency(coupling: CouplingParams, orient: Orientation,
                        spin: SpinningParams, t):
    """Transfer efficiency eta(t) = (1 - cos(phi(t)))/2 in [0, 1].

    Evaluated from the tangent half-angle as eta = u/(1 + u) with
    u = tan(phi/2)**2: one tan per point, which numpy vectorises on
    AVX-512 CPUs, where its float64 cos is a scalar libm call.  The result
    stays in [0, 1] for every finite phi, and
    `powder.averaged_efficiency` runs the same operations.

    Args:
        t: time in seconds, scalar or ndarray.
    """
    tau = np.tan(0.5 * dipolar_phase(coupling, orient, spin, t))
    u = tau * tau
    out = u / (1.0 + u)
    return out if np.ndim(t) else float(out)


def efficiency_curve(coupling: CouplingParams, orient: Orientation,
                     spin: SpinningParams, grid: TimeGrid) -> np.ndarray:
    """eta sampled over a uniform time grid."""
    # bench/tracing.py times the CLI's calls to this by its name
    return transfer_efficiency(coupling, orient, spin, grid.times())


def damped_magnetization(times, eta, relax: RelaxationParams) -> np.ndarray:
    """Relaxation-damped magnetization evaluated pointwise.

    M = m0 * {1 - exp(-r*t)/2 - exp(-r1*t)*(1 - 2*eta)/2} * exp(-t/t1rho).
    Shared kernel for the grid form `magnetization` and the fitting model;
    m0 multiplies last, so M is m0 times the m0 = 1 curve bit for bit.
    """
    t = np.asarray(times, dtype=float)
    eta = np.asarray(eta, dtype=float)
    bracket = (1.0 - 0.5 * np.exp(-relax.r * t)
               - 0.5 * np.exp(-relax.r1 * t) * (1.0 - 2.0 * eta))
    with np.errstate(over="ignore"):   # t/t1rho = inf decays to exactly 0
        return relax.m0 * (bracket * np.exp(-t / relax.t1rho))


def magnetization(grid: TimeGrid, eta, relax: RelaxationParams) -> np.ndarray:
    """Apply the spin-diffusion / T1rho envelope to eta on a uniform grid."""
    # bench/tracing.py times the CLI's calls to this by its name
    return damped_magnetization(grid.times(), eta, relax)
