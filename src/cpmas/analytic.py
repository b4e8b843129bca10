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
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import (CouplingParams, Orientation, SpinningParams, TimeGrid,
                   dipolar_coupling_at, dipolar_phase)

EFFICIENCY_RANGE_TOL = 1e-12


class CurveKind(enum.Enum):
    """What a sampled curve holds: transfer efficiency or damped magnetization."""

    EFFICIENCY = "efficiency"
    MAGNETIZATION = "magnetization"


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


@dataclass(frozen=True)
class CpCurve:
    """A transfer-efficiency or magnetization trajectory on a uniform grid."""

    grid: TimeGrid
    values: np.ndarray
    kind: CurveKind

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.n_points,):
            raise ValueError(
                f"values shape {values.shape} does not match grid length "
                f"{self.grid.n_points}")
        if self.kind is CurveKind.EFFICIENCY:
            lo, hi = values.min(), values.max()
            if lo < -EFFICIENCY_RANGE_TOL or hi > 1.0 + EFFICIENCY_RANGE_TOL:
                raise ValueError(
                    f"efficiency values out of [0, 1]: min={lo}, max={hi}")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def times(self) -> np.ndarray:
        return self.grid.times()


def transfer_efficiency(coupling: CouplingParams, orient: Orientation,
                        spin: SpinningParams, t):
    """Transfer efficiency eta(t) = (1 - cos(phi(t)))/2 in [0, 1].

    Args:
        t: time in seconds, scalar or ndarray.
    """
    phi = dipolar_phase(coupling, orient, spin, t)
    out = 0.5 * (1.0 - np.cos(phi))
    return out if np.ndim(t) else float(out)


def efficiency_curve(coupling: CouplingParams, orient: Orientation,
                     spin: SpinningParams, grid: TimeGrid) -> CpCurve:
    """eta sampled over a uniform time grid."""
    values = transfer_efficiency(coupling, orient, spin, grid.times())
    return CpCurve(grid=grid, values=values, kind=CurveKind.EFFICIENCY)


def damped_magnetization(times, eta, relax: RelaxationParams) -> np.ndarray:
    """Relaxation-damped magnetization evaluated pointwise.

    M = m0 * {1 - exp(-r*t)/2 - exp(-r1*t)*(1 - 2*eta)/2} * exp(-t/t1rho).
    Shared kernel for curve-level `magnetization` and the fitting model.
    """
    t = np.asarray(times, dtype=float)
    eta = np.asarray(eta, dtype=float)
    bracket = (1.0 - 0.5 * np.exp(-relax.r * t)
               - 0.5 * np.exp(-relax.r1 * t) * (1.0 - 2.0 * eta))
    with np.errstate(over="ignore"):   # t/t1rho = inf decays to exactly 0
        return relax.m0 * bracket * np.exp(-t / relax.t1rho)


def magnetization(eta_curve: CpCurve, relax: RelaxationParams) -> CpCurve:
    """Apply the spin-diffusion / T1rho envelope to an efficiency curve."""
    if eta_curve.kind is not CurveKind.EFFICIENCY:
        raise ValueError("magnetization() requires an efficiency curve, "
                         f"got kind={eta_curve.kind.value}")
    values = damped_magnetization(eta_curve.times(), eta_curve.values, relax)
    return CpCurve(grid=eta_curve.grid, values=values, kind=CurveKind.MAGNETIZATION)


def static_magnetization(coupling: CouplingParams, orient: Orientation,
                         relax: RelaxationParams, grid: TimeGrid) -> CpCurve:
    """Stationary-sample magnetization curve.

    With the rotor stopped the phase grows linearly, phi = d(0)*t, and the
    model reduces to m0*{1 - exp(-r*t)/2 - exp(-r1*t)*cos(d(0)*t)/2}*exp(-t/t1rho).
    Implemented through the general pipeline with omega_r = 0 so the two
    routes agree bit for bit.
    """
    eta = efficiency_curve(coupling, orient, SpinningParams(omega_r=0.0), grid)
    return magnetization(eta, relax)


def orientation_frequency(coupling: CouplingParams, orient: Orientation) -> float:
    """Oscillation angular frequency d(0) of the stationary-sample curve, rad/s."""
    return dipolar_coupling_at(coupling, orient, SpinningParams(omega_r=0.0), 0.0)
