"""Domain types and the dipolar-coupling kernel.

Everything downstream (analytic transfer curves, the density-matrix
propagator, powder averaging, fitting) is driven by two functions of time
defined here: the rotor-modulated heteronuclear dipolar coupling d(t) and
its exact running integral, the accumulated dipolar phase phi(t).  Their
formulas live once, array-native in the angles, in `coupling_shape` and
`phase_bracket`.  Neither depends on d: the powder kernel reads them per
block of orientations, and a fit builds them once for all the d it tries
(`powder.phase_table`).  d(t) has two harmonics of omega_r*t + gamma, so
`phase_bracket` splits by angle addition into four functions of the rotor
angle (`rotor_terms`), which a powder average takes once for all its
orientations, and four coefficients in gamma (`bracket_coefficients`),
taken once per orientation, and summed for every B by `bracket_sum`, one
`np.einsum` over the four; no transcendental is evaluated per
orientation-point.

Off-resonance spin-lock geometry also lives here, in `RfScheme`, as it
only rescales d, by `tilt_scale`, which alone decides where the closed
forms hold: the Hartmann-Hahn match.

Unit convention: all angular frequencies are stored in rad/s, times in
seconds, angles in radians.  User-facing layers (the CLI) convert from
kHz / microseconds / degrees at the boundary.

All functions are pure and all types are immutable; values can be shared
freely across threads or processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class Orientation:
    """Euler angles (beta, gamma) of the dipolar tensor in the rotor-fixed frame.

    beta must lie in [0, pi], gamma in [0, 2*pi).  Only two angles are
    needed: the coupling is invariant under the third Euler rotation.
    """

    beta: float
    gamma: float

    def __post_init__(self):
        if not 0.0 <= self.beta <= math.pi:
            raise ValueError(f"beta must be in [0, pi], got {self.beta}")
        if not 0.0 <= self.gamma < 2.0 * math.pi:
            raise ValueError(f"gamma must be in [0, 2*pi), got {self.gamma}")


@dataclass(frozen=True)
class CouplingParams:
    """Dipolar anisotropy constant d in rad/s.  Negative values are allowed."""

    d: float

    def __post_init__(self):
        if not math.isfinite(self.d):
            raise ValueError(f"coupling constant must be finite, got {self.d}")


@dataclass(frozen=True)
class SpinningParams:
    """Rotor angular frequency omega_r in rad/s.

    omega_r = 0 selects the stationary-sample branch of the dynamics.
    """

    omega_r: float

    def __post_init__(self):
        if not (math.isfinite(self.omega_r) and self.omega_r >= 0.0):
            raise ValueError(f"omega_r must be finite and >= 0, got {self.omega_r}")

    @property
    def rotor_period(self) -> float:
        """2*pi/omega_r in seconds (inf for a stationary sample)."""
        return 2.0 * math.pi / self.omega_r if self.omega_r > 0.0 else math.inf


@dataclass(frozen=True)
class RfScheme:
    """Spin-lock amplitudes omega1_i, omega1_s and resonance offsets
    offset_i, offset_s of the I and S channels (rad/s).

    Properties give each channel's effective field: the magnitude omega1_ie,
    omega1_se = sqrt(offset^2 + omega1^2) and the tilt angle from +z
    theta_i, theta_s = arccos(offset / magnitude), exactly pi/2 on
    resonance.  Raises ValueError for an amplitude not > 0, a field not
    finite, a magnitude that overflows (its tilt angle would read pi/2) or
    a tilt angle that rounds to 0 or pi (the effective field on z).
    """

    omega1_i: float
    omega1_s: float
    offset_i: float = 0.0
    offset_s: float = 0.0

    def __post_init__(self):
        if not (self.omega1_i > 0.0 and self.omega1_s > 0.0):
            raise ValueError("spin-lock amplitudes omega1_i, omega1_s must be > 0")
        for name in ("omega1_i", "omega1_s", "offset_i", "offset_s"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        for name in ("omega1_ie", "omega1_se"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"the effective-field magnitude {name} = "
                                 f"sqrt(offset^2 + omega1^2) overflows "
                                 f"double precision")
        for theta in (self.theta_i, self.theta_s):
            if not 0.0 < theta < math.pi:
                raise ValueError(
                    f"an offset this large against its lock amplitude turns "
                    f"the effective field onto the z axis (tilt angle must "
                    f"be in (0, pi), got {theta})")

    @property
    def omega1_ie(self) -> float:
        return math.hypot(self.offset_i, self.omega1_i)

    @property
    def omega1_se(self) -> float:
        return math.hypot(self.offset_s, self.omega1_s)

    @property
    def theta_i(self) -> float:
        return math.acos(self.offset_i / self.omega1_ie)

    @property
    def theta_s(self) -> float:
        return math.acos(self.offset_s / self.omega1_se)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid t_k = k*dt, k = 0 .. n_points-1."""

    dt: float
    n_points: int

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be finite and > 0, got {self.dt}")
        if self.n_points < 1:
            raise ValueError(f"n_points must be >= 1, got {self.n_points}")

    def times(self) -> np.ndarray:
        """Sample times in seconds, shape (n_points,)."""
        return np.arange(self.n_points) * self.dt

    @property
    def duration(self) -> float:
        return (self.n_points - 1) * self.dt


def _coefficients(beta):
    """c1 = 2*sqrt(2)*sin(2*beta) and c2 = sin(beta)^2."""
    sin_beta = np.sin(beta)
    return 2.0 * SQRT2 * np.sin(2.0 * beta), sin_beta * sin_beta


def coupling_shape(beta, gamma, rotor_angle):
    """d(t)/d = (c1/2)*cos(a) - c2*cos(2a) at a = rotor_angle + gamma.

    ``rotor_angle`` is omega_r*t (0 gives the stationary rate d(0)/d); the
    angles broadcast against each other.
    """
    c1, c2 = _coefficients(beta)
    a = rotor_angle + gamma
    return 0.5 * c1 * np.cos(a) - c2 * np.cos(2.0 * a)


def rotor_terms(rotor_angle):
    """The functions of a0 = ``rotor_angle`` in `phase_bracket`.

    (sin(a0), cos(a0) - 1, sin(2*a0), cos(2*a0) - 1), with
    cos(a0) - 1 = -2*sin(a0/2)^2 and cos(2*a0) - 1 = -2*sin(a0)^2; each has
    the shape of ``rotor_angle``.
    """
    sin_a0 = np.sin(rotor_angle)
    sin_half = np.sin(0.5 * rotor_angle)
    return (sin_a0, -2.0 * sin_half * sin_half, np.sin(2.0 * rotor_angle),
            -2.0 * sin_a0 * sin_a0)


def bracket_coefficients(beta, gamma):
    """The orientation's coefficients of `rotor_terms` in `phase_bracket`.

    (c1*cos(gamma), c1*sin(gamma), -c2*cos(2*gamma), -c2*sin(2*gamma)),
    each of the broadcast shape of the angles.
    """
    c1, c2 = _coefficients(beta)
    return (c1 * np.cos(gamma), c1 * np.sin(gamma),
            -c2 * np.cos(2.0 * gamma), -c2 * np.sin(2.0 * gamma))


def phase_bracket(beta, gamma, rotor_angle):
    """B = c1*[sin(a) - sin(gamma)] - c2*[sin(2a) - sin(2*gamma)].

    With a as in `coupling_shape`, phi = d*B/(2*omega_r) when spinning.  B
    is evaluated in angle-addition form in a0 = ``rotor_angle``:

        B = c1*cos(gamma)*sin(a0) + c1*sin(gamma)*(cos(a0) - 1)
            - c2*cos(2*gamma)*sin(2*a0) - c2*sin(2*gamma)*(cos(2*a0) - 1)

    with cos(a0) - 1 = -2*sin(a0/2)^2 and cos(2*a0) - 1 = -2*sin(a0)^2.
    No difference of nearly equal sines is formed, so B keeps its relative
    accuracy as a0 -> 0, and the only angle rounding left is that of a0.
    The four functions of a0 (`rotor_terms`) depend only on the time and
    the four coefficients (`bracket_coefficients`) only on the
    orientation, so a caller can take each once and form B with
    `bracket_sum`.
    """
    return bracket_sum(bracket_coefficients(beta, gamma),
                       rotor_terms(rotor_angle))


def bracket_sum(coefficients, terms, out=None):
    """B = k0*r0 + k1*r1 + k2*r2 + k3*r3 of `bracket_coefficients` k and
    `rotor_terms` r, into ``out`` when given: every B in the package
    rounds alike.

    One `np.einsum` over the stacked k axis.  Where the times are einsum's
    inner loop (any block with more than one time) it adds the products
    one at a time in k order, each product rounded first (numpy's x86-64
    baseline has no fused multiply-add), as four multiplies and three adds
    would; the sum starts from +0.0, so a B of -0.0 comes out +0.0.  A
    one-element contraction (a scalar time, or one orientation at one
    time) puts k in the inner loop, where einsum adds the products in
    pairs: B then differs from the ordered sum by a rounding or two, within
    4 eps of the sum of the products' magnitudes.
    """
    return np.einsum("k...,k...->...", coefficients, terms, out=out)


def dipolar_coupling_at(coupling: CouplingParams, orient: Orientation,
                        spin: SpinningParams, t):
    """Rotor-modulated dipolar coupling d(t) in rad/s, for ``t`` in seconds
    (scalar or ndarray; the result matches it).

    d(t) = d * [sqrt(2)*sin(2*beta)*cos(omega_r*t + gamma)
                - sin(beta)^2 * cos(2*omega_r*t + 2*gamma)]
    """
    out = coupling.d * coupling_shape(
        orient.beta, orient.gamma, spin.omega_r * np.asarray(t, dtype=float))
    return out if np.ndim(t) else float(out)


def dipolar_phase(coupling: CouplingParams, orient: Orientation,
                  spin: SpinningParams, t):
    """Accumulated dipolar phase phi(t) = integral of d(t') from 0 to t, in rad.

    The exact antiderivative: phi = d*B/(2*omega_r) with B from
    `phase_bracket` for a spinning sample, and phi = d(0)*t for
    omega_r = 0 (an explicit branch, not a small-denominator limit).  phi
    vanishes at every integer multiple of the rotor period (rotor echo).
    ``t`` is in seconds, scalar or ndarray.
    """
    tt = np.asarray(t, dtype=float)
    if spin.omega_r == 0.0:
        out = coupling.d * coupling_shape(orient.beta, orient.gamma, 0.0) * tt
    else:
        out = (coupling.d / (2.0 * spin.omega_r)) * phase_bracket(
            orient.beta, orient.gamma, spin.omega_r * tt)
    return out if np.ndim(t) else float(out)


# The closed forms hold at the Hartmann-Hahn match: `tilt_scale` refuses
# effective lock fields that differ by more than this share of their sum.
# Equal amplitudes with equal offsets match exactly.
MATCH_TOL = 1e-9


def tilt_scale(rf: RfScheme) -> float:
    """sin(theta_i)*sin(theta_s), the factor on d for tilted spin locks.

    Only the transfer-driving perpendicular part of the tilted-frame dipolar
    interaction is kept; the parallel part is a small perturbation and is
    dropped.  On resonance the factor is exactly 1.  Raises ValueError,
    naming w1I,e - w1S,e in kHz, off the match by more than MATCH_TOL.
    """
    delta = rf.omega1_ie - rf.omega1_se
    # scaled one by one: the sum of two finite fields may overflow
    if abs(delta) > MATCH_TOL * rf.omega1_ie + MATCH_TOL * rf.omega1_se:
        raise ValueError(
            f"the effective lock fields are off the Hartmann-Hahn match by "
            f"w1I,e - w1S,e = {delta / (2.0 * math.pi * 1e3):.6g} kHz, more "
            f"than {MATCH_TOL:g} of their sum; the closed form holds only at "
            f"the match (`oracle` propagates any locks)")
    return math.sin(rf.theta_i) * math.sin(rf.theta_s)
