"""Reference density-matrix propagator for the two-spin problem.

Propagates the full time-dependent Hamiltonian

    H(t) = omega1_i*I_y + omega1_s*S_y + offset_i*I_z + offset_s*S_z + 2*d(t)*I_z*S_z

in the 4-dimensional product space exactly (piecewise-constant midpoint
Hamiltonians, unitaries from Hermitian eigendecomposition), independent of
every closed-form result in `analytic`.  It is the ground truth the
analytic curves are validated against.

One core serves both the full-space and the block-wise propagation: the
midpoint Hamiltonians of all substeps are built as one stack and
exponentiated in one batched call, the substep unitaries of each grid
interval are multiplied together (batched over intervals), and the state
is then stepped once per grid point.

Conventions: spin-1/2 operator matrices (eigenvalues +-1/2), product basis
|aa>, |ab>, |ba>, |bb> with the I spin first.  Tr(I_y @ I_y) = 1 in this
space, so for rho(0) = I_y the raw traces <S_y> = Tr(S_y @ rho) start at 0,
reach 1 at full transfer, and are directly comparable to the analytic
efficiency.

The zero-/double-quantum decomposition (the commuting 2x2 blocks of the
y-quantized basis) is exposed both for structural tests and for block-wise
propagation, which projects the full Hamiltonian stack onto each block and
exponentiates the blocks on their own.  Fictitious spin-1/2 axes within
each block are labeled so that sigma_y is the spin-lock (sum/difference)
direction and sigma_z is the coupling direction:

    sigma_y_zq = (I_y - S_y)/2      sigma_y_dq = (I_y + S_y)/2
    sigma_z_zq = ZQ part of 2*I_z*S_z,  sigma_z_dq = DQ part of 2*I_z*S_z
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (CouplingParams, EffectiveField, Orientation, RfScheme,
                   SpinningParams, TimeGrid, dipolar_coupling_at,
                   effective_field)

HERMITICITY_TOL = 1e-12

# Minimum sampling of the fastest coherent frequency by the midpoint rule.
STEPS_PER_FASTEST_PERIOD = 50

# Most substeps in one propagation.  Every substep's Hamiltonian and
# unitary are held at once (~1 KiB per substep at peak), so this bounds a
# propagation at ~1 GiB and is checked before anything is allocated.
MAX_SUBSTEPS = 10**6


def _spin_half():
    sx = 0.5 * np.array([[0, 1], [1, 0]], dtype=complex)
    sy = 0.5 * np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = 0.5 * np.array([[1, 0], [0, -1]], dtype=complex)
    return sx, sy, sz


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


_SX, _SY, _SZ = _spin_half()
_E2 = np.eye(2, dtype=complex)

IX = _frozen(np.kron(_SX, _E2))
IY = _frozen(np.kron(_SY, _E2))
IZ = _frozen(np.kron(_SZ, _E2))
SX = _frozen(np.kron(_E2, _SX))
SY = _frozen(np.kron(_E2, _SY))
SZ = _frozen(np.kron(_E2, _SZ))
IZSZ = _frozen(IZ @ SZ)

# Double-quantum spin-lock component (I_y + S_y)/2; near-constant of motion
# under a strong matched lock.
DQ_Y = _frozen(0.5 * (IY + SY))
ZQ_Y = _frozen(0.5 * (IY - SY))

# Columns are the y-quantized product kets |+y+y>, |+y-y>, |-y+y>, |-y-y>.
_V1 = np.array([[1.0, 1.0], [1.0j, -1.0j]], dtype=complex) / math.sqrt(2.0)
Y_BASIS = _frozen(np.kron(_V1, _V1))
_DQ_IDX = (0, 3)
_ZQ_IDX = (1, 2)


def _in_y_basis(op) -> np.ndarray:
    """An operator, or a stack of them, in the y-quantized basis."""
    return Y_BASIS.conj().T @ np.asarray(op, dtype=complex) @ Y_BASIS


def _block(op_y: np.ndarray, idx) -> np.ndarray:
    """The (idx, idx) 2x2 block of a y-basis operator or stack."""
    return op_y[..., idx, :][..., idx]


@dataclass(frozen=True)
class Trajectory:
    """Expectation values along one propagation.

    sy, iy: <S_y>, <I_y> per grid point; dq_y: the double-quantum lock
    component <(I_y + S_y)/2>.  With rho(0) = I_y these satisfy iy[0] = 1
    and |sy| <= 1 under the trace convention of this module.
    """

    grid: TimeGrid
    sy: np.ndarray
    iy: np.ndarray
    dq_y: np.ndarray

    def __post_init__(self):
        for name in ("sy", "iy", "dq_y"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (self.grid.n_points,):
                raise ValueError(f"{name} length does not match grid")
            object.__setattr__(self, name, _frozen(arr.copy()))


def hamiltonian_at(rf: RfScheme, coupling: CouplingParams, orient: Orientation,
                   spin: SpinningParams, t) -> np.ndarray:
    """Full 4x4 Hamiltonian at time t (Hermitian, rad/s).

    Args:
        t: time in seconds, scalar or 1-d array.

    Returns:
        A (4, 4) matrix for scalar ``t``, an (n, 4, 4) stack for n times.
    """
    d_t = np.asarray(dipolar_coupling_at(coupling, orient, spin, t))
    h0 = (rf.omega1_i * IY + rf.omega1_s * SY
          + rf.offset_i * IZ + rf.offset_s * SZ)
    return h0 + (2.0 * d_t)[..., None, None] * IZSZ


def matrix_exponential_step(h: np.ndarray, dt: float) -> np.ndarray:
    """Unitary exp(-i*h*dt) of a Hermitian matrix via eigendecomposition.

    ``h`` may be one (n, n) matrix or a (..., n, n) stack; the result has
    the same shape.

    Raises:
        ValueError: if ``h`` is not Hermitian within 1e-12 (max elementwise
            asymmetry over the stack).
    """
    h = np.asarray(h, dtype=complex)
    asym = np.max(np.abs(h - np.swapaxes(h, -1, -2).conj()), initial=0.0)
    if asym > HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian (asymmetry {asym:.3e})")
    evals, evecs = np.linalg.eigh(h)
    phases = np.exp(-1j * evals * dt)
    return np.einsum("...ij,...j,...kj->...ik", evecs, phases, evecs.conj())


def required_substeps(rf: RfScheme, spin: SpinningParams, dt: float) -> int:
    """Minimum substeps per grid interval for the documented stability rule.

    The substep must resolve the fastest coherent frequency - the sum of
    the effective spin-lock fields or twice the rotor frequency, whichever
    is larger - with at least ``STEPS_PER_FASTEST_PERIOD`` steps per period.

    Raises:
        ValueError: if that is more than ``MAX_SUBSTEPS`` (an overflowing
            lock field counts as infinitely many).
    """
    eff = effective_field(rf)
    omega_fast = max(eff.omega1_ie + eff.omega1_se, 2.0 * spin.omega_r)
    max_step = 2.0 * math.pi / (STEPS_PER_FASTEST_PERIOD * omega_fast)
    steps = dt / max_step - 1e-9 if max_step > 0.0 else math.inf
    if steps > MAX_SUBSTEPS:
        raise ValueError(
            f"the step-size rule needs {steps:.3g} substeps per grid "
            f"interval, more than the limit of {MAX_SUBSTEPS} per propagation")
    return max(1, math.ceil(steps))


def _substep_midpoints(rf: RfScheme, spin: SpinningParams, grid: TimeGrid,
                       substeps: int | None) -> tuple[int, float, np.ndarray]:
    """Checked substep count, substep length and every substep midpoint time."""
    needed = required_substeps(rf, spin, grid.dt)
    if substeps is None:
        substeps = needed
    elif substeps < needed:
        raise ValueError(
            f"substeps={substeps} violates the step-size rule for this grid; "
            f"at least {needed} substeps per grid interval are required")
    total = (grid.n_points - 1) * substeps
    if total > MAX_SUBSTEPS:
        raise ValueError(
            f"{total} substeps ({grid.n_points - 1} grid intervals x "
            f"{substeps}) exceed the limit of {MAX_SUBSTEPS} per propagation")
    dt_sub = grid.dt / substeps
    t_mid = (np.arange(total) + 0.5) * dt_sub
    return substeps, dt_sub, t_mid


def _propagate_stack(hs: np.ndarray, dt_sub: float, substeps: int,
                     rho0: np.ndarray, observables) -> np.ndarray:
    """Tr(O @ rho) per grid point under the substep Hamiltonians ``hs``.

    ``hs`` holds ``substeps`` midpoint Hamiltonians per grid interval in
    time order.  Each interval's substep unitaries are multiplied together
    (batched over intervals), so the state is stepped once per grid point.
    """
    n = hs.shape[-1]
    steps = matrix_exponential_step(hs, dt_sub).reshape(-1, substeps, n, n)
    u = steps[:, 0]
    for k in range(1, substeps):
        u = steps[:, k] @ u
    u_dag = np.swapaxes(u, -1, -2).conj()
    rhos = np.empty((len(u) + 1, n, n), dtype=complex)
    rhos[0] = rho0
    for i in range(len(u)):
        rhos[i + 1] = u[i] @ rhos[i] @ u_dag[i]
    obs = np.asarray(observables, dtype=complex)
    return np.einsum("oij,nji->on", obs, rhos).real


def propagate_expectations(rho0: np.ndarray, observables,
                           rf: RfScheme, coupling: CouplingParams,
                           orient: Orientation, spin: SpinningParams,
                           grid: TimeGrid, substeps: int | None = None
                           ) -> np.ndarray:
    """Propagate rho0 over the grid and record Tr(O @ rho) for each observable.

    Each grid interval is subdivided into ``substeps`` piecewise-constant
    steps with the Hamiltonian sampled at the substep midpoint
    (second-order accurate, exactly unitary).  ``substeps=None`` picks the
    smallest count satisfying `required_substeps`.

    Returns:
        Real array of shape (len(observables), grid.n_points).

    Raises:
        ValueError: if an explicit ``substeps`` violates the step-size rule
            (the message names the required count), or the propagation
            would take more than ``MAX_SUBSTEPS`` substeps in all.
    """
    substeps, dt_sub, t_mid = _substep_midpoints(rf, spin, grid, substeps)
    hs = hamiltonian_at(rf, coupling, orient, spin, t_mid)
    return _propagate_stack(hs, dt_sub, substeps, rho0, observables)


def propagate(rho0: np.ndarray, rf: RfScheme, coupling: CouplingParams,
              orient: Orientation, spin: SpinningParams, grid: TimeGrid,
              substeps: int | None = None) -> Trajectory:
    """Full-space propagation recording <S_y>, <I_y> and the DQ lock component."""
    out = propagate_expectations(rho0, (SY, IY, DQ_Y), rf, coupling, orient,
                                 spin, grid, substeps)
    return Trajectory(grid=grid, sy=out[0], iy=out[1], dq_y=out[2])


def propagate_blockwise(rho0: np.ndarray, rf: RfScheme,
                        coupling: CouplingParams, orient: Orientation,
                        spin: SpinningParams, grid: TimeGrid,
                        substeps: int | None = None) -> np.ndarray:
    """<S_y> from separate ZQ/DQ 2x2 block propagation (on-resonance only).

    On resonance the Hamiltonian is block diagonal in the y-quantized basis
    ([H_zq, H_dq] = 0), so evolving the two 2x2 blocks independently must
    reproduce the full 4x4 propagation; this provides the structural
    cross-check of that claim.  Each block of the full Hamiltonian stack is
    exponentiated and propagated on its own.

    Raises:
        ValueError: for nonzero offsets (which couple the blocks), an
            explicit ``substeps`` that violates the step-size rule, or more
            than ``MAX_SUBSTEPS`` substeps in all.
    """
    if rf.offset_i != 0.0 or rf.offset_s != 0.0:
        raise ValueError("block-wise propagation requires zero offsets")
    substeps, dt_sub, t_mid = _substep_midpoints(rf, spin, grid, substeps)
    h_y = _in_y_basis(hamiltonian_at(rf, coupling, orient, spin, t_mid))
    rho_y, sy_y = _in_y_basis(rho0), _in_y_basis(SY)
    return sum(_propagate_stack(_block(h_y, idx), dt_sub, substeps,
                                _block(rho_y, idx), [_block(sy_y, idx)])[0]
               for idx in (_ZQ_IDX, _DQ_IDX))


@dataclass(frozen=True)
class ZqDqComponents:
    """ZQ/DQ 2x2 blocks of an operator plus fictitious spin-1/2 coefficients.

    Coefficients are ordered (c_x, c_y, c_z, c_1) against the fictitious
    axes documented in the module docstring; c_1 multiplies the block
    identity.  ``remainder_norm`` is the max magnitude of the operator's
    elements outside the two blocks (0 for block-supported operators).
    """

    zq: np.ndarray
    dq: np.ndarray
    zq_coeffs: tuple[float, float, float, float]
    dq_coeffs: tuple[float, float, float, float]
    remainder_norm: float

    def recompose(self) -> np.ndarray:
        """Embed the blocks back into the 4x4 product-basis operator."""
        opy = np.zeros((4, 4), dtype=complex)
        opy[np.ix_(_ZQ_IDX, _ZQ_IDX)] = self.zq
        opy[np.ix_(_DQ_IDX, _DQ_IDX)] = self.dq
        return Y_BASIS @ opy @ Y_BASIS.conj().T


# Fictitious axes expressed in the within-block matrix basis: the physical
# axis labels (x, y, z) map to block matrices (e_y, e_z, e_x) so that the
# spin-lock direction stays "y" and the coupling direction is "z"; the
# cyclic relabeling keeps [s_x, s_y] = i*s_z.
_BLOCK_X = 0.5 * np.array([[0, -1j], [1j, 0]], dtype=complex)
_BLOCK_Y = 0.5 * np.array([[1, 0], [0, -1]], dtype=complex)
_BLOCK_Z = 0.5 * np.array([[0, 1], [1, 0]], dtype=complex)


def fictitious_operator(space: str, axis: str) -> np.ndarray:
    """Fictitious spin-1/2 operator embedded in the 4x4 product basis.

    Args:
        space: "zq" or "dq".
        axis: "x", "y", "z" or "1" (block identity).
    """
    block = {"x": _BLOCK_X, "y": _BLOCK_Y, "z": _BLOCK_Z,
             "1": np.eye(2, dtype=complex)}[axis]
    idx = {"zq": _ZQ_IDX, "dq": _DQ_IDX}[space]
    opy = np.zeros((4, 4), dtype=complex)
    opy[np.ix_(idx, idx)] = block
    return Y_BASIS @ opy @ Y_BASIS.conj().T


def _block_coeffs(block: np.ndarray) -> tuple[float, float, float, float]:
    c_x = 2.0 * np.trace(block @ _BLOCK_X)
    c_y = 2.0 * np.trace(block @ _BLOCK_Y)
    c_z = 2.0 * np.trace(block @ _BLOCK_Z)
    c_1 = 0.5 * np.trace(block)
    return (complex(c_x).real, complex(c_y).real,
            complex(c_z).real, complex(c_1).real)


def zq_dq_decompose(op: np.ndarray) -> ZqDqComponents:
    """Project a 4x4 operator onto its ZQ and DQ blocks.

    For Hermitian operators supported on the blocks (every Hamiltonian this
    module builds on resonance, and rho(0) = I_y), ``recompose()``
    reproduces the input and ``remainder_norm`` is ~0.
    """
    opy = _in_y_basis(op)
    zq = _block(opy, _ZQ_IDX)
    dq = _block(opy, _DQ_IDX)
    mask = np.ones((4, 4), dtype=bool)
    mask[np.ix_(_ZQ_IDX, _ZQ_IDX)] = False
    mask[np.ix_(_DQ_IDX, _DQ_IDX)] = False
    remainder = float(np.max(np.abs(opy[mask])))
    return ZqDqComponents(zq=_frozen(zq), dq=_frozen(dq),
                          zq_coeffs=_block_coeffs(zq),
                          dq_coeffs=_block_coeffs(dq),
                          remainder_norm=remainder)


def dq_constancy_report(traj: Trajectory) -> float:
    """Max excursion of the DQ lock component from its initial value."""
    return float(np.max(np.abs(traj.dq_y - traj.dq_y[0])))


def tilted_spin_operators(eff: EffectiveField) -> tuple[np.ndarray, np.ndarray]:
    """I and S spin operators along their tilted effective-field axes.

    Off resonance the lock axis tilts toward +z; polarization starts along
    the I effective field and builds up along the S effective field, so
    these are the natural initial state and observable for off-resonance
    propagation.
    """
    i_e = math.sin(eff.theta_i) * IY + math.cos(eff.theta_i) * IZ
    s_e = math.sin(eff.theta_s) * SY + math.cos(eff.theta_s) * SZ
    return i_e, s_e
