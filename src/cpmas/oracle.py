"""Reference density-matrix propagator for the two-spin problem.

Propagates the full time-dependent Hamiltonian

    H(t) = omega1_i*I_y + omega1_s*S_y + offset_i*I_z + offset_s*S_z + 2*d(t)*I_z*S_z

in the 4-dimensional product space exactly (piecewise-constant midpoint
Hamiltonians, exactly-unitary substeps), independent of every closed-form
result in `analytic`.  It is the ground truth the analytic curves are
validated against.

The full-space propagation runs in the frame rotated by
R = exp(-i*pi/2*(I_z + S_z)), which is diagonal in the product basis and
takes I_y -> -I_x and S_y -> -S_x while leaving I_z, S_z and I_z*S_z
alone, so every substep Hamiltonian there is real symmetric for any locks
and offsets.  There H(t) = H0 + 2*d(t)*I_z*S_z with H0 fixed, so the
substep unitaries all lie on one curve in the scalar d(t): a substep
table (`_substep_table`) exponentiates the Hamiltonians at a few
Chebyshev points of the coupling range once per propagation, by
`cos_sin_step` (a Taylor series in (H*dt)**2 with scaling and squaring,
no eigendecomposition), and evaluates every substep as a Chebyshev
series in d(t), exact to round-off.  rho(0) and the observables are
rotated once per propagation; Tr(O @ rho) is the same in either frame.
The block-wise (ZQ/DQ) propagation exponentiates
its complex 2x2 blocks by `eigh` (`matrix_exponential_step`), so the
cross-check between the two is independent in its exponential as well as
in its block structure.

One core serves both and runs in real arithmetic: a complex n x n matrix
M is carried as its real embedding [[Re M, -Im M], [Im M, Re M]], under
which products stay products.  Per block of about SUBSTEP_BLOCK
substeps, the substep unitaries at the midpoint times are formed in one
batched call and those of each grid interval multiplied together
(batched over intervals).  A two-level prefix scan (`_scan`) over the
interval unitaries turns them into propagators from t = 0 in about two
products per grid point, each propagator gives its state, and
Tr(O @ rho) = Tr(emb(O) @ emb(rho))/2 is read off the states.  Only the
top half [Re P | -Im P] of each propagator's embedding is kept, in one
array that the scan updates in place, so memory is n x 2n reals per grid
point (256 B for n = 4, as a complex 4x4) plus the temporaries of one
block, and does not grow with the substeps per interval.  A whole
full-space propagation takes about 0.4 us per substep on inputs of 200-1000
grid points (a 2-vCPU Xeon, numpy 2.4.6): forming and composing the
substeps ~57% of it, the readout ~19%, the scan ~14%, the table ~10%.

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

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (CouplingParams, EffectiveField, Orientation, RfScheme,
                   SpinningParams, TimeGrid, _coefficients,
                   dipolar_coupling_at, effective_field)

HERMITICITY_TOL = 1e-12

# Minimum sampling of the fastest coherent frequency by the midpoint rule.
STEPS_PER_FASTEST_PERIOD = 50

# Most substeps in one propagation (a Chebyshev series from the substep
# table and one real 8x8 product each, about 0.4 us a substep with the rest
# of the work), checked before any work: it bounds the work of a
# propagation, not its memory, which grows with the grid points.
MAX_SUBSTEPS = 10**6

# Substeps held at once (~0.6 KiB of temporaries each): whole grid intervals
# up to this many, and an interval with more in chunks of this size.  The
# scan and the readout also take about this many grid points at a time.
# On the `oracle-compare` benchmark, with the two-level scan, 1024 read a
# lower median latency than 512 and 2048 in 3 of 3 pairs each (by 10-13%
# and 5-10%).
SUBSTEP_BLOCK = 1024


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


_SX = 0.5 * np.array([[0, 1], [1, 0]], dtype=complex)
_SY = 0.5 * np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = 0.5 * np.array([[1, 0], [0, -1]], dtype=complex)
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


# Product-basis operators of the Hamiltonian's terms, and the same terms in
# the real frame: R @ op @ R^dagger with R = diag(_FRAME).
_TERMS = (IY, SY, IZ, SZ, IZSZ)
# exp(-i*pi/2*(m_I + m_S)) for |aa>, |ab>, |ba>, |bb>
_FRAME = _frozen(np.array([-1j, 1.0, 1.0, 1j]))


def _to_real_frame(op) -> np.ndarray:
    """R @ op @ R^dagger, for an operator or a stack of them."""
    return _FRAME[:, None] * np.asarray(op, dtype=complex) * _FRAME.conj()


_REAL_TERMS = tuple(_frozen(_to_real_frame(op).real) for op in _TERMS)


def _lock_hamiltonian(terms, rf: RfScheme) -> np.ndarray:
    """The time-independent part of H (locks and offsets) from ``terms``."""
    iy, sy, iz, sz, _ = terms
    return (rf.omega1_i * iy + rf.omega1_s * sy
            + rf.offset_i * iz + rf.offset_s * sz)


def _hamiltonian(terms, rf: RfScheme, coupling: CouplingParams,
                 orient: Orientation, spin: SpinningParams, t) -> np.ndarray:
    """H(t) from the operators ``terms``: I_y, S_y, I_z, S_z and I_z*S_z."""
    d_t = np.asarray(dipolar_coupling_at(coupling, orient, spin, t))
    return (_lock_hamiltonian(terms, rf)
            + (2.0 * d_t)[..., None, None] * terms[4])


def hamiltonian_at(rf: RfScheme, coupling: CouplingParams, orient: Orientation,
                   spin: SpinningParams, t) -> np.ndarray:
    """Full 4x4 Hamiltonian at time t (Hermitian, rad/s), product basis.

    Args:
        t: time in seconds, scalar or 1-d array.

    Returns:
        A (4, 4) matrix for scalar ``t``, an (n, 4, 4) stack for n times.
    """
    return _hamiltonian(_TERMS, rf, coupling, orient, spin, t)


def _check_hermitian(h: np.ndarray) -> None:
    h_t = np.swapaxes(h, -1, -2)
    asym = np.max(np.abs(h - (h_t.conj() if np.iscomplexobj(h) else h_t)),
                  initial=0.0)
    if asym > HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian (asymmetry {asym:.3e})")


def matrix_exponential_step(h: np.ndarray, dt: float) -> np.ndarray:
    """Unitary exp(-i*h*dt) of a Hermitian matrix via eigendecomposition.

    ``h`` may be one (n, n) matrix or a (..., n, n) stack; the result has
    the same shape.  Real input stays real until the phases: it is checked
    for symmetry and decomposed by a real ``eigh``, and the unitary
    (V * exp(-i*lambda*dt)) @ V^T is formed by batched matmul.  This is the
    exponential of the block-wise propagation; the full-space one is
    `cos_sin_step`.

    Raises:
        ValueError: if ``h`` is not Hermitian within 1e-12 (max elementwise
            asymmetry over the stack).
    """
    h = np.asarray(h)
    h = h.astype(complex if np.iscomplexobj(h) else float, copy=False)
    _check_hermitian(h)
    evals, evecs = np.linalg.eigh(h)
    evecs = evecs.astype(complex, copy=False)
    phases = np.exp(-1j * evals * dt)
    return (evecs * phases[..., None, :]) @ np.swapaxes(evecs.conj(), -1, -2)


# cos_sin_step sums the Taylor series of cos X and sin X/X as polynomials of
# degree 6 in Y = X @ X.  For ||X||_inf <= _TAYLOR_NORM the first omitted
# term, X**14/14!, is below 5e-18.
_TAYLOR_NORM = 0.35
# Each doubling doubles the round-off; past 26 of them (2**26 * 1.1e-16 ~
# 7e-9) cos_sin_step refuses the matrix rather than return it inaccurate.
_TAYLOR_MAX_NORM = _TAYLOR_NORM * 2.0**26


def _taylor_rows(odd: int) -> list[list[float]]:
    """Series coefficients of cos X (odd = 0) or sin X/X (odd = 1) against
    the powers (1, Y, Y^2, Y^3): those of Y^0 to Y^3, then those that the
    product with Y^3 takes to Y^4 to Y^6."""
    c = [(-1) ** k / math.factorial(2 * k + odd) for k in range(7)]
    return [c[:4], [0.0, *c[4:]]]


_TAYLOR_COEFFS = _frozen(np.array(_taylor_rows(0) + _taylor_rows(1)))


def _halvings(x: np.ndarray) -> np.ndarray:
    """The fewest halvings that take each ||X||_inf of the (m, n, n) stack
    ``x`` below _TAYLOR_NORM.

    Raises:
        ValueError: if a norm is not finite or exceeds _TAYLOR_MAX_NORM.
    """
    # row sums of |X| by elementwise adds, which are faster than sums along
    # a short axis and the same in any stack
    ax = np.abs(x)
    rows = sum(ax[..., k] for k in range(x.shape[-1]))
    top = rows.max(initial=0.0)
    if not top <= _TAYLOR_MAX_NORM:
        raise ValueError(
            f"||h*dt||_inf = {top:.3g} exceeds {_TAYLOR_MAX_NORM:.3g}, "
            "beyond which the Taylor exponential loses accuracy")
    # a stack whose norms are all below _TAYLOR_NORM skips the scaling
    if top < _TAYLOR_NORM:
        return np.zeros(len(x), dtype=int)
    norm = functools.reduce(np.maximum, np.swapaxes(rows, 0, 1))
    return np.maximum(np.frexp(norm / _TAYLOR_NORM)[1], 0)


def cos_sin_step(h: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """cos(h*dt) and sin(h*dt) of a real symmetric h, without eigh.

    exp(-i*h*dt) = c - 1j*s.  ``h`` may be one (n, n) matrix or a
    (..., n, n) stack; c and s have its shape.  Each matrix X = h*dt is
    halved s times, the fewest that take ||X||_inf below 0.35, so the
    truncated Taylor series is exact to round-off; the results are then
    doubled back s times by cos 2x = (c - s)(c + s) and sin 2x = 2cs.  s
    is chosen per matrix, so a matrix's result does not depend on the
    stack it is in.  Six real n x n matrix products per matrix, plus two
    per doubling.  Round-off doubles with each doubling, to about
    1e-16*||X||_inf beyond ||X||_inf = 0.35.

    Raises:
        ValueError: if ``h`` is not symmetric within 1e-12 (max elementwise
            asymmetry over the stack), or ||h*dt||_inf is not finite or
            exceeds 0.35 * 2**26 (2.3e7).
    """
    h = np.asarray(h, dtype=float)
    _check_hermitian(h)
    n = h.shape[-1]
    x = (h * dt).reshape(-1, n, n)
    halvings = _halvings(x)
    if halvings.any():
        x = np.ldexp(x, -halvings[:, None, None])
    # powers[p] = Y**p
    powers = np.empty((4, *x.shape))
    powers[0] = np.eye(n)
    np.matmul(x, x, out=powers[1])
    np.matmul(powers[1], powers[1], out=powers[2])
    np.matmul(powers[1], powers[2], out=powers[3])
    cos_lo, cos_hi, sinc_lo, sinc_hi = (
        _TAYLOR_COEFFS @ powers.reshape(4, -1)).reshape(powers.shape)
    c = cos_lo + powers[3] @ cos_hi
    s = x @ (sinc_lo + powers[3] @ sinc_hi)
    for k in range(int(halvings.max(initial=0))):
        i = np.nonzero(halvings > k)[0]
        ci, si = c[i], s[i]
        c[i] = (ci - si) @ (ci + si)
        s[i] = (2.0 * ci) @ si
    return c.reshape(h.shape), s.reshape(h.shape)


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


def _embedding(re: np.ndarray, neg_im: np.ndarray) -> np.ndarray:
    """Real embedding [[Re M, -Im M], [Im M, Re M]] of the complex stack
    M = re - 1j*neg_im, from its top half [re | neg_im]."""
    n = re.shape[-1]
    out = np.empty((*re.shape[:-2], 2 * n, 2 * n))
    out[..., :n, :n] = re
    out[..., n:, n:] = re
    out[..., :n, n:] = neg_im
    np.negative(neg_im, out=out[..., n:, :n])
    return out


def _embedding_of_top(top: np.ndarray) -> np.ndarray:
    """`_embedding` of a stack of top halves [Re M | -Im M], in three
    copies rather than four."""
    n = top.shape[-2]
    out = np.empty((*top.shape[:-2], 2 * n, 2 * n))
    out[..., :n, :] = top
    np.negative(top[..., n:], out=out[..., n:, :n])
    out[..., n:, n:] = top[..., :n]
    return out


# The substep table interpolates to within this bound (in the 2-norm) before
# round-off.
_TABLE_ERROR = 2.0**-56


def _table_degree(a: float) -> int:
    """Smallest Chebyshev degree n with a**(n+1)/(2**n*(n+1)!) <= 2**-56.

    That is the interpolation error bound at the n+1 Chebyshev points for a
    function of x in [-1, 1] whose k-th derivative is bounded by a**k.
    """
    n = 0
    while a ** (n + 1) / (2.0**n * math.factorial(n + 1)) > _TABLE_ERROR:
        n += 1
    return n


def _substep_table(rf: RfScheme, coupling: CouplingParams,
                   orient: Orientation, spin: SpinningParams, dt: float):
    """``steps(t)``: the embedded real-frame substep unitaries
    exp(-i*H(t)*dt) for substep midpoint times t, from a table in d(t).

    In the real frame H(t) = H0 + c*Z with H0 the locks and offsets,
    Z = I_z*S_z and c = 2*d(t), so every substep unitary is a point on the
    curve U(c) = exp(-i*(H0 + c*Z)*dt) of one scalar.  |c| <= w =
    2|d|*(|c1|/2 + c2), so with c = w*x for x in [-1, 1] the k-th
    derivative in x is bounded by a**k, a = w*dt*||Z||_2 = w*dt/4; the
    table exponentiates the n + 1 Chebyshev-point Hamiltonians that
    `_table_degree` asks for in one `cos_sin_step` call (which checks
    their symmetry, and so that of every substep, as Z is diagonal) and
    evaluates each substep as [T_0(x), ..., T_n(x)] @ coefficients, one
    real product giving the 8x8 embedding.  When the bounding Hamiltonians
    H0 +- w*Z have ||H*dt||_inf >= 0.35 the table is built for dt/2**s,
    with s the halvings `cos_sin_step` would take, and each step is
    squared s times; past its doubling limit they are refused the same way.
    """
    h0 = _lock_hamiltonian(_REAL_TERMS, rf)
    z = _REAL_TERMS[4]
    c1, c2 = _coefficients(orient.beta)
    w = 2.0 * abs(coupling.d) * (0.5 * abs(c1) + c2)
    squarings = int(_halvings(np.stack([h0 - w * z, h0 + w * z]) * dt).max())
    sub_dt = math.ldexp(dt, -squarings)
    n = _table_degree(0.25 * w * sub_dt)
    theta = (np.arange(n + 1) + 0.5) * (math.pi / (n + 1))
    nodes = _embedding(*cos_sin_step(
        h0 + (w * np.cos(theta))[:, None, None] * z, sub_dt)).reshape(n + 1, -1)
    # coefficient j = (2/(n+1)) * sum over nodes k of U(x_k)*T_j(x_k), with
    # T_j(x_k) = cos(j*theta_k), and the mean of the U(x_k) for j = 0.  The
    # T_j with j >= 1 sum to 0 over the nodes, so those coefficients are
    # summed from the deviations from the mean, without cancellation.
    mean = nodes.mean(axis=0)
    coeffs = (2.0 / (n + 1)) * (np.cos(np.outer(np.arange(n + 1), theta))
                                @ (nodes - mean))
    coeffs[0] = mean
    scale = 2.0 / w if w > 0.0 else 0.0
    dim = 2 * len(h0)

    def steps(t: np.ndarray) -> np.ndarray:
        x = dipolar_coupling_at(coupling, orient, spin, t) * scale
        # a one-row product would go to gemv, whose bits differ from those
        # of a gemm row: evaluate at least two rows
        x = np.resize(x, max(len(x), 2))
        cheb = np.empty((n + 1, len(x)))  # T_j(x) in row j
        cheb[0] = 1.0
        if n:
            cheb[1] = x
        x2 = 2.0 * x
        for j in range(2, n + 1):
            cheb[j] = x2 * cheb[j - 1] - cheb[j - 2]
        out = (cheb.T @ coeffs)[:len(t)].reshape(len(t), dim, dim)
        for _ in range(squarings):
            out = out @ out
        return out

    return steps


# Grid points per group of the propagator scan (`_scan`).  Fixed, so that
# each propagator's bits depend only on its index and the inputs.  Scanning
# 200-1000 points, groups of 4-8 took the least time (within 5% of each
# other), 12 about 8% more than 8 and 24 about 40% more (a 2-vCPU Xeon,
# numpy 2.4.6).
SCAN_GROUP = 8


def _scan(p: np.ndarray) -> None:
    """In place, p[i] <- p[i] @ p[i - 1] @ ... @ p[0], on the top halves
    [Re | -Im] of embedded complex matrices.

    A two-level scan: prefixes within groups of SCAN_GROUP points, the same
    scan over the last points of the whole groups, which makes them
    complete, then one product per remaining point with the last point of
    the group before it.  About 2 products per point, each over a stack of
    at most about SUBSTEP_BLOCK points.
    """
    size, g = len(p), SCAN_GROUP
    step = g * max(1, SUBSTEP_BLOCK // g)  # points per stack, whole groups
    for c in range(0, size, step):
        chunk = p[c:c + step]
        for k in range(1, min(g, len(chunk))):
            later = chunk[k::g]
            earlier = chunk[k - 1::g][:len(later)]
            later[...] = later @ _embedding_of_top(earlier)
    if size > g:
        _scan(p[g - 1::g])
    for c in range(g, size, step):
        chunk = p[c:c + step]
        carry = _embedding_of_top(p[c - 1:c - 1 + len(chunk):g])
        whole = len(chunk) // g
        groups = chunk[:whole * g].reshape(whole, g, *p.shape[1:])[:, :-1]
        groups[...] = groups @ carry[:whole, None]
        if whole < len(carry):
            tail = chunk[whole * g:]
            tail[...] = tail @ carry[whole]


def _propagate(make_steps, rf: RfScheme, spin: SpinningParams,
               grid: TimeGrid, substeps: int | None, rho0: np.ndarray,
               observables) -> np.ndarray:
    """Tr(O @ rho) per grid point; ``make_steps(dt)`` returns ``steps(t)``,
    which gives the real embeddings of the substep unitaries of length dt
    for the Hamiltonians at substep midpoint times t (substep j at
    (j + 1/2)*dt).

    ``substeps`` is checked against the step-size rule and ``MAX_SUBSTEPS``
    before any work; None picks the smallest count the rule allows.
    """
    needed = required_substeps(rf, spin, grid.dt)
    intervals = grid.n_points - 1
    if substeps is None:
        substeps = needed
    elif substeps < needed:
        raise ValueError(
            f"substeps={substeps} violates the step-size rule for this grid; "
            f"at least {needed} substeps per grid interval are required")
    if intervals * substeps > MAX_SUBSTEPS:
        raise ValueError(
            f"{intervals * substeps} substeps ({intervals} grid intervals x "
            f"{substeps}) exceed the limit of {MAX_SUBSTEPS} per propagation")
    n = rho0.shape[-1]
    dt_sub = grid.dt / substeps
    steps = make_steps(dt_sub)
    per_block = max(1, SUBSTEP_BLOCK // substeps)
    chunk = min(substeps, SUBSTEP_BLOCK)
    # Top halves of the propagators.  Point i + 1 holds the unitary of
    # interval i, then, after the scan, the propagator from t = 0.
    props = np.empty((grid.n_points, n, 2 * n))
    props[0] = np.eye(n, 2 * n)
    for first in range(0, intervals, per_block):
        offsets = np.arange(first, min(first + per_block, intervals))
        u = None  # left halves [Re U; Im U] of the products so far
        for k0 in range(0, substeps, chunk):
            # j[k, i]: substep k0 + k of interval offsets[i]
            j = (np.arange(k0, min(k0 + chunk, substeps))[:, None]
                 + offsets * substeps)
            t_mid = (j + 0.5) * dt_sub
            emb = steps(t_mid.ravel())
            for step in emb.reshape(*j.shape, 2 * n, 2 * n):
                u = step[..., :n] if u is None else step @ u
        p = props[first + 1:first + 1 + len(u)]
        p[..., :n] = u[:, :n]
        np.negative(u[:, n:], out=p[..., n:])
    _scan(props)
    # Each propagator P gives the state P @ rho0 @ P^dagger, and
    # Tr(O @ rho) = Tr(emb(O) @ emb(rho))/2 pairs the top half of emb(rho)
    # with the left half [Re O; Im O] of emb(O).  Each block's sums run
    # along one contiguous axis, so they do not depend on the block size.
    emb_rho0 = _embedding(rho0.real, -rho0.imag)
    obs = np.asarray(observables, dtype=complex)
    obs = np.concatenate([obs.real, obs.imag], axis=-2)
    obs = np.swapaxes(obs, -1, -2).reshape(len(obs), -1)
    out = np.empty((grid.n_points, len(obs)))
    for b in range(0, grid.n_points, SUBSTEP_BLOCK):
        p = props[b:b + SUBSTEP_BLOCK]
        rho = (p @ emb_rho0) @ np.swapaxes(_embedding_of_top(p), -1, -2)
        out[b:b + len(p)] = (rho.reshape(len(p), 1, -1) * obs).sum(axis=-1)
    return out.T


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
    return _propagate(
        functools.partial(_substep_table, rf, coupling, orient, spin),
        rf, spin, grid, substeps, _to_real_frame(rho0),
        _to_real_frame(observables))


def propagate(rho0: np.ndarray, rf: RfScheme, coupling: CouplingParams,
              orient: Orientation, spin: SpinningParams, grid: TimeGrid,
              substeps: int | None = None) -> Trajectory:
    """Full-space propagation recording <S_y>, <I_y> and the DQ lock component."""
    out = propagate_expectations(rho0, (SY, IY, DQ_Y), rf, coupling, orient,
                                 spin, grid, substeps)
    return Trajectory(grid=grid, sy=out[0], iy=out[1], dq_y=out[2])


def _eigh_steps(rf: RfScheme, coupling: CouplingParams, orient: Orientation,
                spin: SpinningParams, idx, dt: float):
    """``steps(t)`` for the (idx, idx) y-basis block, exponentiated by eigh."""
    def steps(t: np.ndarray) -> np.ndarray:
        u = matrix_exponential_step(_block(_in_y_basis(
            hamiltonian_at(rf, coupling, orient, spin, t)), idx), dt)
        return _embedding(u.real, -u.imag)

    return steps


def propagate_blockwise(rho0: np.ndarray, rf: RfScheme,
                        coupling: CouplingParams, orient: Orientation,
                        spin: SpinningParams, grid: TimeGrid,
                        substeps: int | None = None) -> np.ndarray:
    """<S_y> from separate ZQ/DQ 2x2 block propagation (on-resonance only).

    On resonance the Hamiltonian is block diagonal in the y-quantized basis
    ([H_zq, H_dq] = 0), so evolving the two 2x2 blocks independently must
    reproduce the full 4x4 propagation; this provides the structural
    cross-check of that claim.  Each block of the full Hamiltonian stack is
    exponentiated by `matrix_exponential_step` (``eigh``) and propagated on
    its own.

    Raises:
        ValueError: for nonzero offsets (which couple the blocks), an
            explicit ``substeps`` that violates the step-size rule, or more
            than ``MAX_SUBSTEPS`` substeps in all.
    """
    if rf.offset_i != 0.0 or rf.offset_s != 0.0:
        raise ValueError("block-wise propagation requires zero offsets")
    rho_y, sy_y = _in_y_basis(rho0), _in_y_basis(SY)
    return sum(_propagate(
        functools.partial(_eigh_steps, rf, coupling, orient, spin, idx),
        rf, spin, grid, substeps, _block(rho_y, idx), [_block(sy_y, idx)])[0]
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
        return _from_blocks(self.zq, self.dq)


def _from_blocks(zq, dq) -> np.ndarray:
    """The 4x4 product-basis operator with these ZQ and DQ blocks."""
    opy = np.zeros((4, 4), dtype=complex)
    opy[np.ix_(_ZQ_IDX, _ZQ_IDX)] = zq
    opy[np.ix_(_DQ_IDX, _DQ_IDX)] = dq
    return Y_BASIS @ opy @ Y_BASIS.conj().T


# Fictitious axes expressed in the within-block matrix basis: the physical
# axis labels (x, y, z) map to block matrices (e_y, e_z, e_x) so that the
# spin-lock direction stays "y" and the coupling direction is "z"; the
# cyclic relabeling keeps [s_x, s_y] = i*s_z.
_BLOCK_X, _BLOCK_Y, _BLOCK_Z = _SY, _SZ, _SX


def fictitious_operator(space: str, axis: str) -> np.ndarray:
    """Fictitious spin-1/2 operator embedded in the 4x4 product basis.

    Args:
        space: "zq" or "dq".
        axis: "x", "y", "z" or "1" (block identity).
    """
    block = {"x": _BLOCK_X, "y": _BLOCK_Y, "z": _BLOCK_Z,
             "1": np.eye(2, dtype=complex)}[axis]
    return _from_blocks(*{"zq": (block, 0.0), "dq": (0.0, block)}[space])


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
