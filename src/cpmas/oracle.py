"""Reference density-matrix propagator for the two-spin problem.

Propagates the full time-dependent Hamiltonian

    H(t) = omega1_i*I_y + omega1_s*S_y + offset_i*I_z + offset_s*S_z + 2*d(t)*I_z*S_z

in the 4-dimensional product space by products of exactly unitary
exponentials, independent of every closed-form result in `analytic`.  It
is the ground truth the analytic curves are validated against.  Its one
entry, `propagate_expectations`, returns Tr(O @ rho) as a plain array,
one row per observable O and one column per grid point.

Each substep is one step of CF4, the fourth-order commutator-free Magnus
rule: two half-length exponential factors, whose couplings c_f combine
the coupling c(t) = 2*d(t) at the substep's two Gauss points by the rows
of a weight matrix.  With H0 the locks and offsets and Z = I_z*S_z, each
factor is exp(-i*(H0 + c_f*Z)*dt).  One rule (`required_substeps`) sets
the substeps per grid interval: 6.25 per period of the fastest coherent
frequency (`CF4_TOLERANCE`), or more, so that every factor is inside the
Taylor bound.  It does not assume that the Hamiltonian commutes with
itself at different times, the property the closed form rests on.

The full-space propagation runs in the frame rotated by
R = exp(-i*pi/2*(I_z + S_z)), which is diagonal in the product basis and
takes I_y -> -I_x and S_y -> -S_x while leaving I_z, S_z and I_z*S_z
alone, so every factor's Hamiltonian H0 + c*Z there is real symmetric for
any locks and offsets.  The factors' unitaries all lie on one curve in
the scalar c: a substep table (`_substep_table`) exponentiates the
Hamiltonians at a few Chebyshev points of the range of c once per
propagation, by `cos_sin_step` (a degree-6 Taylor series in (H*dt)**2
summed by Horner's rule, no eigendecomposition), and evaluates every
factor as a Chebyshev series in c, exact to round-off.  rho(0) and the
observables are rotated once per propagation; Tr(O @ rho) is the same in
either frame.  The block-wise (ZQ/DQ) propagation exponentiates its
complex 2x2 blocks by `eigh` (`matrix_exponential_step`), so the
cross-check between the two is independent in its exponential as well as
in its block structure.

One core (`_propagate`) serves both paths and runs in real arithmetic:
a complex n x n matrix M is carried as its real embedding
[[Re M, -Im M], [Im M, Re M]], under which products stay products.  Per
block of about SUBSTEP_BLOCK factors, the couplings of the factors are
combined from d(t) at the Gauss points, their unitaries formed in one
batched call, and those of each grid interval multiplied together in
order (batched over intervals).  A two-level prefix scan (`_scan`) over
the interval unitaries turns them into propagators from t = 0 in about
two products per grid point, and Tr(O @ rho) = Tr(emb(O) @ emb(rho))/2 is
read off the states: the top half of emb(rho) comes from the propagator's
top half by two products, without forming emb(P), and each point's traces
are one product of it with the observables.  Only the
top half [Re P | -Im P] of each propagator's embedding is kept, in one
array that the scan updates in place, so memory is n x 2n reals per grid
point (256 B for n = 4, as a complex 4x4) plus the temporaries of one
block, and does not grow with the substeps per interval.  The largest
temporaries (the factors from the substep table, the products of each
interval's factors, and the readout's two products) are written into
buffers that each thread keeps and reuses across blocks and calls
(`_scratch`, at most 1.0 MiB at SUBSTEP_BLOCK = 1024), so a steady
run of propagations touches no fresh pages; the table's ``steps(c)``
returns a view into them, valid until its next call on the same thread.
On 30 `oracle-compare`-shaped inputs of 200-1000 grid points (a 2-vCPU
Xeon, numpy 2.4.6, stage timers around one process's calls) a
propagation takes about 0.8-2.3 ms, 1.3 ms in the median: forming and
composing the factors ~38% of it, the scan ~28%, the readout ~18%
(0.1-0.4 ms) and the table ~15%.

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
import threading
from dataclasses import dataclass

import numpy as np

from .core import (CouplingParams, Orientation, RfScheme, SpinningParams,
                   TimeGrid, _coefficients, dipolar_coupling_at,
                   effective_field)

HERMITICITY_TOL = 1e-12

# Most substeps in one propagation (two factors each, each a Chebyshev
# series from the substep table and one real 8x8 product), checked before
# any work: it bounds the work of a propagation, not its memory, which
# grows with the grid points.
MAX_SUBSTEPS = 10**6

# Factors held at once (~0.6 KiB of temporaries each): whole grid intervals
# up to this many, and an interval with more in chunks of whole substeps.
# The scan and the readout also take about this many grid points at a time.
# With the block's temporaries in the thread's scratch, on the
# `oracle-compare` benchmark (seeds 2741-2743, 3 pairs against 1024 each)
# the median latency read 3.8% lower at 2048, 1.1% at 4096 and 3.3% at one
# block per operation (10**6), at peaks 0.7, 1.6 and 3.3 MiB higher.  The
# 4-8% that one block per operation gained before the scratch was mostly
# page faults: each block's temporaries came from fresh pages, and one
# large first block raised glibc's mmap threshold so that later ones came
# from the heap.  512 read 8-13% higher before the scratch.
SUBSTEP_BLOCK = 1024


# This thread's block-sized temporaries, role -> a float64 buffer that only
# grows (`_scratch`): role 0 the substep table's factors, roles 0 and 1 the
# readout's two products, roles 2 and 3 the products of each grid interval's
# factors; at most 1.0 MiB in all at SUBSTEP_BLOCK = 1024.
_SCRATCH = threading.local()


def _scratch(role: int, shape) -> np.ndarray:
    """This thread's buffer ``role`` as a C-contiguous float64 array of
    ``shape``, reused across blocks and calls, so that a steady run of
    propagations touches no fresh pages.

    Its contents are what its last user left: the caller writes every
    element before reading any, and what it keeps there is valid until
    the role's next use on the same thread.
    """
    buffers = vars(_SCRATCH)
    size = math.prod(shape)
    buf = buffers.get(role)
    if buf is None or buf.size < size:
        buf = buffers[role] = np.empty(size)
    return buf[:size].reshape(shape)


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


def hamiltonian_at(rf: RfScheme, coupling: CouplingParams, orient: Orientation,
                   spin: SpinningParams, t) -> np.ndarray:
    """Full 4x4 Hamiltonian at time t (Hermitian, rad/s), product basis.

    Args:
        t: time in seconds, scalar or 1-d array.

    Returns:
        A (4, 4) matrix for scalar ``t``, an (n, 4, 4) stack for n times.
    """
    d_t = np.asarray(dipolar_coupling_at(coupling, orient, spin, t))
    return _lock_hamiltonian(_TERMS, rf) + (2.0 * d_t)[..., None, None] * IZSZ


def _check_hermitian(h: np.ndarray) -> None:
    asym = np.max(np.abs(h - np.swapaxes(h, -1, -2).conj()), initial=0.0)
    if asym > HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian (asymmetry {asym:.3e})")


def matrix_exponential_step(h: np.ndarray, dt: float) -> np.ndarray:
    """Unitary exp(-i*h*dt) of a Hermitian matrix via eigendecomposition.

    ``h`` may be one (n, n) matrix or a (..., n, n) stack; the result has
    the same shape and is complex.  The unitary (V * exp(-i*lambda*dt)) @
    V^dagger is formed by batched matmul.  This is the exponential of the
    block-wise propagation; the full-space one is `cos_sin_step`.

    Raises:
        ValueError: if ``h`` is not Hermitian within 1e-12 (max elementwise
            asymmetry over the stack).
    """
    h = np.asarray(h, dtype=complex)
    _check_hermitian(h)
    evals, evecs = np.linalg.eigh(h)
    phases = np.exp(-1j * evals * dt)
    return (evecs * phases[..., None, :]) @ np.swapaxes(evecs.conj(), -1, -2)


# cos_sin_step sums the Taylor series of cos X and sin X/X to degree 6 in
# Y = X @ X.  For ||X||_inf < _TAYLOR_NORM the first omitted term,
# X**14/14!, is below 5e-18.
_TAYLOR_NORM = 0.35


def _check_taylor_norm(top: float) -> None:
    """Refuse an ||h*dt||_inf ``top`` not below the Taylor series' bound."""
    if not top < _TAYLOR_NORM:
        raise ValueError(f"||h*dt||_inf = {top:.3g} is not below "
                         f"{_TAYLOR_NORM}, the Taylor series' bound")


def cos_sin_step(h: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """cos(h*dt) and sin(h*dt) of a real symmetric h, without eigh.

    exp(-i*h*dt) = c - 1j*s.  ``h`` may be one (n, n) matrix or a
    (..., n, n) stack; c and s have its shape.  With X = h*dt, c and
    X^-1 s are the Taylor series of cos X and sin X/X to degree 6 in
    X @ X, summed by Horner's rule (14 real n x n products per matrix).
    Every X must have ||X||_inf < 0.35, where the truncated series is
    exact to round-off; a matrix's result does not depend on the stack.

    Raises:
        ValueError: if ``h`` is not symmetric within 1e-12 (max elementwise
            asymmetry over the stack), or some ||h*dt||_inf is not below
            0.35.
    """
    h = np.asarray(h, dtype=float)
    _check_hermitian(h)
    x = h * dt
    _check_taylor_norm(np.abs(x).sum(axis=-1).max(initial=0.0))
    y = x @ x
    c = s = eye = np.eye(h.shape[-1])
    for k in range(6, 0, -1):
        c = eye - y @ c / ((2 * k - 1) * 2 * k)
        s = eye - y @ s / (2 * k * (2 * k + 1))
    return c, x @ s


_R3 = math.sqrt(3.0) / 6.0
# The fourth-order commutator-free Magnus rule CF4 (Blanes & Moan, Appl.
# Numer. Math. 56, 1519, 2006): exp(-i*h*(a1*H(t1) + a2*H(t2))) with
# (a1, a2) = (a+, a-), then (a-, a+), at the Gauss points t1, t2 =
# t0 + (1/2 -+ sqrt(3)/6)*h, a+- = 1/4 +- sqrt(3)/6.  As a1 + a2 = 1/2,
# each factor is exp(-i*(h/2)*(H0 + 2*(a1*c(t1) + a2*c(t2))*Z)): the
# substep from t0 applies one factor per row f of CF4_WEIGHTS, the first
# row first, of length CF4_LENGTH*h and coupling c_f = sum over k of
# CF4_WEIGHTS[f][k] * c(t0 + CF4_NODES[k]*h).
# CF4_STEPS_PER_PERIOD is fitted to this table of the largest error in the
# oracle's three expectation values against CF4 at 8x the midpoint rule's
# substeps (itself within 6.4e-11 of CF4 at 4x), over 160 seeded
# `oracle-compare`-shaped inputs: 40-120 kHz matched locks, half of them
# off resonance by up to half the lock, 1-10 kHz spinning, d/2pi 1-5 kHz,
# 200-1000 points 0.5-2 us apart.  The midpoint rule at 50 errs by up to
# 4.2e-6 there, and the last row is the largest ratio of CF4's error to
# the midpoint rule's on one input:
#     steps_per_period     3.125    4.6875   6.25     12.5
#     max error            5.3e-7   5.3e-7   4.0e-8   6.2e-9
#     median error         4.0e-9   2.0e-9   7.6e-10  1.1e-10
#     max ratio            0.32     0.16     0.031    0.0078
CF4_NODES = (0.5 - _R3, 0.5 + _R3)
CF4_WEIGHTS = ((0.5 + 2.0 * _R3, 0.5 - 2.0 * _R3),
               (0.5 - 2.0 * _R3, 0.5 + 2.0 * _R3))
CF4_LENGTH = 0.5
CF4_STEPS_PER_PERIOD = 6.25
# The largest |c_f| over max |c(t)|: a row sum of |CF4_WEIGHTS|.
_CF4_REACH = max(sum(abs(w) for w in row) for row in CF4_WEIGHTS)
# The error that CF4 at CF4_STEPS_PER_PERIOD is held to, against the same
# rule at 8x the substeps, on inputs like those of the table.  Where d is
# comparable to the locks it errs by 1e-6 to 1.3e-5 against 64 substeps.
CF4_TOLERANCE = 1e-7


def _factor_bounds(rf: RfScheme, coupling: CouplingParams,
                   orient: Orientation) -> tuple[float, float]:
    """w = 2|d|*(|c1|/2 + c2)*_CF4_REACH >= every CF4 factor's |c_f|, and
    max ||H0 + c*Z||_inf over |c| <= w: a row's lock halves plus |offset_i|/2
    + |offset_s|/2 + w/4.  Python floats: an overflow is inf, not a warning."""
    c1, c2 = (float(c) for c in _coefficients(orient.beta))
    w = abs(coupling.d) * (abs(c1) + 2.0 * c2) * _CF4_REACH
    return w, (0.5 * (rf.omega1_i + rf.omega1_s + abs(rf.offset_i)
                      + abs(rf.offset_s)) + 0.25 * w)


def required_substeps(rf: RfScheme, coupling: CouplingParams,
                      orient: Orientation, spin: SpinningParams,
                      dt: float) -> int:
    """Minimum substeps per grid interval, the larger of two counts.

    The frequency rule resolves the fastest coherent frequency - the sum of
    the effective spin-lock fields or twice the rotor frequency, whichever
    is larger - with ``CF4_STEPS_PER_PERIOD`` (6.25) substeps per period.
    The norm rule keeps every CF4 factor's ||(H0 + c_f*Z)*h||_inf, h =
    CF4_LENGTH*dt/substeps, below `cos_sin_step`'s bound of 0.35 (by a
    relative 1e-12 for round-off; `_factor_bounds`).

    Raises:
        ValueError: if that is more than ``MAX_SUBSTEPS`` (an overflowing
            lock field or coupling counts as infinitely many).
    """
    eff = effective_field(rf)
    omega_fast = max(eff.omega1_ie + eff.omega1_se, 2.0 * spin.omega_r)
    max_step = 2.0 * math.pi / (CF4_STEPS_PER_PERIOD * omega_fast)
    steps = dt / max_step - 1e-9 if max_step > 0.0 else math.inf
    steps = max(steps, _factor_bounds(rf, coupling, orient)[1] * CF4_LENGTH
                * dt / _TAYLOR_NORM * (1 + 1e-12))
    if steps > MAX_SUBSTEPS:
        raise ValueError(
            f"the step-size rule needs {steps:.3g} substeps per grid "
            f"interval, more than the limit of {MAX_SUBSTEPS} per propagation")
    return max(1, math.ceil(steps))


def _embedding_of_top(top: np.ndarray) -> np.ndarray:
    """Real embedding [[Re M, -Im M], [Im M, Re M]] of a complex stack M,
    from its top halves [Re M | -Im M]."""
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
                   orient: Orientation, dt: float):
    """``steps(c)``: the embedded real-frame unitaries exp(-i*(H0 + c*Z)*dt)
    for the couplings c of CF4's factors, from a table in c.

    In the real frame H(t) = H0 + c(t)*Z with H0 the locks and offsets,
    Z = I_z*S_z and c(t) = 2*d(t), so every factor of a substep is a point on
    the curve U(c) = exp(-i*(H0 + c*Z)*dt) of one scalar, with |c| <= w
    (`_factor_bounds`).  With c = w*x for x in [-1, 1] the k-th derivative
    in x is bounded by a**k, a = w*dt*||Z||_2 = w*dt/4; the table
    exponentiates the n + 1 Chebyshev-point Hamiltonians that
    `_table_degree` asks for in one `cos_sin_step` call (which checks their
    symmetry, and so that of every factor, as Z is diagonal) and evaluates
    each factor as [T_0(x), ..., T_n(x)] @ coefficients, one real product
    giving the 8x8 embedding.  ``dt`` must keep the bounding Hamiltonians
    H0 +- w*Z below the Taylor bound, ||H*dt||_inf < 0.35, as the count of
    `required_substeps` does, or a ValueError says so; in floating point no
    node's norm exceeds theirs, as Z is diagonal and |w*cos(theta)| <= w.
    A ``steps(c)`` result lives in this thread's scratch (`_scratch`, role
    0): it is valid until the next ``steps`` call on the same thread.
    """
    h0 = _lock_hamiltonian(_REAL_TERMS, rf)
    z = _REAL_TERMS[4]
    w, norm = _factor_bounds(rf, coupling, orient)
    _check_taylor_norm(norm * dt)
    n = _table_degree(0.25 * w * dt)
    theta = (np.arange(n + 1) + 0.5) * (math.pi / (n + 1))
    c, s = cos_sin_step(h0 + (w * np.cos(theta))[:, None, None] * z, dt)
    nodes = _embedding_of_top(np.concatenate([c, s], -1)).reshape(n + 1, -1)
    # coefficient j = (2/(n+1)) * sum over nodes k of U(x_k)*T_j(x_k), with
    # T_j(x_k) = cos(j*theta_k), and the mean of the U(x_k) for j = 0.  The
    # T_j with j >= 1 sum to 0 over the nodes, so those coefficients are
    # summed from the deviations from the mean, without cancellation.
    mean = nodes.mean(axis=0)
    coeffs = (2.0 / (n + 1)) * (np.cos(np.outer(np.arange(n + 1), theta))
                                @ (nodes - mean))
    coeffs[0] = mean
    scale = 1.0 / w if n else 0.0   # degree 0 never reads x
    dim = 2 * len(h0)

    def steps(c: np.ndarray) -> np.ndarray:
        # a one-row product would go to gemv, whose bits differ from those
        # of a gemm row: evaluate at least two rows
        x = np.resize(c * scale, max(len(c), 2))
        cheb = np.empty((n + 1, len(x)))  # T_j(x) in row j
        cheb[0] = 1.0
        if n:
            cheb[1] = x
        x2 = 2.0 * x
        for j in range(2, n + 1):
            cheb[j] = x2 * cheb[j - 1] - cheb[j - 2]
        out = np.matmul(cheb.T, coeffs, out=_scratch(0, (len(x), dim * dim)))
        return out[:len(c)].reshape(len(c), dim, dim)

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


def _propagate(make_steps, rf: RfScheme, coupling: CouplingParams,
               orient: Orientation, spin: SpinningParams, grid: TimeGrid,
               substeps: int | None, rho0: np.ndarray,
               observables) -> np.ndarray:
    """Tr(O @ rho) per grid point, stepping by CF4; ``make_steps(dt)``
    returns ``steps(c)``, which gives the real embeddings of the unitaries
    exp(-i*(H0 + c*Z)*dt) for couplings c, dt CF4's factor length.

    ``substeps`` is checked against the step-size rule and
    ``MAX_SUBSTEPS`` before any work; None picks the smallest count the
    step-size rule allows.
    """
    needed = required_substeps(rf, coupling, orient, spin, grid.dt)
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
    steps = make_steps(CF4_LENGTH * dt_sub)
    nodes = np.array(CF4_NODES)[:, None]
    weights = np.array(CF4_WEIGHTS)[:, :, None]
    factors = len(weights)
    per_block = max(1, SUBSTEP_BLOCK // (substeps * factors))
    chunk = max(1, min(substeps, SUBSTEP_BLOCK // factors))
    # Top halves of the propagators.  Point i + 1 holds the unitary of
    # interval i, then, after the scan, the propagator from t = 0.
    props = np.empty((grid.n_points, n, 2 * n))
    props[0] = np.eye(n, 2 * n)
    for first in range(0, intervals, per_block):
        offsets = np.arange(first, min(first + per_block, intervals))
        u = None  # left halves [Re U; Im U] of the products so far
        role = 3
        for k0 in range(0, substeps, chunk):
            # j[k, 0, i]: substep k0 + k of interval offsets[i]; c[k, f, i]
            # its factor f's coupling
            j = (np.arange(k0, min(k0 + chunk, substeps))[:, None, None]
                 + offsets * substeps)
            c = 2.0 * dipolar_coupling_at(coupling, orient, spin,
                                          (j + nodes) * dt_sub)
            c = (weights * c[:, None]).sum(axis=2)
            emb = steps(c.ravel())
            # CF4's two factors per substep put u in scratch role 2 or 3,
            # not in the table's, by the time steps runs again
            for step in emb.reshape(-1, len(offsets), 2 * n, 2 * n):
                if u is None:
                    u = step[..., :n]
                else:
                    role = 5 - role
                    u = np.matmul(step, u, out=_scratch(role, u.shape))
        p = props[first + 1:first + 1 + len(u)]
        p[..., :n] = u[:, :n]
        np.negative(u[:, n:], out=p[..., n:])
    _scan(props)
    # Each propagator P gives the state P @ rho0 @ P^dagger, and
    # Tr(O @ rho) = Tr(emb(O) @ emb(rho))/2 pairs the top half of emb(rho)
    # with the left half [Re O; Im O] of emb(O).  With T = [Re P | -Im P]
    # the top half of emb(P), its bottom half is T @ J, J = [[0, 1], [-1, 0]]
    # in n x n blocks, so the top half of emb(rho) = emb(P) @ emb(rho0) @
    # emb(P)^T is [T @ E0 @ T^T | T @ E0 @ J^T @ T^T], E0 = emb(rho0): one
    # product with [E0 | E0 @ J^T] and one with T^T give both halves, with
    # row i of each half interleaved.  Each point's readout is then one
    # row of 2n*n against the observables, taken point by point (a stacked
    # product), so no sum depends on the block size.
    e0 = _embedding_of_top(np.concatenate([rho0.real, -rho0.imag], -1))
    e0 = np.concatenate([e0, np.concatenate([e0[:, n:], -e0[:, :n]], -1)],
                        -1)
    obs = np.asarray(observables, dtype=complex)
    count = len(obs)
    obs = np.concatenate([obs.real, obs.imag], axis=-2)
    # obs[k, h*n + j, i] -> row (2*i + h)*n + j, column k
    obs = obs.reshape(count, 2, n, n).transpose(3, 1, 2, 0)
    obs = obs.reshape(2 * n * n, count)
    out = np.empty((grid.n_points, count))
    for b in range(0, grid.n_points, SUBSTEP_BLOCK):
        p = props[b:b + SUBSTEP_BLOCK]
        halves = np.matmul(p, e0, out=_scratch(0, (len(p), n, 4 * n)))
        rho = np.matmul(halves.reshape(len(p), 2 * n, 2 * n),
                        np.swapaxes(p, -1, -2),
                        out=_scratch(1, (len(p), 2 * n, n)))
        out[b:b + len(p)] = (rho.reshape(len(p), 1, -1) @ obs)[:, 0]
    return out.T


def propagate_expectations(rho0: np.ndarray, observables,
                           rf: RfScheme, coupling: CouplingParams,
                           orient: Orientation, spin: SpinningParams,
                           grid: TimeGrid,
                           substeps: int | None = None) -> np.ndarray:
    """Propagate rho0 over the grid and record Tr(O @ rho) for each observable.

    Each grid interval is subdivided into ``substeps`` substeps of CF4,
    each a product of two exactly unitary exponentials with Hamiltonians
    combined from two Gauss points (fourth order).  ``substeps=None``
    picks the smallest count satisfying `required_substeps`.

    Returns:
        Real array of shape (len(observables), grid.n_points).

    Raises:
        ValueError: if an explicit ``substeps`` violates the step-size rule
            (the message names the required count), or the propagation
            would take more than ``MAX_SUBSTEPS`` substeps in all.
    """
    return _propagate(
        functools.partial(_substep_table, rf, coupling, orient), rf,
        coupling, orient, spin, grid, substeps, _to_real_frame(rho0),
        _to_real_frame(observables))


def _eigh_steps(rf: RfScheme, idx, dt: float):
    """``steps(c)`` for the (idx, idx) y-basis block of H0 + c*I_z*S_z,
    exponentiated by eigh."""
    h0 = _lock_hamiltonian(_TERMS, rf)

    def steps(c: np.ndarray) -> np.ndarray:
        u = matrix_exponential_step(_block(_in_y_basis(
            h0 + c[:, None, None] * IZSZ), idx), dt)
        return _embedding_of_top(np.concatenate([u.real, -u.imag], -1))

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
    its own, by the same CF4 steps as `propagate_expectations`.

    Raises:
        ValueError: for nonzero offsets (which couple the blocks), an
            explicit ``substeps`` that violates the step-size rule, or more
            than ``MAX_SUBSTEPS`` substeps in all.
    """
    if rf.offset_i != 0.0 or rf.offset_s != 0.0:
        raise ValueError("block-wise propagation requires zero offsets")
    rho_y, sy_y = _in_y_basis(rho0), _in_y_basis(SY)
    return sum(_propagate(
        functools.partial(_eigh_steps, rf, idx), rf, coupling, orient, spin,
        grid, substeps, _block(rho_y, idx), [_block(sy_y, idx)])[0]
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


def dq_constancy_report(dq_y: np.ndarray) -> float:
    """Max excursion of the DQ lock component (<DQ_Y> per grid point) from
    its initial value."""
    return float(np.max(np.abs(dq_y - dq_y[0])))


def tilted_spin_operators(rf: RfScheme) -> tuple[np.ndarray, np.ndarray]:
    """I and S spin operators along their tilted effective-field axes.

    Off resonance the lock axis tilts toward +z; polarization starts along
    the I effective field and builds up along the S effective field, so
    these are the natural initial state and observable for off-resonance
    propagation.  On resonance they are I_y and S_y exactly.
    """
    eff = effective_field(rf)
    w_i, w_s = eff.omega1_ie, eff.omega1_se
    i_e = (rf.omega1_i / w_i) * IY + (rf.offset_i / w_i) * IZ
    s_e = (rf.omega1_s / w_s) * SY + (rf.offset_s / w_s) * SZ
    return i_e, s_e
