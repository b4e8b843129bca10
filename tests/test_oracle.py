import functools
import math
import os
import platform
import re
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cpmas.oracle as oracle
from cpmas.analytic import transfer_efficiency
from cpmas.core import (CouplingParams, Orientation, RfScheme, SpinningParams,
                        TimeGrid, dipolar_coupling_at, effective_field)
from cpmas.oracle import (DQ_Y, IX, IY, IZ, IZSZ, SX, SY, SZ,
                          cos_sin_step, dq_constancy_report,
                          fictitious_operator,
                          hamiltonian_at,
                          matrix_exponential_step,
                          propagate_blockwise, propagate_expectations,
                          required_substeps, tilted_spin_operators,
                          zq_dq_decompose)

KHZ = 2.0 * math.pi * 1e3


def random_orientations(n, seed=0):
    rng = np.random.default_rng(seed)
    return [Orientation(beta=float(b), gamma=float(g))
            for b, g in zip(rng.uniform(0, math.pi, n),
                            rng.uniform(0, 2 * math.pi, n))]


def random_hermitian(rng, n=4):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return a + a.conj().T


class TestHamiltonian:
    def test_rf_only_eigenvalues(self, slow_mas):
        rf = RfScheme(omega1_i=80.0 * KHZ, omega1_s=30.0 * KHZ)
        h = hamiltonian_at(rf, CouplingParams(d=0.0),
                           Orientation(beta=1.0, gamma=0.0), slow_mas, 0.0)
        expected = sorted([(rf.omega1_i + rf.omega1_s) / 2,
                           (rf.omega1_i - rf.omega1_s) / 2,
                           -(rf.omega1_i - rf.omega1_s) / 2,
                           -(rf.omega1_i + rf.omega1_s) / 2])
        np.testing.assert_allclose(np.linalg.eigvalsh(h), expected, rtol=1e-12)

    def test_hermitian(self, matched_rf, bench_coupling, slow_mas):
        rf_off = RfScheme(omega1_i=80.0 * KHZ, omega1_s=80.0 * KHZ,
                          offset_i=11.0 * KHZ, offset_s=-3.0 * KHZ)
        for rf in (matched_rf, rf_off):
            for orient in random_orientations(3, seed=30):
                h = hamiltonian_at(rf, bench_coupling, orient, slow_mas, 3.3e-5)
                assert np.max(np.abs(h - h.conj().T)) < 1e-12

    def test_coupling_block_matches_kernel(self, matched_rf, bench_coupling,
                                           slow_mas):
        orient = Orientation(beta=math.pi / 4, gamma=0.0)
        h = hamiltonian_at(matched_rf, bench_coupling, orient, slow_mas, 0.0)
        rf_part = matched_rf.omega1_i * IY + matched_rf.omega1_s * SY
        d0 = dipolar_coupling_at(bench_coupling, orient, slow_mas, 0.0)
        np.testing.assert_allclose(h - rf_part, 2.0 * d0 * IZSZ, atol=1e-9)
        assert d0 == pytest.approx(14360.433056817352, rel=1e-12)

    def test_zq_dq_parts_commute(self, matched_rf, bench_coupling, slow_mas):
        rng = np.random.default_rng(31)
        for _ in range(20):
            orient = Orientation(beta=float(rng.uniform(0, math.pi)),
                                 gamma=float(rng.uniform(0, 2 * math.pi)))
            t = float(rng.uniform(0, 1e-3))
            h = hamiltonian_at(matched_rf, bench_coupling, orient, slow_mas, t)
            comps = zq_dq_decompose(h)
            h_zq = _embed(comps.zq_coeffs, "zq")
            h_dq = _embed(comps.dq_coeffs, "dq")
            comm = h_zq @ h_dq - h_dq @ h_zq
            scale = np.linalg.norm(h_zq, 2) * np.linalg.norm(h_dq, 2)
            assert np.linalg.norm(comm, 2) / scale < 1e-12
            assert comps.remainder_norm < 1e-9 * np.max(np.abs(h))
            np.testing.assert_allclose(h_zq + h_dq, h,
                                       atol=1e-10 * np.max(np.abs(h)))


def real_frame_hamiltonians(rf, coupling, orient, spin, times):
    """H(t) in the real frame, built as the substep table builds it:
    the locks and offsets H0 plus 2*d(t)*Z."""
    d_t = dipolar_coupling_at(coupling, orient, spin, times)
    return (oracle._lock_hamiltonian(oracle._REAL_TERMS, rf)
            + (2.0 * d_t)[:, None, None] * oracle._REAL_TERMS[4])


class TestRealFrame:
    def test_rotation_takes_y_locks_to_minus_x(self):
        frame = np.exp(-0.5j * math.pi * np.diag(IZ + SZ).real)
        np.testing.assert_allclose(oracle._FRAME, frame, rtol=0, atol=1e-15)
        for op, rotated in ((IY, -IX), (SY, -SX), (IZ, IZ), (SZ, SZ),
                            (IZSZ, IZSZ)):
            assert np.array_equal(oracle._to_real_frame(op), rotated)

    def test_substep_hamiltonians_are_real_symmetric(self, bench_coupling,
                                                     slow_mas,
                                                     bench_orientation):
        rf = RfScheme(omega1_i=80.0 * KHZ, omega1_s=60.0 * KHZ,
                      offset_i=11.0 * KHZ, offset_s=-3.0 * KHZ)
        times = np.linspace(0.0, 4e-4, 9)
        args = (rf, bench_coupling, bench_orientation, slow_mas, times)
        h_real = real_frame_hamiltonians(*args)
        assert h_real.dtype == np.float64
        assert np.array_equal(h_real, np.swapaxes(h_real, -1, -2))
        np.testing.assert_allclose(
            h_real, oracle._to_real_frame(hamiltonian_at(*args)), rtol=0,
            atol=1e-15 * np.max(np.abs(h_real)))


def _embed(coeffs, space):
    """4x4 operator from its fictitious spin-1/2 expansion in one space."""
    out = np.zeros((4, 4), dtype=complex)
    for axis, coeff in zip("xyz1", coeffs):
        out = out + coeff * fictitious_operator(space, axis)
    return out


class TestMatrixExponentialStep:
    def test_zero_hamiltonian_gives_identity(self):
        u = matrix_exponential_step(np.zeros((4, 4)), 1e-6)
        np.testing.assert_allclose(u, np.eye(4), atol=1e-15)

    def test_diagonal_hamiltonian_gives_phases(self):
        energies = np.array([1.0, -2.0, 0.5, 3.0]) * KHZ
        dt = 7e-6
        u = matrix_exponential_step(np.diag(energies), dt)
        np.testing.assert_allclose(u, np.diag(np.exp(-1j * energies * dt)),
                                   atol=1e-14)

    def test_unitary_and_energy_conserving(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            h = random_hermitian(rng) * 1e5
            u = matrix_exponential_step(h, 1e-6)
            np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-12)
            np.testing.assert_allclose(u @ h @ u.conj().T, h, atol=1e-10 * 1e5)

    def test_rejects_non_hermitian(self):
        h = np.zeros((4, 4), dtype=complex)
        h[0, 1] = 1.0
        with pytest.raises(ValueError, match="Hermitian"):
            matrix_exponential_step(h, 1e-6)

    def test_rejects_non_hermitian_stack(self):
        rng = np.random.default_rng(34)
        hs = np.array([random_hermitian(rng) for _ in range(5)])
        hs[3, 2, 0] += 1e-9
        with pytest.raises(ValueError, match="Hermitian"):
            matrix_exponential_step(hs, 1e-6)
        real = np.array([random_hermitian(rng).real for _ in range(5)])
        real[3, 2, 0] += 1e-9
        with pytest.raises(ValueError, match="Hermitian"):
            matrix_exponential_step(real, 1e-6)
        with pytest.raises(ValueError, match="Hermitian"):
            cos_sin_step(real, 1e-6)

    def test_stack_equals_scalar_calls(self, bench_coupling, slow_mas,
                                       bench_orientation):
        rf = RfScheme(omega1_i=80.0 * KHZ, omega1_s=70.0 * KHZ,
                      offset_i=11.0 * KHZ, offset_s=-3.0 * KHZ)
        times = np.linspace(0.0, 4e-4, 7)
        hs = hamiltonian_at(rf, bench_coupling, bench_orientation, slow_mas,
                            times)
        us = matrix_exponential_step(hs, 1e-7)
        assert hs.shape == us.shape == (7, 4, 4)
        for t, h, u in zip(times, hs, us):
            h1 = hamiltonian_at(rf, bench_coupling, bench_orientation,
                                slow_mas, float(t))
            np.testing.assert_allclose(h, h1, rtol=0,
                                       atol=1e-14 * np.max(np.abs(h1)))
            np.testing.assert_allclose(u, matrix_exponential_step(h1, 1e-7),
                                       rtol=0, atol=1e-14)


def random_symmetric_stack(rng, norms, n=4):
    """Real symmetric n x n matrices with the given infinity norms."""
    a = rng.normal(size=(len(norms), n, n))
    a = a + np.swapaxes(a, -1, -2)
    a /= np.abs(a).sum(-1).max(-1)[:, None, None]
    return a * np.asarray(norms)[:, None, None]


def inf_norms(h):
    return np.abs(h).sum(-1).max(-1)


class TestCosSinStep:
    # ||h*dt||_inf from 1e-9 to 0.349, about ten per decade: the whole range
    # of the Taylor series
    NORMS = np.geomspace(1e-9, 0.349, 91)

    def test_matches_eigh(self):
        rng = np.random.default_rng(40)
        dt = 1e-6
        h = random_symmetric_stack(rng, self.NORMS) / dt
        c, s = cos_sin_step(h, dt)
        assert c.shape == s.shape == h.shape
        assert c.dtype == s.dtype == np.float64
        err = np.abs(c - 1j * s - matrix_exponential_step(h, dt))
        assert np.all(err <= 1e-14)

    def test_embedding_is_orthogonal(self):
        rng = np.random.default_rng(41)
        x = random_symmetric_stack(rng, self.NORMS)
        c, s = cos_sin_step(x, 1.0)
        emb = np.block([[c, s], [-s, c]])
        dev = np.abs(emb @ np.swapaxes(emb, -1, -2) - np.eye(8))
        assert np.all(dev <= 1e-14)

    def test_zero_gives_identity(self):
        c, s = cos_sin_step(np.zeros((3, 4, 4)), 1e-6)
        assert np.array_equal(c, np.broadcast_to(np.eye(4), (3, 4, 4)))
        assert np.array_equal(s, np.zeros((3, 4, 4)))

    def test_result_does_not_depend_on_neighbours(self):
        # a matrix gives the bits it gives alone next to any others
        rng = np.random.default_rng(42)
        norms = [1e-6, 0.2, 0.3, 1e-3, 0.349, 0.1, 0.05]
        x = random_symmetric_stack(rng, norms)
        c, s = cos_sin_step(x, 1.0)
        for k in range(len(norms)):
            ck, sk = cos_sin_step(x[k], 1.0)
            assert ck.shape == (4, 4)
            assert np.array_equal(ck, c[k]) and np.array_equal(sk, s[k])
            ck, sk = cos_sin_step(x[k:k + 2], 1.0)
            assert np.array_equal(ck[0], c[k]) and np.array_equal(sk[0], s[k])

    TAYLOR_REFUSAL = re.escape("||h*dt||_inf = ") + (
        ".* is not below 0.35, the Taylor")

    @pytest.mark.parametrize("norm", [0.35, 1.0, np.nan])
    def test_rejects_norms_not_below_the_taylor_bound(self, norm):
        x = random_symmetric_stack(np.random.default_rng(44), [0.3, 0.3])
        # ||x[1]||_inf is norm exactly: the scalings by powers of 2 are exact
        x[1] = norm * np.array([[0.5, -0.5, 0.0, 0.0], [-0.5, 0.25, 0.0, 0.0],
                                [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 0.5]])
        with pytest.raises(ValueError, match=self.TAYLOR_REFUSAL):
            cos_sin_step(x, 1.0)
        cos_sin_step(x[:1], 1.0)

    @pytest.mark.parametrize("norm", [2.4e7, 1e300, np.nan])
    def test_rejects_norms_past_the_doubling_limit(self, norm):
        # past 2.35e7, where a scaling and squaring would need more than 26
        # doublings, and just below it: cos_sin_step does not square, so
        # however far past the bound, the one refusal names the Taylor bound
        x = random_symmetric_stack(np.random.default_rng(44), [1.0, 1.0])
        x[1] *= norm
        with pytest.raises(ValueError, match=self.TAYLOR_REFUSAL):
            cos_sin_step(x, 1.0)
        with pytest.raises(ValueError, match=self.TAYLOR_REFUSAL):
            cos_sin_step(x[:1] * 2.3e7, 1.0)


def reference_steps(rf, coupling, orient, spin, times, dt):
    """Embedded real-frame substep unitaries, one eigh each, and their
    ||H*dt||_inf."""
    h = real_frame_hamiltonians(rf, coupling, orient, spin, times)
    u = matrix_exponential_step(h, dt)
    return np.block([[u.real, -u.imag], [u.imag, u.real]]), inf_norms(h * dt)


def bounding_norm(rf, coupling, orient, dt):
    """||(H0 +- w*Z)*dt||_inf, the larger of the two, with |c_f| <= w for
    CF4's factor couplings: the largest norm of a factor that the substep
    table covers, which the norm rule of `required_substeps` keeps below
    0.35."""
    h0, z = oracle._lock_hamiltonian(oracle._REAL_TERMS, rf), IZSZ.real
    c1, c2 = oracle._coefficients(orient.beta)
    w = 2.0 * abs(coupling.d) * (0.5 * abs(c1) + c2) * oracle._CF4_REACH
    return inf_norms(np.stack([h0 - w * z, h0 + w * z]) * dt).max()


def couplings_around(past, count=3, largest=1e307):
    """The ``count`` largest couplings d in [0, largest] with ``past(d)``
    false, and the ``count`` smallest with it true, by bisection on the bits
    of d (positive doubles order as their bits do)."""
    def bits_past(bits):
        return past(float(np.int64(bits).view(np.float64)))

    lo, hi = 0, int(np.float64(largest).view(np.int64))
    assert bits_past(hi) and not bits_past(lo)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if bits_past(mid) else (mid, hi)
    return ([float(np.int64(b).view(np.float64))
             for b in range(lo - count + 1, lo + 1)],
            [float(np.int64(b).view(np.float64))
             for b in range(hi, hi + count)])


def couplings_around_norm(rf, orient, dt, target, count=3):
    """The ``count`` largest couplings d > 0 whose `bounding_norm` is below
    ``target``, and the ``count`` smallest whose norm is not."""
    return couplings_around(lambda d: bounding_norm(
        rf, CouplingParams(d=d), orient, dt) >= target, count)


@pytest.fixture
def node_dts(monkeypatch):
    """The step dt of every `cos_sin_step` call, in call order."""
    dts = []
    taylor = oracle.cos_sin_step

    def recording(h, dt):
        dts.append(dt)
        return taylor(h, dt)

    monkeypatch.setattr(oracle, "cos_sin_step", recording)
    return dts


def assert_table_unitarity(rf, coupling, spin, orient):
    """Criterion 9's bounds on 1e5 table substeps, 0.05 us each, composed
    on the real embedding as the propagation core composes them."""
    dt = 0.05e-6
    c = 2.0 * dipolar_coupling_at(
        coupling, orient, spin,
        (np.arange(100000)[:, None] + oracle.CF4_NODES) * dt)
    steps = oracle._substep_table(rf, coupling, orient,
                                  oracle.CF4_LENGTH * dt)(
        (c @ np.transpose(oracle.CF4_WEIGHTS)).ravel())
    p = np.eye(8)
    for step in steps:
        p = step @ p
    # the 2e5 factors grew this thread's scratch to ~100 MB
    vars(oracle._SCRATCH).clear()
    assert np.max(np.abs(p @ p.T - np.eye(8))) <= 1e-10
    u = p[:4, :4] + 1j * p[4:, :4]
    rho0 = oracle._to_real_frame(IY)
    rho = u @ rho0 @ u.conj().T
    assert abs(np.trace(rho) - np.trace(rho0)) <= 1e-8
    assert abs(np.trace(rho @ rho) - np.trace(rho0 @ rho0)) <= 1e-8
    assert np.max(np.abs(rho - rho.conj().T)) <= 1e-10


class TestSubstepTable:
    MATCHED = (80.0, 80.0, 0.0, 0.0)

    @pytest.mark.parametrize("locks_khz,d_khz,mas_khz,dt", [
        pytest.param(MATCHED, 2.5, 2.0, 1e-7, id="matched"),
        pytest.param(MATCHED, 0.0, 2.0, 1e-7, id="no-coupling"),
        pytest.param(MATCHED, -4.0, 7.0, 1e-7, id="negative-d"),
        pytest.param(MATCHED, 2.5, 0.0, 1e-7, id="stationary"),
        pytest.param((80.0, 60.0, 20.0, -15.0), 2.5, 2.0, 1e-7,
                     id="off-resonance"),
        # a = w*dt/4 ~ 0.27 and a bounding norm of 0.28: the factors of
        # the 4 substeps that the norm rule takes at 0.1 us, where the
        # frequency rule takes 1
        pytest.param((80.0, 60.0, 20.0, -15.0), 3000.0, 2.0, 1.25e-8,
                     id="strong-coupling"),
    ])
    def test_matches_cos_sin_step(self, node_dts, locks_khz, d_khz,
                                  mas_khz, dt, bench_orientation):
        b1i, b1s, off_i, off_s = locks_khz
        rf = RfScheme(omega1_i=b1i * KHZ, omega1_s=b1s * KHZ,
                      offset_i=off_i * KHZ, offset_s=off_s * KHZ)
        coupling = CouplingParams(d=d_khz * KHZ)
        spin = SpinningParams(omega_r=mas_khz * KHZ)
        steps = oracle._substep_table(rf, coupling, bench_orientation, dt)
        assert node_dts == [dt]
        # 5000 midpoints over one rotor period at 2 kHz
        times = (np.arange(5000) + 0.5) * 1e-7
        expected, norms = reference_steps(rf, coupling, bench_orientation,
                                          spin, times, dt)
        c = 2.0 * dipolar_coupling_at(coupling, bench_orientation, spin, times)
        got = steps(c).copy()  # valid only until the next steps call
        assert got.shape == (5000, 8, 8)
        err = np.abs(got - expected).max(axis=(-1, -2))
        assert np.all(err <= 1e-14 * np.maximum(1.0, norms))
        # a single substep gets the bits it gets in any stack
        for k in (0, 1234, 4999):
            assert np.array_equal(steps(c[k:k + 1])[0], got[k])
            assert np.array_equal(steps(c[k:k + 2])[0], got[k])

    OFF_RESONANCE = RfScheme(omega1_i=80.0 * KHZ, omega1_s=60.0 * KHZ,
                             offset_i=20.0 * KHZ, offset_s=-15.0 * KHZ)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_substep_count_changes_exactly_at_the_norm_rule(
            self, node_dts, k, slow_mas, bench_orientation):
        # couplings a few ulp either side of the coupling where the norm
        # rule goes from k to k + 1 substeps (the frequency rule takes 1 at
        # 0.1 us): either way cos_sin_step takes every node of the table at
        # the rule's factor length, and at k substeps the bounding norm
        # ||(H0 +- w*Z)*h||_inf of the couplings past the threshold is no
        # more than a relative 1e-11 below 0.35, the rule's rounding margin
        rf, dt, spin = self.OFF_RESONANCE, 1e-7, slow_mas

        def count(d):
            return required_substeps(rf, CouplingParams(d=d),
                                     bench_orientation, spin, dt)

        below, above = couplings_around(lambda d: count(d) > k, largest=1e9)
        times = (np.arange(64) + 0.5) * (2.0 * math.pi / spin.omega_r / 64)
        for d in [*below, *above]:
            coupling = CouplingParams(d=d)
            substeps = count(d)
            assert substeps == (k if d in below else k + 1)
            h = oracle.CF4_LENGTH * dt / substeps
            norm = bounding_norm(rf, coupling, bench_orientation, h)
            assert norm < 0.35
            node_dts.clear()
            steps = oracle._substep_table(rf, coupling, bench_orientation, h)
            assert node_dts == [h]
            expected, _ = reference_steps(rf, coupling, bench_orientation,
                                          spin, times, h)
            c = 2.0 * dipolar_coupling_at(coupling, bench_orientation, spin,
                                          times)
            err = np.abs(steps(c) - expected).max(axis=(-1, -2))
            assert np.all(err <= 1e-14)
        for d in above:
            norm = bounding_norm(rf, CouplingParams(d=d), bench_orientation,
                                 oracle.CF4_LENGTH * dt / k)
            assert 0.35 * (1.0 - 1e-11) <= norm < 0.35

    @settings(max_examples=200, deadline=None)
    @given(locks_khz=st.tuples(st.floats(1.0, 200.0), st.floats(1.0, 200.0)),
           offsets=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
           d_per_lock=st.floats(-1e3, 1e3), beta=st.floats(0.0, math.pi),
           mas_khz=st.floats(0.0, 20.0), log_dt_us=st.floats(-2.0, 4.0))
    def test_rule_takes_the_larger_count_and_the_table_builds(
            self, locks_khz, offsets, d_per_lock, beta, mas_khz, log_dt_us):
        # the count satisfies the frequency rule and keeps the bounding norm
        # of the factors below 0.35, one substep fewer fails one of them
        # (the smallest count of each rule, up to their rounding margins),
        # and the table builds at it; or the rule refuses past the cap
        b1i, b1s = (b * KHZ for b in locks_khz)
        rf = RfScheme(omega1_i=b1i, omega1_s=b1s, offset_i=offsets[0] * b1i,
                      offset_s=offsets[1] * b1s)
        coupling = CouplingParams(d=d_per_lock * max(b1i, b1s))
        orient = Orientation(beta=beta, gamma=0.0)
        spin = SpinningParams(omega_r=mas_khz * KHZ)
        dt = 10.0**log_dt_us * 1e-6
        eff = effective_field(rf)
        frequency = (dt * oracle.CF4_STEPS_PER_PERIOD / (2.0 * math.pi)
                     * max(eff.omega1_ie + eff.omega1_se, 2.0 * spin.omega_r))
        norm = bounding_norm(rf, coupling, orient, oracle.CF4_LENGTH * dt)
        try:
            k = required_substeps(rf, coupling, orient, spin, dt)
        except ValueError as exc:
            assert "more than the limit of" in str(exc)
            assert max(frequency, norm / 0.35) > oracle.MAX_SUBSTEPS * 0.999
            return
        assert k >= 1 and k >= frequency - 1e-6 and norm / k < 0.35
        assert (k == 1 or k - 1 < frequency
                or norm / (k - 1) >= 0.35 * (1.0 - 1e-9))
        oracle._substep_table(rf, coupling, orient, oracle.CF4_LENGTH * dt / k)

    @pytest.mark.parametrize("a", [0.0, 1e-6, 1e-3, 7.5e-3, 0.1, 0.35, 1.0])
    def test_degree_is_the_smallest_within_the_bound(self, a):
        def bound(n):
            return a ** (n + 1) / (2.0**n * math.factorial(n + 1))

        n = oracle._table_degree(a)
        assert bound(n) <= 2.0**-56
        assert n == 0 or bound(n - 1) > 2.0**-56
        if a <= 0.01:
            assert n <= 5

    def test_one_table_per_propagation(self, monkeypatch, matched_rf,
                                       bench_coupling, slow_mas,
                                       bench_orientation):
        counts = []
        taylor = oracle.cos_sin_step

        def counting(h, dt):
            counts.append(len(h))
            return taylor(h, dt)

        monkeypatch.setattr(oracle, "cos_sin_step", counting)
        grid = TimeGrid(dt=1e-6, n_points=1001)  # 1000 intervals x 1
        propagate_expectations(IY, (SY, IY, DQ_Y), matched_rf, bench_coupling,
                               bench_orientation, slow_mas, grid)
        assert len(counts) == 1
        # each substep is two 0.5 us factors, whose couplings reach 2/sqrt(3)
        # of max |2*d(t)|: a = w*dt/4 ~ 9.0e-3 takes degree 6, 7 nodes
        assert counts[0] == 7

    def test_unitarity_over_1e5_substeps(self, matched_rf, bench_coupling,
                                         slow_mas, bench_orientation):
        # 2e5 table factors
        assert_table_unitarity(matched_rf, bench_coupling, slow_mas,
                               bench_orientation)

    def test_refuses_a_step_past_the_taylor_bound(self, matched_rf,
                                                  bench_orientation):
        # called with a step outside the norm rule, the table refuses it by
        # the Taylor bound's message, before its degree is sought: never
        # an OverflowError, and no numpy warning where w overflows
        dt = 1e-7
        couplings = [couplings_around_norm(matched_rf, bench_orientation, dt,
                                           norm)[1][0]
                     for norm in (0.36, 2.4e7, 1e290)]
        for d in (*couplings, 1e303, sys.float_info.max):
            with pytest.raises(ValueError, match=re.escape(
                    "||h*dt||_inf = ") + ".* is not below 0.35, the Taylor"):
                oracle._substep_table(matched_rf, CouplingParams(d=d),
                                      bench_orientation, dt)
        (*_, d), _ = couplings_around_norm(matched_rf, bench_orientation, dt,
                                           0.35 * (1.0 - 1e-12))
        oracle._substep_table(matched_rf, CouplingParams(d=d),
                              bench_orientation, dt)


class TestPropagate:
    def test_no_coupling_is_static(self, matched_rf, slow_mas):
        grid = TimeGrid(dt=1e-6, n_points=101)
        sy, iy, _ = propagate_expectations(
            IY, (SY, IY, DQ_Y), matched_rf, CouplingParams(d=0.0),
            Orientation(beta=1.0, gamma=0.5), slow_mas, grid)
        np.testing.assert_allclose(sy, 0.0, atol=1e-12)
        np.testing.assert_allclose(iy, 1.0, atol=1e-12)

    def test_stationary_oscillation(self, matched_rf, bench_coupling):
        # at beta = pi/2, gamma = 0 the transfer oscillates at |d|
        static = SpinningParams(omega_r=0.0)
        orient = Orientation(beta=math.pi / 2, gamma=0.0)
        d0 = abs(bench_coupling.d)
        grid = TimeGrid(dt=1e-6, n_points=801)  # two oscillation periods
        sy, _, _ = propagate_expectations(IY, (SY, IY, DQ_Y), matched_rf,
                                          bench_coupling, orient, static, grid)
        expected = 0.5 * (1.0 - np.cos(d0 * grid.times()))
        assert np.max(np.abs(sy - expected)) <= 0.02

    def test_matches_analytic_transfer(self, matched_rf, bench_coupling,
                                       slow_mas, bench_orientation):
        grid = TimeGrid(dt=1e-6, n_points=1001)
        sy, _, _ = propagate_expectations(IY, (SY, IY, DQ_Y), matched_rf,
                                          bench_coupling, bench_orientation,
                                          slow_mas, grid)
        eta = transfer_efficiency(bench_coupling, bench_orientation, slow_mas,
                                  grid.times())
        assert np.max(np.abs(sy - eta)) <= 0.02

    def test_step_rule_violation_names_required_substeps(self, matched_rf,
                                                         bench_coupling,
                                                         slow_mas,
                                                         bench_orientation):
        grid = TimeGrid(dt=8e-6, n_points=11)
        needed = required_substeps(matched_rf, bench_coupling,
                                   bench_orientation, slow_mas, grid.dt)
        assert needed == 8
        with pytest.raises(ValueError, match=f"at least {needed} substeps"):
            propagate_expectations(IY, (SY, IY, DQ_Y), matched_rf,
                                   bench_coupling, bench_orientation,
                                   slow_mas, grid, substeps=needed - 1)

    def test_unitarity_preserved(self, matched_rf, bench_coupling, slow_mas,
                                 bench_orientation):
        # 1e4 manual steps through the public exponential
        dt = 0.1e-6
        rho = np.array(IY, dtype=complex)
        trace0 = np.trace(rho)
        purity0 = np.trace(rho @ rho)
        for k in range(10000):
            h = hamiltonian_at(matched_rf, bench_coupling, bench_orientation,
                               slow_mas, (k + 0.5) * dt)
            u = matrix_exponential_step(h, dt)
            rho = u @ rho @ u.conj().T
        assert abs(np.trace(rho) - trace0) < 1e-8
        assert abs(np.trace(rho @ rho) - purity0) < 1e-8
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-10

    def test_full_space_makes_no_eigh_call(self, monkeypatch, matched_rf,
                                           bench_coupling, slow_mas,
                                           bench_orientation):
        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        args = (IY, matched_rf, bench_coupling, bench_orientation, slow_mas,
                TimeGrid(dt=1e-6, n_points=41))
        propagate_expectations(IY, (SY, IY, DQ_Y), *args[1:])
        assert calls == []
        propagate_blockwise(*args)
        assert calls and all(shape[-2:] == (2, 2) for shape in calls)

    def test_blockwise_equals_full_space(self, matched_rf, bench_coupling,
                                         slow_mas, bench_orientation):
        # the benchmark crystal, then seeded on-resonance inputs of the
        # `oracle-compare` benchmark's shape: 40-120 kHz locks, 1-10 kHz
        # spinning, d/2pi 1-5 kHz, 200-1000 points 0.5-2 us apart
        cases = [(matched_rf, bench_coupling, bench_orientation, slow_mas,
                  TimeGrid(dt=1e-6, n_points=1001))]
        for seed in range(6):
            rng = np.random.default_rng([15, seed])
            b1 = rng.uniform(40.0, 120.0) * KHZ
            cases.append((
                RfScheme(omega1_i=b1, omega1_s=b1),
                CouplingParams(d=rng.uniform(1.0, 5.0) * KHZ),
                Orientation(beta=math.acos(rng.uniform(-1.0, 1.0)),
                            gamma=rng.uniform(0.0, 2.0 * math.pi)),
                SpinningParams(omega_r=rng.uniform(1.0, 10.0) * KHZ),
                TimeGrid(dt=rng.choice([0.5e-6, 1e-6, 2e-6]),
                         n_points=int(rng.integers(200, 1001)))))
        for k, args in enumerate(cases):
            sy_full = propagate_expectations(IY, (SY, IY, DQ_Y), *args)[0]
            sy_blocks = propagate_blockwise(IY, *args)
            assert np.max(np.abs(sy_full - sy_blocks)) < 1e-11, k

    @pytest.mark.parametrize("locks_khz,mas_khz,block,dt,n_points", [
        pytest.param((80.0, 80.0, 20.0, 15.0), 2.0, None, 0.1e-6, 41,
                     id="unequal-offsets"),
        pytest.param((80.0, 60.0, 0.0, 0.0), 2.0, None, 0.1e-6, 41,
                     id="on-resonance-unequal-locks"),
        pytest.param((80.0, 80.0, 20.0, 15.0), 0.0, None, 0.1e-6, 41,
                     id="stationary"),
        # 3 substeps of 2 factors per interval, in chunks of 2 and 1
        # substeps for a block of 5, and a scan over 38 points in blocks of
        # 5: whole blocks and a partial one
        pytest.param((80.0, 80.0, 20.0, 15.0), 2.0, 5, 0.1e-6, 38,
                     id="partial-blocks"),
        # grid lengths at the edges of the scan's groups, and one whose
        # group totals are scanned again, with a ragged last group at both
        # levels
        *(pytest.param((80.0, 80.0, 20.0, 15.0), 2.0, None, 0.1e-6, n_points,
                       id=name)
          for name, n_points in [
              ("one-point", 1), ("two-points", 2),
              ("group-less-one", oracle.SCAN_GROUP - 1),
              ("one-group", oracle.SCAN_GROUP),
              ("group-plus-one", oracle.SCAN_GROUP + 1),
              ("ragged-groups", 3 * oracle.SCAN_GROUP**2 + 5)]),
        # equal offsets and substeps 2/3 us long: the Gauss points of a
        # substep sample d(t) far apart
        pytest.param((80.0, 80.0, 20.0, 20.0), 2.0, None, 2e-6, 13,
                     id="equal-offsets-long-substeps"),
    ])
    def test_matches_per_substep_loop(self, monkeypatch, locks_khz, mas_khz,
                                      block, dt, n_points, bench_coupling,
                                      bench_orientation):
        # each substep is exp(-i*h*(a-*H(t1) + a+*H(t2))) after
        # exp(-i*h*(a+*H(t1) + a-*H(t2))), each by eigh of the full
        # product-basis Hamiltonians
        b1i, b1s, off_i, off_s = locks_khz
        rf = RfScheme(omega1_i=b1i * KHZ, omega1_s=b1s * KHZ,
                      offset_i=off_i * KHZ, offset_s=off_s * KHZ)
        spin = SpinningParams(omega_r=mas_khz * KHZ)
        if block is not None:
            monkeypatch.setattr(oracle, "SUBSTEP_BLOCK", block)
        grid = TimeGrid(dt=dt, n_points=n_points)
        substeps = 3
        assert required_substeps(rf, bench_coupling, bench_orientation,
                                 spin, grid.dt) <= substeps
        out = lock_expectations(rf, bench_coupling, bench_orientation, spin,
                                grid, substeps=substeps)
        i_e, s_e = tilted_spin_operators(rf)
        observables = (s_e, i_e, oracle.DQ_Y)
        h = grid.dt / substeps
        r3 = math.sqrt(3.0) / 6.0
        a_plus, a_minus = 0.25 + r3, 0.25 - r3
        rho = np.array(i_e, dtype=complex)
        expected = [[np.trace(o @ rho).real for o in observables]]
        for k in range((grid.n_points - 1) * substeps):
            h1, h2 = hamiltonian_at(rf, bench_coupling, bench_orientation,
                                    spin, (k + 0.5 + np.array([-r3, r3])) * h)
            for a1, a2 in ((a_plus, a_minus), (a_minus, a_plus)):
                u = matrix_exponential_step(a1 * h1 + a2 * h2, h)
                rho = u @ rho @ u.conj().T
            if (k + 1) % substeps == 0:
                expected.append([np.trace(o @ rho).real for o in observables])
        np.testing.assert_allclose(out, np.array(expected).T, rtol=0,
                                   atol=1e-12)

    def test_one_point_grid_gives_initial_expectations(self, bench_coupling,
                                                       slow_mas,
                                                       bench_orientation):
        # no interval to propagate: the scan is empty
        rf = RfScheme(omega1_i=80.0 * KHZ, omega1_s=60.0 * KHZ,
                      offset_i=20.0 * KHZ, offset_s=15.0 * KHZ)
        i_e, s_e = tilted_spin_operators(rf)
        out = propagate_expectations(i_e, (s_e, i_e), rf, bench_coupling,
                                     bench_orientation, slow_mas,
                                     TimeGrid(dt=1e-6, n_points=1))
        expected = [[np.trace(s_e @ i_e).real], [np.trace(i_e @ i_e).real]]
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-15)
        sy, iy, dq_y = propagate_expectations(
            IY, (SY, IY, DQ_Y), rf, bench_coupling, bench_orientation,
            slow_mas, TimeGrid(dt=1e-6, n_points=1))
        assert (sy[0], iy[0], dq_y[0]) == (0.0, 1.0, 0.5)

    @pytest.mark.parametrize("block", [1, 2, 3, 5, 24])
    def test_substep_blocks_do_not_change_results(self, monkeypatch, block,
                                                  matched_rf, bench_coupling,
                                                  slow_mas, bench_orientation):
        # 4 substeps of 2 factors per interval: block 5 splits intervals
        # into chunks, block 24 takes three whole intervals at a time
        args = (IY, matched_rf, bench_coupling, bench_orientation, slow_mas,
                TimeGrid(dt=4e-6, n_points=41))
        assert required_substeps(*args[1:5], 4e-6) == 4
        full = propagate_expectations(IY, (SY, IY, DQ_Y), *args[1:])
        blocks = propagate_blockwise(*args)
        monkeypatch.setattr(oracle, "SUBSTEP_BLOCK", block)
        small = propagate_expectations(IY, (SY, IY, DQ_Y), *args[1:])
        for row in range(3):   # sy, iy, dq_y
            assert np.array_equal(small[row], full[row])
        assert np.array_equal(propagate_blockwise(*args), blocks)

    @pytest.mark.parametrize("block", [1, 2, 3, 5, 24])
    def test_substep_blocks_do_not_change_results_off_resonance(
            self, monkeypatch, block, bench_coupling, slow_mas,
            bench_orientation):
        # 2 substeps of 2 factors per interval: block 1 and 2 take one
        # substep's factors at a time, block 3 one, block 5 two
        rf = RfScheme(omega1_i=80.0 * KHZ, omega1_s=60.0 * KHZ,
                      offset_i=20.0 * KHZ, offset_s=15.0 * KHZ)
        args = (rf, bench_coupling, bench_orientation, slow_mas,
                TimeGrid(dt=2e-6, n_points=41))
        assert required_substeps(*args[:4], 2e-6) == 2
        full = lock_expectations(*args)
        monkeypatch.setattr(oracle, "SUBSTEP_BLOCK", block)
        assert np.array_equal(lock_expectations(*args), full)

    @pytest.mark.parametrize("block", [1, 5, 24, 1024])
    @pytest.mark.parametrize("offsets_khz", [(0.0, 0.0), (20.0, 15.0)],
                             ids=["on-resonance", "off-resonance"])
    def test_leading_points_match_shorter_grid(self, monkeypatch, block,
                                               offsets_khz, bench_coupling,
                                               slow_mas, bench_orientation):
        # a propagator's bits depend only on its index and the inputs, so
        # the first k points of a long grid equal a grid of k points
        g = oracle.SCAN_GROUP
        rf = RfScheme(omega1_i=80.0 * KHZ, omega1_s=60.0 * KHZ,
                      offset_i=offsets_khz[0] * KHZ,
                      offset_s=offsets_khz[1] * KHZ)
        i_e, s_e = tilted_spin_operators(rf)
        monkeypatch.setattr(oracle, "SUBSTEP_BLOCK", block)

        def run(n_points):
            return propagate_expectations(
                i_e, (s_e, i_e, oracle.DQ_Y), rf, bench_coupling,
                bench_orientation, slow_mas, TimeGrid(dt=1e-6,
                                                      n_points=n_points))

        n_long = 2 * g * g + 3
        full = run(n_long)
        for k in (1, 2, g - 1, g, g + 1, g * g, g * g + 1, n_long - 1):
            assert np.array_equal(run(k), full[:, :k])

    def test_memory_per_grid_point(self, matched_rf, bench_coupling,
                                   slow_mas, bench_orientation):
        # the propagators' top halves take 256 B a grid point; nothing else
        # held at the peak may grow with the grid by more than 44 B a point
        peaks = []
        for n_points in (20001, 80001):
            grid = TimeGrid(dt=0.1e-6, n_points=n_points)
            assert required_substeps(matched_rf, bench_coupling,
                                     bench_orientation, slow_mas,
                                     grid.dt) == 1
            tracemalloc.start()
            try:
                propagate_expectations(IY, (SY, IY, DQ_Y), matched_rf,
                                       bench_coupling, bench_orientation,
                                       slow_mas, grid)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert (peaks[1] - peaks[0]) / 60000 <= 300

    def test_blockwise_step_rule_violation_names_required_substeps(
            self, matched_rf, bench_coupling, slow_mas, bench_orientation):
        grid = TimeGrid(dt=8e-6, n_points=11)
        needed = required_substeps(matched_rf, bench_coupling,
                                   bench_orientation, slow_mas, grid.dt)
        with pytest.raises(ValueError, match=f"at least {needed} substeps"):
            propagate_blockwise(IY, matched_rf, bench_coupling,
                                bench_orientation, slow_mas, grid,
                                substeps=needed - 1)

    def test_total_substeps_capped(self, monkeypatch, matched_rf,
                                   bench_coupling, slow_mas,
                                   bench_orientation):
        grid = TimeGrid(dt=8e-6, n_points=11)  # 10 intervals x 8 substeps
        args = (matched_rf, bench_coupling, bench_orientation, slow_mas, grid)
        paths = (functools.partial(propagate_expectations, IY, (SY, IY, DQ_Y)),
                 functools.partial(propagate_blockwise, IY))
        monkeypatch.setattr(oracle, "MAX_SUBSTEPS", 80)
        for fn in paths:
            fn(*args)
        monkeypatch.setattr(oracle, "MAX_SUBSTEPS", 79)
        for fn in paths:
            with pytest.raises(ValueError, match=r"^80 substeps \(10 grid "
                               r"intervals x 8\) exceed the limit of 79 "):
                fn(*args)
            with pytest.raises(ValueError, match="exceed the limit of 79 "):
                fn(*args, substeps=10**30)

    @pytest.mark.parametrize("b1_khz,needed", [(1e9, "1e+08"),
                                               (2e304, "inf")])
    def test_absurd_lock_exceeds_cap_per_interval(self, b1_khz, needed,
                                                  bench_coupling, slow_mas,
                                                  bench_orientation):
        # 2e304 kHz is finite, but the sum of the two lock fields overflows
        rf = RfScheme(omega1_i=b1_khz * KHZ, omega1_s=b1_khz * KHZ)
        grid = TimeGrid(dt=8e-6, n_points=1001)
        message = re.escape(f"needs {needed} substeps per grid interval, "
                            f"more than the limit of {oracle.MAX_SUBSTEPS}")
        with pytest.raises(ValueError, match=message):
            required_substeps(rf, bench_coupling, bench_orientation,
                              slow_mas, grid.dt)
        for fn in (functools.partial(propagate_expectations, IY,
                                     (SY, IY, DQ_Y)),
                   functools.partial(propagate_blockwise, IY)):
            with pytest.raises(ValueError, match=message):
                fn(rf, bench_coupling, bench_orientation, slow_mas, grid)

    def test_blockwise_rejects_offsets(self, bench_coupling, slow_mas,
                                       bench_orientation):
        rf = RfScheme(omega1_i=80.0 * KHZ, omega1_s=80.0 * KHZ,
                      offset_i=5.0 * KHZ)
        grid = TimeGrid(dt=1e-6, n_points=5)
        with pytest.raises(ValueError, match="offsets"):
            propagate_blockwise(IY, rf, bench_coupling, bench_orientation,
                                slow_mas, grid)


def oracle_compare_inputs(count, seed):
    """Seeded inputs of the `oracle-compare` benchmark's shape, every other
    one off resonance: matched 40-120 kHz locks with equal offsets of up to
    half the lock, 1-10 kHz spinning, d/2pi 1-5 kHz, 200-1000 points
    0.5-2 us apart."""
    for k in range(count):
        rng = np.random.default_rng([seed, k])
        b1 = rng.uniform(40.0, 120.0) * KHZ
        offset = rng.uniform(-0.5, 0.5) * b1 if k % 2 else 0.0
        yield (RfScheme(omega1_i=b1, omega1_s=b1, offset_i=offset,
                        offset_s=offset),
               CouplingParams(d=rng.uniform(1.0, 5.0) * KHZ),
               Orientation(beta=math.acos(rng.uniform(-1.0, 1.0)),
                           gamma=rng.uniform(0.0, 2.0 * math.pi)),
               SpinningParams(omega_r=rng.uniform(1.0, 10.0) * KHZ),
               TimeGrid(dt=rng.choice([0.5e-6, 1e-6, 2e-6]),
                        n_points=int(rng.integers(200, 1001))))


def lock_expectations(rf, *args, substeps=None):
    """<S_e>, <I_e> and the DQ lock component from I_e, as `cpmas oracle`
    records them."""
    i_e, s_e = tilted_spin_operators(rf)
    return propagate_expectations(i_e, (s_e, i_e, oracle.DQ_Y), rf, *args,
                                  substeps=substeps)


class TestCf4:
    """The fourth-order commutator-free Magnus rule the oracle steps by."""

    def test_fourth_order(self, bench_coupling, bench_orientation):
        # far above round-off: 120 kHz locks off resonance by half the lock,
        # 10 kHz spinning, 2 us between points.  The rule's count and its
        # doublings, against 32x the rule's count
        rf = RfScheme(omega1_i=120.0 * KHZ, omega1_s=120.0 * KHZ,
                      offset_i=60.0 * KHZ, offset_s=60.0 * KHZ)
        spin = SpinningParams(omega_r=10.0 * KHZ)
        grid = TimeGrid(dt=2e-6, n_points=51)
        needed = required_substeps(rf, bench_coupling, bench_orientation,
                                   spin, grid.dt)
        assert needed == 4

        def sy(substeps):
            return lock_expectations(rf, bench_coupling, bench_orientation,
                                     spin, grid, substeps=substeps)[0]

        reference = sy(32 * needed)
        errors = [np.max(np.abs(sy(k * needed) - reference))
                  for k in (1, 2, 4)]
        assert errors[2] > 1e-12
        assert errors[0] / errors[1] >= 12.0
        assert errors[1] / errors[2] >= 12.0

    def test_within_tolerance_and_below_midpoint(self):
        # on inputs like those its substeps per period were fitted to, CF4
        # at its step-size rule is within CF4_TOLERANCE of itself at 8x the
        # substeps
        for k, args in enumerate(oracle_compare_inputs(12, 16)):
            needed = required_substeps(*args[:4], args[4].dt)
            reference = lock_expectations(*args, substeps=8 * needed)
            cf4 = np.max(np.abs(lock_expectations(*args) - reference))
            assert cf4 <= oracle.CF4_TOLERANCE, k

    @pytest.mark.parametrize("locks_khz,d_khz", [
        (40.0, 100.0), (40.0, 60.0), (80.0, 80.0), (50.0, 200.0)])
    def test_strong_coupling_within_2e_5_of_8x_the_substeps(self, locks_khz,
                                                           d_khz):
        # d near or above the matched locks, where the norm rule, not the
        # frequency rule, sets the count: one crystal at beta 0.9, gamma
        # 0.4 rad, 10 kHz spinning, 501 x 2 us.  CF4_TOLERANCE does not
        # hold here; the largest error is 1.3e-5
        b1 = locks_khz * KHZ
        args = (RfScheme(omega1_i=b1, omega1_s=b1),
                CouplingParams(d=d_khz * KHZ),
                Orientation(beta=0.9, gamma=0.4),
                SpinningParams(omega_r=10.0 * KHZ),
                TimeGrid(dt=2e-6, n_points=501))
        needed = required_substeps(*args[:4], 2e-6)
        reference = lock_expectations(*args, substeps=8 * needed)
        assert np.max(np.abs(lock_expectations(*args) - reference)) <= 2e-5

    @pytest.mark.parametrize("block", [1, 2, 3, 5, 24])
    def test_substep_blocks_do_not_change_results(self, monkeypatch, block,
                                                  bench_coupling, slow_mas,
                                                  bench_orientation):
        # an explicit 3 substeps of 2 factors per interval, one above the
        # rule's count: blocks 1, 2 and 3 split a 6-factor interval
        # unevenly, blocks 5 and 24 take parts of several intervals
        rf = RfScheme(omega1_i=80.0 * KHZ, omega1_s=60.0 * KHZ,
                      offset_i=20.0 * KHZ, offset_s=15.0 * KHZ)
        args = (rf, bench_coupling, bench_orientation, slow_mas,
                TimeGrid(dt=2e-6, n_points=41))
        assert required_substeps(*args[:4], 2e-6) == 2
        full = lock_expectations(*args, substeps=3)
        monkeypatch.setattr(oracle, "SUBSTEP_BLOCK", block)
        assert np.array_equal(lock_expectations(*args, substeps=3), full)

    def test_unitarity_over_1e5_substeps(self, bench_coupling, slow_mas,
                                         bench_orientation):
        # 2e5 table factors, off resonance with unequal locks and offsets
        rf = RfScheme(omega1_i=80.0 * KHZ, omega1_s=60.0 * KHZ,
                      offset_i=20.0 * KHZ, offset_s=-15.0 * KHZ)
        assert_table_unitarity(rf, bench_coupling, slow_mas,
                               bench_orientation)

    def test_blockwise_equals_full_space(self):
        # seeded on-resonance inputs with unequal locks, each at one
        # substep more than the rule's count
        for seed in range(6):
            rng = np.random.default_rng([16, seed])
            rf = RfScheme(omega1_i=rng.uniform(40.0, 120.0) * KHZ,
                          omega1_s=rng.uniform(40.0, 120.0) * KHZ)
            spin = SpinningParams(omega_r=rng.uniform(1.0, 10.0) * KHZ)
            grid = TimeGrid(dt=rng.choice([0.5e-6, 1e-6, 2e-6]),
                            n_points=int(rng.integers(200, 601)))
            args = (rf, CouplingParams(d=rng.uniform(1.0, 5.0) * KHZ),
                    Orientation(beta=math.acos(rng.uniform(-1.0, 1.0)),
                                gamma=rng.uniform(0.0, 2.0 * math.pi)),
                    spin, grid)
            substeps = required_substeps(*args[:4], grid.dt) + 1
            sy_full = propagate_expectations(IY, (SY, IY, DQ_Y), *args,
                                             substeps=substeps)[0]
            sy_blocks = propagate_blockwise(IY, *args, substeps=substeps)
            assert np.max(np.abs(sy_full - sy_blocks)) < 1e-11, seed


class TestScratch:
    """This thread's block temporaries (`oracle._scratch`), reused across
    blocks and calls, never show in a result."""

    MATCHED = RfScheme(omega1_i=80.0 * KHZ, omega1_s=80.0 * KHZ)
    OFF_RESONANCE = RfScheme(omega1_i=80.0 * KHZ, omega1_s=60.0 * KHZ,
                             offset_i=20.0 * KHZ, offset_s=15.0 * KHZ)
    # far above the locks: the norm rule, not the frequency rule, sets the
    # substeps (3-4 at 1 us, where the frequency rule takes 1), so the
    # intervals' products take both scratch roles 2 and 3
    STRONG = CouplingParams(d=300.0 * KHZ)

    @staticmethod
    def clear():
        vars(oracle._SCRATCH).clear()

    def test_results_do_not_depend_on_earlier_calls(self, bench_coupling,
                                                    slow_mas,
                                                    bench_orientation):
        # a large grid (three readout blocks), a small one, the large one
        # again; 700 explicit substeps take each interval in two chunks
        large = TimeGrid(dt=1e-6, n_points=2501)
        small = TimeGrid(dt=1e-6, n_points=13)
        orient = bench_orientation
        chunked = functools.partial(lock_expectations, substeps=700)
        for rf in (self.MATCHED, self.OFF_RESONANCE):
            assert required_substeps(rf, self.STRONG, orient, slow_mas,
                                     1e-6) > 1
            assert required_substeps(rf, bench_coupling, orient, slow_mas,
                                     1e-6) == 1
        calls = [
            (lock_expectations, self.MATCHED, self.STRONG, orient, slow_mas,
             large),
            (chunked, self.OFF_RESONANCE, bench_coupling, orient, slow_mas,
             small),
            (propagate_blockwise, IY, self.MATCHED, bench_coupling, orient,
             slow_mas, small),
            (lock_expectations, self.OFF_RESONANCE, self.STRONG, orient,
             slow_mas, large),
            (chunked, self.MATCHED, bench_coupling, orient, slow_mas,
             small),
            (lock_expectations, self.MATCHED, self.STRONG, orient, slow_mas,
             large),
        ]
        self.clear()
        in_sequence = [fn(*args) for fn, *args in calls]
        for (fn, *args), got in zip(calls, in_sequence):
            self.clear()
            assert np.array_equal(fn(*args), got)

    def test_threads_get_their_single_thread_bytes(self, bench_coupling,
                                                   slow_mas,
                                                   bench_orientation):
        # more threads than the two cores, switching as often as they can,
        # each propagating its own inputs over two readout blocks
        grids = [TimeGrid(dt=1e-6, n_points=n) for n in (1500, 1201, 1777)]
        inputs = [
            (propagate_blockwise, IY, self.MATCHED, self.STRONG,
             bench_orientation, slow_mas, grids[0]),
            (lock_expectations, self.OFF_RESONANCE, bench_coupling,
             bench_orientation, slow_mas, grids[1]),
            (lock_expectations, self.MATCHED, self.STRONG, bench_orientation,
             slow_mas, grids[2]),
        ]
        expected = [fn(*args) for fn, *args in inputs]
        rounds = 4
        results = [[] for _ in inputs]
        barrier = threading.Barrier(len(inputs))

        def work(k):
            fn, *args = inputs[k]
            barrier.wait(timeout=30)
            for _ in range(rounds):
                results[k].append(fn(*args))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,))
                       for k in range(len(inputs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for want, got in zip(expected, results):
            assert len(got) == rounds
            assert all(np.array_equal(g, want) for g in got)

    def test_bounded_by_one_block(self, slow_mas, bench_orientation):
        # 80001 points, 2 substeps an interval by the norm rule (the
        # frequency rule takes 1): 256 intervals of four factors a block.
        # One block needs a table of SUBSTEP_BLOCK 8x8 factors, which the
        # readout's first product reuses, the readout's second product of
        # SUBSTEP_BLOCK 8x4 matrices, and two products of at most
        # SUBSTEP_BLOCK/2 intervals' 8x4 left halves: 1.0 MiB at 1024
        block = oracle.SUBSTEP_BLOCK
        bound = block * 64 * 8 + block * 32 * 8 + 2 * (block // 2) * 32 * 8
        assert bound == 1048576
        grid = TimeGrid(dt=0.1e-6, n_points=80001)
        coupling = CouplingParams(d=1500.0 * KHZ)
        assert required_substeps(self.MATCHED, coupling, bench_orientation,
                                 slow_mas, grid.dt) == 2
        held = []

        def work():  # a new thread starts with no scratch
            propagate_expectations(IY, (SY, IY, DQ_Y), self.MATCHED, coupling,
                                   bench_orientation, slow_mas, grid)
            held.append(sum(b.nbytes for b in vars(oracle._SCRATCH).values()))

        t = threading.Thread(target=work)
        t.start()
        t.join(timeout=120)
        assert not t.is_alive()
        assert 0 < held[0] <= bound

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="counts the page faults of glibc's malloc")
    def test_repeated_propagation_touches_no_fresh_pages(self):
        # In a fresh process, so that no earlier test has raised glibc's
        # mmap and trim thresholds: block temporaries allocated anew on
        # each call take ~220 minor faults a call here.  At 541 points the
        # arrays that stay fresh allocations, those as long as the grid,
        # stay on the heap.
        probe = """if True:
            import math, resource
            from cpmas.core import (CouplingParams, Orientation, RfScheme,
                                    SpinningParams, TimeGrid)
            from cpmas.oracle import (DQ_Y, propagate_expectations,
                                      tilted_spin_operators)
            khz = 2.0 * math.pi * 1e3
            rf = RfScheme(omega1_i=80 * khz, omega1_s=80 * khz,
                          offset_i=30 * khz, offset_s=30 * khz)
            i_e, s_e = tilted_spin_operators(rf)
            args = ((s_e, i_e, DQ_Y), rf, CouplingParams(d=3 * khz),
                    Orientation(beta=math.pi / 3, gamma=math.pi / 5),
                    SpinningParams(omega_r=5 * khz),
                    TimeGrid(dt=1e-6, n_points=541))
            for _ in range(3):
                propagate_expectations(i_e, *args)
            before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
            propagate_expectations(i_e, *args)
            print(resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
                  - before)
        """
        src = os.path.dirname(os.path.dirname(oracle.__file__))
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
        run = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, timeout=120,
                             check=True)
        assert int(run.stdout) < 10


class TestZqDqDecompose:
    def test_initial_state_splits_into_unit_lock_components(self):
        comps = zq_dq_decompose(IY)
        np.testing.assert_allclose(comps.zq_coeffs, (0.0, 1.0, 0.0, 0.0),
                                   atol=1e-12)
        np.testing.assert_allclose(comps.dq_coeffs, (0.0, 1.0, 0.0, 0.0),
                                   atol=1e-12)
        assert comps.remainder_norm < 1e-12

    def test_lock_components_match_spin_combinations(self):
        np.testing.assert_allclose(fictitious_operator("zq", "y"),
                                   0.5 * (IY - SY), atol=1e-14)
        np.testing.assert_allclose(fictitious_operator("dq", "y"),
                                   0.5 * (IY + SY), atol=1e-14)

    def test_cross_space_commutators_vanish(self):
        for ax1 in "xyz":
            for ax2 in "xyz":
                a = fictitious_operator("zq", ax1)
                b = fictitious_operator("dq", ax2)
                assert np.max(np.abs(a @ b - b @ a)) < 1e-12

    def test_spin_half_algebra_within_each_space(self):
        for space in ("zq", "dq"):
            sx = fictitious_operator(space, "x")
            sy = fictitious_operator(space, "y")
            sz = fictitious_operator(space, "z")
            np.testing.assert_allclose(sx @ sy - sy @ sx, 1j * sz, atol=1e-14)

    def test_matched_hamiltonian_is_pure_coupling_in_zq(self, matched_rf,
                                                        bench_coupling,
                                                        slow_mas):
        rng = np.random.default_rng(33)
        for _ in range(10):
            orient = Orientation(beta=float(rng.uniform(0, math.pi)),
                                 gamma=float(rng.uniform(0, 2 * math.pi)))
            t = float(rng.uniform(0, 5e-4))
            h = hamiltonian_at(matched_rf, bench_coupling, orient, slow_mas, t)
            comps = zq_dq_decompose(h)
            d_t = dipolar_coupling_at(bench_coupling, orient, slow_mas, t)
            c_x, c_y, c_z, c_1 = comps.zq_coeffs
            assert c_z == pytest.approx(d_t, rel=1e-10, abs=1e-6)
            assert abs(c_x) < 1e-9 and abs(c_y) < 1e-9 and abs(c_1) < 1e-9
            # DQ part carries the lock sum plus the same coupling component
            assert comps.dq_coeffs[1] == pytest.approx(
                matched_rf.omega1_i + matched_rf.omega1_s, rel=1e-12)
            assert comps.dq_coeffs[2] == pytest.approx(d_t, rel=1e-10, abs=1e-6)

    def test_recomposition_reproduces_block_supported_operator(self, matched_rf,
                                                               bench_coupling,
                                                               slow_mas):
        h = hamiltonian_at(matched_rf, bench_coupling,
                           Orientation(beta=1.2, gamma=0.3), slow_mas, 1e-5)
        comps = zq_dq_decompose(h)
        assert np.max(np.abs(comps.recompose() - h)) < 1e-12 * np.max(np.abs(h))

    def test_off_block_operator_reports_remainder(self):
        # a single-spin z operator mixes the two spaces
        comps = zq_dq_decompose(IZ)
        assert comps.remainder_norm > 0.1


class TestDqConstancy:
    def test_zero_coupling_is_constant(self, matched_rf, slow_mas,
                                       bench_orientation):
        grid = TimeGrid(dt=1e-6, n_points=101)
        _, _, dq_y = propagate_expectations(IY, (SY, IY, DQ_Y), matched_rf,
                                            CouplingParams(d=0.0),
                                            bench_orientation, slow_mas, grid)
        assert dq_constancy_report(dq_y) < 1e-10

    def test_strong_lock_pins_dq_component(self, matched_rf, bench_coupling,
                                           slow_mas, bench_orientation):
        grid = TimeGrid(dt=1e-6, n_points=1001)
        _, _, dq_y = propagate_expectations(IY, (SY, IY, DQ_Y), matched_rf,
                                            bench_coupling, bench_orientation,
                                            slow_mas, grid)
        assert dq_y[0] == pytest.approx(0.5, abs=1e-12)
        assert dq_constancy_report(dq_y) <= 0.05

    def test_doubling_fields_tightens_constancy(self, matched_rf,
                                                bench_coupling, slow_mas,
                                                bench_orientation):
        grid = TimeGrid(dt=1e-6, n_points=1001)
        doubled = RfScheme(omega1_i=2 * matched_rf.omega1_i,
                           omega1_s=2 * matched_rf.omega1_s)
        dev1 = dq_constancy_report(propagate_expectations(
            IY, (SY, IY, DQ_Y), matched_rf, bench_coupling, bench_orientation,
            slow_mas, grid)[2])
        dev2 = dq_constancy_report(propagate_expectations(
            IY, (SY, IY, DQ_Y), doubled, bench_coupling, bench_orientation,
            slow_mas, grid)[2])
        assert dev1 / dev2 >= 1.8


class TestOffResonanceScaling:
    def test_transfer_rate_scales_with_tilt_product(self, bench_coupling):
        # symmetric 40 kHz offsets on 80 kHz locks keep the effective fields
        # matched and scale the coupling by sin(theta)^2 = 0.8
        offset = 40.0 * KHZ
        rf_off = RfScheme(omega1_i=80.0 * KHZ, omega1_s=80.0 * KHZ,
                          offset_i=offset, offset_s=offset)
        rf_on = RfScheme(omega1_i=80.0 * KHZ, omega1_s=80.0 * KHZ)
        eff = effective_field(rf_off)
        assert eff.omega1_ie == pytest.approx(eff.omega1_se, rel=1e-14)
        scale = math.sin(eff.theta_i) * math.sin(eff.theta_s)

        static = SpinningParams(omega_r=0.0)
        orient = Orientation(beta=math.pi / 2, gamma=0.0)
        t_half_on = math.pi / (2 * abs(bench_coupling.d))

        def first_half_transfer_time(rf, tilted, t_max):
            grid = TimeGrid(dt=t_max / 1500, n_points=1501)
            if tilted:
                i_e, s_e = tilted_spin_operators(rf)
            else:
                i_e, s_e = IY, SY
            sy = propagate_expectations(i_e, (s_e,), rf, bench_coupling,
                                        orient, static, grid)[0]
            k = int(np.argmax(sy >= 0.5))
            t = grid.times()
            return float(np.interp(0.5, [sy[k - 1], sy[k]], [t[k - 1], t[k]]))

        t_on = first_half_transfer_time(rf_on, tilted=False, t_max=3 * t_half_on)
        t_off = first_half_transfer_time(rf_off, tilted=True,
                                         t_max=3 * t_half_on / scale)
        assert t_on / t_off == pytest.approx(scale, rel=0.05)
