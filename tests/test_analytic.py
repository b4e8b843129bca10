import math

import numpy as np
import pytest

from cpmas import oracle
from cpmas.analytic import (RelaxationParams, damped_magnetization,
                            efficiency_curve, magnetization,
                            transfer_efficiency)
from cpmas.core import (CouplingParams, Orientation, RfScheme, SpinningParams,
                        TimeGrid, dipolar_coupling_at)

KHZ = 2.0 * math.pi * 1e3
STATIC = SpinningParams(omega_r=0.0)
# matched locks on resonance, whose tilt factor on d is exactly 1
LOCKS = RfScheme(omega1_i=80.0 * KHZ, omega1_s=80.0 * KHZ)


def random_orientations(n, seed=0):
    rng = np.random.default_rng(seed)
    return [Orientation(beta=float(b), gamma=float(g))
            for b, g in zip(rng.uniform(0, math.pi, n),
                            rng.uniform(0, 2 * math.pi, n))]


class TestTransferEfficiency:
    def test_zero_at_start(self, bench_coupling, slow_mas):
        for orient in random_orientations(5, seed=10):
            assert transfer_efficiency(bench_coupling, orient, slow_mas, 0.0) == 0.0

    def test_full_transfer_at_half_turn(self, bench_coupling):
        # stationary, phase reaches pi at t = pi/|d(0)|
        orient = Orientation(beta=math.pi / 2, gamma=0.0)
        t_half = math.pi / abs(dipolar_coupling_at(bench_coupling, orient,
                                                   STATIC, 0.0))
        eta = transfer_efficiency(bench_coupling, orient, STATIC, t_half)
        assert eta == pytest.approx(1.0, abs=1e-12)

    def test_bounded_in_unit_interval(self, bench_coupling, slow_mas):
        t = np.linspace(0.0, 2e-3, 1001)
        for orient in random_orientations(10, seed=11):
            eta = transfer_efficiency(bench_coupling, orient, slow_mas, t)
            assert eta.min() >= 0.0 and eta.max() <= 1.0

    def test_periodic_with_rotor(self, bench_coupling, slow_mas):
        t = np.linspace(0.0, 5e-4, 173)
        for orient in random_orientations(8, seed=12):
            a = transfer_efficiency(bench_coupling, orient, slow_mas, t)
            b = transfer_efficiency(bench_coupling, orient, slow_mas,
                                    t + slow_mas.rotor_period)
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-10)

    def test_matches_propagator(self, bench_coupling, slow_mas, matched_rf,
                                bench_orientation):
        grid = TimeGrid(dt=1e-6, n_points=1001)
        eta = transfer_efficiency(bench_coupling, bench_orientation, slow_mas,
                                  grid.times())
        sy, _, _ = oracle.propagate_expectations(
            oracle.IY, (oracle.SY, oracle.IY, oracle.DQ_Y), matched_rf,
            bench_coupling, bench_orientation, slow_mas, grid)
        assert np.max(np.abs(eta - sy)) <= 0.02


class TestEfficiencyCurve:
    def test_zero_orientation_gives_zero_curve(self, bench_coupling, slow_mas):
        grid = TimeGrid(dt=1e-6, n_points=100)
        curve = efficiency_curve(LOCKS, bench_coupling,
                                 Orientation(beta=0.0, gamma=0.0), slow_mas,
                                 grid)
        assert np.all(curve == 0.0)

    def test_single_point_grid(self, bench_coupling, slow_mas, bench_orientation):
        grid = TimeGrid(dt=1e-6, n_points=1)
        curve = efficiency_curve(LOCKS, bench_coupling, bench_orientation,
                                 slow_mas, grid)
        assert curve.shape == (1,)
        assert curve[0] == 0.0

    def test_rotor_period_nulls(self, bench_coupling, slow_mas):
        # 2 kHz spinning, 1 us sampling: exact zeros at 500 us and 1 ms
        grid = TimeGrid(dt=1e-6, n_points=1001)
        for orient in random_orientations(8, seed=13):
            curve = efficiency_curve(LOCKS, bench_coupling, orient, slow_mas,
                                     grid)
            assert abs(curve[500]) < 1e-9
            assert abs(curve[1000]) < 1e-9


class TestMagnetization:
    def test_zero_at_start(self, bench_coupling, slow_mas):
        grid = TimeGrid(dt=1e-6, n_points=50)
        relax = RelaxationParams(m0=2.0, r=3000.0, r1=7000.0, t1rho=2e-3)
        for orient in random_orientations(4, seed=14):
            eta = efficiency_curve(LOCKS, bench_coupling, orient, slow_mas,
                                   grid)
            m = magnetization(grid, eta, relax)
            assert m[0] == 0.0

    def test_no_damping_reduces_to_efficiency(self, bench_coupling, slow_mas,
                                              bench_orientation):
        grid = TimeGrid(dt=2e-6, n_points=200)
        eta = efficiency_curve(LOCKS, bench_coupling, bench_orientation,
                               slow_mas, grid)
        m = magnetization(grid, eta, RelaxationParams(m0=1.0))
        np.testing.assert_allclose(m, eta, rtol=0, atol=1e-15)

    def test_benchmark_damping_value(self):
        # eta held at 1/2 kills the oscillating term:
        # M(t) = m0*(1 - exp(-r*t)/2)*exp(-t/t1rho); at t = 1/r this is
        # m0*(1 - 1/(2e))*exp(-0.2908/1.867)
        relax = RelaxationParams(m0=1.0, r=1.0 / 290.8e-6, r1=1.0 / 137.9e-6,
                                 t1rho=1.867e-3)
        grid = TimeGrid(dt=290.8e-6, n_points=3)
        m = magnetization(grid, np.full(3, 0.5), relax)
        expected = (1.0 - 1.0 / (2.0 * math.e)) * math.exp(-0.2908 / 1.867)
        assert m[1] == pytest.approx(expected, abs=1e-12)
        assert m[1] == pytest.approx(0.6983569234344776, abs=1e-12)

    def test_nonnegative(self, bench_coupling, slow_mas):
        grid = TimeGrid(dt=5e-6, n_points=400)
        relax = RelaxationParams(m0=1.3, r=3438.0, r1=7251.0, t1rho=1.867e-3)
        for orient in random_orientations(6, seed=15):
            eta = efficiency_curve(LOCKS, bench_coupling, orient, slow_mas,
                                   grid)
            assert magnetization(grid, eta, relax).min() >= 0.0

    def test_longer_t1rho_raises_curve(self, bench_coupling, slow_mas,
                                       bench_orientation):
        grid = TimeGrid(dt=5e-6, n_points=400)
        eta = efficiency_curve(LOCKS, bench_coupling, bench_orientation,
                               slow_mas, grid)
        short = magnetization(grid, eta,
                              RelaxationParams(r=3438.0, t1rho=1e-3))
        longer = magnetization(grid, eta,
                               RelaxationParams(r=3438.0, t1rho=4e-3))
        assert np.all(longer[1:] > short[1:])

    def test_infinite_t1rho_disables_decay(self):
        relax = RelaxationParams(m0=1.0, r=1000.0, t1rho=math.inf)
        t = np.array([0.0, 1e-3, 1.0])
        m = damped_magnetization(t, np.full(3, 0.5), relax)
        np.testing.assert_allclose(m, 1.0 - 0.5 * np.exp(-1000.0 * t))


class TestStaticMagnetization:
    """The stationary sample: efficiency_curve at omega_r = 0 under the
    envelope, whose phase grows linearly, phi = d(0)*t."""

    def test_identically_zero_when_unmodulated(self):
        # d(0) = 0 orientation, no damping
        grid = TimeGrid(dt=1e-6, n_points=64)
        eta = efficiency_curve(LOCKS, CouplingParams(d=2.5 * KHZ),
                               Orientation(beta=0.0, gamma=0.0), STATIC, grid)
        curve = magnetization(grid, eta, RelaxationParams())
        assert np.all(curve == 0.0)

    def test_matches_cosine_closed_form(self, bench_coupling):
        relax = RelaxationParams(m0=1.0, r=3438.0, r1=7251.0, t1rho=1.867e-3)
        grid = TimeGrid(dt=2e-6, n_points=300)
        orient = Orientation(beta=1.0, gamma=0.7)
        eta = efficiency_curve(LOCKS, bench_coupling, orient, STATIC, grid)
        curve = magnetization(grid, eta, relax)
        t = grid.times()
        d0 = dipolar_coupling_at(bench_coupling, orient, STATIC, 0.0)
        expected = (relax.m0 * (1.0 - 0.5 * np.exp(-relax.r * t)
                                - 0.5 * np.exp(-relax.r1 * t) * np.cos(d0 * t))
                    * np.exp(-t / relax.t1rho))
        np.testing.assert_allclose(curve, expected, rtol=0, atol=1e-15)

    def test_oscillates_at_propagator_frequency(self, bench_coupling, matched_rf):
        # stationary sample: the propagator's <S_y> oscillates at |d(0)|
        orient = Orientation(beta=math.pi / 2, gamma=0.0)
        d0 = abs(dipolar_coupling_at(bench_coupling, orient, STATIC, 0.0))
        n_periods = 5
        grid = TimeGrid(dt=n_periods * (2 * math.pi / d0) / 2000, n_points=2001)
        sy, _, _ = oracle.propagate_expectations(
            oracle.IY, (oracle.SY, oracle.IY, oracle.DQ_Y), matched_rf,
            bench_coupling, orient, STATIC, grid)
        freq = _crossing_frequency(grid.times(), sy, level=0.5)
        assert freq == pytest.approx(d0, rel=0.01)


def _crossing_frequency(t, y, level):
    """Angular frequency from linearly interpolated level crossings."""
    s = np.asarray(y) - level
    idx = np.where(np.sign(s[:-1]) * np.sign(s[1:]) < 0)[0]
    tc = t[idx] - s[idx] * (t[idx + 1] - t[idx]) / (s[idx + 1] - s[idx])
    if len(tc) < 2:
        raise ValueError("not enough crossings")
    return math.pi * (len(tc) - 1) / (tc[-1] - tc[0])


class TestRelaxationParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            RelaxationParams(m0=0.0)
        with pytest.raises(ValueError):
            RelaxationParams(r=-1.0)
        with pytest.raises(ValueError):
            RelaxationParams(r1=-1.0)
        with pytest.raises(ValueError):
            RelaxationParams(r=math.nan)
        with pytest.raises(ValueError):
            RelaxationParams(r1=math.nan)
        with pytest.raises(ValueError, match="finite"):
            RelaxationParams(r=math.inf)
        with pytest.raises(ValueError, match="finite"):
            RelaxationParams(r1=math.inf)
        with pytest.raises(ValueError):
            RelaxationParams(t1rho=0.0)
        RelaxationParams(t1rho=math.inf)

    @pytest.mark.parametrize("m0", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_m0(self, m0):
        # an infinite amplitude times the bracket's 0 at t = 0 writes nan
        with pytest.raises(ValueError, match="m0 must be finite and > 0"):
            RelaxationParams(m0=m0)
