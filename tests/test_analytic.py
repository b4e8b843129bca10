import math

import numpy as np
import pytest

from cpmas import oracle
from cpmas.analytic import (CpCurve, CurveKind, RelaxationParams,
                            damped_magnetization, efficiency_curve,
                            magnetization, orientation_frequency,
                            static_magnetization, transfer_efficiency)
from cpmas.core import CouplingParams, Orientation, RfScheme, SpinningParams, TimeGrid

KHZ = 2.0 * math.pi * 1e3


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
        static = SpinningParams(omega_r=0.0)
        orient = Orientation(beta=math.pi / 2, gamma=0.0)
        t_half = math.pi / abs(orientation_frequency(bench_coupling, orient))
        eta = transfer_efficiency(bench_coupling, orient, static, t_half)
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
        traj = oracle.propagate(oracle.IY, matched_rf, bench_coupling,
                                bench_orientation, slow_mas, grid)
        assert np.max(np.abs(eta - traj.sy)) <= 0.02


class TestEfficiencyCurve:
    def test_zero_orientation_gives_zero_curve(self, bench_coupling, slow_mas):
        grid = TimeGrid(dt=1e-6, n_points=100)
        curve = efficiency_curve(bench_coupling, Orientation(beta=0.0, gamma=0.0),
                                 slow_mas, grid)
        assert np.all(curve.values == 0.0)

    def test_single_point_grid(self, bench_coupling, slow_mas, bench_orientation):
        grid = TimeGrid(dt=1e-6, n_points=1)
        curve = efficiency_curve(bench_coupling, bench_orientation, slow_mas, grid)
        assert curve.values.shape == (1,)
        assert curve.values[0] == 0.0

    def test_rotor_period_nulls(self, bench_coupling, slow_mas):
        # 2 kHz spinning, 1 us sampling: exact zeros at 500 us and 1 ms
        grid = TimeGrid(dt=1e-6, n_points=1001)
        for orient in random_orientations(8, seed=13):
            curve = efficiency_curve(bench_coupling, orient, slow_mas, grid)
            assert abs(curve.values[500]) < 1e-9
            assert abs(curve.values[1000]) < 1e-9

    def test_kind_and_immutability(self, bench_coupling, slow_mas,
                                   bench_orientation):
        grid = TimeGrid(dt=1e-6, n_points=10)
        curve = efficiency_curve(bench_coupling, bench_orientation, slow_mas, grid)
        assert curve.kind is CurveKind.EFFICIENCY
        with pytest.raises(ValueError):
            curve.values[0] = 0.5


class TestMagnetization:
    def test_zero_at_start(self, bench_coupling, slow_mas):
        grid = TimeGrid(dt=1e-6, n_points=50)
        relax = RelaxationParams(m0=2.0, r=3000.0, r1=7000.0, t1rho=2e-3)
        for orient in random_orientations(4, seed=14):
            eta = efficiency_curve(bench_coupling, orient, slow_mas, grid)
            m = magnetization(eta, relax)
            assert m.values[0] == 0.0
            assert m.kind is CurveKind.MAGNETIZATION

    def test_no_damping_reduces_to_efficiency(self, bench_coupling, slow_mas,
                                              bench_orientation):
        grid = TimeGrid(dt=2e-6, n_points=200)
        eta = efficiency_curve(bench_coupling, bench_orientation, slow_mas, grid)
        m = magnetization(eta, RelaxationParams(m0=1.0))
        np.testing.assert_allclose(m.values, eta.values, rtol=0, atol=1e-15)

    def test_benchmark_damping_value(self):
        # eta held at 1/2 kills the oscillating term:
        # M(t) = m0*(1 - exp(-r*t)/2)*exp(-t/t1rho); at t = 1/r this is
        # m0*(1 - 1/(2e))*exp(-0.2908/1.867)
        relax = RelaxationParams(m0=1.0, r=1.0 / 290.8e-6, r1=1.0 / 137.9e-6,
                                 t1rho=1.867e-3)
        grid = TimeGrid(dt=290.8e-6, n_points=3)
        flat = CpCurve(grid=grid, values=np.full(3, 0.5), kind=CurveKind.EFFICIENCY)
        m = magnetization(flat, relax)
        expected = (1.0 - 1.0 / (2.0 * math.e)) * math.exp(-0.2908 / 1.867)
        assert m.values[1] == pytest.approx(expected, abs=1e-12)
        assert m.values[1] == pytest.approx(0.6983569234344776, abs=1e-12)

    def test_rejects_magnetization_input(self, bench_coupling, slow_mas,
                                         bench_orientation):
        grid = TimeGrid(dt=1e-6, n_points=10)
        eta = efficiency_curve(bench_coupling, bench_orientation, slow_mas, grid)
        m = magnetization(eta, RelaxationParams())
        with pytest.raises(ValueError, match="efficiency"):
            magnetization(m, RelaxationParams())

    def test_nonnegative(self, bench_coupling, slow_mas):
        grid = TimeGrid(dt=5e-6, n_points=400)
        relax = RelaxationParams(m0=1.3, r=3438.0, r1=7251.0, t1rho=1.867e-3)
        for orient in random_orientations(6, seed=15):
            eta = efficiency_curve(bench_coupling, orient, slow_mas, grid)
            assert magnetization(eta, relax).values.min() >= 0.0

    def test_longer_t1rho_raises_curve(self, bench_coupling, slow_mas,
                                       bench_orientation):
        grid = TimeGrid(dt=5e-6, n_points=400)
        eta = efficiency_curve(bench_coupling, bench_orientation, slow_mas, grid)
        short = magnetization(eta, RelaxationParams(r=3438.0, t1rho=1e-3))
        longer = magnetization(eta, RelaxationParams(r=3438.0, t1rho=4e-3))
        assert np.all(longer.values[1:] > short.values[1:])

    def test_infinite_t1rho_disables_decay(self):
        relax = RelaxationParams(m0=1.0, r=1000.0, t1rho=math.inf)
        t = np.array([0.0, 1e-3, 1.0])
        m = damped_magnetization(t, np.full(3, 0.5), relax)
        np.testing.assert_allclose(m, 1.0 - 0.5 * np.exp(-1000.0 * t))


class TestStaticMagnetization:
    def test_identically_zero_when_unmodulated(self):
        # d(0) = 0 orientation, no damping
        relax = RelaxationParams()
        grid = TimeGrid(dt=1e-6, n_points=64)
        curve = static_magnetization(CouplingParams(d=2.5 * KHZ),
                                     Orientation(beta=0.0, gamma=0.0),
                                     relax, grid)
        assert np.all(curve.values == 0.0)

    def test_equals_general_pipeline_at_zero_spinning(self, bench_coupling):
        relax = RelaxationParams(m0=1.1, r=3438.0, r1=7251.0, t1rho=1.867e-3)
        grid = TimeGrid(dt=2e-6, n_points=300)
        for orient in random_orientations(5, seed=16):
            static = static_magnetization(bench_coupling, orient, relax, grid)
            eta = efficiency_curve(bench_coupling, orient,
                                   SpinningParams(omega_r=0.0), grid)
            general = magnetization(eta, relax)
            assert np.array_equal(static.values, general.values)

    def test_matches_cosine_closed_form(self, bench_coupling):
        relax = RelaxationParams(m0=1.0, r=3438.0, r1=7251.0, t1rho=1.867e-3)
        grid = TimeGrid(dt=2e-6, n_points=300)
        orient = Orientation(beta=1.0, gamma=0.7)
        curve = static_magnetization(bench_coupling, orient, relax, grid)
        t = grid.times()
        d0 = orientation_frequency(bench_coupling, orient)
        expected = (relax.m0 * (1.0 - 0.5 * np.exp(-relax.r * t)
                                - 0.5 * np.exp(-relax.r1 * t) * np.cos(d0 * t))
                    * np.exp(-t / relax.t1rho))
        np.testing.assert_allclose(curve.values, expected, rtol=0, atol=1e-15)

    def test_oscillates_at_propagator_frequency(self, bench_coupling, matched_rf):
        # stationary sample: the propagator's <S_y> oscillates at |d(0)|
        static = SpinningParams(omega_r=0.0)
        orient = Orientation(beta=math.pi / 2, gamma=0.0)
        d0 = abs(orientation_frequency(bench_coupling, orient))
        n_periods = 5
        grid = TimeGrid(dt=n_periods * (2 * math.pi / d0) / 2000, n_points=2001)
        traj = oracle.propagate(oracle.IY, matched_rf, bench_coupling, orient,
                                static, grid)
        freq = _crossing_frequency(grid.times(), traj.sy, level=0.5)
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


class TestCpCurveValidation:
    def test_length_mismatch(self):
        grid = TimeGrid(dt=1e-6, n_points=5)
        with pytest.raises(ValueError):
            CpCurve(grid=grid, values=np.zeros(4), kind=CurveKind.EFFICIENCY)

    def test_efficiency_range_enforced(self):
        grid = TimeGrid(dt=1e-6, n_points=3)
        with pytest.raises(ValueError):
            CpCurve(grid=grid, values=np.array([0.0, 1.5, 0.2]),
                    kind=CurveKind.EFFICIENCY)
        # magnetization curves may exceed 1
        CpCurve(grid=grid, values=np.array([0.0, 1.5, 0.2]),
                kind=CurveKind.MAGNETIZATION)
