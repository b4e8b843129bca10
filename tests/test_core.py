import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpmas.core import (MATCH_TOL, CouplingParams, Orientation, RfScheme,
                        SpinningParams, TimeGrid, coupling_shape,
                        dipolar_coupling_at, dipolar_phase, phase_bracket,
                        tilt_scale)

KHZ = 2.0 * math.pi * 1e3
EPS = np.finfo(float).eps
TINY = np.finfo(float).smallest_subnormal


def random_orientations(n, seed=0):
    rng = np.random.default_rng(seed)
    return [Orientation(beta=float(b), gamma=float(g))
            for b, g in zip(rng.uniform(0, math.pi, n),
                            rng.uniform(0, 2 * math.pi, n))]


class TestDipolarCoupling:
    def test_vanishes_at_beta_zero(self, bench_coupling, slow_mas):
        orient = Orientation(beta=0.0, gamma=1.0)
        for t in (0.0, 1e-4, 3.7e-4):
            assert dipolar_coupling_at(bench_coupling, orient, slow_mas, t) == 0.0

    def test_perpendicular_orientation_at_time_zero(self, bench_coupling, slow_mas):
        orient = Orientation(beta=math.pi / 2, gamma=0.0)
        value = dipolar_coupling_at(bench_coupling, orient, slow_mas, 0.0)
        assert value == pytest.approx(-bench_coupling.d, rel=1e-14)

    def test_forty_five_degree_value(self, bench_coupling, slow_mas):
        # d*(sqrt(2) - 1/2) at beta = pi/4, gamma = 0, t = 0
        orient = Orientation(beta=math.pi / 4, gamma=0.0)
        value = dipolar_coupling_at(bench_coupling, orient, slow_mas, 0.0)
        assert value == pytest.approx(14360.433056817352, rel=1e-12)
        assert value == pytest.approx(bench_coupling.d * (math.sqrt(2) - 0.5),
                                      rel=1e-14)

    def test_periodic_in_rotor_period(self, bench_coupling, slow_mas):
        period = slow_mas.rotor_period
        t = np.linspace(0.0, 1e-3, 257)
        for orient in random_orientations(10, seed=1):
            a = dipolar_coupling_at(bench_coupling, orient, slow_mas, t)
            b = dipolar_coupling_at(bench_coupling, orient, slow_mas, t + period)
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-6)

    def test_accepts_arrays(self, bench_coupling, slow_mas, bench_orientation):
        t = np.array([0.0, 1e-4, 2e-4])
        out = dipolar_coupling_at(bench_coupling, bench_orientation, slow_mas, t)
        assert out.shape == t.shape


class TestDipolarPhase:
    def test_zero_at_time_zero(self, bench_coupling, slow_mas):
        for orient in random_orientations(5, seed=2):
            assert dipolar_phase(bench_coupling, orient, slow_mas, 0.0) == 0.0

    def test_rotor_echo_zeros(self, bench_coupling, slow_mas):
        period = slow_mas.rotor_period
        for orient in random_orientations(10, seed=3):
            for n in range(6):
                phi = dipolar_phase(bench_coupling, orient, slow_mas, n * period)
                assert abs(phi) < 1e-9

    def test_matches_trapezoid_quadrature(self, bench_coupling, slow_mas):
        # independent oracle: composite trapezoid with 10 ns steps
        orient = Orientation(beta=1.1, gamma=2.3)
        t_end = 137e-6
        ts = np.linspace(0.0, t_end, 13701)
        quad = np.trapezoid(
            dipolar_coupling_at(bench_coupling, orient, slow_mas, ts), ts)
        phi = dipolar_phase(bench_coupling, orient, slow_mas, t_end)
        assert abs(phi - quad) <= 1e-6 * abs(quad)

    def test_is_antiderivative_of_coupling(self, bench_coupling, slow_mas):
        h = 1e-9
        for orient in random_orientations(5, seed=4):
            for t in (3e-5, 1.7e-4, 6.1e-4):
                deriv = (dipolar_phase(bench_coupling, orient, slow_mas, t + h)
                         - dipolar_phase(bench_coupling, orient, slow_mas, t - h)) / (2 * h)
                value = dipolar_coupling_at(bench_coupling, orient, slow_mas, t)
                assert deriv == pytest.approx(value, abs=1e-4)

    def test_stationary_branch_is_linear(self, bench_coupling):
        static = SpinningParams(omega_r=0.0)
        orient = Orientation(beta=0.9, gamma=0.4)
        d0 = dipolar_coupling_at(bench_coupling, orient, static, 0.0)
        for t in (0.0, 1e-4, 1e-3):
            assert dipolar_phase(bench_coupling, orient, static, t) == d0 * t

    def test_shape_and_bracket_broadcast_bit_for_bit(self, bench_coupling,
                                                     slow_mas):
        # the powder kernel calls these on (orientations, 1) angle columns
        orients = random_orientations(7, seed=6)
        beta = np.array([o.beta for o in orients])[:, None]
        gamma = np.array([o.gamma for o in orients])[:, None]
        t = np.linspace(0.0, 1e-3, 33)
        pref = bench_coupling.d / (2.0 * slow_mas.omega_r)
        phi = pref * phase_bracket(beta, gamma, slow_mas.omega_r * t)
        shape = coupling_shape(beta, gamma, slow_mas.omega_r * t)
        rate = coupling_shape(beta[:, 0], gamma[:, 0], 0.0)
        static = SpinningParams(omega_r=0.0)
        for k, orient in enumerate(orients):
            assert np.array_equal(
                phi[k], dipolar_phase(bench_coupling, orient, slow_mas, t))
            assert np.array_equal(
                bench_coupling.d * shape[k],
                dipolar_coupling_at(bench_coupling, orient, slow_mas, t))
            assert (bench_coupling.d * rate[k] * t[5]
                    == dipolar_phase(bench_coupling, orient, static, t[5]))

    def test_slow_spinning_approaches_stationary(self, bench_coupling):
        # omega_r = 1e-3 rad/s is indistinguishable from the static branch
        # below 1 ms, yet uses the spinning formula
        slow = SpinningParams(omega_r=1e-3)
        static = SpinningParams(omega_r=0.0)
        for orient in random_orientations(5, seed=5):
            for t in (1e-5, 3e-4, 1e-3):
                spun = dipolar_phase(bench_coupling, orient, slow, t)
                lin = dipolar_phase(bench_coupling, orient, static, t)
                assert spun == pytest.approx(lin, rel=1e-6)


def _bracket_coefficients(beta):
    return 2.0 * math.sqrt(2.0) * math.sin(2.0 * beta), math.sin(beta) ** 2


class TestPhaseBracket:
    """B(a0) = c1*[sin(a0 + g) - sin(g)] - c2*[sin(2*a0 + 2*g) - sin(2*g)].

    |dB/da0| <= |c1| + 2*c2 = 2*sqrt(2)*|sin(2*beta)| + 2*sin(beta)^2 <= 4.
    """

    @settings(max_examples=300, deadline=None)
    @given(beta=st.floats(0.0, math.pi),
           gamma=st.floats(0.0, 2.0 * math.pi, exclude_max=True),
           log_a0=st.floats(-9.0, -4.0))
    def test_small_rotor_angles_follow_the_taylor_series(self, beta, gamma,
                                                         log_a0):
        # B = a*B'(0) + a^2*B''(0)/2 + R with |R| <= a^3*max|B'''|/6 and
        # |B'''| <= |c1| + 8*c2.  Both sides round a few times on terms
        # whose sizes add up to a*(|c1| + 2*c2) (the a^2 terms are 1e-4 of
        # that here), each by ~eps: 16 eps of that covers them, plus 16
        # roundings in the subnormal range, where beta ~ 1e-308 puts B.  A
        # difference of sines rounds a0 + gamma by ~eps*gamma, so it errs
        # by up to ~1e-7 of B at a0 = 1e-9.
        a = 10.0 ** log_a0
        c1, c2 = _bracket_coefficients(beta)
        slope = c1 * math.cos(gamma) - 2.0 * c2 * math.cos(2.0 * gamma)
        curvature = -c1 * math.sin(gamma) + 4.0 * c2 * math.sin(2.0 * gamma)
        taylor = a * slope + a * a * curvature / 2.0
        tol = (a ** 3 * (abs(c1) + 8.0 * c2) / 6.0
               + 16.0 * EPS * a * (abs(c1) + 2.0 * c2) + 16.0 * TINY)
        assert abs(phase_bracket(beta, gamma, a) - taylor) <= tol

    @settings(max_examples=300, deadline=None)
    @given(beta=st.floats(0.0, math.pi),
           gamma=st.floats(0.0, 2.0 * math.pi, exclude_max=True),
           a0=st.floats(0.0, 2.0 * math.pi * 50))
    def test_matches_the_difference_of_sines(self, beta, gamma, a0):
        # The difference of sines rounds its angle a0 + gamma by up to
        # eps/2*(a0 + gamma), and the doubled angle by twice that, which
        # moves B by at most (|c1| + 2*c2)*eps/2*(a0 + gamma) <= 2 eps*(a0 +
        # gamma).  Every other rounding, in either form, is ~1 ulp on terms
        # whose sizes add up to at most 3*(|c1| + c2) <= 10.2: below 15 eps
        # per form.  So the forms differ by at most 32 eps*(a0 + gamma + 1).
        c1, c2 = _bracket_coefficients(beta)
        a = a0 + gamma
        by_sines = (c1 * (math.sin(a) - math.sin(gamma))
                    - c2 * (math.sin(2.0 * a) - math.sin(2.0 * gamma)))
        assert (abs(phase_bracket(beta, gamma, a0) - by_sines)
                <= 32.0 * EPS * (a0 + gamma + 1.0))


class TestEffectiveField:
    def test_on_resonance_is_identity_geometry(self):
        rf = RfScheme(omega1_i=80.0 * KHZ, omega1_s=50.0 * KHZ)
        assert rf.omega1_ie == rf.omega1_i
        assert rf.omega1_se == rf.omega1_s
        assert rf.theta_i == math.pi / 2
        assert rf.theta_s == math.pi / 2

    def test_offset_equal_to_amplitude(self):
        rf = RfScheme(omega1_i=80.0 * KHZ, omega1_s=80.0 * KHZ,
                      offset_i=80.0 * KHZ)
        assert rf.omega1_ie == pytest.approx(math.sqrt(2) * rf.omega1_i, rel=1e-14)
        assert rf.theta_i == pytest.approx(math.pi / 4, rel=1e-14)

    def test_magnitude_arithmetic(self):
        # 80 kHz amplitude, 10 kHz offset -> sqrt(6500) kHz effective field
        rf = RfScheme(omega1_i=80.0 * KHZ, omega1_s=80.0 * KHZ,
                      offset_i=10.0 * KHZ)
        assert rf.omega1_ie / KHZ == pytest.approx(math.sqrt(6500.0), rel=1e-12)

    def test_magnitude_never_below_amplitude(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            rf = RfScheme(omega1_i=float(rng.uniform(1, 100)) * KHZ,
                          omega1_s=float(rng.uniform(1, 100)) * KHZ,
                          offset_i=float(rng.uniform(-50, 50)) * KHZ,
                          offset_s=float(rng.uniform(-50, 50)) * KHZ)
            assert rf.omega1_ie >= rf.omega1_i
            assert rf.omega1_se >= rf.omega1_s
            assert 0.0 < rf.theta_i < math.pi
            assert 0.0 < rf.theta_s < math.pi

    @pytest.mark.parametrize("channel", ["i", "s"])
    def test_overflowing_magnitude_is_refused(self, channel):
        # a 45-degree lock of 1.7e308 rad/s: hypot overflows, and the tilt
        # angle would read pi/2, so tilt_scale would answer 1, not 0.5
        big = 2.7e304 * KHZ
        fields = {"omega1_i": big, "omega1_s": big,
                  f"offset_{channel}": big}
        with pytest.raises(ValueError, match=rf"^the effective-field "
                           rf"magnitude omega1_{channel}e = sqrt\(offset\^2 "
                           rf"\+ omega1\^2\) overflows double precision$"):
            RfScheme(**fields)

    def test_magnitudes_checked_one_by_one(self):
        # each effective field is finite, though their sum overflows
        rf = RfScheme(omega1_i=1e308, omega1_s=1e308)
        assert rf.omega1_ie + rf.omega1_se == math.inf
        assert tilt_scale(rf) == 1.0

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_offset_is_named_before_the_geometry(self, value):
        for name in ("offset_i", "offset_s"):
            with pytest.raises(ValueError, match=f"^{name} must be finite$"):
                RfScheme(omega1_i=KHZ, omega1_s=KHZ, **{name: value})


class TestTiltScale:
    A = 40.0 * KHZ

    def test_on_resonance_unchanged(self):
        assert tilt_scale(RfScheme(omega1_i=80.0 * KHZ,
                                   omega1_s=80.0 * KHZ)) == 1.0

    def test_single_channel_tilt(self):
        # I on resonance at sqrt(2)*a; S at a with offset a: theta_s = pi/4
        rf = RfScheme(omega1_i=math.sqrt(2) * self.A, omega1_s=self.A,
                      offset_s=self.A)
        assert tilt_scale(rf) == pytest.approx(1.0 / math.sqrt(2), rel=1e-14)

    def test_both_channels_tilted(self):
        rf = RfScheme(omega1_i=self.A, omega1_s=self.A, offset_i=self.A,
                      offset_s=self.A)
        assert tilt_scale(rf) == pytest.approx(0.5, rel=1e-14)

    @pytest.mark.parametrize("b1s_khz,refused", [
        # |delta| = 0.95e-9 and 1.05e-9 of the sum, on either side of 80 kHz
        (80.000000152, False), (79.999999848, False),
        (80.000000168, True), (79.999999832, True)])
    def test_tolerance_edge(self, b1s_khz, refused):
        assert MATCH_TOL == 1e-9
        rf = RfScheme(omega1_i=80.0 * KHZ, omega1_s=b1s_khz * KHZ)
        if refused:
            with pytest.raises(ValueError, match="off the Hartmann-Hahn match"):
                tilt_scale(rf)
        else:
            assert tilt_scale(rf) == 1.0

    def test_refused_when_the_sum_of_fields_overflows(self):
        # each effective field is finite, but w1I,e + w1S,e overflows
        rf = RfScheme(omega1_i=1.7e308, omega1_s=1e308)
        assert rf.omega1_ie + rf.omega1_se == math.inf
        with pytest.raises(ValueError, match="off the Hartmann-Hahn match"):
            tilt_scale(rf)


class TestTypeValidation:
    def test_orientation_bounds(self):
        with pytest.raises(ValueError):
            Orientation(beta=-0.1, gamma=0.0)
        with pytest.raises(ValueError):
            Orientation(beta=math.pi + 0.1, gamma=0.0)
        with pytest.raises(ValueError):
            Orientation(beta=1.0, gamma=2.0 * math.pi)
        Orientation(beta=0.0, gamma=0.0)
        Orientation(beta=math.pi, gamma=0.0)

    def test_coupling_finite(self):
        with pytest.raises(ValueError):
            CouplingParams(d=math.inf)
        CouplingParams(d=-5.0 * KHZ)  # negative couplings allowed

    def test_spinning_nonnegative(self):
        with pytest.raises(ValueError):
            SpinningParams(omega_r=-1.0)
        assert SpinningParams(omega_r=0.0).rotor_period == math.inf

    def test_rf_positive_amplitudes(self):
        with pytest.raises(ValueError):
            RfScheme(omega1_i=0.0, omega1_s=1.0)
        with pytest.raises(ValueError):
            RfScheme(omega1_i=1.0, omega1_s=-1.0)

    def test_time_grid(self):
        with pytest.raises(ValueError):
            TimeGrid(dt=0.0, n_points=5)
        with pytest.raises(ValueError):
            TimeGrid(dt=1e-6, n_points=0)
        grid = TimeGrid(dt=1e-6, n_points=5)
        np.testing.assert_allclose(np.diff(grid.times()), 1e-6)
        assert grid.times()[0] == 0.0
        assert grid.duration == pytest.approx(4e-6)

    def test_effective_field_angle_range(self):
        # against a 1 rad/s lock the tilt angle of a 1e20 rad/s offset
        # rounds to 0
        with pytest.raises(ValueError, match="onto the z axis"):
            RfScheme(omega1_i=1.0, omega1_s=1.0, offset_i=1e20)
