import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cpmas.powder as powder
from cpmas.analytic import (EFFICIENCY_RANGE_TOL, CurveKind, efficiency_curve,
                            transfer_efficiency)
from cpmas.core import (CouplingParams, Orientation, SpinningParams, TimeGrid,
                        bracket_coefficients, coupling_shape, dipolar_phase,
                        phase_bracket, rotor_terms)
from cpmas.fitting import coupling_from_distance
from cpmas.powder import (ORIENT_BLOCK, OrientationSet, ZCW_SET_SIZES,
                          averaged_efficiency, grid_orientation_set,
                          phase_table, powder_average, zcw_orientation_set)

KHZ = 2.0 * math.pi * 1e3

# Powder benchmark: 1H-13C pair at 1.09 Angstrom, 5 kHz spinning.
POWDER_COUPLING = CouplingParams(d=coupling_from_distance(1.09, "1H", "13C"))
POWDER_MAS = SpinningParams(omega_r=5.0 * KHZ)
POWDER_GRID = TimeGrid(dt=10e-6, n_points=201)


def powder_eta(oset, grid=POWDER_GRID):
    return powder_average(POWDER_COUPLING, POWDER_MAS, grid, oset)


def set_average(oset, fn):
    return math.fsum(w * fn(Orientation(beta=b, gamma=g))
                     for b, g, w in zip(oset.beta, oset.gamma, oset.weights))


class TestGridOrientationSet:
    def test_single_cell_is_midpoint(self):
        oset = grid_orientation_set(1, 1)
        assert len(oset) == 1
        beta, gamma, weight = oset.beta[0], oset.gamma[0], oset.weights[0]
        assert beta == pytest.approx(math.pi / 2)
        assert gamma == pytest.approx(math.pi)
        assert weight == 1.0

    @pytest.mark.parametrize("nb,ng", [(3, 5), (16, 9), (64, 64)])
    def test_weights_sum_to_one(self, nb, ng):
        oset = grid_orientation_set(nb, ng)
        assert len(oset) == nb * ng
        assert math.fsum(oset.weights) == pytest.approx(1.0, abs=1e-12)

    def test_sphere_average_of_cos_squared(self):
        # solid-angle average of cos(beta)^2 over the sphere is 1/3
        oset = grid_orientation_set(64, 64)
        avg = set_average(oset, lambda o: math.cos(o.beta) ** 2)
        assert avg == pytest.approx(1.0 / 3.0, abs=1e-4)

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            grid_orientation_set(0, 4)


class TestZcwOrientationSet:
    def test_equal_weights_sum_to_one(self):
        for level in (1, 5, 8):
            oset = zcw_orientation_set(level)
            assert len(oset) == ZCW_SET_SIZES[level]
            weights = set(oset.weights.tolist())
            assert len(weights) == 1
            assert math.fsum(oset.weights) == pytest.approx(
                1.0, abs=1e-12)

    def test_sphere_average_of_cos_squared(self):
        oset = zcw_orientation_set(9)  # 987 points
        avg = set_average(oset, lambda o: math.cos(o.beta) ** 2)
        assert avg == pytest.approx(1.0 / 3.0, abs=1e-3)

    def test_unsupported_level_lists_supported(self):
        with pytest.raises(ValueError, match="supported levels: 1, 2"):
            zcw_orientation_set(0)
        with pytest.raises(ValueError):
            zcw_orientation_set(99)

    def test_is_eden_levitt_zcw_with_gamma_mirrored(self):
        # Eden & Levitt, JMR 132, 220 (1998): N = F(M+2) points with
        # alpha_j = 2*pi*mod(j*F(M)/N, 1), beta_j = arccos(2*mod(j/N, 1) - 1).
        # The generator steps gamma by F(M+1) = -F(M) (mod N), so its gamma
        # is alpha mirrored to 2*pi - alpha.
        fib = [1, 1]
        for level, n in ZCW_SET_SIZES.items():
            while fib[-1] < n:
                fib.append(fib[-1] + fib[-2])
            assert fib[-1] == n
            j = np.arange(n)
            alpha = 2.0 * math.pi * np.mod(j * fib[-3] / n, 1.0)
            beta = np.arccos(2.0 * np.mod(j / n, 1.0) - 1.0)
            canonical = np.lexsort((alpha, beta))
            oset = zcw_orientation_set(level)
            assert np.array_equal(oset.beta, beta[canonical])
            mirrored = np.mod(2.0 * math.pi - oset.gamma, 2.0 * math.pi)
            gap = np.mod(mirrored - alpha[canonical] + math.pi,
                         2.0 * math.pi) - math.pi
            assert np.max(np.abs(gap)) < 1e-11

    def test_consecutive_levels_converge_monotonically(self):
        curves = [powder_eta(zcw_orientation_set(level)).values
                  for level in range(4, 10)]
        deltas = [np.max(np.abs(b - a)) for a, b in zip(curves, curves[1:])]
        assert all(d1 > d2 for d1, d2 in zip(deltas, deltas[1:]))


class TestPowderAverage:
    @pytest.mark.parametrize("spin", [POWDER_MAS, SpinningParams(omega_r=0.0)],
                             ids=["spinning", "stationary"])
    def test_singleton_identity(self, spin):
        orient = Orientation(beta=1.0, gamma=2.0)
        oset = OrientationSet(beta=[orient.beta], gamma=[orient.gamma],
                              weights=[1.0])
        direct = efficiency_curve(POWDER_COUPLING, orient, spin, POWDER_GRID)
        averaged = powder_average(POWDER_COUPLING, spin, POWDER_GRID, oset)
        assert np.array_equal(averaged.values, direct.values)

    def test_constant_curve_preserved(self):
        # every entry carries the same curve: the weights must sum to one
        orient = Orientation(beta=0.7, gamma=4.0)
        weights = (0.1, 0.25, 0.05, 0.3, 0.2, 0.1)
        oset = OrientationSet(beta=[orient.beta] * len(weights),
                              gamma=[orient.gamma] * len(weights),
                              weights=weights)
        direct = efficiency_curve(POWDER_COUPLING, orient, POWDER_MAS,
                                  POWDER_GRID)
        np.testing.assert_allclose(powder_eta(oset).values, direct.values,
                                   rtol=0, atol=1e-12)

    def test_permutation_leaves_average_bit_identical(self):
        oset = grid_orientation_set(8, 6)
        rng = np.random.default_rng(20)
        perm = rng.permutation(len(oset))
        shuffled = OrientationSet(beta=oset.beta[perm], gamma=oset.gamma[perm],
                                  weights=oset.weights[perm])
        a = powder_eta(oset)
        b = powder_eta(shuffled)
        assert np.array_equal(a.values, b.values)

    def test_average_stays_in_unit_interval(self):
        averaged = powder_eta(zcw_orientation_set(5))
        assert averaged.kind is CurveKind.EFFICIENCY
        assert averaged.values.min() >= 0.0
        assert averaged.values.max() <= 1.0

    def test_rotor_period_nulls_survive_averaging(self):
        # 5 kHz spinning, 10 us sampling: rotor echoes at every 20th point
        averaged = powder_eta(grid_orientation_set(16, 16))
        for k in range(0, 201, 20):
            assert abs(averaged.values[k]) < 1e-12

    def test_grid_refinement_converges(self):
        a32 = powder_eta(grid_orientation_set(32, 32)).values
        a64 = powder_eta(grid_orientation_set(64, 64)).values
        a128 = powder_eta(grid_orientation_set(128, 128)).values
        first = np.max(np.abs(a64 - a32))
        second = np.max(np.abs(a128 - a64))
        assert second <= 5e-3
        assert second < first


class TestAveragedEfficiency:
    def test_matches_curve_average_on_uniform_grid(self):
        oset = zcw_orientation_set(3)
        via_curves = powder_eta(oset).values
        pointwise = averaged_efficiency(POWDER_COUPLING, POWDER_MAS,
                                        POWDER_GRID.times(), oset)
        assert np.array_equal(via_curves, pointwise)

    def test_slope_matches_central_difference(self):
        oset = zcw_orientation_set(3)
        times = np.array([0.0, 13e-6, 40e-6, 41e-6, 250e-6, 1e-3])
        d = POWDER_COUPLING.d
        eta, slope = averaged_efficiency(POWDER_COUPLING, POWDER_MAS, times,
                                         oset, with_slope=True)
        assert np.array_equal(eta, averaged_efficiency(
            POWDER_COUPLING, POWDER_MAS, times, oset))
        h = 1e-5 * d
        central = (averaged_efficiency(CouplingParams(d=d + h), POWDER_MAS,
                                       times, oset)
                   - averaged_efficiency(CouplingParams(d=d - h), POWDER_MAS,
                                         times, oset)) / (2 * h)
        np.testing.assert_allclose(slope, central, rtol=1e-6,
                                   atol=1e-9 * np.max(np.abs(central)))

    def test_slope_at_zero_coupling_is_zero(self):
        for spin in (POWDER_MAS, SpinningParams(omega_r=0.0)):
            eta, slope = averaged_efficiency(
                CouplingParams(d=0.0), spin, POWDER_GRID.times(),
                zcw_orientation_set(2), with_slope=True)
            assert np.all(eta == 0.0)
            assert np.all(slope == 0.0)

    def test_supports_irregular_times(self):
        oset = zcw_orientation_set(1)
        times = np.array([0.0, 13e-6, 40e-6, 41e-6, 1e-3])
        values = averaged_efficiency(POWDER_COUPLING, POWDER_MAS, times, oset)
        assert values.shape == times.shape
        assert values[0] == 0.0


class TestOrientationSetValidation:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            OrientationSet(beta=[], gamma=[], weights=[])

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            OrientationSet(beta=[1.0, 1.0], gamma=[1.0, 1.0],
                           weights=[0.0, 1.0])

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            OrientationSet(beta=[1.0, 1.0], gamma=[1.0, 1.0],
                           weights=[0.5, 0.6])

    @pytest.mark.parametrize("beta,gamma,weights", [
        ([1.0, 1.0], [1.0], [0.5, 0.5]),
        ([1.0], [1.0, 1.0], [1.0]),
        ([1.0, 1.0], [1.0, 1.0], [1.0]),
        ([[1.0]], [[1.0]], [[1.0]]),
    ])
    def test_rejects_mismatched_or_non_1d_arrays(self, beta, gamma, weights):
        with pytest.raises(ValueError, match="equal length"):
            OrientationSet(beta=beta, gamma=gamma, weights=weights)

    @pytest.mark.parametrize("beta,gamma", [
        (-1e-12, 1.0), (math.pi + 1e-12, 1.0), (math.nan, 1.0),
        (math.inf, 1.0), (1.0, -1e-12), (1.0, 2.0 * math.pi),
        (1.0, math.nan), (1.0, math.inf),
    ])
    def test_rejects_what_orientation_rejects(self, beta, gamma):
        with pytest.raises(ValueError):
            Orientation(beta=beta, gamma=gamma)
        with pytest.raises(ValueError, match="beta|gamma"):
            OrientationSet(beta=[1.0, beta], gamma=[1.0, gamma],
                           weights=[0.5, 0.5])

    def test_accepts_the_range_ends_orientation_accepts(self):
        ends = [(0.0, 0.0), (math.pi, 0.0), (1.0, math.nextafter(
            2.0 * math.pi, 0.0))]
        for beta, gamma in ends:
            Orientation(beta=beta, gamma=gamma)
        oset = OrientationSet(beta=[b for b, _ in ends],
                              gamma=[g for _, g in ends],
                              weights=[0.25, 0.25, 0.5])
        assert len(oset) == 3

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_weights(self, bad):
        with pytest.raises(ValueError, match="finite"):
            OrientationSet(beta=[1.0, 1.0], gamma=[1.0, 2.0],
                           weights=[bad, 1.0])

    def test_holds_three_sorted_read_only_copies(self):
        beta = np.array([2.0, 1.0, 1.0])
        gamma = np.array([0.5, 3.0, 0.5])
        weights = np.array([0.5, 0.25, 0.25])
        oset = OrientationSet(beta=beta, gamma=gamma, weights=weights)
        assert [f.name for f in dataclasses.fields(oset)] == [
            "beta", "gamma", "weights"]
        assert oset.beta.tolist() == [1.0, 1.0, 2.0]
        assert oset.gamma.tolist() == [0.5, 3.0, 0.5]
        assert oset.weights.tolist() == [0.25, 0.25, 0.5]
        beta[:] = 0.0
        assert oset.beta.tolist() == [1.0, 1.0, 2.0]
        for array in (oset.beta, oset.gamma, oset.weights):
            with pytest.raises(ValueError):
                array[0] = 0.0


KERNEL_TIMES = np.array([0.0, 3e-6, 25e-6, 50e-6, 137e-6, 200e-6, 0.61e-3,
                         1e-3, 2.5e-3])


@st.composite
def weighted_sets(draw):
    """Random orientation sets on both sides of the kernel block size."""
    n = draw(st.integers(min_value=1, max_value=3 * ORIENT_BLOCK))
    betas = draw(st.lists(st.floats(0.0, math.pi), min_size=n, max_size=n))
    gammas = draw(st.lists(st.floats(0.0, 2.0 * math.pi, exclude_max=True),
                           min_size=n, max_size=n))
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n))
    total = math.fsum(raw)
    arrays = (np.array(betas), np.array(gammas), np.array(raw) / total)
    perm = list(draw(st.permutations(range(n))))
    return arrays, tuple(a[perm] for a in arrays)


class TestKernelProperties:
    @settings(max_examples=60, deadline=None)
    @given(sets=weighted_sets(),
           d=st.floats(-2e5, 2e5),
           omega_r=st.one_of(st.just(0.0), st.floats(1e3, 1e5)))
    def test_bounded_permutation_invariant_and_matches_scalar_loop(
            self, sets, d, omega_r):
        arrays, shuffled = sets
        coupling = CouplingParams(d=d)
        spin = SpinningParams(omega_r=omega_r)
        eta = averaged_efficiency(coupling, spin, KERNEL_TIMES,
                                  OrientationSet(*arrays))
        assert eta.min() >= 0.0
        assert eta.max() <= 1.0 + EFFICIENCY_RANGE_TOL
        again = averaged_efficiency(coupling, spin, KERNEL_TIMES,
                                    OrientationSet(*shuffled))
        assert np.array_equal(eta, again)
        per_orientation = [w * transfer_efficiency(
                               coupling, Orientation(beta=b, gamma=g), spin,
                               KERNEL_TIMES)
                           for b, g, w in zip(*arrays)]
        scalar = np.array([math.fsum(col) for col in zip(*per_orientation)])
        np.testing.assert_allclose(eta, scalar, rtol=0, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(sets=weighted_sets(),
           d=st.one_of(st.just(0.0), st.floats(-2e5, 2e5)),
           omega_r=st.one_of(st.just(0.0), st.floats(1e3, 1e5)))
    def test_cached_table_equals_one_shot(self, sets, d, omega_r):
        oset = OrientationSet(*sets[0])
        coupling = CouplingParams(d=d)
        spin = SpinningParams(omega_r=omega_r)
        table = phase_table(spin, KERNEL_TIMES, oset)
        assert table is not oset
        one_shot = averaged_efficiency(coupling, spin, KERNEL_TIMES, oset,
                                       with_slope=True)
        cached = averaged_efficiency(coupling, spin, KERNEL_TIMES, table,
                                     with_slope=True)
        assert np.array_equal(one_shot[0], cached[0])
        assert np.array_equal(one_shot[1], cached[1])
        assert np.array_equal(
            one_shot[0],
            averaged_efficiency(coupling, spin, KERNEL_TIMES, table))


WIDE_LONGDOUBLE = np.finfo(np.longdouble).eps < np.finfo(float).eps
# stationary and t = 1 s: phi = d*rate with rate = d(0)/d within 3 eps of -1
HALF_ANGLE_ORIENT = Orientation(beta=math.pi / 2, gamma=0.0)
HALF_ANGLE_SET = OrientationSet(beta=[HALF_ANGLE_ORIENT.beta],
                                gamma=[HALF_ANGLE_ORIENT.gamma], weights=[1.0])
STATIONARY = SpinningParams(omega_r=0.0)
ONE_SECOND = np.array([1.0])


class TestHalfAngleForm:
    """eta and the slope's (1/2)*sin(phi) come from tau = tan(phi/2):
    (1 - cos(phi))/2 = u/(1 + u) and (1/2)*sin(phi) = tau/(1 + u) with
    u = tau^2.  Both are checked against long-double evaluations of the
    cosine and sine forms at the phase the package computed.
    """

    @staticmethod
    def _check_against_long_double(target):
        coupling = CouplingParams(d=target)
        phi = dipolar_phase(coupling, HALF_ANGLE_ORIENT, STATIONARY, ONE_SECOND)
        eta = transfer_efficiency(coupling, HALF_ANGLE_ORIENT, STATIONARY,
                                  ONE_SECOND)
        _, slope = averaged_efficiency(coupling, STATIONARY, ONE_SECOND,
                                       HALF_ANGLE_SET, with_slope=True)
        wide = np.longdouble(phi[0])
        rate = np.longdouble(coupling_shape(HALF_ANGLE_ORIENT.beta,
                                            HALF_ANGLE_ORIENT.gamma, 0.0))
        assert abs(eta[0] - (1 - np.cos(wide)) / 2) <= 1e-15
        # the kernel's slope is (1/2)*sin(phi)*dphi/dd, with dphi/dd = rate
        assert abs(slope[0] - np.sin(wide) / 2 * rate) <= 1e-15

    @pytest.mark.skipif(not WIDE_LONGDOUBLE,
                        reason="np.longdouble is no wider than float here")
    @settings(max_examples=300, deadline=None)
    @given(target=st.floats(-1e4, 1e4))
    def test_within_1e15_of_long_double(self, target):
        self._check_against_long_double(target)

    @pytest.mark.skipif(not WIDE_LONGDOUBLE,
                        reason="np.longdouble is no wider than float here")
    @settings(max_examples=300, deadline=None)
    @given(k=st.integers(-1600, 1600), offset=st.floats(-1e-6, 1e-6))
    def test_within_1e15_of_long_double_near_odd_multiples_of_pi(self, k,
                                                                  offset):
        # tan(phi/2) is largest here, and 1 - cos(phi) nearest 2
        self._check_against_long_double((2 * k + 1) * math.pi + offset)

    @pytest.mark.parametrize("target", [1e15, 1e100, 1e300])
    def test_finite_in_unit_interval_without_warning_at_huge_phase(
            self, target):
        coupling = CouplingParams(d=target)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eta = transfer_efficiency(coupling, HALF_ANGLE_ORIENT, STATIONARY,
                                      ONE_SECOND)
            averaged, slope = averaged_efficiency(
                coupling, STATIONARY, ONE_SECOND, HALF_ANGLE_SET,
                with_slope=True)
        assert np.all(np.isfinite(eta)) and 0.0 <= eta[0] <= 1.0
        assert np.array_equal(averaged, eta)
        assert np.isfinite(slope[0]) and abs(slope[0]) <= 0.5


class TestPhaseTable:
    def test_budget_decides_between_cached_and_streamed(self, monkeypatch):
        oset = zcw_orientation_set(2)
        table = phase_table(POWDER_MAS, KERNEL_TIMES, oset)
        assert len(table.blocks) == math.ceil(len(oset) / ORIENT_BLOCK)
        assert all(not unit.flags.writeable for unit, _ in table.blocks)
        monkeypatch.setattr(powder, "PHASE_TABLE_BUDGET",
                            len(oset) * KERNEL_TIMES.size * 8 - 1)
        streamed = phase_table(POWDER_MAS, KERNEL_TIMES, oset)
        assert streamed is oset
        for with_slope in (False, True):
            from_set, from_table = (
                averaged_efficiency(POWDER_COUPLING, POWDER_MAS,
                                    KERNEL_TIMES, source,
                                    with_slope=with_slope)
                for source in (streamed, table))
            assert np.array_equal(from_set, from_table)

    def test_stationary_table_holds_one_rate_per_orientation(self):
        oset = zcw_orientation_set(2)
        table = phase_table(SpinningParams(omega_r=0.0), KERNEL_TIMES, oset)
        assert sum(unit.size for unit, _ in table.blocks) == len(oset)

    def test_rotor_terms_once_per_average_and_per_table_build(
            self, monkeypatch):
        oset = zcw_orientation_set(5)
        assert len(oset) > 2 * ORIENT_BLOCK
        calls = []
        original = powder.rotor_terms

        def counting(rotor_angle):
            calls.append(1)
            return original(rotor_angle)

        monkeypatch.setattr(powder, "rotor_terms", counting)
        averaged_efficiency(POWDER_COUPLING, POWDER_MAS, KERNEL_TIMES, oset,
                            with_slope=True)
        assert len(calls) == 1
        table = phase_table(POWDER_MAS, KERNEL_TIMES, oset)
        assert len(calls) == 2
        for d in (1.0, 2.0):
            averaged_efficiency(CouplingParams(d=d), POWDER_MAS,
                                KERNEL_TIMES, table)
        assert len(calls) == 2

    @pytest.mark.parametrize("budget", [None, 0])
    def test_units_are_the_bracket_of_each_block_bit_for_bit(
            self, monkeypatch, budget):
        oset = zcw_orientation_set(5)
        if budget is not None:
            monkeypatch.setattr(powder, "PHASE_TABLE_BUDGET", budget)
        table = phase_table(POWDER_MAS, KERNEL_TIMES, oset)
        assert (table is oset) == (budget is not None)
        # over the budget a set is averaged from its one-shot units
        units = (table.blocks if budget is None else
                 powder._phase_units(oset, POWDER_MAS.omega_r, KERNEL_TIMES))
        blocks = 0
        for start, (unit, w) in zip(range(0, len(oset), ORIENT_BLOCK),
                                    units):
            blk = slice(start, start + ORIENT_BLOCK)
            expected = phase_bracket(oset.beta[blk, None],
                                     oset.gamma[blk, None],
                                     POWDER_MAS.omega_r * KERNEL_TIMES)
            assert unit.tobytes() == expected.tobytes()
            assert np.array_equal(w, oset.weights[blk, None])
            blocks += 1
        assert blocks == math.ceil(len(oset) / ORIENT_BLOCK)

    def test_table_for_other_spin_or_times_rejected(self):
        oset = zcw_orientation_set(1)
        table = phase_table(POWDER_MAS, KERNEL_TIMES, oset)
        with pytest.raises(ValueError, match="phase table"):
            averaged_efficiency(POWDER_COUPLING,
                                SpinningParams(omega_r=POWDER_MAS.omega_r / 2),
                                KERNEL_TIMES, table)
        with pytest.raises(ValueError, match="phase table"):
            averaged_efficiency(POWDER_COUPLING, POWDER_MAS,
                                KERNEL_TIMES[:-1], table)


EPS = np.finfo(float).eps


class TestRotorEcho:
    """phi, and so eta, returns to 0 at every whole rotor period.

    B takes its angle error from the rotor angle a0 = omega_r*t alone:
    gamma enters only through its own sines.  At t = 2*pi*n/omega_r the
    computed a0 is off from 2*pi*n by at most ~1.7 eps * 2*pi*n (the
    rounding of 2*pi, of the product with n, of the division by omega_r and
    of the product with omega_r).  Near a0 = 2*pi*n the sines of a0 and 2*a0
    are that small and the cos - 1 terms are its square, so B is within
    rounding of its linear term, at most (|c1| + 2*|c2|) <= 4 times the
    angle error.  That keeps |B| below 7 eps * 2*pi*n, inside the bound
    16 eps * 2*pi*(n + 1).  eta = u/(1 + u) with u = tan(phi/2)^2 then
    stays within a few roundings of phi_max^2/4.
    """

    @settings(max_examples=200, deadline=None)
    @given(beta=st.floats(0.0, math.pi),
           gamma=st.floats(0.0, 2.0 * math.pi, exclude_max=True),
           omega_r=st.floats(1e3, 1e5),
           n=st.integers(0, 50))
    def test_bracket_and_powder_vanish_at_rotor_periods(self, beta, gamma,
                                                       omega_r, n):
        t = 2.0 * math.pi * n / omega_r
        bracket_tol = 16.0 * EPS * 2.0 * math.pi * (n + 1)
        assert abs(phase_bracket(beta, gamma, omega_r * t)) <= bracket_tol
        phi_max = abs(POWDER_COUPLING.d) / (2.0 * omega_r) * bracket_tol
        eta = averaged_efficiency(POWDER_COUPLING,
                                  SpinningParams(omega_r=omega_r),
                                  np.array([t]), zcw_orientation_set(2))
        assert 0.0 <= eta[0] <= phi_max ** 2 / 4.0 + 2.0 * EPS


def ordered_bracket(beta, gamma, rotor_angle):
    """B as four products and three adds in k order."""
    products = [k * r for k, r in zip(bracket_coefficients(beta, gamma),
                                      rotor_terms(rotor_angle))]
    return ((products[0] + products[1]) + products[2]) + products[3]


def elementwise_terms(d, omega_r, t, oset, bracket=ordered_bracket):
    """The powder kernel in elementwise form, as a test oracle: per block of
    ORIENT_BLOCK orientations, the weighted eta and slope terms (block x
    times), with B from ``bracket`` and each block weighted in place.
    """
    spinning = omega_r != 0.0
    per_d = 1.0 / (2.0 * omega_r) if spinning else 1.0
    half_d = 0.5 * (d / (2.0 * omega_r)) if spinning else 0.5 * d
    for start in range(0, len(oset), ORIENT_BLOCK):
        blk = slice(start, start + ORIENT_BLOCK)
        beta, gamma = oset.beta[blk, None], oset.gamma[blk, None]
        w = oset.weights[blk, None]
        if spinning:
            unit = bracket(beta, gamma, omega_r * t)
            tau = np.tan(half_d * unit)
        else:
            unit = coupling_shape(beta[:, 0], gamma[:, 0], 0.0)
            tau = np.tan(np.multiply.outer(half_d * unit, t))
        u = tau * tau
        den = 1.0 + u
        eta = u / den
        eta *= w
        ds = tau / den
        ds *= unit if spinning else np.multiply.outer(unit, t)
        ds *= per_d * w
        yield eta, ds


def elementwise_kernel(d, omega_r, t, oset, bracket=ordered_bracket):
    """(eta, d(eta)/dd): the blocks of `elementwise_terms`, each summed over
    its orientations and added in order."""
    eta, slope = np.zeros(t.shape), np.zeros(t.shape)
    for block, ds in elementwise_terms(d, omega_r, t, oset, bracket):
        eta += block.sum(axis=0)
        slope += ds.sum(axis=0)
    return eta, slope


def parity_set(n):
    if n == 610:
        return zcw_orientation_set(8)
    rng = np.random.default_rng(n)
    weights = rng.uniform(0.1, 1.0, n)
    return OrientationSet(beta=np.arccos(rng.uniform(-1.0, 1.0, n)),
                          gamma=rng.uniform(0.0, 2.0 * math.pi, n),
                          weights=weights / weights.sum())


PARITY_SIZES = [1, 2, 63, 64, 65, 610]
PARITY_SPINS = [POWDER_MAS, STATIONARY]


class TestElementwiseParity:
    """The kernel forms B and adds each block's weighted terms in one
    `np.einsum` each.  Where the times are einsum's inner loop (more than
    one time) it adds the terms one at a time in order, each product
    rounded first, as the elementwise form does, so the two agree bit for
    bit.  A one-element contraction (one time; for B also one orientation)
    makes the contracted axis the inner loop, which einsum adds in pairs:
    there each side's sum is within one eps of its terms' magnitude sum per
    product and addition.
    """

    @pytest.mark.parametrize("spin", PARITY_SPINS)
    @pytest.mark.parametrize("n_t", [2, 3, 121, 801])
    @pytest.mark.parametrize("n", PARITY_SIZES)
    def test_bit_identical_to_the_elementwise_kernel(self, n, n_t, spin):
        oset = parity_set(n)
        t = np.linspace(0.0, 2.4e-3, n_t)   # 12 rotor periods, from t = 0
        eta, slope = elementwise_kernel(POWDER_COUPLING.d, spin.omega_r, t,
                                        oset)
        for source in (oset, phase_table(spin, t, oset)):
            got, got_slope = averaged_efficiency(POWDER_COUPLING, spin, t,
                                                 source, with_slope=True)
            assert got.tobytes() == eta.tobytes()
            assert got_slope.tobytes() == slope.tobytes()
            assert averaged_efficiency(POWDER_COUPLING, spin, t,
                                       source).tobytes() == eta.tobytes()

    @pytest.mark.parametrize("spin", PARITY_SPINS)
    @pytest.mark.parametrize("n", PARITY_SIZES)
    def test_one_time_within_the_summation_bound(self, n, spin):
        # B of a lone orientation at one time is the scalar case below, so
        # the oracle takes B from the package and checks the weighted sum
        oset = parity_set(n)
        for t in (np.array([37e-6]), np.array([1.3e-3])):
            args = (POWDER_COUPLING.d, spin.omega_r, t, oset, phase_bracket)
            eta, slope = elementwise_kernel(*args)
            blocks = list(elementwise_terms(*args))
            # either side rounds at most 2n products and additions
            eta_tol = 2 * n * EPS * sum(abs(e).sum() for e, _ in blocks)
            slope_tol = 2 * n * EPS * sum(abs(s).sum() for _, s in blocks)
            for source in (oset, phase_table(spin, t, oset)):
                got, got_slope = averaged_efficiency(
                    POWDER_COUPLING, spin, t, source, with_slope=True)
                assert abs(got[0] - eta[0]) <= eta_tol
                assert abs(got_slope[0] - slope[0]) <= slope_tol

    @settings(max_examples=300, deadline=None)
    @given(beta=st.floats(0.0, math.pi),
           gamma=st.floats(0.0, 2.0 * math.pi, exclude_max=True),
           rotor_angle=st.floats(0.0, 100.0))
    def test_scalar_bracket_within_the_summation_bound(self, beta, gamma,
                                                       rotor_angle):
        products = [k * r for k, r in zip(bracket_coefficients(beta, gamma),
                                          rotor_terms(rotor_angle))]
        # four products and three additions on either side
        tol = 4 * EPS * sum(abs(p) for p in products)
        assert (abs(phase_bracket(beta, gamma, rotor_angle)
                    - ordered_bracket(beta, gamma, rotor_angle)) <= tol)
