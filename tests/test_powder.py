import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpmas.analytic import (EFFICIENCY_RANGE_TOL, CurveKind, efficiency_curve,
                            transfer_efficiency)
from cpmas.core import CouplingParams, Orientation, SpinningParams, TimeGrid
from cpmas.fitting import coupling_from_distance
from cpmas.powder import (ORIENT_BLOCK, OrientationSet, ZCW_SET_SIZES,
                          averaged_efficiency, grid_orientation_set,
                          powder_average, zcw_orientation_set)

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

    def test_consecutive_levels_converge_monotonically(self):
        curves = [powder_eta(zcw_orientation_set(level)).values
                  for level in range(4, 10)]
        deltas = [np.max(np.abs(b - a)) for a, b in zip(curves, curves[1:])]
        assert all(d1 > d2 for d1, d2 in zip(deltas, deltas[1:]))


class TestPowderAverage:
    def test_singleton_identity(self):
        orient = Orientation(beta=1.0, gamma=2.0)
        oset = OrientationSet(beta=[orient.beta], gamma=[orient.gamma],
                              weights=[1.0])
        direct = efficiency_curve(POWDER_COUPLING, orient, POWDER_MAS, POWDER_GRID)
        averaged = powder_eta(oset)
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
