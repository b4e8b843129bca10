"""Acceptance suite: every shipping criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line per
criterion with the measured figure of merit; a failed assertion marks the
criterion red.

Benchmarks used below:
  * single-crystal: matched 80 kHz locks, d = 2*pi*2.5 kHz, 2 kHz spinning
    (rotor period 500 us);
  * powder: 1H-13C pair at 1.09 Angstrom, 5 kHz spinning, 1/R = 290.8 us,
    1/R1 = 137.9 us, T1rho = 1.867 ms.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

import cpmas.cli as cli
from cpmas.analytic import RelaxationParams, transfer_efficiency
from cpmas.core import (CouplingParams, Orientation, RfScheme, SpinningParams,
                        TimeGrid)
from cpmas.fitting import (BuildUpData, FitSpec, coupling_from_distance,
                           fit_buildup, model_curve)
from cpmas.oracle import (DQ_Y, FICTITIOUS, IY, SY, dq_constancy_report,
                          hamiltonian_at,
                          matrix_exponential_step, propagate_blockwise,
                          propagate_expectations,
                          tilted_spin_operators, zq_dq_decompose)
from cpmas.powder import (DEFAULT_FIT_LEVEL, grid_orientation_set,
                          powder_average, zcw_orientation_set)

KHZ = 2.0 * math.pi * 1e3

CRYSTAL_RF = RfScheme(omega1_i=80.0 * KHZ, omega1_s=80.0 * KHZ)
CRYSTAL_COUPLING = CouplingParams(d=2.5 * KHZ)
CRYSTAL_MAS = SpinningParams(omega_r=2.0 * KHZ)
CRYSTAL_GRID = TimeGrid(dt=1e-6, n_points=1001)

POWDER_COUPLING = CouplingParams(d=coupling_from_distance(1.09, "1H", "13C"))
POWDER_MAS = SpinningParams(omega_r=5.0 * KHZ)
POWDER_RELAX = RelaxationParams(m0=1.0, r=1.0 / 290.8e-6, r1=1.0 / 137.9e-6,
                                t1rho=1.867e-3)

# eight orientations spanning the (beta, gamma) sphere
SPANNING_ORIENTATIONS = [
    Orientation(beta=b, gamma=g)
    for b, g in [(0.25, 0.0), (0.25, 2.6), (math.pi / 4, 1.0),
                 (math.pi / 3, math.pi / 5), (1.3, 4.4), (math.pi / 2, 0.0),
                 (2.0, 3.0), (2.7, 5.5)]
]


def _report(number, description, **metrics):
    shown = ", ".join(f"{k}={v:.3g}" for k, v in metrics.items())
    print(f"PASS criterion {number}: {description} ({shown})")


def test_criterion_1_analytic_matches_propagator_at_match():
    started = time.perf_counter()
    worst = 0.0
    for orient in SPANNING_ORIENTATIONS:
        eta = transfer_efficiency(CRYSTAL_COUPLING, orient, CRYSTAL_MAS,
                                  CRYSTAL_GRID.times())
        sy, _, _ = propagate_expectations(IY, (SY, IY, DQ_Y), CRYSTAL_RF,
                                          CRYSTAL_COUPLING, orient,
                                          CRYSTAL_MAS, CRYSTAL_GRID)
        worst = max(worst, float(np.max(np.abs(eta - sy))))
    elapsed = time.perf_counter() - started
    assert worst <= 0.02
    assert elapsed < 10.0
    _report(1, "closed-form transfer matches the density-matrix propagator "
               "over 1 ms at 8 orientations", max_deviation=worst,
            seconds=elapsed)


def test_criterion_2_rotor_periodicity_and_nulls():
    period = 500e-6
    t = np.linspace(0.0, 4.9e-4, 211)
    oset = grid_orientation_set(6, 6)
    orientations = (SPANNING_ORIENTATIONS
                    + [Orientation(beta=b, gamma=g)
                       for b, g in zip(oset.beta, oset.gamma)])
    worst_shift = 0.0
    worst_null = 0.0
    for orient in orientations:
        eta_a = transfer_efficiency(CRYSTAL_COUPLING, orient, CRYSTAL_MAS, t)
        eta_b = transfer_efficiency(CRYSTAL_COUPLING, orient, CRYSTAL_MAS,
                                    t + period)
        worst_shift = max(worst_shift, float(np.max(np.abs(eta_a - eta_b))))
        for t_null in (period, 2 * period):
            worst_null = max(worst_null, abs(transfer_efficiency(
                CRYSTAL_COUPLING, orient, CRYSTAL_MAS, t_null)))
    assert worst_shift <= 1e-10
    assert worst_null <= 1e-9

    worst_oracle = 0.0
    grid = TimeGrid(dt=2.5e-6, n_points=201)  # point 200 sits at 500 us
    for orient in SPANNING_ORIENTATIONS:
        sy, _, _ = propagate_expectations(IY, (SY, IY, DQ_Y), CRYSTAL_RF,
                                          CRYSTAL_COUPLING, orient,
                                          CRYSTAL_MAS, grid)
        worst_oracle = max(worst_oracle, abs(float(sy[200])))
    assert worst_oracle <= 0.03
    _report(2, "transfer is rotor-periodic with exact nulls at the rotor "
               "echoes; propagator agrees at the first echo",
            periodicity=worst_shift, analytic_null=worst_null,
            oracle_echo=worst_oracle)


def test_criterion_3_stationary_sample_limit():
    static = SpinningParams(omega_r=0.0)
    orient = Orientation(beta=math.pi / 2, gamma=0.0)
    d0 = abs(CRYSTAL_COUPLING.d)
    n_periods = 5
    t_max = n_periods * 2.0 * math.pi / d0
    grid = TimeGrid(dt=t_max / 4000, n_points=4001)
    sy, _, _ = propagate_expectations(IY, (SY, IY, DQ_Y), CRYSTAL_RF,
                                      CRYSTAL_COUPLING, orient, static, grid)

    s = sy - 0.5
    idx = np.where(np.sign(s[:-1]) * np.sign(s[1:]) < 0)[0]
    t = grid.times()
    crossings = t[idx] - s[idx] * (t[idx + 1] - t[idx]) / (s[idx + 1] - s[idx])
    measured = math.pi * (len(crossings) - 1) / (crossings[-1] - crossings[0])
    freq_err = abs(measured - d0) / d0
    assert freq_err <= 0.01

    eta = transfer_efficiency(CRYSTAL_COUPLING, orient, static, t)
    max_dev = float(np.max(np.abs(eta - sy)))
    assert max_dev <= 0.02
    _report(3, "stationary-sample transfer oscillates at the orientation "
               "coupling and matches the closed form",
            frequency_error=freq_err, max_deviation=max_dev)


def test_criterion_4_double_quantum_component_is_pinned():
    doubled = RfScheme(omega1_i=2 * CRYSTAL_RF.omega1_i,
                       omega1_s=2 * CRYSTAL_RF.omega1_s)
    worst = 0.0
    worst_ratio = math.inf
    for orient in SPANNING_ORIENTATIONS[:4]:
        dev = dq_constancy_report(propagate_expectations(
            IY, (SY, IY, DQ_Y), CRYSTAL_RF, CRYSTAL_COUPLING, orient,
            CRYSTAL_MAS, CRYSTAL_GRID)[2])
        dev2 = dq_constancy_report(propagate_expectations(
            IY, (SY, IY, DQ_Y), doubled, CRYSTAL_COUPLING, orient,
            CRYSTAL_MAS, CRYSTAL_GRID)[2])
        worst = max(worst, dev)
        worst_ratio = min(worst_ratio, dev / dev2)
    assert worst <= 0.05
    assert worst_ratio >= 1.8
    _report(4, "double-quantum lock component stays constant and tightens "
               "quadratically with field strength", max_excursion=worst,
            reduction_on_doubling=worst_ratio)


def test_criterion_5_commuting_subspaces_and_blockwise_propagation():
    rng = np.random.default_rng(50)
    worst_comm = 0.0
    for _ in range(20):
        orient = Orientation(beta=float(rng.uniform(0, math.pi)),
                             gamma=float(rng.uniform(0, 2 * math.pi)))
        t = float(rng.uniform(0, 1e-3))
        h = hamiltonian_at(CRYSTAL_RF, CRYSTAL_COUPLING, orient, CRYSTAL_MAS, t)
        zq_coeffs, dq_coeffs, _ = zq_dq_decompose(h)
        h_zq = sum(c * FICTITIOUS["zq", ax]
                   for c, ax in zip(zq_coeffs, "xyz1"))
        h_dq = sum(c * FICTITIOUS["dq", ax]
                   for c, ax in zip(dq_coeffs, "xyz1"))
        comm = np.linalg.norm(h_zq @ h_dq - h_dq @ h_zq, 2)
        scale = np.linalg.norm(h_zq, 2) * np.linalg.norm(h_dq, 2)
        worst_comm = max(worst_comm, comm / scale)
    assert worst_comm <= 1e-12

    worst_block = 0.0
    for orient in SPANNING_ORIENTATIONS[:4]:
        sy, _, _ = propagate_expectations(IY, (SY, IY, DQ_Y), CRYSTAL_RF,
                                          CRYSTAL_COUPLING, orient,
                                          CRYSTAL_MAS, CRYSTAL_GRID)
        blocks = propagate_blockwise(IY, CRYSTAL_RF, CRYSTAL_COUPLING, orient,
                                     CRYSTAL_MAS, CRYSTAL_GRID)
        worst_block = max(worst_block, float(np.max(np.abs(sy - blocks))))
    assert worst_block <= 1e-8
    _report(5, "zero- and double-quantum parts commute and block-wise "
               "propagation reproduces the full space",
            commutator=worst_comm, block_deviation=worst_block)


def test_criterion_6_powder_average_convergence():
    grid = TimeGrid(dt=10e-6, n_points=201)

    def averaged(oset):
        return powder_average(CRYSTAL_RF, POWDER_COUPLING, POWDER_MAS, grid, oset)

    coarse = averaged(grid_orientation_set(64, 64))
    fine = averaged(grid_orientation_set(128, 128))
    delta = float(np.max(np.abs(fine - coarse)))
    assert delta <= 5e-3

    # rotor echoes every 200 us survive the average before damping
    worst_null = float(np.max(np.abs(fine[::20])))
    assert worst_null <= 1e-12
    _report(6, "powder average converges under orientation-grid refinement "
               "and keeps the rotor-echo nulls", refinement_delta=delta,
            null_magnitude=worst_null)


def test_criterion_7_fit_round_trip_recovers_relaxation():
    started = time.perf_counter()
    oset = zcw_orientation_set(DEFAULT_FIT_LEVEL)
    truth = FitSpec(values={"d": POWDER_COUPLING.d, "r": POWDER_RELAX.r,
                            "r1": POWDER_RELAX.r1,
                            "t1rho": POWDER_RELAX.t1rho,
                            "m0": POWDER_RELAX.m0},
                    free=(), orientations=oset, spin=POWDER_MAS,
                    rf=CRYSTAL_RF)
    times = np.arange(121) * 25e-6
    clean = model_curve(truth, times)

    def spec(guess_factor=1.5):
        # r, r1 and t1rho free, each searched over the derived box from its
        # guess / SEARCH_SPAN to its guess * SEARCH_SPAN
        free = ("r", "r1", "t1rho")
        return dataclasses.replace(truth, values={
            n: v * guess_factor if n in free else v
            for n, v in truth.values.items()}, free=free)

    noiseless = fit_buildup(
        BuildUpData(times=times, magnetizations=clean), spec())
    errs_clean = {
        "r": abs(noiseless.values["r"] / POWDER_RELAX.r - 1.0),
        "r1": abs(noiseless.values["r1"] / POWDER_RELAX.r1 - 1.0),
        "t1rho": abs(noiseless.values["t1rho"] / POWDER_RELAX.t1rho - 1.0),
    }
    assert noiseless.converged
    assert max(errs_clean.values()) <= 0.02

    rng = np.random.default_rng(51)
    noisy_values = clean + 0.01 * rng.standard_normal(len(clean))
    noisy = fit_buildup(
        BuildUpData(times=times, magnetizations=noisy_values), spec())
    errs_noisy = {
        "r": abs(noisy.values["r"] / POWDER_RELAX.r - 1.0),
        "r1": abs(noisy.values["r1"] / POWDER_RELAX.r1 - 1.0),
        "t1rho": abs(noisy.values["t1rho"] / POWDER_RELAX.t1rho - 1.0),
    }
    assert max(errs_noisy.values()) <= 0.05
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(7, "relaxation rates and t1rho round-trip through the fitter",
            noiseless_error=max(errs_clean.values()),
            noisy_error=max(errs_noisy.values()), seconds=elapsed)


def test_criterion_8_off_resonance_transfer_rate_scaling():
    offset = 40.0 * KHZ
    rf_off = RfScheme(omega1_i=80.0 * KHZ, omega1_s=80.0 * KHZ,
                      offset_i=offset, offset_s=offset)
    assert rf_off.omega1_ie == pytest.approx(rf_off.omega1_se, rel=1e-14)
    scale = math.sin(rf_off.theta_i) * math.sin(rf_off.theta_s)

    static = SpinningParams(omega_r=0.0)
    orient = Orientation(beta=math.pi / 2, gamma=0.0)
    t_half = math.pi / (2 * abs(CRYSTAL_COUPLING.d))

    def half_transfer_time(rf, state, observable, t_max):
        grid = TimeGrid(dt=t_max / 1500, n_points=1501)
        sy = propagate_expectations(state, (observable,), rf,
                                    CRYSTAL_COUPLING, orient, static, grid)[0]
        k = int(np.argmax(sy >= 0.5))
        t = grid.times()
        return float(np.interp(0.5, [sy[k - 1], sy[k]], [t[k - 1], t[k]]))

    t_on = half_transfer_time(CRYSTAL_RF, IY, SY, 3 * t_half)
    i_e, s_e = tilted_spin_operators(rf_off)
    t_off = half_transfer_time(rf_off, i_e, s_e, 3 * t_half / scale)
    ratio = t_on / t_off
    rel_err = abs(ratio - scale) / scale
    assert rel_err <= 0.05
    _report(8, "matched effective fields transfer at the tilt-scaled rate",
            rate_ratio=ratio, expected=scale, relative_error=rel_err)


def test_criterion_9_numerical_hygiene(tmp_path):
    # unitarity over 1e5 exact-exponential steps
    orient = SPANNING_ORIENTATIONS[3]
    dt = 0.05e-6
    rho = np.array(IY, dtype=complex)
    trace0, purity0 = np.trace(rho), np.trace(rho @ rho)
    herm_drift = 0.0
    for k in range(100000):
        h = hamiltonian_at(CRYSTAL_RF, CRYSTAL_COUPLING, orient, CRYSTAL_MAS,
                           (k + 0.5) * dt)
        u = matrix_exponential_step(h, dt)
        rho = u @ rho @ u.conj().T
    herm_drift = float(np.max(np.abs(rho - rho.conj().T)))
    trace_drift = abs(np.trace(rho) - trace0)
    purity_drift = abs(np.trace(rho @ rho) - purity0)
    assert trace_drift <= 1e-8
    assert purity_drift <= 1e-8
    assert herm_drift <= 1e-10

    # fourth-order convergence of the propagator's steps, on a grid coarse
    # enough that the errors stay above round-off
    grid = TimeGrid(dt=1e-6, n_points=401)

    def sy(substeps):
        return propagate_expectations(IY, (SY, IY, DQ_Y), CRYSTAL_RF,
                                      CRYSTAL_COUPLING, orient, CRYSTAL_MAS,
                                      grid, substeps=substeps)[0]

    reference = sy(32)
    errors = [float(np.max(np.abs(sy(k) - reference))) for k in (1, 2, 4)]
    ratios = (errors[0] / errors[1], errors[1] / errors[2])
    assert errors[-1] > 1e-12
    assert min(ratios) >= 3.5

    # identical config and seed give bit-identical CLI outputs
    args = ["--d-khz", "2.5", "--mas-khz", "2", "--tmax-us", "500", "--dt-us",
            "5", "--orient-set", "zcw:4", "--seed", "3"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["powder", *args, "--out", str(a)]) == 0
    assert cli.main(["powder", *args, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    _report(9, "unitarity holds over 1e5 steps, stepping is fourth order, "
               "and outputs are reproducible", trace_drift=trace_drift,
            purity_drift=purity_drift, halving_gain=min(ratios))
