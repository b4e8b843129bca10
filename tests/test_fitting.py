import dataclasses
import io
import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cpmas.fitting as fitting
import cpmas.powder as powder
from cpmas.analytic import RelaxationParams
from cpmas.core import CouplingParams, RfScheme, SpinningParams
from cpmas.fitting import (BuildUpData, DataError, FitError, FitParameter,
                           FitResult, FitSpec, ModelParams,
                           coupling_from_distance, distance_from_coupling,
                           fit_buildup, load_buildup, model_curve,
                           model_from_values, save_buildup)
from cpmas.powder import grid_orientation_set, zcw_orientation_set

KHZ = 2.0 * math.pi * 1e3

# Powder build-up benchmark (1H-13C at 1.09 Angstrom, 5 kHz spinning,
# matched 80 kHz locks, 1/R = 290.8 us, 1/R1 = 137.9 us, T1rho = 1.867 ms).
TRUE_R = 1.0 / 290.8e-6
TRUE_R1 = 1.0 / 137.9e-6
TRUE_T1RHO = 1.867e-3


def benchmark_params(orientations):
    return ModelParams(
        coupling=CouplingParams(d=coupling_from_distance(1.09, "1H", "13C")),
        spin=SpinningParams(omega_r=5.0 * KHZ),
        rf=RfScheme(omega1_i=80.0 * KHZ, omega1_s=80.0 * KHZ),
        relax=RelaxationParams(m0=1.0, r=TRUE_R, r1=TRUE_R1, t1rho=TRUE_T1RHO),
        orientations=orientations,
    )


def benchmark_spec(orientations, free=("r", "r1", "t1rho"), guess_factor=1.5,
                   use_inverse_rates=False):
    truth = {"d": coupling_from_distance(1.09, "1H", "13C"),
             "r": TRUE_R, "r1": TRUE_R1, "t1rho": TRUE_T1RHO, "m0": 1.0}
    parameters = {}
    for name, value in truth.items():
        if name in free:
            start = value * guess_factor
            parameters[name] = FitParameter(value=start, free=True,
                                            lower=start / 1000.0,
                                            upper=start * 1000.0)
        else:
            parameters[name] = FitParameter(value=value)
    return FitSpec(parameters=parameters, orientations=orientations,
                   spin=SpinningParams(omega_r=5.0 * KHZ),
                   rf=RfScheme(omega1_i=80.0 * KHZ, omega1_s=80.0 * KHZ),
                   use_inverse_rates=use_inverse_rates)


class TestLoadBuildup:
    def test_two_column_file(self):
        data = load_buildup(io.StringIO(
            "time_us,magnetization\n0.0,0.0\n25.0,0.5\n50.0,0.8\n"))
        np.testing.assert_allclose(data.times, [0.0, 25e-6, 50e-6])
        np.testing.assert_allclose(data.magnetizations, [0.0, 0.5, 0.8])
        assert data.sigmas is None

    def test_sigma_column_and_comments(self):
        data = load_buildup(io.StringIO(
            "# produced by an instrument\ntime_us,magnetization,sigma\n"
            "0.0,0.0,0.01\n\n25.0,0.5,0.02\n"))
        np.testing.assert_allclose(data.sigmas, [0.01, 0.02])

    def test_bytes_source(self):
        data = load_buildup(b"time_us,magnetization\n0,0\n1,1\n")
        assert len(data) == 2

    def test_duplicate_time_names_line(self):
        with pytest.raises(DataError, match=":4: duplicate time"):
            load_buildup(io.StringIO(
                "time_us,magnetization\n0.0,0.0\n25.0,0.5\n25.0,0.6\n"))

    def test_decreasing_time_names_line(self):
        with pytest.raises(DataError, match=":3:.*not.*increasing"):
            load_buildup(io.StringIO(
                "time_us,magnetization\n25.0,0.5\n0.0,0.0\n"))

    def test_bad_header(self):
        with pytest.raises(DataError, match=":1: expected header"):
            load_buildup(io.StringIO("time,signal\n0,0\n"))

    def test_non_numeric_value_names_line(self):
        with pytest.raises(DataError, match=":3: non-numeric"):
            load_buildup(io.StringIO(
                "time_us,magnetization\n0.0,0.0\n1.0,oops\n"))

    def test_wrong_column_count(self):
        with pytest.raises(DataError, match=":2: expected 2 columns"):
            load_buildup(io.StringIO("time_us,magnetization\n0.0,0.0,0.1\n"))

    def test_too_few_points(self):
        with pytest.raises(DataError, match="at least 2"):
            load_buildup(io.StringIO("time_us,magnetization\n0.0,0.0\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_buildup(tmp_path / "absent.csv")

    def test_non_utf8_input_is_data_error(self, tmp_path):
        raw = b"time_us,magnetization\n0,0\n\xff,1\n"
        path = tmp_path / "latin.csv"
        path.write_bytes(raw)
        sources = [path, str(path), raw, bytearray(raw), io.BytesIO(raw),
                   io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8")]
        for source in sources:
            with pytest.raises(DataError, match="not UTF-8 text"):
                load_buildup(source)

    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(40)
        source = tmp_path / "source.csv"
        rows = ["time_us,magnetization,sigma"]
        for t, m, s in zip(np.sort(rng.uniform(0, 3000, 17)),
                           rng.uniform(0, 1, 17), rng.uniform(0.01, 0.1, 17)):
            rows.append(f"{float(t)!r},{float(m)!r},{float(s)!r}")
        source.write_text("\n".join(rows) + "\n")
        data = load_buildup(source)
        exported = tmp_path / "roundtrip.csv"
        save_buildup(data, exported)
        assert exported.read_text() == source.read_text()
        back = load_buildup(exported)
        assert np.array_equal(back.times, data.times)
        assert np.array_equal(back.magnetizations, data.magnetizations)
        assert np.array_equal(back.sigmas, data.sigmas)

    def test_writer_bytes_are_repr_of_float(self, tmp_path):
        # an integer column, signed zero, non-finite and subnormal-range
        # values are each written as repr(float(v))
        out = tmp_path / "golden.csv"
        fitting.write_curve_csv(out, {
            "n": np.array([0, 1, -2, 3, 2**53 + 1]),
            "x": np.array([-0.0, math.nan, math.inf, -math.inf, 1e-300]),
            "y": [0.1, 1.0 / 3.0, 5e-324, 1e300, -2.5],
        }, ["# key = value"])
        assert out.read_bytes() == (
            b"# key = value\nn,x,y\n"
            b"0.0,-0.0,0.1\n"
            b"1.0,nan,0.3333333333333333\n"
            b"-2.0,inf,5e-324\n"
            b"3.0,-inf,1e+300\n"
            b"9007199254740992.0,1e-300,-2.5\n")


# any float64 bit pattern, plus the values whose repr is easiest to get wrong
CSV_FLOATS = st.one_of(
    st.integers(0, 2**64 - 1).map(
        lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
                     2.2250738585072014e-308, 1e-300, 1e300, 0.1]))
CSV_INTS = st.one_of(st.integers(-2**63, 2**63 - 1),
                     st.sampled_from([2**53 + 1, -(2**53 + 1), 0]))


@st.composite
def csv_columns(draw):
    """1-4 equal-length columns, each a list or an array of floats or
    integers."""
    rows = draw(st.integers(1, 40))
    columns = {}
    for c in range(draw(st.integers(1, 4))):
        values = draw(st.lists(draw(st.sampled_from([CSV_FLOATS, CSV_INTS])),
                               min_size=rows, max_size=rows))
        columns[f"c{c}"] = (np.array(values) if draw(st.booleans())
                            else values)
    return columns


class TestWriteCurveCsvProperties:
    @settings(max_examples=200, deadline=None)
    @given(columns=csv_columns(),
           echo=st.lists(st.text("abc =-.0123456789", max_size=12).map(
               "# ".__add__), max_size=3))
    def test_bytes_are_rows_of_repr(self, columns, echo):
        expected = "\n".join([*echo, ",".join(columns)]) + "\n" + "".join(
            ",".join(map(repr, row)) + "\n"
            for row in zip(*([float(v) for v in col]
                             for col in columns.values())))
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "curve.csv"
            fitting.write_curve_csv(out, columns, echo)
            assert out.read_bytes() == expected.encode("utf-8")


BUILDUP_HEADERS = st.sampled_from(["time_us,magnetization\n",
                                   "time_us,magnetization,sigma\n"])
# characters that make rows which almost parse, so later checks are reached
ROW_TEXT = st.text(alphabet="0123456789.,-+eEinfa# \n\r\t")


def load_or_data_error(source):
    try:
        assert isinstance(load_buildup(source), BuildUpData)
    except DataError:
        pass


class TestLoadBuildupProperties:
    @settings(max_examples=200, deadline=None)
    @given(head=st.one_of(st.just(b""), BUILDUP_HEADERS.map(str.encode)),
           raw=st.binary(max_size=256))
    def test_arbitrary_bytes_raise_only_data_error(self, head, raw):
        load_or_data_error(head + raw)
        load_or_data_error(io.BytesIO(head + raw))

    @settings(max_examples=200, deadline=None)
    @given(head=BUILDUP_HEADERS, text=st.one_of(st.text(max_size=256),
                                                ROW_TEXT))
    def test_arbitrary_text_after_header_raises_only_data_error(self, head,
                                                                text):
        load_or_data_error(io.StringIO(head + text))
        load_or_data_error((head + text).encode())


class TestModelCurve:
    def test_zero_at_time_zero(self):
        params = benchmark_params(zcw_orientation_set(2))
        assert model_curve(params, np.array([0.0]))[0] == 0.0

    def test_no_coupling_reduces_to_rate_model(self):
        params = ModelParams(
            coupling=CouplingParams(d=0.0),
            spin=SpinningParams(omega_r=5.0 * KHZ),
            rf=RfScheme(omega1_i=80.0 * KHZ, omega1_s=80.0 * KHZ),
            relax=RelaxationParams(m0=1.2, r=TRUE_R, r1=TRUE_R1,
                                   t1rho=TRUE_T1RHO),
            orientations=zcw_orientation_set(2),
        )
        t = np.linspace(0.0, 3e-3, 31)
        expected = (1.2 * (1.0 - 0.5 * np.exp(-TRUE_R * t)
                           - 0.5 * np.exp(-TRUE_R1 * t))
                    * np.exp(-t / TRUE_T1RHO))
        np.testing.assert_allclose(model_curve(params, t), expected,
                                   rtol=0, atol=1e-15)

    def test_against_direct_double_summation(self):
        # independent reimplementation: plain loops over the same
        # orientation table, scalar math only
        oset = grid_orientation_set(12, 8)
        params = benchmark_params(oset)
        d = params.coupling.d
        wr = params.spin.omega_r
        times = np.array([0.0, 40e-6, 153e-6, 0.97e-3, 2.5e-3])
        expected = []
        for t in times:
            acc = []
            for b, g, weight in zip(oset.beta, oset.gamma, oset.weights):
                phi = d / (2 * wr) * (
                    2 * math.sqrt(2) * math.sin(2 * b)
                    * (math.sin(wr * t + g) - math.sin(g))
                    - math.sin(b) ** 2
                    * (math.sin(2 * wr * t + 2 * g) - math.sin(2 * g)))
                acc.append(weight * 0.5 * (1.0 - math.cos(phi)))
            eta = math.fsum(acc)
            expected.append((1.0 - 0.5 * math.exp(-TRUE_R * t)
                             - 0.5 * math.exp(-TRUE_R1 * t) * (1.0 - 2.0 * eta))
                            * math.exp(-t / TRUE_T1RHO))
        np.testing.assert_allclose(model_curve(params, times), expected,
                                   rtol=0, atol=1e-13)

    def test_rises_then_decays_on_benchmark(self):
        params = benchmark_params(zcw_orientation_set(8))
        t = np.arange(121) * 25e-6
        m = model_curve(params, t)
        assert m[0] == 0.0
        assert m.max() > 0.6
        # build-up peaks on the 0.1-1 ms scale, then the t1rho decay wins
        assert 0.1e-3 <= t[np.argmax(m)] <= 1.5e-3
        assert m[-1] < 0.75 * m.max()


class TestFitBuildup:
    def make_data(self, noise=0.0, seed=41, n=121, oset_level=4):
        oset = zcw_orientation_set(oset_level)
        times = np.arange(n) * 25e-6
        m = model_curve(benchmark_params(oset), times)
        if noise:
            rng = np.random.default_rng(seed)
            m = m + noise * rng.standard_normal(len(m))
        return BuildUpData(times=times, magnetizations=m), oset

    def test_noiseless_round_trip_recovers_rates(self):
        data, oset = self.make_data()
        result = fit_buildup(data, benchmark_spec(oset))
        assert result.converged
        assert result.values["r"] == pytest.approx(TRUE_R, rel=0.02)
        assert result.values["r1"] == pytest.approx(TRUE_R1, rel=0.02)
        assert result.values["t1rho"] == pytest.approx(TRUE_T1RHO, rel=0.02)

    def test_noisy_round_trip(self):
        data, oset = self.make_data(noise=0.01)
        result = fit_buildup(data, benchmark_spec(oset))
        assert result.values["r"] == pytest.approx(TRUE_R, rel=0.05)
        assert result.values["r1"] == pytest.approx(TRUE_R1, rel=0.05)
        assert result.values["t1rho"] == pytest.approx(TRUE_T1RHO, rel=0.05)

    def test_all_fixed_reports_residual_without_iterating(self):
        data, oset = self.make_data()
        result = fit_buildup(data, benchmark_spec(oset, free=()))
        assert result.iterations == 0
        assert result.converged
        assert result.rss == pytest.approx(0.0, abs=1e-20)

    def test_residual_never_exceeds_initial(self):
        data, oset = self.make_data(noise=0.05)
        spec = benchmark_spec(oset)
        initial = {n: spec.parameters[n].value for n in fitting.PARAMETER_NAMES}
        res0 = model_curve(fitting.model_from_values(initial, spec),
                           data.times) - data.magnetizations
        result = fit_buildup(data, spec)
        assert result.rss <= float(res0 @ res0)

    def test_iteration_cap_flags_non_convergence(self, monkeypatch):
        monkeypatch.setattr(fitting, "MAX_ITERATIONS", 2)
        data, oset = self.make_data(noise=0.02)
        result = fit_buildup(data, benchmark_spec(oset))
        assert not result.converged
        assert result.iterations == 2

    @pytest.mark.parametrize("use_inverse_rates", [False, True])
    def test_analytic_jacobian_matches_central_differences(
            self, use_inverse_rates):
        # all five parameters free, non-uniform sigma weights
        data, oset = self.make_data(noise=0.01)
        rng = np.random.default_rng(42)
        data = BuildUpData(times=data.times,
                           magnetizations=data.magnetizations,
                           sigmas=rng.uniform(0.005, 0.02, len(data)))
        spec = benchmark_spec(oset, free=fitting.PARAMETER_NAMES,
                              guess_factor=1.1,
                              use_inverse_rates=use_inverse_rates)
        fm = fitting._BuildUpModel(data, spec)
        names = spec.free_names
        start = {n: spec.parameters[n].value for n in fitting.PARAMETER_NAMES}

        def residuals(x):
            values = dict(start)
            values.update({n: fitting._reparametrize(n, float(xi), spec)
                           for n, xi in zip(names, x)})
            return fm.evaluate(values)[1]

        x0 = np.array([fitting._reparametrize(n, start[n], spec)
                       for n in names])
        analytic = fm.jacobian(start, fm.evaluate(start)[0], names)
        central = np.empty_like(analytic)
        for j in range(len(x0)):
            h = 1e-5 * abs(x0[j])
            xp, xm = x0.copy(), x0.copy()
            xp[j] += h
            xm[j] -= h
            central[:, j] = (residuals(xp) - residuals(xm)) / (2 * h)
        rel = (np.linalg.norm(analytic - central, axis=0)
               / np.linalg.norm(central, axis=0))
        assert np.all(rel < 1e-6), dict(zip(spec.free_names, rel))

    def test_one_powder_average_per_distinct_coupling(self, monkeypatch):
        calls = []
        original = fitting.averaged_efficiency

        def counting(coupling, *args, **kwargs):
            calls.append(coupling.d)
            return original(coupling, *args, **kwargs)

        data, oset = self.make_data(noise=0.01, n=61)
        monkeypatch.setattr(fitting, "averaged_efficiency", counting)
        fixed = fit_buildup(data, benchmark_spec(oset))
        assert fixed.iterations > 1
        assert len(calls) == 1

        calls.clear()
        free_d = fit_buildup(data, benchmark_spec(
            oset, free=("d", "r", "r1", "t1rho"), guess_factor=1.05))
        assert free_d.converged
        assert len(calls) > 1
        assert len(set(calls)) == len(calls)

    def test_phase_bracket_built_once_per_fit(self, monkeypatch):
        calls = []
        original = powder.phase_bracket

        def counting(*args):
            calls.append(1)
            return original(*args)

        data, oset = self.make_data(noise=0.01, n=61)
        monkeypatch.setattr(powder, "phase_bracket", counting)
        blocks = math.ceil(len(oset) / powder.ORIENT_BLOCK)
        assert blocks > 1
        fit_buildup(data, benchmark_spec(oset))
        assert len(calls) == blocks

        calls.clear()
        distinct = set()
        averaged = fitting.averaged_efficiency

        def recording(coupling, *args, **kwargs):
            distinct.add(coupling.d)
            return averaged(coupling, *args, **kwargs)

        monkeypatch.setattr(fitting, "averaged_efficiency", recording)
        fit_buildup(data, benchmark_spec(
            oset, free=("d", "r", "r1", "t1rho"), guess_factor=1.05))
        assert len(distinct) > 1
        assert len(calls) == blocks

    def test_streamed_table_gives_the_same_fit(self, monkeypatch):
        # a budget of 0 bytes streams every block as a one-shot average does
        data, oset = self.make_data(noise=0.01, n=61)
        for spin in (SpinningParams(omega_r=5.0 * KHZ),
                     SpinningParams(omega_r=0.0)):
            spec = dataclasses.replace(benchmark_spec(
                oset, free=("d", "r", "r1", "t1rho"), guess_factor=1.05),
                spin=spin)
            assert fitting._BuildUpModel(data, spec).source.cached is not None
            cached = fit_buildup(data, spec)
            with monkeypatch.context() as patch:
                patch.setattr(powder, "PHASE_TABLE_BUDGET", 0)
                assert fitting._BuildUpModel(data, spec).source.cached is None
                streamed = fit_buildup(data, spec)
            # values, rss, stderr, iterations and stop reason; model apart
            assert streamed == cached
            assert np.array_equal(streamed.model, cached.model)

    def test_second_start_escapes_a_higher_minimum(self):
        # from the guess alone, far-off rates drag d from 9.25 kHz across a
        # barrier of the residual profile to a higher minimum at 6.8 kHz
        oset = zcw_orientation_set(8)
        spin = SpinningParams(omega_r=9.416 * KHZ)
        rf = RfScheme(omega1_i=80.0 * KHZ, omega1_s=80.0 * KHZ)
        truth = {"d": 9.106 * KHZ, "r": 2631.2, "r1": 5798.8,
                 "t1rho": 1.6433e-3, "m0": 1.41}
        guess = {"d": 9.2546 * KHZ, "r": 1 / 445.23e-6, "r1": 1 / 192.01e-6,
                 "t1rho": 1.1636e-3, "m0": 1.8822}
        times = np.arange(121) * 25e-6
        clean = model_curve(ModelParams(
            coupling=CouplingParams(d=truth["d"]), spin=spin, rf=rf,
            relax=RelaxationParams(m0=truth["m0"], r=truth["r"],
                                   r1=truth["r1"], t1rho=truth["t1rho"]),
            orientations=oset), times)
        noise = 0.01 * truth["m0"] * np.random.default_rng(95).standard_normal(
            len(times))
        spec = FitSpec(parameters={
            n: FitParameter(value=v, free=True, lower=v / 1000, upper=v * 1000)
            for n, v in guess.items()}, orientations=oset, spin=spin, rf=rf)
        result = fit_buildup(BuildUpData(times=times,
                                         magnetizations=clean + noise), spec)
        assert result.converged
        assert result.values["d"] == pytest.approx(truth["d"], rel=0.1)

    def test_model_is_the_model_curve_at_the_optimum(self):
        data, oset = self.make_data(noise=0.01, n=61)
        for spec in (benchmark_spec(oset),
                     benchmark_spec(oset, free=("d", "r", "m0"),
                                    guess_factor=1.05,
                                    use_inverse_rates=True),
                     benchmark_spec(oset, free=())):
            result = fit_buildup(data, spec)
            expected = model_curve(model_from_values(result.values, spec),
                                   data.times)
            assert np.array_equal(result.model, expected)

    def test_stop_reason(self, monkeypatch):
        data, oset = self.make_data(noise=0.01, n=61)
        assert fit_buildup(data, benchmark_spec(oset, free=())).stop_reason \
            == "no_free_parameters"
        result = fit_buildup(data, benchmark_spec(oset))
        assert result.converged
        assert result.stop_reason in ("rss_tol", "step_tol")
        monkeypatch.setattr(fitting, "MAX_ITERATIONS", 2)
        capped = fit_buildup(data, benchmark_spec(oset))
        assert capped.stop_reason == "max_iterations"
        assert not capped.converged

    def test_descent_check_raises_fit_error(self):
        fitting._check_descent(1.0, 1.0)
        with pytest.raises(FitError, match="initial guess"):
            fitting._check_descent(2.0, 1.0)
        with pytest.raises(FitError):
            fitting._check_descent(math.nan, math.nan)

    def test_rate_and_inverse_rate_fits_agree(self):
        data, oset = self.make_data(noise=0.005, n=61)
        by_rates = fit_buildup(data, benchmark_spec(oset))
        by_times = fit_buildup(data, benchmark_spec(oset,
                                                    use_inverse_rates=True))
        curve_a = model_curve(
            fitting.model_from_values(by_rates.values,
                                       benchmark_spec(oset)), data.times)
        curve_b = model_curve(
            fitting.model_from_values(by_times.values,
                                       benchmark_spec(oset)), data.times)
        assert np.max(np.abs(curve_a - curve_b)) <= 1e-3 * np.max(np.abs(curve_a))

    def test_uniform_weights_equal_unweighted(self):
        data, oset = self.make_data(noise=0.01, n=41)
        weighted = BuildUpData(times=data.times,
                               magnetizations=data.magnetizations,
                               sigmas=np.ones(len(data)))
        spec = benchmark_spec(oset)
        a = fit_buildup(data, spec)
        b = fit_buildup(weighted, spec)
        assert a.values == b.values
        assert a.rss == b.rss
        assert a.iterations == b.iterations

    def test_under_determined_data_rejected(self):
        oset = zcw_orientation_set(1)
        data = BuildUpData(times=np.arange(5) * 25e-6,
                           magnetizations=np.zeros(5))
        with pytest.raises(DataError, match="under-determined"):
            fit_buildup(data, benchmark_spec(oset))
        data2 = BuildUpData(times=np.arange(2) * 25e-6,
                            magnetizations=np.zeros(2))
        with pytest.raises(DataError, match="under-determined"):
            fit_buildup(data2, benchmark_spec(oset))

    def test_degenerate_jacobian_suggests_fixing(self):
        # with d = 0 the two rates play identical roles when started from
        # the same guess: the Jacobian columns coincide
        oset = zcw_orientation_set(1)
        times = np.arange(31) * 50e-6
        relax = RelaxationParams(m0=1.0, r=3000.0, r1=3000.0, t1rho=2e-3)
        truth = ModelParams(coupling=CouplingParams(d=0.0),
                            spin=SpinningParams(omega_r=5.0 * KHZ),
                            rf=RfScheme(omega1_i=80.0 * KHZ,
                                        omega1_s=80.0 * KHZ),
                            relax=relax, orientations=oset)
        data = BuildUpData(times=times,
                           magnetizations=model_curve(truth, times))
        parameters = {
            "d": FitParameter(value=0.0),
            "r": FitParameter(value=3000.0, free=True, lower=1.0, upper=1e6),
            "r1": FitParameter(value=3000.0, free=True, lower=1.0, upper=1e6),
            "t1rho": FitParameter(value=2e-3),
            "m0": FitParameter(value=1.0),
        }
        spec = FitSpec(parameters=parameters, orientations=oset,
                       spin=SpinningParams(omega_r=5.0 * KHZ),
                       rf=RfScheme(omega1_i=80.0 * KHZ, omega1_s=80.0 * KHZ))
        with pytest.raises(FitError, match="consider fixing"):
            fit_buildup(data, spec)

    def test_stderr_reported_per_free_parameter(self):
        data, oset = self.make_data(noise=0.01, n=61)
        result = fit_buildup(data, benchmark_spec(oset))
        assert set(result.stderr) == {"r", "r1", "t1rho"}
        assert all(se > 0 for se in result.stderr.values())


class TestFitSpecValidation:
    def test_requires_all_parameter_names(self):
        oset = zcw_orientation_set(1)
        with pytest.raises(ValueError, match="exactly the keys"):
            FitSpec(parameters={"d": FitParameter(value=1.0)},
                    orientations=oset, spin=SpinningParams(omega_r=0.0),
                    rf=RfScheme(omega1_i=1.0, omega1_s=1.0))

    def test_free_parameter_needs_finite_ordered_bounds(self):
        with pytest.raises(ValueError, match="finite bounds"):
            FitParameter(value=1.0, free=True, lower=0.0, upper=math.inf)
        with pytest.raises(ValueError, match="ordered"):
            FitParameter(value=1.0, free=True, lower=2.0, upper=1.0)
        with pytest.raises(ValueError, match="outside bounds"):
            FitParameter(value=5.0, free=True, lower=0.0, upper=1.0)


class TestDistanceConversion:
    def test_benchmark_pair_coupling(self):
        # recomputed from mu0/4pi * gH * gC * hbar / r^3 with independent
        # constants: 23.33 kHz at 1.09 Angstrom
        d = coupling_from_distance(1.09, "1H", "13C")
        independent = (1e-7 * 2.675221e8 * 6.72828e7 * 1.0545718e-34
                       / (1.09e-10) ** 3)
        assert d / (2 * math.pi * 1e3) == pytest.approx(23.33, abs=0.05)
        assert d == pytest.approx(independent, rel=1e-5)

    def test_round_trip_exact(self):
        for r in (1.09, 2.04, 3.7):
            d = coupling_from_distance(r, "1H", "13C")
            assert distance_from_coupling(d, "1H", "13C") == pytest.approx(
                r, rel=1e-12)

    def test_inverse_cube_scaling(self):
        d1 = coupling_from_distance(1.5, "1H", "15N")
        d2 = coupling_from_distance(3.0, "1H", "15N")
        assert d2 == d1 / 8.0

    def test_negative_gamma_gives_signed_coupling(self):
        assert coupling_from_distance(1.0, "1H", "15N") < 0.0
        assert distance_from_coupling(
            coupling_from_distance(1.0, "1H", "15N"), "1H", "15N"
        ) == pytest.approx(1.0, rel=1e-12)

    def test_unsupported_isotope_lists_supported(self):
        with pytest.raises(ValueError, match="supported: .*13C.*1H"):
            distance_from_coupling(1e5, "1H", "2H")

    def test_zero_coupling_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            distance_from_coupling(0.0, "1H", "13C")

    def test_nonpositive_distance_rejected(self):
        with pytest.raises(ValueError):
            coupling_from_distance(0.0)

    @pytest.mark.parametrize("r", [math.nan, math.inf])
    def test_non_finite_distance_rejected(self, r):
        with pytest.raises(ValueError, match="finite"):
            coupling_from_distance(r)


class TestBuildUpDataValidation:
    def test_rejects_negative_time(self):
        with pytest.raises(DataError):
            BuildUpData(times=np.array([-1e-6, 1e-6]),
                        magnetizations=np.zeros(2))

    def test_rejects_non_increasing(self):
        with pytest.raises(DataError):
            BuildUpData(times=np.array([0.0, 1e-6, 1e-6]),
                        magnetizations=np.zeros(3))

    def test_rejects_bad_sigma(self):
        with pytest.raises(DataError):
            BuildUpData(times=np.array([0.0, 1e-6]),
                        magnetizations=np.zeros(2),
                        sigmas=np.array([0.1, 0.0]))

    @pytest.mark.parametrize("column, value", [
        ("times", math.nan), ("times", math.inf),
        ("magnetizations", math.nan), ("magnetizations", -math.inf),
        ("sigmas", math.nan), ("sigmas", math.inf)])
    def test_rejects_non_finite(self, column, value):
        columns = {"times": np.array([0.0, 1e-6, 2e-6]),
                   "magnetizations": np.zeros(3), "sigmas": np.full(3, 0.1)}
        columns[column][2] = value
        with pytest.raises(DataError, match="finite"):
            BuildUpData(**columns)

    def test_nan_magnetization_stops_fit_before_iterating(self, monkeypatch):
        calls = []
        monkeypatch.setattr(fitting, "_levenberg_marquardt",
                            lambda *args: calls.append(args))
        oset = zcw_orientation_set(2)
        times = np.arange(10) * 25e-6
        mags = model_curve(benchmark_params(oset), times)
        mags[4] = math.nan
        with pytest.raises(DataError, match="finite"):
            fit_buildup(BuildUpData(times=times, magnetizations=mags),
                        benchmark_spec(oset))
        assert calls == []
