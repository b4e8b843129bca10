import dataclasses
import io
import math
import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cpmas.fitting as fitting
import cpmas.powder as powder
import cpmas.core as core
from cpmas.cli import EXIT_FIT, main
from cpmas.core import RfScheme, SpinningParams
from cpmas.fitting import (BuildUpData, DataError, FitError, FitResult,
                           FitSpec, coupling_from_distance,
                           distance_from_coupling, fit_buildup, load_buildup,
                           model_curve, save_buildup)
from cpmas.powder import grid_orientation_set, zcw_orientation_set

KHZ = 2.0 * math.pi * 1e3
OFF_MATCH_RF = RfScheme(omega1_i=80.0 * KHZ, omega1_s=60.0 * KHZ)
OFF_MATCH_MESSAGE = ("the effective lock fields are off the Hartmann-Hahn "
                     "match by w1I,e - w1S,e = 20 kHz")

# Powder build-up benchmark (1H-13C at 1.09 Angstrom, 5 kHz spinning,
# matched 80 kHz locks, 1/R = 290.8 us, 1/R1 = 137.9 us, T1rho = 1.867 ms).
TRUE_R = 1.0 / 290.8e-6
TRUE_R1 = 1.0 / 137.9e-6
TRUE_T1RHO = 1.867e-3


def benchmark_params(orientations):
    return benchmark_spec(orientations, free=())


def benchmark_spec(orientations, free=("r", "r1", "t1rho"), guess_factor=1.5):
    truth = {"d": coupling_from_distance(1.09, "1H", "13C"),
             "r": TRUE_R, "r1": TRUE_R1, "t1rho": TRUE_T1RHO, "m0": 1.0}
    return FitSpec(values={n: v * guess_factor if n in free else v
                           for n, v in truth.items()},
                   free=free, orientations=orientations,
                   spin=SpinningParams(omega_r=5.0 * KHZ),
                   rf=RfScheme(omega1_i=80.0 * KHZ, omega1_s=80.0 * KHZ))


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

    # one fault per file, one file per row rule: the exact message, naming
    # the faulty row's line
    @pytest.mark.parametrize("text, message", [
        ("time_us,magnetization\n0,0\nnan,0.5\n50,0.8\n",
         "<stream>:3: non-finite value"),
        ("# x\ntime_us,magnetization\n0,0\n25,0.5\n\n-inf,0.8\n",
         "<stream>:6: non-finite value"),
        ("time_us,magnetization\n0,0\n25,inf\n",
         "<stream>:3: non-finite value"),
        ("time_us,magnetization,sigma\n0,0,0.1\n25,0.5,nan\n",
         "<stream>:3: non-finite value"),
        ("time_us,magnetization\n# x\n-1,0\n25,0.5\n",
         "<stream>:3: negative time"),
        ("time_us,magnetization\n0,0\n2.5e1,0.5\n25.0,0.6\n50,0.8\n",
         "<stream>:4: duplicate time 25.0 us"),
        ("time_us,magnetization\n0,0\n25,0.5\n10,0.6\n50,0.8\n",
         "<stream>:4: time 10.0 us is not increasing"),
        ("time_us,magnetization,sigma\n0,0,0.1\n25,0.5,0\n",
         "<stream>:3: sigma must be > 0"),
        ("time_us,magnetization,sigma\n0,0,-0.1\n25,0.5,0.1\n",
         "<stream>:2: sigma must be > 0"),
        ("time_us,magnetization,sigma\n# x\n0,0,0.1\n",
         "<stream>: need at least 2 data points, got 1"),
    ], ids=["nan-time", "-inf-time", "inf-magnetization", "nan-sigma",
            "negative-time", "duplicate-time", "decreasing-time", "zero-sigma",
            "negative-sigma", "one-row"])
    def test_single_fault_names_its_line(self, text, message):
        with pytest.raises(DataError) as info:
            load_buildup(io.StringIO(text))
        assert str(info.value) == message

    @pytest.mark.filterwarnings("error")
    def test_two_infinite_times_name_the_first(self):
        with pytest.raises(DataError) as info:
            load_buildup(b"time_us,magnetization\n0,0\ninf,0.5\ninf,0.6\n")
        assert str(info.value) == "<bytes>:3: non-finite value"

    @pytest.mark.parametrize("text, message", [
        # a syntax fault comes first, wherever it is
        ("time_us,magnetization\n0,0\n0,0\n1,x\n",
         "<stream>:4: non-numeric value"),
        ("time,signal,sigma\n0,0\n", "<stream>:1: expected header"),
        # else the first row that breaks a rule, whichever rule
        ("time_us,magnetization\n-5,0\n10,0\n10,1\n",
         "<stream>:2: negative time"),
        ("time_us,magnetization,sigma\n0,0,0.1\n10,0,-1\n10,nan,0.1\n",
         "<stream>:3: sigma must be > 0"),
    ], ids=["row-then-syntax", "header-then-width", "negative-then-duplicate",
            "sigma-then-non-finite"])
    def test_several_faults_name_the_first(self, text, message):
        with pytest.raises(DataError, match=f"^{re.escape(message)}"):
            load_buildup(io.StringIO(text))

    def test_read_curve_csv_shares_the_syntax(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_bytes(b"# echo\r\n\r\n t_us , eta \r\n0.0, 0.5\r\n"
                         b"1.0,1e-3\r\n")
        cols = fitting.read_curve_csv(path)
        assert list(cols) == ["t_us", "eta"]
        assert np.array_equal(cols["eta"], [0.5, 1e-3])
        path.write_text("# echo\nt_us,eta\n0.0,0.5\n1.0\n")
        with pytest.raises(DataError,
                           match=f"^{re.escape(str(path))}:4: expected 2 "):
            fitting.read_curve_csv(path)

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

    def test_byte_order_mark_is_skipped(self, tmp_path):
        raw = b"time_us,magnetization,sigma\n0,0,0.1\n25,0.5,0.2\n"
        plain = load_buildup(raw)
        bom = b"\xef\xbb\xbf" + raw
        path = tmp_path / "bom.csv"
        path.write_bytes(bom)
        sources = [path, str(path), bom, bytearray(bom), io.BytesIO(bom),
                   io.StringIO(bom.decode("utf-8")),
                   io.TextIOWrapper(io.BytesIO(bom), encoding="utf-8")]
        for source in sources:
            data = load_buildup(source)
            for f in dataclasses.fields(BuildUpData):
                assert np.array_equal(getattr(data, f.name),
                                      getattr(plain, f.name))

    def test_every_source_kind_reads_any_line_ending(self, tmp_path):
        path = tmp_path / "cr.csv"
        for sep in ("\n", "\r\n", "\r"):
            raw = sep.join(["time_us,magnetization", "0,0", "25,0.5"]).encode()
            path.write_bytes(raw)
            for source in (path, raw, io.BytesIO(raw),
                           io.StringIO(raw.decode(), newline="")):
                data = load_buildup(source)
                assert np.array_equal(data.magnetizations, [0.0, 0.5])

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

    def test_writer_refuses_unequal_columns(self, tmp_path):
        out = tmp_path / "unequal.csv"
        lengths = r"^columns differ in length: \{'a': 2, 'b': 1\}$"
        with pytest.raises(ValueError, match=lengths):
            fitting.write_curve_csv(out, {"a": [1, 2], "b": [3]}, [])
        assert not out.exists()


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
    @pytest.mark.filterwarnings("error")
    @settings(max_examples=200, deadline=None)
    @given(head=st.one_of(st.just(b""), BUILDUP_HEADERS.map(str.encode)),
           raw=st.binary(max_size=256))
    def test_arbitrary_bytes_raise_only_data_error(self, head, raw):
        load_or_data_error(head + raw)
        load_or_data_error(io.BytesIO(head + raw))

    @pytest.mark.filterwarnings("error")
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
        params = dataclasses.replace(
            benchmark_params(zcw_orientation_set(2)),
            values={"d": 0.0, "r": TRUE_R, "r1": TRUE_R1, "t1rho": TRUE_T1RHO,
                    "m0": 1.2})
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
        d = params.values["d"]
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

    def test_off_match_is_refused(self):
        with pytest.raises(ValueError, match=OFF_MATCH_MESSAGE):
            model_curve(dataclasses.replace(
                benchmark_params(zcw_orientation_set(2)), rf=OFF_MATCH_RF),
                np.array([0.0, 1e-4]))

    def test_within_match_tolerance_is_the_matched_curve(self):
        params = benchmark_params(zcw_orientation_set(4))
        near = dataclasses.replace(params, rf=RfScheme(
            omega1_i=80.0 * KHZ, omega1_s=80.000000152 * KHZ))
        t = np.arange(41) * 25e-6
        assert np.array_equal(model_curve(near, t), model_curve(params, t))

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
        res0 = model_curve(spec, data.times) - data.magnetizations
        result = fit_buildup(data, spec)
        assert result.rss <= float(res0 @ res0)

    def test_iteration_cap_flags_non_convergence(self, monkeypatch):
        monkeypatch.setattr(fitting, "MAX_ITERATIONS", 2)
        data, oset = self.make_data(noise=0.02)
        result = fit_buildup(data, benchmark_spec(oset))
        assert not result.converged
        assert result.iterations == 2

    def test_analytic_jacobian_matches_central_differences(self):
        # non-uniform sigma weights; a fixed m0 is one more column, a free
        # m0 is projected: inside its bounds, and clipped at an upper bound
        # of about half the least-squares amplitude (a guess of 5e-4 gives
        # the box [5e-7, 0.5])
        data, oset = self.make_data(noise=0.01)
        rng = np.random.default_rng(42)
        data = BuildUpData(times=data.times,
                           magnetizations=data.magnetizations,
                           sigmas=rng.uniform(0.005, 0.02, len(data)))
        spec = benchmark_spec(oset, free=("d", "r", "r1", "t1rho"),
                              guess_factor=1.1)
        for m0, free_m0, inside in [(1.1, (), None), (1.1, ("m0",), True),
                                    (5e-4, ("m0",), False)]:
            self.check_jacobian(data, dataclasses.replace(
                spec, values={**spec.values, "m0": m0},
                free=spec.free + free_m0), inside)

    @staticmethod
    def check_jacobian(data, spec, inside):
        fm = fitting._BuildUpModel(data, spec)
        names = fitting.PARAMETER_NAMES   # m0, the last, when fixed
        if inside is not None:
            names = names[:-1]
        start = dict(spec.values)

        def at(x):
            values = dict(start)
            values.update({n: float(xi) for n, xi in zip(names, x)})
            return fm.at(values)

        x0 = np.array([start[n] for n in names])
        p = at(x0)
        if inside is not None:
            lo, hi = spec.bounds("m0")
            assert (lo < p.values["m0"] < hi) == inside
        analytic = fm.project(p, fm.jacobian(p, names))
        central = np.empty_like(analytic)
        for j in range(len(x0)):
            h = 1e-5 * abs(x0[j])
            xp, xm = x0.copy(), x0.copy()
            xp[j] += h
            xm[j] -= h
            central[:, j] = (at(xp).res - at(xm).res) / (2 * h)
        rel = (np.linalg.norm(analytic - central, axis=0)
               / np.linalg.norm(central, axis=0))
        assert np.all(rel < 1e-6), dict(zip(names, rel))

    def test_free_m0_alone_is_the_weighted_amplitude(self):
        data, oset = self.make_data(noise=0.01)
        sigmas = np.random.default_rng(43).uniform(0.005, 0.02, len(data))
        data = BuildUpData(times=data.times,
                           magnetizations=data.magnetizations, sigmas=sigmas)
        spec = benchmark_spec(oset, free=("m0",), guess_factor=1.5)
        result = fit_buildup(data, spec)
        g = model_curve(dataclasses.replace(
            spec, values={**spec.values, "m0": 1.0}), data.times)
        w = 1.0 / sigmas**2
        expected = (w * g) @ data.magnetizations / ((w * g) @ g)
        assert result.converged
        assert result.values["m0"] == pytest.approx(expected, rel=1e-14)

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

    @pytest.mark.parametrize("free", [("r", "r1", "t1rho"),
                                      ("d", "r", "r1", "t1rho")])
    def test_point_reuses_eta_of_a_near_point_with_the_same_d(
            self, monkeypatch, free):
        calls = []
        original = fitting.averaged_efficiency

        def counting(coupling, *args, **kwargs):
            calls.append(coupling.d)
            return original(coupling, *args, **kwargs)

        data, oset = self.make_data(noise=0.01, n=61)
        fm = fitting._BuildUpModel(data, benchmark_spec(oset, free=free))
        v = dict(fm.spec.values)
        near = fm.at(v)
        monkeypatch.setattr(fitting, "averaged_efficiency", counting)
        same_d = fm.at({**v, "r": 1.1 * v["r"]}, near)
        assert calls == []
        assert same_d.eta is near.eta and same_d.slope is near.slope
        assert (near.slope is None) == ("d" not in free)
        other_d = fm.at({**v, "d": 1.1 * v["d"]}, near)
        assert len(calls) == 1
        assert not np.array_equal(other_d.eta, near.eta)
        assert np.array_equal(other_d.eta, fm.at(other_d.values).eta)

    def test_phase_bracket_built_once_per_fit(self, monkeypatch):
        # one block's bracket B is one `bracket_sum` call
        calls = []
        original = powder.bracket_sum

        def counting(*args):
            calls.append(1)
            return original(*args)

        data, oset = self.make_data(noise=0.01, n=61)
        monkeypatch.setattr(powder, "bracket_sum", counting)
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
        # over a budget of 0 bytes the fit averages straight from the set,
        # block by block, as a one-shot average does
        data, oset = self.make_data(noise=0.01, n=61)
        for spin in (SpinningParams(omega_r=5.0 * KHZ),
                     SpinningParams(omega_r=0.0)):
            spec = dataclasses.replace(benchmark_spec(
                oset, free=("d", "r", "r1", "t1rho"), guess_factor=1.05),
                spin=spin)
            assert fitting._BuildUpModel(data, spec).source is not oset
            cached = fit_buildup(data, spec)
            with monkeypatch.context() as patch:
                patch.setattr(powder, "PHASE_TABLE_BUDGET", 0)
                assert fitting._BuildUpModel(data, spec).source is oset
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
        clean = model_curve(FitSpec(values=truth, free=(), orientations=oset,
                                    spin=spin, rf=rf), times)
        noise = 0.01 * truth["m0"] * np.random.default_rng(95).standard_normal(
            len(times))
        spec = FitSpec(values=guess, free=fitting.PARAMETER_NAMES,
                       orientations=oset, spin=spin, rf=rf)
        result = fit_buildup(BuildUpData(times=times,
                                         magnetizations=clean + noise), spec)
        assert result.converged
        assert result.values["d"] == pytest.approx(truth["d"], rel=0.1)

    # `fit-distance` operations of the benchmark (bench/workloads.py): the
    # build-up CSV, the guesses as the operation's CLI flags, the truth
    @pytest.mark.parametrize("csv, mas_khz, flags, truth", [
        # once a wrong minimum, rss 0.033273 above the truth's 0.033245,
        # reported as converged
        ("fit_distance_seed2120_op1351.csv", 9.678488703604554,
         (7.273610912425994, 401.2659673648238, 169.7413172539553,
          2.0805964014464853, 2.0431381314252843),
         (50052.91415600423, 2500.886320421008, 6283.64874553451,
          0.0019983911529603835, 1.4739964651240884)),
        # once stopped at the iteration cap
        ("fit_distance_seed7001_op88.csv", 9.95546878441623,
         (28.563725933111222, 390.72211721029856, 207.93460814917492,
          2.304372957060947, 1.843204159174397),
         (179039.47824413172, 2765.770227128166, 5821.015797777765,
          0.0020508471311154893, 1.468749597394478))],
        ids=["seed2120-op1351", "seed7001-op88"])
    def test_benchmark_fit_reaches_the_minimum_at_the_truth(
            self, csv, mas_khz, flags, truth):
        data = load_buildup(Path(__file__).parent / "data" / csv)
        d_khz, r_inv_us, r1_inv_us, t1rho_ms, m0 = flags
        guess = {"d": d_khz * KHZ, "r": 1.0 / (r_inv_us * 1e-6),
                 "r1": 1.0 / (r1_inv_us * 1e-6), "t1rho": t1rho_ms * 1e-3,
                 "m0": m0}
        spec = FitSpec(values=guess, free=fitting.PARAMETER_NAMES,
                       orientations=zcw_orientation_set(8),
                       spin=SpinningParams(omega_r=mas_khz * KHZ),
                       rf=RfScheme(omega1_i=80.0 * KHZ, omega1_s=80.0 * KHZ))
        res = model_curve(dataclasses.replace(
            spec, values=dict(zip(fitting.PARAMETER_NAMES, truth))),
            data.times) - data.magnetizations
        result = fit_buildup(data, spec)
        assert result.converged
        assert result.rss <= float(res @ res)

    @pytest.mark.parametrize("free", [("d", "r", "r1", "t1rho"),
                                      ("r", "r1", "t1rho"), ("d",)])
    def test_one_levenberg_marquardt_run_per_stage(self, monkeypatch, free):
        # one stage: a single run over the free set but m0, which follows
        # by projection, from the guess; the result is the run's
        runs = []
        run = fitting._levenberg_marquardt

        def recording_run(fm, names, start, jac):
            out = run(fm, names, start, jac)
            runs.append((fm, names, start, out))
            return out

        monkeypatch.setattr(fitting, "_levenberg_marquardt", recording_run)
        data, oset = self.make_data(noise=0.01, n=61)
        spec = benchmark_spec(oset, free=free, guess_factor=1.05)
        result = fit_buildup(data, spec)
        assert len(runs) == 1
        fm, names, start, (end, iterations, _) = runs[0]
        assert names == free
        guess = spec.values
        assert start.values == fm.at(guess).values == guess
        assert result.converged
        assert (result.values, result.rss, result.iterations) == (
            end.values, end.rss, iterations)

    @pytest.mark.parametrize("free", [("d", "r", "r1", "t1rho"),
                                      ("r", "r1", "t1rho"), ("d",),
                                      fitting.PARAMETER_NAMES, ("m0",)])
    def test_jacobian_is_built_once_at_the_guess(self, monkeypatch, free):
        # one Levenberg-Marquardt run over the free set but m0, which
        # follows by projection, started from the rank check's Jacobian at
        # the guess (with a free m0 projected); the run does not rebuild it
        runs, checked, built = [], [], []
        run, check = fitting._levenberg_marquardt, fitting._check_jacobian
        jacobian = fitting._BuildUpModel.jacobian

        def recording_run(fm, names, start, jac):
            out = run(fm, names, start, jac)
            runs.append((fm, names, start, jac, out))
            return out

        def recording_check(jac, names):
            checked.append((jac, names))
            check(jac, names)

        def recording_jacobian(fm, p, names):
            built.append(dict(p.values))
            return jacobian(fm, p, names)

        monkeypatch.setattr(fitting, "_levenberg_marquardt", recording_run)
        monkeypatch.setattr(fitting, "_check_jacobian", recording_check)
        monkeypatch.setattr(fitting._BuildUpModel, "jacobian",
                            recording_jacobian)
        data, oset = self.make_data(noise=0.01, n=61)
        spec = benchmark_spec(oset, free=free, guess_factor=1.05)
        result = fit_buildup(data, spec)
        assert len(runs) == 1 and len(checked) == 1
        fm, names, start, jac, (end, iterations, _) = runs[0]
        assert names == tuple(n for n in free if n != "m0")
        guess = spec.values
        assert start.values == fm.at(guess).values
        assert (start.values["m0"] != guess["m0"]) == ("m0" in free)
        full, checked_names = checked[0]
        assert checked_names == free
        assert np.array_equal(jac, fm.project(start, full[:, :len(names)]))
        # built once more there only for the standard errors of a run
        # that ends where it started (m0 alone is solved before it)
        assert built.count(start.values) == 1 + (end.values == start.values)
        assert result.converged
        assert (result.values, result.rss, result.iterations) == (
            end.values, end.rss, iterations)

    def test_model_is_the_model_curve_at_the_optimum(self):
        data, oset = self.make_data(noise=0.01, n=61)
        for spec in (benchmark_spec(oset),
                     benchmark_spec(oset, free=("d", "r", "m0"),
                                    guess_factor=1.05),
                     benchmark_spec(oset, free=())):
            result = fit_buildup(data, spec)
            expected = model_curve(
                dataclasses.replace(spec, values=result.values), data.times)
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

    @pytest.mark.parametrize("free", [("m0",), ("r", "m0"),
                                      fitting.PARAMETER_NAMES])
    def test_fit_started_at_its_optimum_keeps_the_guess_rss(self, free):
        # noiseless data at the guess: projecting m0 there rounds the
        # start's rss above the guess's own, which a fit with nothing free
        # reports, and the fit returns the guess
        oset, times = zcw_orientation_set(4), np.arange(61) * 25e-6
        for m0 in (0.9, 1.2, 1.5):
            spec = benchmark_spec(oset, free=free, guess_factor=1.0)
            spec = dataclasses.replace(spec, values={**spec.values, "m0": m0},
                                       free=(*spec.free, "m0"))
            data = BuildUpData(times=times,
                               magnetizations=model_curve(spec, times))
            fixed = dataclasses.replace(spec, free=())
            result = fit_buildup(data, spec)
            assert result.rss <= fit_buildup(data, fixed).rss
            assert result.converged

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

    def test_degenerate_jacobian_suggests_fixing(self, monkeypatch):
        # with d = 0 the two rates play identical roles when started from
        # the same guess: the Jacobian columns coincide
        runs = []
        monkeypatch.setattr(fitting, "_levenberg_marquardt",
                            lambda *args: runs.append(args))
        oset = zcw_orientation_set(1)
        times = np.arange(31) * 50e-6
        # the guess is the truth
        spec = FitSpec(values={"d": 0.0, "r": 3000.0, "r1": 3000.0,
                               "t1rho": 2e-3, "m0": 1.0},
                       free=("r", "r1"), orientations=oset,
                       spin=SpinningParams(omega_r=5.0 * KHZ),
                       rf=RfScheme(omega1_i=80.0 * KHZ, omega1_s=80.0 * KHZ))
        data = BuildUpData(times=times,
                           magnetizations=model_curve(spec, times))
        with pytest.raises(FitError, match="consider fixing"):
            fit_buildup(data, spec)
        # d free as well, at a guess so small that eta barely tells the
        # rates apart: the check over the whole free set at the guess
        # names the near-degenerate pair (r, r1)
        d_free = dataclasses.replace(spec, values={**spec.values, "d": 1.0},
                                     free=("d", "r", "r1"))
        with pytest.raises(FitError, match="consider fixing parameter 'r"):
            fit_buildup(data, d_free)
        assert runs == []

    def test_model_that_ignores_every_parameter_is_refused(self):
        # T1rho = 1 ns damps the model to 0 at every sampled time after 0,
        # where the build-up is 0 itself: no free parameter moves it
        data = load_buildup(REPO_ROOT / "data" / "synthetic_buildup.csv")
        spec = readme_fit_spec(coupling_from_distance(1.09, "1H", "13C"),
                               1.5, free=("r", "m0"))
        spec = dataclasses.replace(spec, values={**spec.values,
                                                 "t1rho": 1e-9})
        with pytest.raises(FitError, match=r"^degenerate Jacobian: parameter "
                           r"'r' has no effect on the model; consider "
                           r"fixing it$"):
            fit_buildup(data, spec)

    def test_stderr_reported_per_free_parameter(self):
        data, oset = self.make_data(noise=0.01, n=61)
        result = fit_buildup(data, benchmark_spec(oset))
        assert set(result.stderr) == {"r", "r1", "t1rho"}
        assert all(se > 0 for se in result.stderr.values())


# the README's fit flags as library values: 1/R = 436 us, 1/R1 = 207 us,
# T1rho = 2.8 ms, 5 kHz spinning and the nominal matched 80 kHz locks, all
# computed as `cpmas fit` computes them from its flags
README_FIT_FLAGS = ["--mas-khz", "5", "--r-inv-us", "436", "--r1-inv-us",
                    "207", "--t1rho-ms", "2.8"]
REPO_ROOT = Path(__file__).resolve().parents[1]


def readme_fit_spec(d, m0, free=("r", "r1", "t1rho", "m0")):
    return FitSpec(values={"d": d, "r": 1.0 / (436 * 1e-6),
                           "r1": 1.0 / (207 * 1e-6), "t1rho": 2.8 * 1e-3,
                           "m0": m0},
                   free=free,
                   orientations=zcw_orientation_set(powder.DEFAULT_FIT_LEVEL),
                   spin=SpinningParams(omega_r=5.0 * KHZ),
                   rf=RfScheme(omega1_i=80.0 * KHZ, omega1_s=80.0 * KHZ))


class TestUnusableFit:
    @pytest.mark.parametrize("angstrom, m0, free, flags, unusable", [
        # an absurd distance: d runs off to ~1e65 rad/s, every stderr nan
        (1e-20, 1.5, fitting.PARAMETER_NAMES,
         ["--free", "d,r,r1,t1rho,m0", "--m0", "1.5"],
         "free parameter 'd' has standard error nan; the fit leaves it "
         "undetermined"),
        # an m0 guess 2000x too small: r and m0 end at their upper bounds
        (1.09, 5e-4, ("r", "r1", "t1rho", "m0"), ["--m0", "5e-4"],
         "free parameter 'r' ended at its upper bound (guess/1000 to "
         "guess*1000), where its standard error does not hold"),
    ], ids=["absurd-distance", "tiny-m0-guess"])
    def test_reason_is_the_line_the_cli_prints(self, tmp_path, capsys,
                                               angstrom, m0, free, flags,
                                               unusable):
        data = load_buildup(REPO_ROOT / "data" / "synthetic_buildup.csv")
        spec = readme_fit_spec(coupling_from_distance(angstrom), m0, free)
        result = fit_buildup(data, spec)
        # the verdict does not depend on how the search stopped
        assert result.converged
        assert result.unusable == unusable
        code = main(["fit", "--data", str(REPO_ROOT / "data"
                                          / "synthetic_buildup.csv"),
                     "--distance-angstrom", str(angstrom),
                     *README_FIT_FLAGS, *flags,
                     "--out", str(tmp_path / "o.csv")])
        assert code == EXIT_FIT
        assert capsys.readouterr().err == f"fit error: {unusable}\n"

    @pytest.mark.parametrize("path, d, m0", [
        # the README's fit
        ("data/synthetic_buildup.csv", coupling_from_distance(1.09), 1.5),
        # noiseless data fitted from its truth
        ("tests/data/fit_at_truth.csv", 22.0 * KHZ, 1.2),
    ], ids=["readme", "at-truth"])
    def test_usable_fit_has_no_reason(self, path, d, m0):
        result = fit_buildup(load_buildup(REPO_ROOT / path),
                             readme_fit_spec(d, m0))
        assert result.converged
        assert result.unusable is None

    def test_fit_without_free_parameters_has_no_reason(self):
        data = load_buildup(REPO_ROOT / "tests" / "data" / "fit_at_truth.csv")
        result = fit_buildup(data, readme_fit_spec(22.0 * KHZ, 1.2, free=()))
        assert result.stop_reason == "no_free_parameters"
        assert result.unusable is None

    @pytest.mark.parametrize("stop_reason", [
        "rss_tol", "step_tol", "max_iterations", "no_free_parameters"])
    def test_converged_follows_the_stop_reason(self, stop_reason):
        result = FitResult(values={}, rss=0.0, stop_reason=stop_reason)
        assert result.converged == (stop_reason != "max_iterations")
        with pytest.raises(AttributeError):
            result.converged = True
        with pytest.raises(TypeError):
            FitResult(values={}, rss=0.0, converged=True)


class TestFitSpecValidation:
    def test_requires_all_parameter_names(self):
        oset = zcw_orientation_set(1)
        with pytest.raises(ValueError, match="exactly the keys"):
            FitSpec(values={"d": 1.0}, free=(), orientations=oset,
                    spin=SpinningParams(omega_r=0.0),
                    rf=RfScheme(omega1_i=1.0, omega1_s=1.0))

    def test_off_match_is_refused(self):
        spec = benchmark_spec(zcw_orientation_set(1))
        with pytest.raises(ValueError, match=OFF_MATCH_MESSAGE):
            dataclasses.replace(spec, rf=OFF_MATCH_RF)

    def test_within_match_tolerance_is_accepted(self):
        spec = benchmark_spec(zcw_orientation_set(1))
        rf = RfScheme(omega1_i=80.0 * KHZ, omega1_s=79.999999848 * KHZ)
        assert dataclasses.replace(spec, rf=rf).rf == rf

    @pytest.mark.parametrize("name, value, free, message", [
        ("m0", 1e308, ("m0",), "free parameter 'm0' guess 1e+308: free "
         "parameters need finite bounds (the fit searches guess/1000 to "
         "guess*1000)"),
        ("r", 0.0, ("r",), "free parameter 'r' needs a finite nonzero "
         "initial guess"),
        ("t1rho", math.inf, ("t1rho",), "free parameter 't1rho' needs a "
         "finite nonzero initial guess"),
        ("r1", -5.0, ("r1",), "r1 lower bound must be >= 0"),
        ("m0", 5e-324, ("m0",), "m0 lower bound must be > 0"),
        ("d", math.nan, (), "fixed d must be finite (t1rho may be inf), "
         "got nan"),
        ("d", 1.0, ("d", "q"), "unknown free parameters: 'q'"),
        # fixed values outside what the relaxation envelope allows
        ("m0", -1.5, (), "m0 must be finite and > 0, got -1.5"),
        ("r", -100.0, (), f"rates r and r1 must be finite and >= 0, got "
         f"r=-100.0, r1={TRUE_R1}"),
        ("t1rho", -1e-3, (), "t1rho must be > 0 (inf allowed), got -0.001"),
    ], ids=["box-overflows", "zero-guess", "infinite-guess", "negative-rate",
            "box-reaches-zero", "nan-fixed", "unknown-name", "negative-m0",
            "negative-fixed-rate", "negative-t1rho"])
    def test_refuses_a_model_it_cannot_search(self, name, value, free,
                                              message):
        spec = benchmark_params(zcw_orientation_set(1))
        with pytest.raises(ValueError) as info:
            dataclasses.replace(spec, values={**spec.values, name: value},
                                free=free)
        assert str(info.value) == message

    def test_tilt_is_the_factor_of_the_locks(self):
        spec = benchmark_spec(zcw_orientation_set(1))
        assert spec.tilt == 1.0
        rf = RfScheme(omega1_i=80.0 * KHZ, omega1_s=80.0 * KHZ,
                      offset_i=80.0 * KHZ, offset_s=80.0 * KHZ)
        assert dataclasses.replace(spec, rf=rf).tilt == core.tilt_scale(rf)

    def test_free_set_follows_parameter_names(self):
        spec = benchmark_spec(zcw_orientation_set(1), free=["m0", "d", "r"])
        assert spec.free == ("d", "r", "m0")
        assert spec.bounds("d") == (spec.values["d"] / fitting.SEARCH_SPAN,
                                    spec.values["d"] * fitting.SEARCH_SPAN)


# guesses at the edges of double precision, and ordinary ones of either sign
GUESSES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1e-300, 1e305, -1e305, 1e308, -1e308, math.inf,
                     -math.inf, math.nan]),
    st.floats(), st.floats(min_value=0.0))


class TestFitSpecBoxProperties:
    @pytest.mark.filterwarnings("error")
    @settings(max_examples=300, deadline=None)
    @given(guesses=st.fixed_dictionaries(
               {n: GUESSES for n in fitting.PARAMETER_NAMES}),
           free=st.sets(st.sampled_from(fitting.PARAMETER_NAMES), min_size=1))
    def test_box_is_finite_ordered_and_holds_the_guess(self, guesses, free):
        # the free parameters start at the drawn guesses, the fixed ones at
        # the benchmark's values
        truth = benchmark_params(zcw_orientation_set(1))
        try:
            spec = dataclasses.replace(truth, values={
                n: guesses[n] if n in free else v
                for n, v in truth.values.items()}, free=free)
        except ValueError:
            return
        for name in spec.free:
            lo, hi = spec.bounds(name)
            assert math.isfinite(lo) and math.isfinite(hi)
            assert lo < hi
            assert lo <= spec.values[name] <= hi
            if name in ("r", "r1"):
                assert lo >= 0.0
            if name in ("t1rho", "m0"):
                assert lo > 0.0


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

    @pytest.mark.parametrize("r", [1e-100, 5e-324, 1e200, 1e300])
    def test_out_of_range_distance_rejected(self, r):
        # r**3 rounds to 0 or overflows, or the coupling does
        with pytest.raises(ValueError, match="out of range"):
            coupling_from_distance(r)

    @pytest.mark.parametrize("r", [1e-60, 0.5, 1.09, 3.7, 1e100])
    def test_in_range_distance_is_the_point_dipole_law(self, r):
        gamma = fitting.GYROMAGNETIC_RATIOS
        assert coupling_from_distance(r) == (
            fitting.MU0_OVER_4PI * gamma["1H"] * gamma["13C"] * fitting.HBAR
            / (r * fitting.ANGSTROM)**3)


class TestBuildUpDataValidation:
    def test_rejects_negative_time(self):
        with pytest.raises(DataError):
            BuildUpData(times=np.array([-1e-6, 1e-6]),
                        magnetizations=np.zeros(2))

    def test_rejects_non_increasing(self):
        with pytest.raises(DataError):
            BuildUpData(times=np.array([0.0, 1e-6, 1e-6]),
                        magnetizations=np.zeros(3))

    def test_rejects_columns_of_unequal_length(self):
        with pytest.raises(DataError, match="^magnetizations must be 1-d "
                                            "and as long as times$"):
            BuildUpData(times=np.array([0.0, 1e-6, 2e-6]),
                        magnetizations=np.array([0.0, 0.1]))

    def test_rejects_bad_sigma(self):
        with pytest.raises(DataError):
            BuildUpData(times=np.array([0.0, 1e-6]),
                        magnetizations=np.zeros(2),
                        sigmas=np.array([0.1, 0.0]))

    def test_error_names_the_first_row_that_breaks_a_rule(self):
        times = np.array([0.0, 1.0, 2.0, 2.0, -1.0]) * 1e-6
        with pytest.raises(DataError, match=r"^row 3: duplicate time"):
            BuildUpData(times=times, magnetizations=np.zeros(5))
        with pytest.raises(DataError, match=r"^row 1: sigma must be > 0$"):
            BuildUpData(times=times, magnetizations=np.zeros(5),
                        sigmas=np.array([1.0, 0.0, 1.0, 1.0, 1.0]))
        with pytest.raises(DataError, match="^need at least 2 data points"):
            BuildUpData(times=np.zeros(1), magnetizations=np.zeros(1))

    def test_rejects_wire_times_that_are_not_the_times(self):
        times = np.array([0.0, 1e-6, 2e-6])
        with pytest.raises(DataError, match=r"^row 1: wire time 5.0 us is "
                                            r"not the time 1e-06 s$"):
            BuildUpData(times=times, magnetizations=np.zeros(3),
                        source_times_us=np.array([0.0, 5.0, 9.0]))
        data = BuildUpData(times=times, magnetizations=np.zeros(3),
                           source_times_us=np.array([0.0, 1.0, 2.0]))
        assert np.array_equal(data.times_us(), [0.0, 1.0, 2.0])

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
