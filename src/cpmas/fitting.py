"""Build-up and curve CSV files, model evaluation, nonlinear least squares.

The measured quantity is S-spin magnetization versus contact time.  The
model is the powder-averaged transfer efficiency pushed through the
spin-diffusion / T1rho envelope; its parameters are the pair coupling d,
the rates r and r1, t1rho and the amplitude m0.  Remote protons are
absorbed into r and r1, so d is a single effective pair coupling that
converts to an internuclear distance through the point-dipole inverse-cube
law.

One record, `FitSpec`, holds the model: a value for every parameter, the
free set and the geometry; it alone checks a model, fixed values and
free guesses alike.  Fitting uses one damped least-squares
(Levenberg-Marquardt) run with an analytic Jacobian, damping scaled x10
on a rejected step and /10 on an accepted one, and box bounds enforced
by projection: each free parameter stays within its guess / SEARCH_SPAN
to its guess * SEARCH_SPAN (`FitSpec.bounds`).  Each point of the search
is evaluated once, into one record that its residuals and Jacobian read.
The model depends on the coupling only through the powder-averaged
efficiency eta of `powder.averaged_efficiency`, which tilts d by the
locks ``FitSpec.rf``.  A point takes eta (and, when d is free, its slope
d(eta)/dd from the same pass) from the current point when d is
unchanged: a fixed d is averaged once per fit, a free d once per trial.
With d free the d-independent phase bracket is built once per fit
(`powder.phase_table`), and a trial d costs one tan pass over it.  The
model is linear in m0, so a free m0 leaves the search by variable
projection (Golub & Pereyra 1973): every evaluation sets it to its
weighted least-squares value, clipped to its bounds.  Accepted steps
never increase the weighted residual sum, and the result is the better
of the run's end and the initial guess itself, so it always satisfies
rss <= rss(initial guess), even where projecting m0 at an optimum rounds
the start's sum above it.  `FitResult.unusable` says when that answer
gives no usable uncertainty.

`write_curve_csv` and `_read_csv` are the only writer and reader of the
CSV row format, and `BuildUpData` alone checks the rows of a build-up.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .analytic import RelaxationParams, damped_magnetization
from .core import CouplingParams, RfScheme, SpinningParams, tilt_scale
from .powder import OrientationSet, averaged_efficiency, phase_table

PARAMETER_NAMES = ("d", "r", "r1", "t1rho", "m0")
# a free parameter is searched from its guess / SEARCH_SPAN to its
# guess * SEARCH_SPAN (`FitSpec.bounds`)
SEARCH_SPAN = 1000.0

MAX_ITERATIONS = 500
RSS_RELATIVE_TOL = 1e-10
STEP_NORM_TOL = 1e-12
DAMPING_INITIAL = 1e-3
DAMPING_FACTOR = 10.0

# Point-dipole conversion constants (SI).
HBAR = 1.0545718e-34          # J*s
MU0_OVER_4PI = 1e-7           # T*m/A
ANGSTROM = 1e-10

# Gyromagnetic ratios in rad s^-1 T^-1 (standard tabulated values; signs
# retained for the isotopes with negative moments).
GYROMAGNETIC_RATIOS = {
    "1H": 267.522187e6,
    "13C": 67.2828e6,
    "15N": -27.126e6,
    "19F": 251.8148e6,
    "29Si": -53.1903e6,
    "31P": 108.394e6,
}


class DataError(ValueError):
    """Malformed or inconsistent data; the message names the line or row."""


class GuessError(ValueError):
    """The initial guess is unusable: its residual sum is not finite."""


class FitError(RuntimeError):
    """The fit cannot proceed (e.g., a degenerate Jacobian)."""


@dataclass(frozen=True)
class BuildUpData:
    """Measured magnetization build-up: times in seconds, strictly increasing.

    ``source_times_us`` keeps the microsecond values exactly as read from a
    CSV so that re-exporting the data is byte-exact; it is absent for
    programmatically built datasets, and when present must give ``times``
    exactly as ``source_times_us * 1e-6``, as `load_buildup` builds them.
    Every row is checked here (finite, wire time equal to time, first time
    >= 0, times increasing, sigma > 0, at least 2 rows), and the
    `DataError` names the first row (array index) at fault.
    """

    times: np.ndarray
    magnetizations: np.ndarray
    sigmas: np.ndarray | None = None
    source_times_us: np.ndarray | None = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        for name in ("times", "magnetizations", "sigmas", "source_times_us"):
            if getattr(self, name) is not None:
                column = np.asarray(getattr(self, name), dtype=float)
                if column.ndim != 1 or column.shape != times.shape:
                    raise DataError(f"{name} must be 1-d and as long as times")
                object.__setattr__(self, name, column)
        sig = np.ones_like(times) if self.sigmas is None else self.sigmas
        finite = (np.isfinite(times) & np.isfinite(self.magnetizations)
                  & np.isfinite(sig))
        wire = (np.ones_like(finite) if self.source_times_us is None
                else self.source_times_us * 1e-6 == times)
        ok = finite & wire & (sig > 0.0) & np.concatenate(
            [times[:1] >= 0.0, times[1:] > times[:-1]])   # nan compares False
        if not ok.all():
            i = int(np.argmin(ok))
            t_us = float(self.times_us()[i])
            raise _RowError(i, "non-finite value" if not finite[i]
                            else f"wire time {t_us} us is not the time "
                                 f"{float(times[i])!r} s" if not wire[i]
                            else f"duplicate time {t_us} us"
                            if i and times[i] == times[i - 1]
                            else f"time {t_us} us is not increasing"
                            if i and times[i] < times[i - 1]
                            else "negative time" if times[i] < 0.0
                            else "sigma must be > 0")
        if len(times) < 2:
            raise DataError(f"need at least 2 data points, got {len(times)}")

    def __len__(self) -> int:
        return len(self.times)

    def times_us(self) -> np.ndarray:
        """Times in microseconds (wire values when file-originated)."""
        if self.source_times_us is not None:
            return self.source_times_us
        return self.times * 1e6


class _RowError(DataError):
    """Row ``row`` (array index) of a `BuildUpData` breaks a rule."""

    def __init__(self, row: int, reason: str):
        super().__init__(f"row {row}: {reason}")
        self.row, self.reason = row, reason


def load_buildup(source) -> BuildUpData:
    """Parse build-up data from a CSV path or open text/byte stream.

    Format: header ``time_us,magnetization`` with an optional third
    ``sigma`` column; lines starting with ``#`` are ignored; times are
    microseconds (converted to seconds here at the boundary).  Every
    source is read whole and parsed alike: UTF-8 with universal newlines,
    and a leading byte-order mark (as spreadsheet editors write) skipped.
    The syntax and header names are checked here, the rows by `BuildUpData`.

    Raises:
        DataError: on input that cannot be read or is not UTF-8, bad
            syntax, or rows that `BuildUpData` refuses; the message names
            the line of the first syntax fault, else of the first bad row.
    """
    is_path = isinstance(source, (str, Path))
    is_bytes = isinstance(source, (bytes, bytearray))
    name = str(source) if is_path else "<bytes>" if is_bytes else "<stream>"
    try:
        data = (Path(source).read_bytes() if is_path
                else source if is_bytes else source.read())
        if isinstance(data, (bytes, bytearray)):
            data = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{name}: not UTF-8 text ({exc})") from exc
    except (OSError, ValueError) as exc:  # also a path no OS call takes
        raise DataError(f"cannot read {name}: {exc}") from exc

    def check_header(where: str, line: str, names: list[str]) -> None:
        if ",".join(names).lower() not in ("time_us,magnetization",
                                           "time_us,magnetization,sigma"):
            raise DataError(f"{where}: expected header "
                            f"'time_us,magnetization[,sigma]', got '{line}'")

    _, (us, mags, *sigmas), lines = _read_csv(data.removeprefix("\ufeff"),
                                              name, check_header)
    try:
        return BuildUpData(times=us * 1e-6, magnetizations=mags,
                           sigmas=sigmas[0] if sigmas else None,
                           source_times_us=us)
    except _RowError as exc:
        raise DataError(f"{name}:{lines[exc.row]}: {exc.reason}") from None
    except DataError as exc:
        raise DataError(f"{name}: {exc}") from None


def _read_csv(text: str, name: str, check_header=lambda *_: None):
    """Header, float columns and row line numbers of CSV text, blank and ``#``
    lines skipped and fields split on commas and stripped; a bad row names
    its line, and ``check_header(where, line, names)`` vets the header."""
    header, rows, lines = None, [], []
    for lineno, raw in enumerate(io.StringIO(text, newline=None), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split(",")]
        where = f"{name}:{lineno}"
        if header is None:
            check_header(where, line, fields)
            header = fields
            continue
        if len(fields) != len(header):
            raise DataError(f"{where}: expected {len(header)} columns, "
                            f"got {len(fields)}")
        try:
            rows.append([float(f) for f in fields])
        except ValueError as exc:
            raise DataError(f"{where}: non-numeric value ({exc})") from exc
        lines.append(lineno)
    if header is None:
        raise DataError(f"{name}: empty file (header required)")
    table = np.array(rows, dtype=float).reshape(-1, len(header))
    return header, [column.copy() for column in table.T], lines


def save_buildup(data: BuildUpData, path) -> None:
    """Write build-up data in the same CSV schema `load_buildup` reads.

    File-originated data re-export their original microsecond values, so a
    load/save cycle is byte-exact.
    """
    columns = {"time_us": data.times_us(), "magnetization": data.magnetizations}
    if data.sigmas is not None:
        columns["sigma"] = data.sigmas
    write_curve_csv(path, columns, [])


def write_curve_csv(path, columns: dict[str, np.ndarray],
                    echo: list[str]) -> None:
    """Write comment echo lines, a header row of the column names, then one
    row of repr-formatted values per sample.

    Raises:
        ValueError: if the columns differ in length (the message names
            each column's length).
    """
    values = [np.asarray(col, dtype=float).tolist() for col in columns.values()]
    lengths = {name: len(col) for name, col in zip(columns, values)}
    if len(set(lengths.values())) > 1:
        raise ValueError(f"columns differ in length: {lengths}")
    rows = min(lengths.values(), default=0)
    step = 2 * len(values)
    # each value followed by its separator: "," within a row, "\n" at its end
    cells = [","] * (step * rows)
    if rows:
        for c, col in enumerate(values):
            cells[2 * c::step] = map(repr, col[:rows])
        cells[step - 1::step] = ["\n"] * rows
    head = "\n".join([*echo, ",".join(columns)]) + "\n"
    Path(path).write_text(head + "".join(cells), encoding="utf-8")


def read_curve_csv(path) -> dict[str, np.ndarray]:
    """Read a CSV written by `write_curve_csv` back into named columns; only
    the syntax is checked, by the tokenizer that `load_buildup` uses."""
    header, columns, _ = _read_csv(
        Path(path).read_text(encoding="utf-8"), str(path))
    return dict(zip(header, columns))


@dataclass(frozen=True)
class FitSpec:
    """The build-up model: a value for each parameter, the free set, and the
    fixed experiment geometry.

    ``values`` must have exactly the keys in PARAMETER_NAMES; a free
    parameter's value is its initial guess, and the fit searches its
    `bounds`.  ``free`` names the free parameters and is kept in
    PARAMETER_NAMES order.  r, r1, t1rho and m0, fixed or free, must pass
    `analytic.RelaxationParams`.  ``rf`` must pass `core.tilt_scale`: the
    model holds only at the match.
    """

    values: dict[str, float]
    free: tuple[str, ...]
    orientations: OrientationSet
    spin: SpinningParams
    rf: RfScheme

    def __post_init__(self):
        if set(self.values) != set(PARAMETER_NAMES):
            raise ValueError(f"values must have exactly the keys "
                             f"{PARAMETER_NAMES}")
        unknown = set(self.free) - set(PARAMETER_NAMES)
        if unknown:
            raise ValueError("unknown free parameters: "
                             + ", ".join(map(repr, sorted(unknown))))
        object.__setattr__(self, "free", tuple(n for n in PARAMETER_NAMES
                                               if n in self.free))
        for name in PARAMETER_NAMES:
            value = self.values[name]
            if name not in self.free:
                if not (math.isfinite(value)
                        or (name == "t1rho" and value == math.inf)):
                    raise ValueError(f"fixed {name} must be finite (t1rho "
                                     f"may be inf), got {value}")
                continue
            if not (math.isfinite(value) and value != 0.0):
                raise ValueError(f"free parameter '{name}' needs a finite "
                                 f"nonzero initial guess")
            # a finite nonzero guess lies inside its box, which is ordered
            lo, hi = self.bounds(name)
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(
                    f"free parameter '{name}' guess {value!r}: free "
                    f"parameters need finite bounds (the fit searches "
                    f"guess/{SEARCH_SPAN:g} to guess*{SEARCH_SPAN:g})")
            if name in ("r", "r1") and lo < 0.0:
                raise ValueError(f"{name} lower bound must be >= 0")
            if name in ("t1rho", "m0") and lo <= 0.0:
                raise ValueError(f"{name} lower bound must be > 0")
        RelaxationParams(**{n: v for n, v in self.values.items() if n != "d"})
        tilt_scale(self.rf)

    def bounds(self, name: str) -> tuple[float, float]:
        """The box the fit searches for free parameter ``name``: from its
        guess / SEARCH_SPAN to its guess * SEARCH_SPAN, in order."""
        v = self.values[name]
        return tuple(sorted((v / SEARCH_SPAN, v * SEARCH_SPAN)))


def model_curve(spec: FitSpec, times) -> np.ndarray:
    """Predicted magnetization at the requested times for ``spec.values``.

    Powder-averaged transfer efficiency through the relaxation envelope.
    """
    v = spec.values
    eta = averaged_efficiency(spec.rf, CouplingParams(d=v["d"]), spec.spin,
                              times, spec.orientations)
    return damped_magnetization(times, eta, RelaxationParams(
        m0=v["m0"], r=v["r"], r1=v["r1"], t1rho=v["t1rho"]))


@dataclass(frozen=True)
class FitResult:
    """Optimum of a build-up fit.

    ``values`` holds all five parameters (fitted or fixed); ``stderr`` has
    an entry per free parameter, derived from the Jacobian at the optimum.
    A fit stopped at the iteration cap is returned with the best point
    found, and its read-only ``converged`` (``stop_reason !=
    "max_iterations"``) is False.  ``iterations`` counts the iterations of
    the fit's one Levenberg-Marquardt run.  ``stop_reason`` is one of
    ``rss_tol``, ``step_tol``, ``max_iterations`` or
    ``no_free_parameters``; ``model`` holds the model magnetization at the
    data times for ``values``.
    ``unusable`` is None or says why the fit gives no usable result (it
    stopped at the iteration cap, a free parameter's stderr is not finite,
    or one ended at a bound).
    """

    values: dict[str, float]
    rss: float
    stderr: dict[str, float] = field(default_factory=dict)
    iterations: int = 0
    stop_reason: str = "no_free_parameters"
    unusable: str | None = None
    model: np.ndarray | None = field(default=None, compare=False, repr=False)

    @property
    def converged(self) -> bool:
        """False only for a fit stopped at the iteration cap."""
        return self.stop_reason != "max_iterations"


@dataclass(frozen=True)
class _Point:
    """One evaluation of a fit's model, as `_BuildUpModel.at` returns it.

    ``values`` has a free m0 projected; ``slope`` is d(eta)/dd with d free
    (else None); ``shape`` is the model at m0 = 1, which m0 scales exactly;
    ``res`` holds the weighted residuals and ``rss`` their sum of squares.
    """

    values: dict[str, float]
    eta: np.ndarray
    slope: np.ndarray | None
    shape: np.ndarray
    model: np.ndarray
    res: np.ndarray
    rss: float


class _BuildUpModel:
    """Points and analytic Jacobian of one fit.

    eta depends only on d, so `at` takes it (and, with d free, its slope
    d(eta)/dd) from a nearby point of the same d: a fixed d is averaged
    once per fit, and a free d once per trial.  With d free the phase
    bracket, which does not depend on d, is built once as a
    `powder.phase_table` (over its budget, the set itself) and every trial
    d reads it.
    """

    def __init__(self, data: BuildUpData, spec: FitSpec):
        self.data, self.spec = data, spec
        sigmas = np.ones(len(data)) if data.sigmas is None else data.sigmas
        with np.errstate(over="ignore"):   # `fit_buildup` refuses inf
            self.weights = 1.0 / sigmas
        # weights of the amplitude's sums, scaled to at most 1 so that those
        # sums stay finite however small sigma is
        self.amplitude_weights = (sigmas.min() / sigmas) ** 2
        # a fixed m0 has no box: it is never projected
        self.m0_box = spec.bounds("m0") if "m0" in spec.free else None
        self.with_slope = "d" in spec.free
        self.source = (phase_table(spec.spin, data.times, spec.orientations)
                       if self.with_slope else spec.orientations)

    def at(self, v: dict[str, float], near: _Point | None = None) -> _Point:
        """The model at v, with eta and its slope from ``near`` when it has
        the same d.  A free m0 becomes <shape, M>_w / <shape, shape>_w,
        clipped to its bounds (the lower one where the shape vanishes).
        """
        if near is not None and near.values["d"] == v["d"]:
            eta, slope = near.eta, near.slope
        else:
            out = averaged_efficiency(
                self.spec.rf, CouplingParams(d=v["d"]), self.spec.spin,
                self.data.times, self.source, with_slope=self.with_slope)
            eta, slope = out if self.with_slope else (out, None)
        relax = RelaxationParams(m0=1.0, r=v["r"], r1=v["r1"],
                                 t1rho=v["t1rho"])
        shape = damped_magnetization(self.data.times, eta, relax)
        if self.m0_box is not None:
            lo, hi = self.m0_box
            g = shape * self.amplitude_weights
            norm = float(g @ shape)
            m0 = float(g @ self.data.magnetizations) / norm if norm else lo
            v = {**v, "m0": min(hi, max(lo, m0))}
        model = v["m0"] * shape
        res = (model - self.data.magnetizations) * self.weights
        return _Point(v, eta, slope, shape, model, res, float(res @ res))

    def jacobian(self, p: _Point, names: tuple[str, ...]) -> np.ndarray:
        """Analytic d(residuals)/d(names) at p with every other value fixed."""
        t, v = self.data.times, p.values
        with np.errstate(over="ignore"):   # t/t1rho = inf decays to exactly 0
            envelope = np.exp(-t / v["t1rho"])
        decay_r1 = np.exp(-v["r1"] * t)
        columns = {
            "d": lambda: v["m0"] * decay_r1 * envelope * p.slope,
            "r": lambda: 0.5 * v["m0"] * t * np.exp(-v["r"] * t) * envelope,
            "r1": lambda: (0.5 * v["m0"] * t * decay_r1 * (1.0 - 2.0 * p.eta)
                           * envelope),
            "t1rho": lambda: p.model * t / (v["t1rho"] * v["t1rho"]),
            "m0": lambda: p.model / v["m0"],
        }
        jac = np.empty((len(t), len(names)))
        # a t1rho below ~1e-162 s squares to 0: `_check_jacobian` refuses it
        with np.errstate(divide="ignore", invalid="ignore"):
            for j, name in enumerate(names):
                jac[:, j] = columns[name]()
        return jac * self.weights[:, None]

    def project(self, p: _Point, jac: np.ndarray) -> np.ndarray:
        """`jacobian` J over the other parameters, with a free m0 following
        them while inside its bounds: J - m ((r + m)^T J) / (m^T m), m the
        weighted model and r the weighted residuals at p.
        """
        lo, hi = self.m0_box or (math.nan, math.nan)
        if not lo < p.values["m0"] < hi:
            return jac
        fitted = p.model * self.weights
        return jac - fitted[:, None] * ((p.res + fitted) @ jac
                                        / (fitted @ fitted))


def _levenberg_marquardt(fm: _BuildUpModel, names: tuple[str, ...],
                         start: _Point, jac: np.ndarray
                         ) -> tuple[_Point, int, str]:
    """Minimize the residual sum over ``names`` from the point ``start``;
    other values stay at start's but a free m0, which `_BuildUpModel.at`
    sets.  ``jac`` is the `_BuildUpModel.project` Jacobian at start.

    Returns the end point, the iterations taken and the stop reason.
    """
    lo, hi = np.array([fm.spec.bounds(n) for n in names]).reshape(-1, 2).T

    p = start
    mu = DAMPING_INITIAL
    iterations = 0
    stop_reason = "max_iterations"
    while iterations < MAX_ITERATIONS:
        iterations += 1
        if jac is None:
            jac = fm.project(p, fm.jacobian(p, names))
        a = jac.T @ jac
        g = jac.T @ p.res
        diag = np.diag(a).copy()
        diag[diag <= 0.0] = max(diag.max(initial=0.0), 1.0) * 1e-30
        try:
            delta = np.linalg.solve(a + mu * np.diag(diag), -g)
        except np.linalg.LinAlgError as exc:
            raise FitError("singular normal equations; consider fixing a "
                           "parameter") from exc
        x = np.array([p.values[n] for n in names])
        x_trial = np.clip(x + delta, lo, hi)
        step_norm = float(np.linalg.norm(x_trial - x))
        if step_norm < STEP_NORM_TOL:
            stop_reason = "step_tol"
            break
        trial = fm.at({**p.values, **dict(zip(names, x_trial.tolist()))}, p)
        if trial.rss <= p.rss:
            rel_change = (p.rss - trial.rss) / max(p.rss, np.finfo(float).tiny)
            p = trial
            mu = max(mu / DAMPING_FACTOR, 1e-14)
            jac = None
            if rel_change < RSS_RELATIVE_TOL:
                stop_reason = "rss_tol"
                break
        else:
            mu *= DAMPING_FACTOR
    return p, iterations, stop_reason


def fit_buildup(data: BuildUpData, spec: FitSpec) -> FitResult:
    """Levenberg-Marquardt fit of the powder build-up model to measured data.

    Minimizes sum of ((model(t_i) - M_i)/sigma_i)^2 (sigma_i = 1 without an
    uncertainty column).  Stops when the relative residual change drops
    below 1e-10, the step norm drops below 1e-12, or after 500 iterations
    (then flagged non-converged).

    One run searches the free parameters but a free m0, which is projected
    out, from the guess; the rank check there and the standard errors use
    the Jacobian over the whole free set.  Where the run ends above the
    guess's own residual sum (projecting m0 at an optimum can round up),
    the result is the guess.

    Raises:
        DataError: if the data under-determine the requested free set, or
            the residual sum at the initial guess is finite and its
            weighted sum overflows.
        GuessError: if the unweighted residual sum at the initial guess
            is not finite.
        FitError: if the Jacobian at the start is rank deficient (the
            message suggests which parameter to fix), or if the normal
            equations turn singular.
    """
    free = spec.free
    n_pts = len(data)
    if n_pts <= len(free):
        raise DataError(f"under-determined fit: {n_pts} points for "
                        f"{len(free)} free parameters")
    if len(free) >= 2 and n_pts < 6:
        raise DataError(f"under-determined fit: need >= 6 points for "
                        f"{len(free)} free parameters, got {n_pts}")

    fm = _BuildUpModel(data, spec)
    v = {n: spec.values[n] for n in PARAMETER_NAMES}
    with np.errstate(over="ignore", invalid="ignore"):
        start = fm.at(v)
        model = v["m0"] * start.shape
        res = model - data.magnetizations
        rss = float(res @ res)
        if not math.isfinite(rss):
            raise GuessError(f"the residual sum at the initial guess is "
                             f"{rss!r}; start from a guess nearer the data")
        res = res * fm.weights   # all 1 without a sigma column
        guess = _Point(v, start.eta, start.slope, start.shape, model, res,
                       float(res @ res))
        if not math.isfinite(guess.rss):
            raise DataError(f"sigma too small: the weighted residual sum at "
                            f"the initial guess is {guess.rss!r}")
    if not free:
        return FitResult(values=v, rss=guess.rss, model=model)

    jac = fm.jacobian(start, free)
    _check_jacobian(jac, free)
    # free follows PARAMETER_NAMES, so a free m0 is its last name and column
    names = free[:-1] if fm.m0_box is not None else free
    end, iterations, stop_reason = _levenberg_marquardt(
        fm, names, start, fm.project(start, jac[:, :len(names)]))
    if not end.rss <= guess.rss:   # also when the end's rss is nan
        end = guess
    stderr = _standard_errors(fm.jacobian(end, free), end.rss, free)
    return FitResult(values=end.values, rss=end.rss, stderr=stderr,
                     iterations=iterations, stop_reason=stop_reason,
                     unusable=_unusable(spec, end.values, stderr, stop_reason),
                     model=end.model)


def _unusable(spec: FitSpec, values, stderr, stop_reason) -> str | None:
    if stop_reason == "max_iterations":
        return (f"the fit stopped at the iteration cap of {MAX_ITERATIONS} "
                f"before converging")
    for name in spec.free:
        (lo, hi), err = spec.bounds(name), stderr[name]
        if not math.isfinite(err):
            return (f"free parameter '{name}' has standard error {err!r}; "
                    f"the fit leaves it undetermined")
        if not lo < values[name] < hi:
            side = "lower" if values[name] <= lo else "upper"
            return (f"free parameter '{name}' ended at its {side} bound "
                    f"(guess/{SEARCH_SPAN:g} to guess*{SEARCH_SPAN:g}), "
                    f"where its standard error does not hold")
    return None


def _check_jacobian(jac: np.ndarray, free) -> None:
    # relative singular-value threshold for rank deficiency, well below the
    # conditioning of healthy problems
    rank_tol = 1e-6
    if not np.all(np.isfinite(jac)):
        raise FitError("non-finite Jacobian at the initial guess")
    col_norms = np.linalg.norm(jac, axis=0)
    scale = col_norms.max(initial=0.0)
    weak = int(np.argmin(col_norms))
    if scale == 0.0 or col_norms[weak] < 1e-12 * scale:
        raise FitError(f"degenerate Jacobian: parameter '{free[weak]}' has no "
                       f"effect on the model; consider fixing it")
    normalized = jac / col_norms
    _, s, vt = np.linalg.svd(normalized, full_matrices=False)
    if s[-1] < rank_tol * s[0]:
        culprit = int(np.argmax(np.abs(vt[-1])))
        raise FitError(f"degenerate Jacobian (rank deficient); consider "
                       f"fixing parameter '{free[culprit]}'")


def _standard_errors(jac, rss, free) -> dict[str, float]:
    dof = jac.shape[0] - len(free)   # > 0: `fit_buildup` checks it
    try:
        cov = np.linalg.inv(jac.T @ jac) * (rss / dof)
    except np.linalg.LinAlgError:
        return {name: math.nan for name in free}
    return {name: math.sqrt(var) if var >= 0.0 else math.nan
            for name, var in zip(free, np.diag(cov).tolist())}


def _gamma(isotope: str) -> float:
    try:
        return GYROMAGNETIC_RATIOS[isotope]
    except KeyError:
        supported = ", ".join(sorted(GYROMAGNETIC_RATIOS))
        raise ValueError(f"unsupported isotope {isotope!r}; supported: "
                         f"{supported}") from None


def coupling_from_distance(r_angstrom: float, isotope_i: str = "1H",
                           isotope_s: str = "13C") -> float:
    """Point-dipole coupling d = (mu0/4pi)*gamma_i*gamma_s*hbar/r^3 in rad/s.

    The sign follows the product of the gyromagnetic ratios; downstream
    transfer curves are even in d.  Raises ValueError for an unsupported
    isotope or a distance whose coupling is not finite and nonzero.
    """
    if not (math.isfinite(r_angstrom) and r_angstrom > 0.0):
        raise ValueError(f"distance must be finite and > 0, got {r_angstrom}")
    r = r_angstrom * ANGSTROM
    try:
        d = MU0_OVER_4PI * _gamma(isotope_i) * _gamma(isotope_s) * HBAR / r**3
    except ArithmeticError:   # r**3 overflows, or rounds to 0
        d = 0.0
    if not 0.0 < abs(d) < math.inf:
        raise ValueError(f"distance {r_angstrom} Angstrom is out of range: "
                         f"its coupling is not finite and nonzero")
    return d


def distance_from_coupling(d: float, isotope_i: str = "1H",
                           isotope_s: str = "13C") -> float:
    """Internuclear distance in Angstrom from the point-dipole law.

    Raises:
        ValueError: for an unsupported isotope or d = 0.
    """
    if d == 0.0:
        raise ValueError("coupling must be nonzero")
    pref = abs(MU0_OVER_4PI * _gamma(isotope_i) * _gamma(isotope_s) * HBAR)
    return float(np.cbrt(pref / abs(d))) / ANGSTROM
