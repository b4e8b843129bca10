"""Build-up and curve CSV files, model evaluation, nonlinear least squares.

The measured quantity is S-spin magnetization versus contact time.  The
model is the powder-averaged transfer efficiency pushed through the
spin-diffusion / T1rho envelope; its parameters are the pair coupling d,
the rates r and r1, t1rho and the amplitude m0.  Remote protons are
absorbed into r and r1, so d is a single effective pair coupling that
converts to an internuclear distance through the point-dipole inverse-cube
law.

Fitting uses one damped least-squares (Levenberg-Marquardt) run with an
analytic Jacobian, damping scaled x10 on a rejected step and /10 on an
accepted one, and box bounds enforced by projection.  The model depends on
the coupling only through the powder-averaged efficiency eta, so eta (and,
when d is free, its slope d(eta)/dd from the same kernel pass) is computed
once per distinct d and reused by every residual and Jacobian evaluation.
The phase is d times a bracket that does not depend on d, so with d free
the bracket is built once per fit (`powder.phase_table`) and a trial d
costs a multiply and one tan pass over it, from which eta and the slope
both follow by a few multiply-adds and divides.  The model is linear in
m0, so a free m0 leaves the search by variable projection (Golub &
Pereyra 1973): every evaluation sets it to its weighted least-squares
value, clipped to its bounds.  Accepted steps never increase the weighted
residual sum, and the returned result always satisfies
rss <= rss(initial guess).

`write_curve_csv` is the only writer of the CSV row format: every CLI
command's output and `save_buildup` go through it.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .analytic import RelaxationParams, damped_magnetization
from .core import CouplingParams, RfScheme, SpinningParams, tilt_scale
from .powder import OrientationSet, averaged_efficiency, phase_table

PARAMETER_NAMES = ("d", "r", "r1", "t1rho", "m0")

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
    """Malformed or inconsistent build-up data (message carries the line number)."""


class GuessError(ValueError):
    """The initial guess is unusable: its residual sum is not finite."""


class FitError(RuntimeError):
    """The fit cannot proceed (e.g., a degenerate Jacobian)."""


@dataclass(frozen=True)
class BuildUpData:
    """Measured magnetization build-up: times in seconds, strictly increasing.

    ``source_times_us`` keeps the microsecond values exactly as read from a
    CSV so that re-exporting the data is byte-exact; it is absent for
    programmatically built datasets.
    """

    times: np.ndarray
    magnetizations: np.ndarray
    sigmas: np.ndarray | None = None
    source_times_us: np.ndarray | None = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        mags = np.asarray(self.magnetizations, dtype=float)
        if times.ndim != 1 or times.shape != mags.shape:
            raise DataError("times and magnetizations must be 1-d and equal length")
        if len(times) < 2:
            raise DataError(f"need at least 2 points, got {len(times)}")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(mags))):
            raise DataError("times and magnetizations must be finite")
        if times[0] < 0.0:
            raise DataError("times must be >= 0")
        if np.any(np.diff(times) <= 0.0):
            raise DataError("times must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "magnetizations", mags)
        if self.sigmas is not None:
            sig = np.asarray(self.sigmas, dtype=float)
            if sig.shape != times.shape:
                raise DataError("sigma column must match the data length")
            if not np.all(np.isfinite(sig) & (sig > 0.0)):
                raise DataError("sigma values must be finite and > 0")
            object.__setattr__(self, "sigmas", sig)
        if self.source_times_us is not None:
            us = np.asarray(self.source_times_us, dtype=float)
            if us.shape != times.shape:
                raise DataError("source_times_us must match the data length")
            object.__setattr__(self, "source_times_us", us)

    def __len__(self) -> int:
        return len(self.times)

    def times_us(self) -> np.ndarray:
        """Times in microseconds (wire values when file-originated)."""
        if self.source_times_us is not None:
            return self.source_times_us
        return self.times * 1e6


def load_buildup(source) -> BuildUpData:
    """Parse build-up data from a CSV path or open text/byte stream.

    Format: header ``time_us,magnetization`` with an optional third
    ``sigma`` column; lines starting with ``#`` are ignored; times are
    microseconds (converted to seconds here at the boundary).  Every
    source is read whole and parsed alike: UTF-8 with universal newlines,
    and a leading byte-order mark (as spreadsheet editors write) skipped.

    Raises:
        DataError: on input that cannot be read or is not UTF-8, a
            malformed header or row, a duplicate or decreasing time, or
            fewer than 2 data points; messages name the line.
    """
    is_path = isinstance(source, (str, Path))
    is_bytes = isinstance(source, (bytes, bytearray))
    name = str(source) if is_path else "<bytes>" if is_bytes else "<stream>"
    try:
        data = (Path(source).read_bytes() if is_path
                else source if is_bytes else source.read())
        if isinstance(data, (bytes, bytearray)):
            data = data.decode("utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {name}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{name}: not UTF-8 text ({exc})") from exc
    return _parse_buildup_lines(
        io.StringIO(data.removeprefix("\ufeff"), newline=None), name)


def _parse_buildup_lines(lines, name: str) -> BuildUpData:
    header = None
    times, times_us, mags, sigs = [], [], [], []
    row_lines = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split(",")]
        if header is None:
            header = [f.lower() for f in fields]
            if header not in (["time_us", "magnetization"],
                              ["time_us", "magnetization", "sigma"]):
                raise DataError(
                    f"{name}:{lineno}: expected header "
                    f"'time_us,magnetization[,sigma]', got '{line}'")
            continue
        if len(fields) != len(header):
            raise DataError(f"{name}:{lineno}: expected {len(header)} columns, "
                            f"got {len(fields)}")
        try:
            values = [float(f) for f in fields]
        except ValueError as exc:
            raise DataError(f"{name}:{lineno}: non-numeric value ({exc})") from exc
        if not all(math.isfinite(v) for v in values):
            raise DataError(f"{name}:{lineno}: non-finite value")
        t_s = values[0] * 1e-6
        if times:
            if t_s == times[-1]:
                raise DataError(f"{name}:{lineno}: duplicate time {values[0]} us")
            if t_s < times[-1]:
                raise DataError(f"{name}:{lineno}: time {values[0]} us is not "
                                "increasing")
        times.append(t_s)
        times_us.append(values[0])
        mags.append(values[1])
        if len(header) == 3:
            if values[2] <= 0.0:
                raise DataError(f"{name}:{lineno}: sigma must be > 0")
            sigs.append(values[2])
        row_lines.append(lineno)
    if header is None:
        raise DataError(f"{name}: empty file (header required)")
    if len(times) < 2:
        raise DataError(f"{name}: need at least 2 data points, got {len(times)}")
    if times[0] < 0.0:
        raise DataError(f"{name}:{row_lines[0]}: negative time")
    return BuildUpData(times=np.array(times), magnetizations=np.array(mags),
                       sigmas=np.array(sigs) if sigs else None,
                       source_times_us=np.array(times_us))


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
    row of repr-formatted values per sample."""
    values = [np.asarray(col, dtype=float).tolist() for col in columns.values()]
    rows = min(map(len, values), default=0)
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
    """Read a CSV written by `write_curve_csv` back into named columns."""
    names = None
    columns = None
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(",")
        if names is None:
            names = fields
            columns = [[] for _ in names]
            continue
        for col, value in zip(columns, fields):
            col.append(float(value))
    if names is None:
        raise ValueError(f"{path}: no data")
    return {name: np.array(col) for name, col in zip(names, columns)}


@dataclass(frozen=True)
class ModelParams:
    """Full parameter set of the powder build-up model."""

    coupling: CouplingParams
    spin: SpinningParams
    rf: RfScheme
    relax: RelaxationParams
    orientations: OrientationSet


def model_curve(params: ModelParams, times) -> np.ndarray:
    """Predicted magnetization at the requested times.

    Powder-averaged transfer efficiency (coupling scaled by
    `core.tilt_scale`, which refuses locks off the Hartmann-Hahn match)
    pushed through the relaxation envelope.
    """
    d_eff = CouplingParams(d=tilt_scale(params.rf) * params.coupling.d)
    eta = averaged_efficiency(d_eff, params.spin, times, params.orientations)
    return damped_magnetization(times, eta, params.relax)


@dataclass(frozen=True)
class FitParameter:
    """One model parameter: its value (initial guess if free) and box bounds."""

    value: float
    free: bool = False
    lower: float = math.nan
    upper: float = math.nan

    def __post_init__(self):
        if not math.isfinite(self.value):
            if not (self.value == math.inf and not self.free):
                raise ValueError("parameter value must be finite "
                                 "(inf allowed only for a fixed t1rho)")
        if self.free:
            if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
                raise ValueError("free parameters need finite bounds")
            if not self.lower < self.upper:
                raise ValueError(f"bounds must be ordered, got "
                                 f"[{self.lower}, {self.upper}]")
            if not self.lower <= self.value <= self.upper:
                raise ValueError(f"initial guess {self.value} outside bounds "
                                 f"[{self.lower}, {self.upper}]")


@dataclass(frozen=True)
class FitSpec:
    """What to fit: per-parameter settings plus the fixed experiment geometry.

    ``parameters`` must contain exactly the keys in PARAMETER_NAMES, and
    ``rf`` must pass `core.tilt_scale`: the model holds only at the match.
    """

    parameters: dict[str, FitParameter]
    orientations: OrientationSet
    spin: SpinningParams
    rf: RfScheme

    def __post_init__(self):
        if set(self.parameters) != set(PARAMETER_NAMES):
            raise ValueError(f"parameters must have exactly the keys "
                             f"{PARAMETER_NAMES}")
        for name in ("r", "r1"):
            p = self.parameters[name]
            if p.free and p.lower < 0.0:
                raise ValueError(f"{name} lower bound must be >= 0")
        for name in ("t1rho", "m0"):
            p = self.parameters[name]
            if p.free and p.lower <= 0.0:
                raise ValueError(f"{name} lower bound must be > 0")
        tilt_scale(self.rf)

    @property
    def free_names(self) -> tuple[str, ...]:
        return tuple(n for n in PARAMETER_NAMES if self.parameters[n].free)


@dataclass(frozen=True)
class FitResult:
    """Optimum of a build-up fit.

    ``values`` holds all five parameters (fitted or fixed); ``stderr`` has
    an entry per free parameter, derived from the Jacobian at the optimum.
    A non-converged fit (iteration cap hit) is returned flagged, with the
    best point found.  ``iterations`` counts the iterations of the fit's
    one Levenberg-Marquardt run.  ``stop_reason`` is one of ``rss_tol``,
    ``step_tol``, ``max_iterations`` or ``no_free_parameters``; ``model``
    holds the model magnetization at the data times for ``values``.
    """

    values: dict[str, float]
    rss: float
    stderr: dict[str, float] = field(default_factory=dict)
    converged: bool = True
    iterations: int = 0
    stop_reason: str = "no_free_parameters"
    model: np.ndarray | None = field(default=None, compare=False, repr=False)


def model_from_values(values: dict[str, float], spec: FitSpec) -> ModelParams:
    """Model parameters for a full set of parameter values and a fit spec."""
    params = ModelParams(
        coupling=CouplingParams(d=values["d"]),
        spin=spec.spin,
        rf=spec.rf,
        relax=RelaxationParams(m0=values["m0"], r=values["r"], r1=values["r1"],
                               t1rho=values["t1rho"]),
        orientations=spec.orientations,
    )
    return params


class _BuildUpModel:
    """Residuals and analytic Jacobian of one fit.

    eta depends only on d, so it is computed once per distinct d and kept
    for the life of the fit (one entry per trial d, at most one per
    iteration); with d free each evaluation also keeps d(eta)/dd for the
    Jacobian.  With d free the phase bracket, which does not depend on d,
    is built once as a `powder.phase_table` (over its budget, the set
    itself) and every trial d reads it; a fixed d is averaged once.
    """

    def __init__(self, data: BuildUpData, spec: FitSpec):
        self.data, self.spec = data, spec
        sigmas = np.ones(len(data)) if data.sigmas is None else data.sigmas
        with np.errstate(over="ignore"):   # `fit_buildup` refuses inf
            self.weights = 1.0 / sigmas
        # weights of the amplitude's sums, scaled to at most 1 so that those
        # sums stay finite however small sigma is
        self.amplitude_weights = (sigmas.min() / sigmas) ** 2
        self.m0 = spec.parameters["m0"]   # a fixed m0 has nan bounds
        self.tilt = tilt_scale(spec.rf)   # d enters only as tilt*d
        self.with_slope = "d" in spec.free_names
        self.source = (phase_table(spec.spin, data.times, spec.orientations)
                       if self.with_slope else spec.orientations)
        self._eta: dict[float, tuple[np.ndarray, np.ndarray | None]] = {}

    def efficiency(self, d: float) -> tuple[np.ndarray, np.ndarray | None]:
        if d not in self._eta:
            d_eff = CouplingParams(d=self.tilt * d)
            out = averaged_efficiency(d_eff, self.spec.spin, self.data.times,
                                      self.source, with_slope=self.with_slope)
            self._eta[d] = out if self.with_slope else (out, None)
        return self._eta[d]

    def shape(self, v: dict[str, float]) -> np.ndarray:
        """Model magnetization at v with m0 = 1, which m0 scales exactly."""
        eta, _ = self.efficiency(v["d"])
        relax = RelaxationParams(m0=1.0, r=v["r"], r1=v["r1"],
                                 t1rho=v["t1rho"])
        return damped_magnetization(self.data.times, eta, relax)

    def evaluate(self, v: dict[str, float], shape: np.ndarray
                 ) -> tuple[dict[str, float], np.ndarray, np.ndarray]:
        """Values, model magnetization and weighted residuals at v and its
        ``shape``; a free m0 becomes <shape, M>_w / <shape, shape>_w,
        clipped to its bounds (the lower one where the shape vanishes).
        """
        if self.m0.free:
            lo, hi = self.m0.lower, self.m0.upper
            g = shape * self.amplitude_weights
            norm = float(g @ shape)
            m0 = float(g @ self.data.magnetizations) / norm if norm else lo
            v = {**v, "m0": min(hi, max(lo, m0))}
        model = v["m0"] * shape
        return v, model, (model - self.data.magnetizations) * self.weights

    def jacobian(self, v: dict[str, float], model: np.ndarray,
                 names: tuple[str, ...]) -> np.ndarray:
        """Analytic d(residuals)/d(names) at v with every other value fixed.

        ``model`` is the model magnetization at v.
        """
        t = self.data.times
        eta, slope = self.efficiency(v["d"])
        envelope = np.exp(-t / v["t1rho"])
        decay_r1 = np.exp(-v["r1"] * t)
        columns = {
            "d": lambda: v["m0"] * decay_r1 * envelope * (self.tilt * slope),
            "r": lambda: 0.5 * v["m0"] * t * np.exp(-v["r"] * t) * envelope,
            "r1": lambda: (0.5 * v["m0"] * t * decay_r1 * (1.0 - 2.0 * eta)
                           * envelope),
            "t1rho": lambda: model * t / (v["t1rho"] * v["t1rho"]),
            "m0": lambda: model / v["m0"],
        }
        jac = np.empty((len(t), len(names)))
        for j, name in enumerate(names):
            jac[:, j] = columns[name]()
        return jac * self.weights[:, None]

    def project(self, v: dict[str, float], model: np.ndarray,
                res: np.ndarray, jac: np.ndarray) -> np.ndarray:
        """`jacobian` J over the other parameters, with a free m0 following
        them while inside its bounds: J - m ((r + m)^T J) / (m^T m), m the
        weighted model and r the weighted residuals, `evaluate` at v.
        """
        if not self.m0.lower < v["m0"] < self.m0.upper:
            return jac
        fitted = model * self.weights
        return jac - fitted[:, None] * ((res + fitted) @ jac
                                        / (fitted @ fitted))


def _levenberg_marquardt(fm: _BuildUpModel, names: tuple[str, ...],
                         start: dict[str, float], model: np.ndarray,
                         res: np.ndarray, jac: np.ndarray) -> FitResult:
    """Minimize the residual sum over ``names``; other values stay at start
    but a free m0, which `_BuildUpModel.evaluate` sets.

    ``model`` and ``res`` are `_BuildUpModel.evaluate` at start, and ``jac``
    its `_BuildUpModel.project` Jacobian there.  The result carries no
    standard errors.
    """
    spec = fm.spec
    x = np.array([start[n] for n in names])
    lo = np.array([spec.parameters[n].lower for n in names])
    hi = np.array([spec.parameters[n].upper for n in names])

    values = start
    rss = float(res @ res)

    mu = DAMPING_INITIAL
    iterations = 0
    stop_reason = "max_iterations"
    while iterations < MAX_ITERATIONS:
        iterations += 1
        if jac is None:
            jac = fm.project(values, model, res,
                             fm.jacobian(values, model, names))
        a = jac.T @ jac
        g = jac.T @ res
        diag = np.diag(a).copy()
        diag[diag <= 0.0] = max(diag.max(initial=0.0), 1.0) * 1e-30
        try:
            delta = np.linalg.solve(a + mu * np.diag(diag), -g)
        except np.linalg.LinAlgError as exc:
            raise FitError("singular normal equations; consider fixing a "
                           "parameter") from exc
        x_trial = np.clip(x + delta, lo, hi)
        step = x_trial - x
        step_norm = float(np.linalg.norm(step))
        if step_norm < STEP_NORM_TOL:
            stop_reason = "step_tol"
            break
        values_trial = {**start, **dict(zip(names, x_trial.tolist()))}
        values_trial, model_trial, res_trial = fm.evaluate(
            values_trial, fm.shape(values_trial))
        rss_trial = float(res_trial @ res_trial)
        if rss_trial <= rss:
            rel_change = (rss - rss_trial) / max(rss, np.finfo(float).tiny)
            x, values, model, res, rss = (x_trial, values_trial, model_trial,
                                          res_trial, rss_trial)
            mu = max(mu / DAMPING_FACTOR, 1e-14)
            jac = None
            if rel_change < RSS_RELATIVE_TOL:
                stop_reason = "rss_tol"
                break
        else:
            mu *= DAMPING_FACTOR

    return FitResult(values=values, rss=rss, iterations=iterations,
                     converged=stop_reason != "max_iterations",
                     stop_reason=stop_reason, model=model)


def fit_buildup(data: BuildUpData, spec: FitSpec) -> FitResult:
    """Levenberg-Marquardt fit of the powder build-up model to measured data.

    Minimizes sum of ((model(t_i) - M_i)/sigma_i)^2 (sigma_i = 1 without an
    uncertainty column).  Stops when the relative residual change drops
    below 1e-10, the step norm drops below 1e-12, or after 500 iterations
    (then flagged non-converged).

    One run searches the free parameters but a free m0, which is projected
    out, from the guess; the rank check there and the standard errors use
    the Jacobian over the whole free set.

    Raises:
        DataError: if the data under-determine the requested free set, or
            the residual sum at the initial guess is finite and its
            weighted sum overflows.
        GuessError: if the unweighted residual sum at the initial guess
            is not finite.
        FitError: if the Jacobian at the start is rank deficient (the
            message suggests which parameter to fix), if the normal
            equations turn singular, or if the residual sum ended above
            its value at the initial guess.
    """
    free = spec.free_names
    n_pts = len(data)
    if n_pts <= len(free):
        raise DataError(f"under-determined fit: {n_pts} points for "
                        f"{len(free)} free parameters")
    if len(free) >= 2 and n_pts < 6:
        raise DataError(f"under-determined fit: need >= 6 points for "
                        f"{len(free)} free parameters, got {n_pts}")

    fm = _BuildUpModel(data, spec)
    guess = {n: spec.parameters[n].value for n in PARAMETER_NAMES}
    with np.errstate(over="ignore", invalid="ignore"):
        shape = fm.shape(guess)
        model = guess["m0"] * shape
        res = model - data.magnetizations
        rss_initial = float(res @ res)
        if not math.isfinite(rss_initial):
            raise GuessError(f"the residual sum at the initial guess is "
                             f"{rss_initial!r}; start from a guess nearer "
                             f"the data")
        res = res * fm.weights   # all 1 without a sigma column
        rss_initial = float(res @ res)
        if not math.isfinite(rss_initial):
            raise DataError(f"sigma too small: the weighted residual sum at "
                            f"the initial guess is {rss_initial!r}")
    if not free:
        return FitResult(values=guess, rss=rss_initial, model=model)

    values, model, res = fm.evaluate(guess, shape)
    jac = fm.jacobian(values, model, free)
    _check_jacobian(jac, free)
    # free follows PARAMETER_NAMES, so a free m0 is its last name and column
    names = free[:-1] if fm.m0.free else free
    best = _levenberg_marquardt(
        fm, names, values, model, res,
        fm.project(values, model, res, jac[:, :len(names)]))
    _check_descent(best.rss, rss_initial)
    jac = fm.jacobian(best.values, best.model, free)
    return replace(best, stderr=_standard_errors(jac, best.rss, free))


def _check_descent(rss: float, rss_initial: float) -> None:
    """The fit may only lower the residual sum; also fails on a NaN rss."""
    if not rss <= rss_initial:
        raise FitError(f"residual sum {rss!r} ended above its value at the "
                       f"initial guess {rss_initial!r}")


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
    dof = jac.shape[0] - len(free)
    if dof <= 0:
        return {name: math.nan for name in free}
    try:
        cov = np.linalg.inv(jac.T @ jac) * (rss / dof)
    except np.linalg.LinAlgError:
        return {name: math.nan for name in free}
    err = {}
    for j, name in enumerate(free):
        var = cov[j, j]
        err[name] = math.sqrt(var) if var >= 0.0 else math.nan
    return err


def _gamma(isotope: str) -> float:
    try:
        return GYROMAGNETIC_RATIOS[isotope]
    except KeyError:
        supported = ", ".join(sorted(GYROMAGNETIC_RATIOS))
        raise ValueError(f"unsupported isotope '{isotope}'; supported: "
                         f"{supported}") from None


def coupling_from_distance(r_angstrom: float, isotope_i: str = "1H",
                           isotope_s: str = "13C") -> float:
    """Point-dipole coupling d = (mu0/4pi)*gamma_i*gamma_s*hbar/r^3 in rad/s.

    The sign follows the product of the gyromagnetic ratios; downstream
    transfer curves are even in d.
    """
    if not (math.isfinite(r_angstrom) and r_angstrom > 0.0):
        raise ValueError(f"distance must be finite and > 0, got {r_angstrom}")
    r = r_angstrom * ANGSTROM
    return MU0_OVER_4PI * _gamma(isotope_i) * _gamma(isotope_s) * HBAR / r**3


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
