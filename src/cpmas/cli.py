"""Command-line surface for simulating, comparing and fitting CP curves.

Commands:
    simulate   single-orientation analytic transfer curve -> CSV (t_us, eta)
    powder     powder-averaged curve (efficiency, or magnetization when
               relaxation parameters are given) -> CSV
    oracle     density-matrix propagation -> CSV (t_us, sy, iy, dq_y)
    compare    analytic vs. propagator on identical parameters -> report +
               CSV (t_us, eta_analytic, sy_oracle); exit 2 above threshold
    fit        least-squares fit of measured build-up data -> report +
               overlay CSV (time_us, magnetization, model, residual)

User-facing units are kHz for all frequencies (as nu = omega/2pi, so the
coupling flag --d-khz takes d/2pi), microseconds and milliseconds for
times, and degrees for angles; everything is converted to rad/s, s, rad at
parse time.  A plain-text key-value config file can supply any flag
(--config); explicit flags override file values.

Exit codes: 0 success, 1 usage/config error (also an unwritable --out or
--report path, which leaves neither file and prints no report, a --config
file that cannot be read or is not UTF-8, a path that no OS call takes
other than --data's, a time grid over 10**7 points or with a step that
rounds to 0 s, a grid:NxM set over 10**6 orientations, an oracle or
compare run over the substep cap of 10**6, a dipolar phase that overflows for
simulate, powder or compare, a compare --threshold not finite and >= 0,
locks off the Hartmann-Hahn match for simulate, powder, compare or fit,
locks whose effective field lies on the z axis or overflows,
or an unweighted fit whose residual sum at the initial guess is not
finite), 2 comparison threshold exceeded, 3 data error, 4 fit
non-convergence or fit failure (also a fit with a `FitResult.unusable`
line: it stopped at the iteration cap, or names a free parameter with no
finite standard error or at a bound of its search; its CSV and report
are still written).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import analytic, fitting, oracle, powder
from .core import (CouplingParams, Orientation, RfScheme, SpinningParams,
                   TimeGrid, tilt_scale)
from .fitting import write_curve_csv

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_THRESHOLD = 2
EXIT_DATA = 3
EXIT_FIT = 4

KHZ = 2.0 * math.pi * 1e3   # kHz -> rad/s
US = 1e-6                   # microseconds -> s
MS = 1e-3                   # milliseconds -> s
DEG = math.pi / 180.0

# Size caps checked before anything is allocated, far above real use (the
# tests and the benchmark stay below ~1000 grid points and 128x128
# orientations): an absurd --tmax-us/--dt-us or grid:NxM is a usage error.
MAX_GRID_POINTS = 10**7
MAX_ORIENTATIONS = 10**6

# the rule each numeric flag is held to, by the words its refusal prints
_DOMAINS = {
    "finite": math.isfinite,
    "finite and > 0": lambda x: math.isfinite(x) and x > 0.0,
    "finite and >= 0": lambda x: math.isfinite(x) and x >= 0.0,
    "> 0": lambda x: x > 0.0,   # also refuses nan
}


class ConfigError(Exception):
    """Invalid command line, config file, or parameter combination."""


@dataclass(frozen=True)
class Opt:
    """One CLI option: flag name, value parser, default (None = required)."""

    flag: str
    type: type
    help: str
    default: object = None
    required: bool = False

    @property
    def dest(self) -> str:
        return self.flag.replace("-", "_")


_RF_OPTS = [
    Opt("b1i-khz", float, "I spin-lock amplitude, kHz"),
    Opt("b1s-khz", float, "S spin-lock amplitude, kHz"),
    Opt("offset-i-khz", float, "I resonance offset, kHz", default=0.0),
    Opt("offset-s-khz", float, "S resonance offset, kHz", default=0.0),
]
# oracle and compare need the lock amplitudes; offsets keep their defaults
_RF_OPTS_REQUIRED = [replace(o, required=o.default is None) for o in _RF_OPTS]
_COUPLING_OPT = Opt("d-khz", float, "dipolar coupling d/2pi, kHz", required=True)
_MAS_OPT = Opt("mas-khz", float, "spinning rate, kHz", required=True)
_ANGLE_OPTS = [
    Opt("beta-deg", float, "orientation angle beta, degrees", required=True),
    Opt("gamma-deg", float, "orientation angle gamma, degrees", required=True),
]
_GRID_OPTS = [
    Opt("tmax-us", float, "last sample time, microseconds", required=True),
    Opt("dt-us", float, "sample spacing, microseconds", required=True),
]
_RELAX_OPTS = [
    Opt("r-inv-us", float, "spin-diffusion time 1/R, microseconds"),
    Opt("r1-inv-us", float, "oscillation-damping time 1/R1, microseconds"),
    Opt("t1rho-ms", float, "rotating-frame relaxation time, milliseconds"),
    Opt("m0", float, "equilibrium amplitude", default=1.0),
]
_SUBSTEPS_OPT = Opt("substeps", int,
                    "steps per grid interval of the fourth-order CF4 rule "
                    "of cpmas.oracle")
_ORIENT_SET_OPT = Opt("orient-set", str, "orientation set, grid:NxM or zcw:L",
                      default=f"zcw:{powder.DEFAULT_FIT_LEVEL}")
_COMMON_OPTS = [
    Opt("out", str, "output CSV path", required=True),
    Opt("config", str, "key-value config file; flags override it"),
    Opt("seed", int, "random seed recorded for reproducibility", default=0),
]

COMMAND_OPTS = {
    "simulate": [_COUPLING_OPT, _MAS_OPT, *_ANGLE_OPTS, *_GRID_OPTS,
                 *_RF_OPTS, *_COMMON_OPTS],
    "powder": [_COUPLING_OPT, _MAS_OPT, *_GRID_OPTS, *_RF_OPTS,
               _ORIENT_SET_OPT, *_RELAX_OPTS, *_COMMON_OPTS],
    "oracle": [_COUPLING_OPT, _MAS_OPT, *_ANGLE_OPTS, *_GRID_OPTS,
               *_RF_OPTS_REQUIRED,
               _SUBSTEPS_OPT, *_COMMON_OPTS],
    "compare": [_COUPLING_OPT, _MAS_OPT, *_ANGLE_OPTS, *_GRID_OPTS,
                *_RF_OPTS_REQUIRED,
                _SUBSTEPS_OPT,
                Opt("threshold", float, "max allowed |analytic - oracle|",
                    default=0.02),
                *_COMMON_OPTS],
    "fit": [Opt("data", str, "build-up CSV (time_us,magnetization[,sigma])",
                required=True),
            Opt("d-khz", float, "dipolar coupling d/2pi, kHz"),
            Opt("distance-angstrom", float,
                "internuclear distance; alternative to --d-khz"),
            Opt("isotopes", str, "isotope pair for the distance conversion",
                default="1H,13C"),
            _MAS_OPT, *_RF_OPTS, _ORIENT_SET_OPT,
            Opt("free", str, "comma list of free parameters out of "
                "d,r,r1,t1rho,m0", default="r,r1,t1rho,m0"),
            *_RELAX_OPTS,
            Opt("report", str, "also write the fit report to this path"),
            *_COMMON_OPTS],
}


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads only -1 and -1.5 as negative numbers, and takes a
        # value such as -2.7e-05 for an unknown option
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

    def error(self, message):
        raise ConfigError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    Parsing reads the parser and never changes it, so every `main` call,
    including one after a usage error, can share it.
    """
    parser = _Parser(prog="cpmas", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, opts in COMMAND_OPTS.items():
        p = sub.add_parser(command)
        for opt in opts:
            p.add_argument(f"--{opt.flag}", dest=opt.dest, type=opt.type,
                           default=None, help=opt.help)
    return parser


def _load_config_file(path: str) -> dict[str, str]:
    cfg = {}
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text "
                          f"({exc})") from exc
    except (OSError, ValueError) as exc:  # also a path no OS call takes
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        cfg[key.strip().replace("-", "_")] = value.strip()
    return cfg


def _resolve(args, opts: list[Opt]) -> dict:
    """Merge flag values, config-file values and defaults (flags win)."""
    cfg = _load_config_file(args.config) if args.config is not None else {}
    known = {o.dest for o in opts}
    unknown = set(cfg) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    resolved = {}
    for opt in opts:
        value = getattr(args, opt.dest)
        if value is not None and not isinstance(value, opt.type):
            # argparse before Python 3.12 reads --flag=-- as an empty list
            raise ConfigError(f"argument --{opt.flag}: expected one value, "
                              f"got {value!r}")
        if value is None and opt.dest in cfg:
            try:
                value = opt.type(cfg[opt.dest])
            except ValueError as exc:
                raise ConfigError(f"config key {opt.dest}: {exc}") from exc
        if value is None:
            value = opt.default
        if value is None and opt.required:
            raise ConfigError(f"missing required option --{opt.flag}")
        resolved[opt.dest] = value
    return resolved


# flags that choose where files live, not what is computed; left out of
# the config echo so the output bytes depend only on the physics inputs
_LOCATION_KEYS = {"config", "out", "report"}


def _echo_items(resolved: dict) -> list[tuple[str, object]]:
    """The physics inputs of a run, sorted by key, without location keys."""
    return [(key, resolved[key]) for key in sorted(resolved)
            if key not in _LOCATION_KEYS and resolved[key] is not None]


def _echo_lines(command: str, resolved: dict) -> list[str]:
    return [f"# cpmas {command}"] + [f"# {key.replace('_', '-')} = {value!r}"
                                     for key, value in _echo_items(resolved)]


def _number(resolved, key: str, domain: str) -> float:
    """The value of numeric flag ``key``, refused unless it is ``domain``
    (a key of `_DOMAINS`); a ``*_khz`` value is returned in rad/s, and a
    finite one that overflows there is refused first."""
    value, flag = resolved[key], key.replace("_", "-")
    scaled = value * KHZ if key.endswith("_khz") else value
    if math.isfinite(value) and not math.isfinite(scaled):
        raise ConfigError(f"{flag}={value} overflows double precision "
                          "in rad/s")
    if not _DOMAINS[domain](value):
        raise ConfigError(f"{flag} must be {domain}, got {value}")
    return scaled


def _grid_from(resolved) -> tuple[TimeGrid, np.ndarray]:
    """The time grid and its sample times in microseconds."""
    tmax = _number(resolved, "tmax_us", "finite and > 0")
    dt = _number(resolved, "dt_us", "finite and > 0")
    steps = tmax / dt + 1e-9   # the grid has floor(steps) + 1 points
    if not 1.0 <= steps < MAX_GRID_POINTS:
        raise ConfigError(f"grid must contain 2 to {MAX_GRID_POINTS} points "
                          f"(tmax-us={tmax}, dt-us={dt})")
    n = int(math.floor(steps)) + 1
    if not dt * US > 0.0:
        raise ConfigError(f"dt-us={dt} is below the smallest positive step "
                          "in seconds (it rounds to 0 s)")
    return TimeGrid(dt=dt * US, n_points=n), np.arange(n) * dt


def _check_phase(d: float, spin: SpinningParams, t_max: float) -> None:
    """Refuse a coupling ``d`` whose phase or rotor angle overflows by t_max.

    |B| <= 2*|c1| + 2*c2 < 8 (`core.phase_bracket`) and the stationary rate
    |d(0)/d| < 3, so |phi| stays below 8*|d|/(2*omega_r) when spinning and
    below 3*|d|*t when stationary; the bracket also takes sines of
    2*omega_r*t.  Past double precision these would turn into nan.
    """
    if spin.omega_r > 0.0:
        bounds = (8.0 * abs(d) / (2.0 * spin.omega_r),
                  2.0 * (spin.omega_r * t_max))
    else:
        bounds = (3.0 * abs(d) * t_max,)
    if not all(math.isfinite(b) for b in bounds):
        raise ConfigError("the dipolar phase or the rotor angle overflows "
                          "double precision on this grid (|d| too large "
                          "against the spinning rate or the duration)")


def _orientation_from(resolved) -> Orientation:
    beta = resolved["beta_deg"]
    gamma = _number(resolved, "gamma_deg", "finite") * DEG % (2.0 * math.pi)
    # a tiny negative angle wraps to a remainder that rounds up to 2*pi
    if gamma == 2.0 * math.pi:
        gamma = 0.0
    try:
        return Orientation(beta=beta * DEG, gamma=gamma)
    except ValueError as exc:  # a finite gamma always wraps into range
        raise ConfigError(f"beta-deg must be in [0, 180], got {beta}") from exc


def _rf_from(resolved) -> RfScheme:
    """The locks; nominal 80 kHz locks on resonance when none are given."""
    b1i, b1s = resolved["b1i_khz"], resolved["b1s_khz"]
    if b1i is None and b1s is None:
        if resolved["offset_i_khz"] or resolved["offset_s_khz"]:
            raise ConfigError("offsets need --b1i-khz and --b1s-khz for the "
                              "effective-field geometry")
        return RfScheme(omega1_i=KHZ * 80.0, omega1_s=KHZ * 80.0)
    if b1i is None or b1s is None:
        raise ConfigError("both --b1i-khz and --b1s-khz are required here")
    return RfScheme(
        omega1_i=_number(resolved, "b1i_khz", "finite and > 0"),
        omega1_s=_number(resolved, "b1s_khz", "finite and > 0"),
        offset_i=_number(resolved, "offset_i_khz", "finite"),
        offset_s=_number(resolved, "offset_s_khz", "finite"))


def _coupling_from(resolved) -> CouplingParams:
    return CouplingParams(d=_number(resolved, "d_khz", "finite"))


def _spin_from(resolved) -> SpinningParams:
    return SpinningParams(
        omega_r=_number(resolved, "mas_khz", "finite and >= 0"))


def _orientation_set(text: str) -> powder.OrientationSet:
    kind, _, arg = text.partition(":")
    try:
        if kind == "grid":
            nb, _, ng = arg.partition("x")
            nb, ng = int(nb), int(ng)
            if nb * ng > MAX_ORIENTATIONS:
                raise ValueError(f"at most {MAX_ORIENTATIONS} orientations")
            return powder.grid_orientation_set(nb, ng)
        if kind == "zcw":
            return powder.zcw_orientation_set(int(arg))
    except ValueError as exc:
        raise ConfigError(f"bad orientation set {text!r}: {exc}") from exc
    raise ConfigError(f"bad orientation set {text!r} (use grid:NxM or zcw:L)")


def _relaxation_from(resolved) -> tuple[analytic.RelaxationParams, bool]:
    """RelaxationParams plus whether any damping flag was given; a bad value
    is refused by its flag."""
    keys = {"r_inv_us": ("r", US), "r1_inv_us": ("r1", US),
            "t1rho_ms": ("t1rho", MS)}
    params = {}
    for key, (name, unit) in keys.items():
        # an absent time constant is infinite: that process does not damp
        value = (math.inf if resolved[key] is None
                 else _number(resolved, key, "> 0"))
        flag, t = key.replace("_", "-"), value * unit
        if t == 0.0:
            raise ConfigError(f"{flag}={value} rounds to 0 s")
        # r and r1 are rates, the inverses of their time constants
        params[name] = t if name == "t1rho" else 1.0 / t
        if params[name] == math.inf and name != "t1rho":
            raise ConfigError(f"{flag}={value} is too small: its rate "
                              f"overflows")
    m0 = _number(resolved, "m0", "finite and > 0")
    return (analytic.RelaxationParams(m0=m0, **params),
            any(resolved[key] is not None for key in keys))


def _closed_form_inputs(resolved, t_max: float):
    """Locks, coupling and spinning of a closed-form curve to ``t_max``:
    refuses locks off the match, then a tilted phase that overflows."""
    rf = _rf_from(resolved)
    tilt = tilt_scale(rf)
    coupling, spin = _coupling_from(resolved), _spin_from(resolved)
    _check_phase(tilt * coupling.d, spin, t_max)
    return rf, coupling, spin


def run_simulate(resolved) -> tuple[dict, list[str], int, str | None]:
    grid, t_us = _grid_from(resolved)
    orient = _orientation_from(resolved)
    rf, coupling, spin = _closed_form_inputs(resolved, grid.duration)
    eta = analytic.efficiency_curve(rf, coupling, orient, spin, grid)
    return {"t_us": t_us, "eta": eta}, [], EXIT_OK, None


def run_powder(resolved) -> tuple[dict, list[str], int, str | None]:
    grid, t_us = _grid_from(resolved)
    rf, coupling, spin = _closed_form_inputs(resolved, grid.duration)
    oset = _orientation_set(resolved["orient_set"])
    relax, damped = _relaxation_from(resolved)
    curve = powder.powder_average(rf, coupling, spin, grid, oset)
    if damped:
        curve = analytic.magnetization(grid, curve, relax)
    return ({"t_us": t_us, "m" if damped else "eta": curve}, [], EXIT_OK,
            None)


def run_oracle(resolved) -> tuple[dict, list[str], int, str | None]:
    """Propagation by `oracle.propagate_expectations`, with state and
    observables along the effective-field axes
    (`oracle.tilted_spin_operators`).  On resonance these are I_y and S_y
    exactly, so the columns are <S_y>, <I_y> and the DQ lock component
    from rho(0) = I_y."""
    grid, t_us = _grid_from(resolved)
    orient = _orientation_from(resolved)
    rf = _rf_from(resolved)
    coupling = _coupling_from(resolved)
    spin = _spin_from(resolved)
    i_e, s_e = oracle.tilted_spin_operators(rf)
    sy, iy, dq_y = oracle.propagate_expectations(
        i_e, (s_e, i_e, oracle.DQ_Y), rf, coupling, orient, spin, grid,
        resolved["substeps"])
    return ({"t_us": t_us, "sy": sy, "iy": iy, "dq_y": dq_y}, [], EXIT_OK,
            None)


def run_compare(resolved) -> tuple[dict, list[str], int, str | None]:
    threshold = _number(resolved, "threshold", "finite and >= 0")
    columns = run_simulate(resolved)[0]
    eta, sy = columns["eta"], run_oracle(resolved)[0]["sy"]
    max_dev = float(np.max(np.abs(eta - sy)))
    rms_dev = float(np.sqrt(np.mean((eta - sy) ** 2)))
    report = [f"max_deviation = {max_dev!r}", f"rms_deviation = {rms_dev!r}",
              f"threshold = {threshold!r}"]
    code = EXIT_OK if max_dev <= threshold else EXIT_THRESHOLD
    return ({"t_us": columns["t_us"], "eta_analytic": eta, "sy_oracle": sy},
            report, code, None)


def _fit_spec_from(resolved) -> fitting.FitSpec:
    if (resolved.get("d_khz") is None) == (resolved.get("distance_angstrom") is None):
        raise ConfigError("give exactly one of --d-khz or --distance-angstrom")
    if resolved.get("distance_angstrom") is not None:
        pair = [s.strip() for s in resolved["isotopes"].split(",")]
        if len(pair) != 2:
            raise ConfigError("--isotopes must be two comma-separated names")
        r = _number(resolved, "distance_angstrom", "finite and > 0")
        d = fitting.coupling_from_distance(r, *pair)
    else:
        d = _coupling_from(resolved).d
    relax, _ = _relaxation_from(resolved)
    values = {"d": d, **asdict(relax)}
    free = [s.strip() for s in resolved["free"].split(",") if s.strip()]
    rf = _rf_from(resolved)
    return fitting.FitSpec(values=values, free=free,
                           orientations=_orientation_set(resolved["orient_set"]),
                           spin=_spin_from(resolved), rf=rf)


def _fit_report(resolved, data, spec, result) -> list[str]:
    lines = [
        "command = fit",
        *(f"{key} = {value!r}" for key, value in _echo_items(resolved)),
        f"n_points = {len(data)}",
        f"free_parameters = {','.join(spec.free)}",
        f"converged = {str(result.converged).lower()}",
        f"iterations = {result.iterations}",
        f"stop_reason = {result.stop_reason}",
        f"rss = {result.rss!r}",
    ]
    v = result.values
    lines.append(f"d_rad_per_s = {v['d']!r}")
    lines.append(f"d_khz = {v['d'] / KHZ!r}")
    lines.append(f"r_per_s = {v['r']!r}")
    if v["r"] > 0.0:
        lines.append(f"r_inv_us = {1.0 / v['r'] / US!r}")
    lines.append(f"r1_per_s = {v['r1']!r}")
    if v["r1"] > 0.0:
        lines.append(f"r1_inv_us = {1.0 / v['r1'] / US!r}")
    lines.append(f"t1rho_ms = {v['t1rho'] / MS!r}")
    lines.append(f"m0 = {v['m0']!r}")
    for name in spec.free:
        lines.append(f"stderr_{name} = {result.stderr[name]!r}")
    return lines


def run_fit(resolved) -> tuple[dict, list[str], int, str | None]:
    data = fitting.load_buildup(resolved["data"])
    spec = _fit_spec_from(resolved)
    # the largest |d| the search may try
    _check_phase(max(map(abs, spec.bounds("d"))) if "d" in spec.free
                 else spec.values["d"], spec.spin, data.times[-1])
    result = fitting.fit_buildup(data, spec)
    columns = {"time_us": data.times_us(),
               "magnetization": data.magnetizations, "model": result.model,
               "residual": result.model - data.magnetizations}
    code = EXIT_FIT if result.unusable else EXIT_OK
    return (columns, _fit_report(resolved, data, spec, result), code,
            result.unusable and f"fit error: {result.unusable}")


_RUNNERS = {"simulate": run_simulate, "powder": run_powder,
            "oracle": run_oracle, "compare": run_compare, "fit": run_fit}


@contextmanager
def _writing(path):
    """Turn a failure to write ``path`` into a one-line config error; a
    path no OS call takes (a NUL byte, a lone surrogate) is met by
    `os.access` first, so a ValueError of the body itself reaches `main`
    without the "cannot write" label."""
    try:
        os.access(path, os.F_OK)
    except ValueError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def main(argv=None) -> int:
    """Parse arguments, run the command, and write its outputs.

    Every ``run_*`` returns ``(columns, report_lines, exit_code, note)``:
    the CSV columns by header name, the lines printed to stdout (and
    written to ``--report`` when given), the exit code this returns, and
    a line for stderr once the outputs are written, or None.

    A refusal ends the run with one line on stderr and its exit code:
    `ConfigError`, or any other ``ValueError`` the library raises on an
    input outside its domain, exits 1; `fitting.DataError` exits 3; and
    `fitting.FitError` exits 4.
    """
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        resolved = _resolve(args, COMMAND_OPTS[args.command])
        columns, report, code, note = _RUNNERS[args.command](resolved)
        with _writing(resolved["out"]):
            write_curve_csv(resolved["out"], columns,
                            _echo_lines(args.command, resolved))
        if resolved.get("report"):
            try:
                with _writing(resolved["report"]):
                    Path(resolved["report"]).write_text(
                        "\n".join(report) + "\n", encoding="utf-8")
            except ConfigError:
                # like any other refusal, leave no CSV behind
                with suppress(OSError):
                    Path(resolved["out"]).unlink()
                raise
        if report:
            print("\n".join(report))
        if note:
            print(note, file=sys.stderr)
        return code
    except fitting.DataError as exc:   # a ValueError, so caught first
        message, code = f"data error: {exc}", EXIT_DATA
    except (ConfigError, ValueError) as exc:
        message, code = f"error: {exc}", EXIT_CONFIG
    except fitting.FitError as exc:
        message, code = f"fit error: {exc}", EXIT_FIT
    # one line that any stream takes, though a path in it may hold a line
    # break or a lone surrogate
    print(message.replace("\n", "\\n").encode("utf-8", "backslashreplace")
          .decode("utf-8"), file=sys.stderr)
    return code


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
