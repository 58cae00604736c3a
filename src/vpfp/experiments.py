"""Named measurement campaigns driving the lattice solver.

Five scan drivers share one pattern: size a lattice window per cell from the
physics (horizon length against suppression of the content that reaches the
window edge), march, extract a scalar diagnostic, then fit scalings across
cells.  When an output directory is set, each driver writes per-run CSV
series, a summary.json with exponents and confidence intervals, and a
manifest.json from which rerun_from_manifest reproduces every CSV byte for
byte.

Grid policy: the config has no lattice keys.  Each driver sizes its own
window per cell from the cell's nu^(-1/3) scales, at the per-driver spacing
below, chosen so every probed cell stays above its aliasing floor for the
whole horizon.  Cells run sequentially, so a scan is a pure function of its
config.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .errors import AliasingError, ConfigError, DomainError, HorizonError, \
    NumericError
from .grids import PhaseGrid, SpectralField
from .io_config import RunConfig, config_hash, parse_config, read_manifest, \
    write_csv, write_json, write_manifest
from .linear_theory import InteractionKernel, VolterraProblem, \
    fit_decay_rate, free_streaming_source, volterra_solve
from .multiplier import norm_sobolev_moment
from .semigroup import eta_ct, s_density_exponent
from .solver import InitialData, Mode, compute_moments, init_state, march, \
    run_simulation

EXPERIMENT_KINDS = ("dissipation", "landau", "echo", "threshold", "thermalize")

# Frequency spacing per driver, frozen here.  Coarser spacings keep
# long-horizon cells affordable; no campaign has yet been rerun at a halved
# spacing to bound the discretization error (ROADMAP item 6).
_D_ETA = {
    "dissipation": 0.25,
    "landau": 0.125,
    "echo": 0.25,
    "threshold": 0.5,
    "thermalize": 0.25,
}

# Below this fraction of the linear reference peak the nonlinear-vs-linear
# comparison is comparing noise, so the classifier ignores it.
_CLASSIFIER_FLOOR = 1e-6

_LN2 = math.log(2.0)


def _default_nu_list(kind: str, config: RunConfig) -> tuple:
    if kind == "dissipation":
        return tuple(float(v) for v in np.geomspace(1e-6, 1e-3, 7))
    if kind == "landau":
        return (1e-5, 1e-4, 1e-3)
    if kind == "echo":
        return (1e-9, 1e-6, 1e-5, 1e-4, 1e-3)
    if kind == "threshold":
        return tuple(float(v) for v in np.geomspace(1e-6, 1e-4, 5))
    if kind == "thermalize" and config.nu <= 0.0:
        raise ConfigError(f"thermalize runs the single frequency `nu`, which "
                          f"must be positive, got nu = {config.nu!r}")
    return (config.nu,)


@dataclass(frozen=True)
class ExperimentSpec:
    """One resolved campaign: kind, collision frequencies, output location.

    out_dir = "" runs in memory without writing anything.
    """

    kind: str
    config: RunConfig
    nu_list: tuple
    out_dir: str = ""

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise DomainError(
                f"unknown experiment {self.kind!r}; choose from "
                f"{', '.join(EXPERIMENT_KINDS)}")
        if not self.nu_list:
            raise DomainError("empty collision-frequency list")
        if not all(0.0 < nu < math.inf for nu in self.nu_list):
            raise DomainError("scan frequencies must be positive and finite")

    @classmethod
    def from_config(cls, kind: str, config: RunConfig,
                    out_dir: str = "") -> "ExperimentSpec":
        raw = config.nu_list or _default_nu_list(kind, config)
        nus = tuple(sorted(set(float(v) for v in raw)))
        return cls(kind=kind, config=config, nu_list=nus, out_dir=out_dir)


# ---------------------------------------------------------------------------
# fitting helpers

@dataclass
class PowerFit:
    """Least-squares line through (log x, log y) with a 95% band on the slope."""

    exponent: float
    prefactor: float
    ci95: float
    stderr: float
    residual_rms: float
    n: int


def fit_power_law(x, y) -> PowerFit:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size or x.size < 3:
        raise DomainError("power-law fit needs at least three samples")
    if np.any(x <= 0.0) or np.any(y <= 0.0):
        raise DomainError("power-law fit needs positive data")
    # imported here, not with the package: only the fits need scipy.stats,
    # and importing it costs most of a second
    from scipy import stats

    lx = np.log(x)
    ly = np.log(y)
    res = stats.linregress(lx, ly)
    tcrit = float(stats.t.ppf(0.975, x.size - 2))
    pred = res.slope * lx + res.intercept
    rms = float(np.sqrt(np.mean((ly - pred) ** 2)))
    return PowerFit(exponent=float(res.slope),
                    prefactor=float(math.exp(res.intercept)),
                    ci95=tcrit * float(res.stderr),
                    stderr=float(res.stderr),
                    residual_rms=rms, n=int(x.size))


@dataclass
class PlaneFit:
    """Joint fit log t = c + a log nu + b log k over a rectangular scan."""

    exponent_nu: float
    exponent_k: float
    ci95_nu: float
    ci95_k: float
    prefactor: float
    residual_rms: float
    n: int


def fit_power_plane(values, nu, k) -> PlaneFit:
    from scipy import stats

    v = np.log(np.asarray(values, dtype=float))
    design = np.column_stack([
        np.ones(v.size),
        np.log(np.asarray(nu, dtype=float)),
        np.log(np.asarray(k, dtype=float)),
    ])
    if v.size < 4 or np.linalg.matrix_rank(design) < 3:
        raise DomainError("joint fit needs at least two distinct values of "
                          "both nu and k and four samples")
    beta, *_ = np.linalg.lstsq(design, v, rcond=None)
    resid = v - design @ beta
    dof = v.size - 3
    sigma2 = float(resid @ resid) / dof
    cov = sigma2 * np.linalg.inv(design.T @ design)
    tcrit = float(stats.t.ppf(0.975, dof))
    return PlaneFit(exponent_nu=float(beta[1]), exponent_k=float(beta[2]),
                    ci95_nu=tcrit * math.sqrt(max(cov[1, 1], 0.0)),
                    ci95_k=tcrit * math.sqrt(max(cov[2, 2], 0.0)),
                    prefactor=float(math.exp(beta[0])),
                    residual_rms=float(np.sqrt(np.mean(resid ** 2))),
                    n=int(v.size))


def _power_fit_dict(fit: PowerFit | None, prefix: str) -> dict:
    if fit is None:
        return {prefix + "_exponent": None, prefix + "_ci95": None}
    return {prefix + "_exponent": fit.exponent, prefix + "_ci95": fit.ci95,
            prefix + "_residual_rms": fit.residual_rms, prefix + "_n": fit.n}


# ---------------------------------------------------------------------------
# shared plumbing

def _window(d_eta: float, eta_need: float, k_max: int) -> PhaseGrid:
    """Smallest lattice at spacing d_eta whose half-width covers eta_need."""
    half = max(int(math.ceil(eta_need / d_eta)), 8)
    return PhaseGrid(k_max=k_max, eta_max=half * d_eta,
                     n_eta=2 * half, dt=d_eta)


def _versions() -> dict:
    return {"package": __version__, "numpy": np.__version__,
            "scipy": scipy.__version__}


def _flat_summary(kind: str, report) -> dict:
    """summary.json of a report whose fields are all JSON-ready."""
    return {"experiment": kind, **asdict(report),
            "versions": _versions()}


def _write_outputs(spec: ExperimentSpec, summary: dict, csv_files: dict) -> None:
    if not spec.out_dir:
        return
    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, (rows, schema) in csv_files.items():
        write_csv(rows, schema, out / name)
    write_json(summary, out / "summary.json")
    write_manifest(spec.config, summary, out / "manifest.json")


def _series_csv(columns: dict) -> tuple:
    schema = tuple(columns.keys())
    arrays = [np.asarray(c) for c in columns.values()]
    rows = [tuple(float(a[i]) for a in arrays) for i in range(arrays[0].size)]
    return rows, schema


# ---------------------------------------------------------------------------
# collisional dissipation of free-streaming modes

def surrogate_half_life(k: int, nu: float) -> float:
    """Half-norm time predicted by the closed-form suppression exponent."""
    if k == 0:
        raise DomainError("dissipation lives on k != 0")
    if nu <= 0.0:
        raise DomainError("collisionless modes have no half-norm time")
    kk = abs(k)
    # exponent decreases without bound in t, so a generous multiple of the
    # cube-root scale always brackets the crossing
    hi = 20.0 * (3.0 * _LN2 / nu) ** (1.0 / 3.0) / kk ** (2.0 / 3.0)
    # imported here, not with the package: importing scipy.optimize costs
    # about 0.6 s, and only the dissipation campaign needs it
    from scipy import optimize

    return optimize.brentq(lambda t: s_density_exponent(t, kk, nu) + _LN2,
                           1e-9, hi, xtol=1e-12)


def _measured_half_life(k: int, nu: float, ts: float, d_eta: float,
                        w: InteractionKernel) -> tuple[float, float, float]:
    """March a free bump on row k until its L2 norm halves.

    Returns (t_half, max mass drift, max momentum drift).  The window covers
    1.6 surrogate half-lives of sliding content; if the norm has not crossed
    by then the cell is hopeless and the march caps at 2.2 surrogate
    half-lives before giving up.
    """
    grid = _window(d_eta, abs(k) * ts * 1.6 + 12.0, abs(k))
    f, _ = init_state(InitialData(eps=1.0, modes=(Mode(k, 1.0, 0.0, 1.0),)),
                      grid, w)
    row = grid.k_index(k)
    root_h = math.sqrt(grid.d_eta)
    t_cap = 2.2 * ts
    norms = []

    def halved(state, _cons, i):
        norms.append((state.time,
                      float(np.linalg.norm(state.data[row])) * root_h))
        return i > 0 and norms[-1][1] <= 0.5 * norms[0][1]

    try:
        max_dm, max_dp, _ = march(f, nu, w, math.ceil(t_cap / grid.dt),
                                  "free", halved)
    except AliasingError as exc:
        raise HorizonError(
            f"k = {k}, nu = {nu}: no half-norm crossing before the "
            f"window edge (t = {f.time:.6g})") from exc
    target = 0.5 * norms[0][1]
    (prev_t, prev_v), (_, cur_v) = norms[-2:]
    if cur_v > target:
        raise HorizonError(f"k = {k}, nu = {nu}: no half-norm crossing "
                           f"inside t <= {t_cap:.6g}")
    # log-linear interpolation of the crossing inside the last step
    a = math.log(prev_v / target)
    b = math.log(target / cur_v) if cur_v < target else 0.0
    return prev_t + grid.dt * (a / (a + b) if a + b > 0 else 1.0), \
        max_dm, max_dp


@dataclass
class ScalingReport:
    """Half-life scan outcome: per-cell table plus fitted exponents."""

    cells: list
    surrogate_nu_fit: PowerFit | None
    measured_nu_fit: PowerFit | None
    plane_fit: PlaneFit | None
    max_ratio_error: float
    config_hash: str

    def summary(self) -> dict:
        out = {"experiment": "dissipation",
               "config_hash": self.config_hash,
               "n_cells": len(self.cells),
               "max_ratio_error": self.max_ratio_error,
               "versions": _versions()}
        out.update(_power_fit_dict(self.surrogate_nu_fit, "surrogate_nu"))
        out.update(_power_fit_dict(self.measured_nu_fit, "measured_nu"))
        if self.plane_fit is not None:
            p = self.plane_fit
            out.update({"plane_nu_exponent": p.exponent_nu,
                        "plane_nu_ci95": p.ci95_nu,
                        "plane_k_exponent": p.exponent_k,
                        "plane_k_ci95": p.ci95_k,
                        "plane_residual_rms": p.residual_rms})
        return out


def run_dissipation_scan(spec: ExperimentSpec) -> ScalingReport:
    """Half-norm times over a (k, nu) rectangle, surrogate against solver.

    The surrogate column comes from the closed-form exponent alone; the
    measured column marches the collisional free flow.  Exponents are fitted
    in log-log form: nu at the smallest k for both columns, and a joint
    (nu, k) plane for the measured column when the scan has two sides.
    """
    cfg = spec.config
    d_eta = _D_ETA["dissipation"]
    k_list = tuple(sorted(set(abs(int(k)) for k in cfg.k_list)))
    if not k_list:
        raise DomainError("dissipation scan needs a nonempty k list")
    # one kernel on the widest band serves every row; a custom table too
    # short for it fails here, before any cell runs
    w = cfg.kernel_object(k_max=k_list[-1])
    cells = []
    for k in k_list:
        for nu in spec.nu_list:
            ts = surrogate_half_life(k, nu)
            tm, dm, dp = _measured_half_life(k, nu, ts, d_eta, w)
            cells.append({"k": k, "nu": nu,
                          "t_half_surrogate": ts, "t_half_measured": tm,
                          "ratio": tm / ts,
                          "mass_drift": dm, "momentum_drift": dp})
    base = [c for c in cells if c["k"] == k_list[0]]
    surrogate_fit = None
    measured_fit = None
    if len(base) >= 3:
        surrogate_fit = fit_power_law([c["nu"] for c in base],
                                      [c["t_half_surrogate"] for c in base])
        measured_fit = fit_power_law([c["nu"] for c in base],
                                     [c["t_half_measured"] for c in base])
    plane = None
    if len(k_list) >= 2 and len(spec.nu_list) >= 2:
        plane = fit_power_plane([c["t_half_measured"] for c in cells],
                                [c["nu"] for c in cells],
                                [c["k"] for c in cells])
    report = ScalingReport(
        cells=cells,
        surrogate_nu_fit=surrogate_fit,
        measured_nu_fit=measured_fit,
        plane_fit=plane,
        max_ratio_error=max(abs(c["ratio"] - 1.0) for c in cells),
        config_hash=config_hash(cfg),
    )
    schema = ("k", "nu", "t_half_surrogate", "t_half_measured", "ratio",
              "mass_drift", "momentum_drift")
    _write_outputs(spec, report.summary(), {"cells.csv": (cells, schema)})
    return report


# ---------------------------------------------------------------------------
# linear density decay, two routes

@dataclass
class RateReport:
    """Per-frequency decay rates plus the cross-route consistency margin."""

    rows: list
    stability_ratio: float
    all_positive: bool
    max_discrepancy: float
    config_hash: str

    def summary(self) -> dict:
        return _flat_summary("landau", self)


def run_landau_linear(spec: ExperimentSpec) -> RateReport:
    """Linear density decay on k = 1 by two independent routes.

    Per frequency: the lattice solver in linear mode and the scalar density
    equation driven by the freely advected datum must agree on a Gaussian
    datum (sup-relative discrepancy, hard error above 10%).  The rate
    constant is then fitted on a slow datum (1 + eta^2)^(-4), whose
    algebraic envelope is divided out before the exponential fit on the
    cube-root time window.  The Gaussian run also yields the envelope
    steepness in log t, which should be far below any power law.
    """
    cfg = spec.config
    if cfg.eps <= 0.0:
        raise DomainError("landau scan needs eps > 0")
    d_eta = _D_ETA["landau"]
    rows = []
    series = []
    for nu in spec.nu_list:
        nu13 = nu ** (-1.0 / 3.0)
        t_hor = 3.0 * nu13
        grid = _window(d_eta, t_hor + 14.0, 1)
        w = cfg.kernel_object(k_max=1)
        n_steps = int(math.ceil(t_hor / grid.dt))
        eps = cfg.eps

        f, _ = init_state(InitialData(
            eps=eps, modes=(Mode(1, 1.0, 0.0, 1.0),)), grid, w)
        res = run_simulation(f, nu, w, n_steps, mode="linear")
        t = res.times
        rho_solver = np.abs(res.rho[:, grid.k_index(1)])

        def gauss(_k, e, _eps=eps):
            return _eps * math.exp(-0.5 * e * e)

        horizon = n_steps * grid.dt
        # the march's own time grid, on which the sources are sampled
        t_src = np.arange(n_steps + 1) * grid.dt
        vr = volterra_solve(VolterraProblem(
            k=1, nu=nu, delta=0.0,
            source=free_streaming_source(gauss, t_src, 1, nu),
            dt=grid.dt, t_final=horizon), w)
        rho_lin = np.abs(vr.rho)
        scale = float(np.max(rho_lin))
        disc = float(np.max(np.abs(rho_solver - rho_lin))) / scale
        if disc > 0.10:
            raise NumericError(
                f"nu = {nu}: lattice and density-equation routes disagree "
                f"by {disc:.1%}; the discretization cannot be trusted")

        # envelope steepness of the Gaussian datum, fitted against log t;
        # samples below 1e-140 are discarded before they underflow to zero
        env_mask = (t >= 2.0) & (rho_lin >= 1e-140)
        envelope_exponent = float(np.polyfit(
            np.log(t[env_mask]), np.log(rho_lin[env_mask]), 1)[0])

        def slow(_k, e, _eps=eps):
            return _eps * (1.0 + e * e) ** -4.0

        vs = volterra_solve(VolterraProblem(
            k=1, nu=nu, delta=0.0,
            source=free_streaming_source(slow, t_src, 1, nu),
            dt=grid.dt, t_final=horizon), w)
        drift = eta_ct(vs.t, 1, nu)
        premult = np.abs(vs.rho) * (1.0 + drift ** 2) ** 4.0
        if cfg.fit_t_max > 0.0:
            window = (cfg.fit_t_min, cfg.fit_t_max)
        else:
            window = (1.5 * nu13, 3.0 * nu13)
        fit = fit_decay_rate(vs.t, premult, window)
        delta_fit = fit.rate * nu13

        rows.append({"nu": nu,
                     "delta_fit": delta_fit,
                     "decay_rate": fit.rate,
                     "fit_r_squared": fit.r_squared,
                     "envelope_exponent": envelope_exponent,
                     "discrepancy": disc,
                     "mass_drift": res.max_mass_drift,
                     "momentum_drift": res.max_momentum_drift})
        series.append(_series_csv({"t": t,
                                   "rho_solver_abs": rho_solver,
                                   "rho_volterra_abs": rho_lin,
                                   "slow_premultiplied": premult}))
    deltas = [r["delta_fit"] for r in rows]
    all_pos = all(d > 0.0 for d in deltas)
    stability = max(deltas) / min(deltas) if all_pos else math.inf
    report = RateReport(rows=rows,
                        stability_ratio=stability,
                        all_positive=all_pos,
                        max_discrepancy=max(r["discrepancy"] for r in rows),
                        config_hash=config_hash(cfg))
    schema = ("nu", "delta_fit", "decay_rate", "fit_r_squared",
              "envelope_exponent", "discrepancy", "mass_drift",
              "momentum_drift")
    files = {"rates.csv": (rows, schema)}
    for i, payload in enumerate(series):
        files[f"landau_series_{i:02d}.csv"] = payload
    _write_outputs(spec, report.summary(), files)
    return report


# ---------------------------------------------------------------------------
# echo excitation and its collisional suppression

@dataclass
class EchoReport:
    """Echo peak per collision frequency plus monotonicity verdicts."""

    rows: list
    monotone_amp: bool
    strictly_decreasing: bool
    collisionless_deviation: float
    config_hash: str

    def summary(self) -> dict:
        return _flat_summary("echo", self)


def run_echo(spec: ExperimentSpec) -> EchoReport:
    """Two-bump interaction echo on the k = 1 field, swept in nu.

    A wide pump at frequency zero on mode pump_k and a seed on mode -1
    offset to eta_star produce a field burst near the time where the k = 1
    characteristic sweeps eta_star.  The detector takes the largest interior
    local maximum of |E(t, 1)| after half the predicted time; a series with
    no interior maximum reports no echo rather than a bogus peak.  Peak
    amplitudes across an ascending nu sweep must not grow.
    """
    cfg = spec.config
    d_eta = _D_ETA["echo"]
    pump_k = cfg.echo_pump_k
    eta_star = cfg.echo_eta_star
    pump_amp = cfg.echo_pump_amp if cfg.echo_pump_amp > 0.0 else 0.15
    seed_amp = cfg.echo_seed_amp if cfg.echo_seed_amp > 0.0 else 0.10
    pump_width = 2.0
    k_band = 2 * pump_k
    t_final = cfg.t_final if cfg.t_final > 0.0 else 2.0 * eta_star + 2.0
    # harmonics up to k_band slide content at slope k_band, and interaction
    # products are born as far out as the seed offset; everything deposited
    # must stay inside the window for the whole run
    grid = _window(d_eta, eta_star + k_band * t_final + 8.0 * pump_width + 10.0,
                   k_band)
    w = cfg.kernel_object(k_max=k_band)
    n_steps = int(math.ceil(t_final / grid.dt))
    datum = InitialData(eps=1.0, modes=(
        Mode(pump_k, pump_amp, 0.0, pump_width),
        Mode(-1, seed_amp, eta_star, 1.0),
    ))
    t_search = 0.5 * eta_star
    rows = []
    series = []
    for nu in spec.nu_list:
        f, _ = init_state(datum, grid, w)
        res = run_simulation(f, nu, w, n_steps, mode="full")
        t = res.times
        e_abs = np.abs(res.e_field[:, grid.k_index(1)])
        # the k = 1 characteristic (1 - e^(-nu t)) / nu sweeps eta_star at
        # t* = -log1p(-nu eta_star) / nu; it never reaches it when
        # nu eta_star >= 1
        t_pred = (-math.log1p(-nu * eta_star) / nu
                  if nu * eta_star < 1.0 else math.nan)
        inner = np.arange(1, t.size - 1)
        local = inner[(t[inner] > t_search)
                      & (e_abs[inner] >= e_abs[inner - 1])
                      & (e_abs[inner] >= e_abs[inner + 1])]
        if local.size:
            best = int(local[np.argmax(e_abs[local])])
            row = {"nu": nu, "found": True,
                   "peak_time": float(t[best]),
                   "peak_amp": float(e_abs[best]),
                   "predicted_time": t_pred,
                   "relative_deviation": abs(float(t[best]) - t_pred) / t_pred,
                   "verdict": "echo"}
        else:
            row = {"nu": nu, "found": False,
                   "peak_time": math.nan, "peak_amp": math.nan,
                   "predicted_time": t_pred,
                   "relative_deviation": math.nan,
                   "verdict": "no echo"}
        row["mass_drift"] = res.max_mass_drift
        row["momentum_drift"] = res.max_momentum_drift
        rows.append(row)
        series.append(_series_csv({"t": t, "e_abs": e_abs}))
    all_found = all(r["found"] for r in rows)
    amps = [r["peak_amp"] for r in rows]
    monotone = all_found and all(amps[i] >= amps[i + 1]
                                 for i in range(len(amps) - 1))
    strict = all_found and all(amps[i] > amps[i + 1]
                               for i in range(len(amps) - 1))
    report = EchoReport(rows=rows,
                        monotone_amp=monotone,
                        strictly_decreasing=strict,
                        collisionless_deviation=rows[0]["relative_deviation"],
                        config_hash=config_hash(cfg))
    schema = ("nu", "found", "peak_time", "peak_amp", "predicted_time",
              "relative_deviation", "verdict", "mass_drift", "momentum_drift")
    files = {"echo_peaks.csv": (rows, schema)}
    for i, payload in enumerate(series):
        files[f"echo_series_{i:02d}.csv"] = payload
    _write_outputs(spec, report.summary(), files)
    return report


# ---------------------------------------------------------------------------
# nonlinear departure threshold

@dataclass
class ThresholdReport:
    """Departure amplitude per frequency with the full classifier trace."""

    rows: list
    trace: list
    fit: PowerFit | None
    all_monotone: bool
    config_hash: str

    def summary(self) -> dict:
        out = {"experiment": "threshold",
               "config_hash": self.config_hash,
               "rows": self.rows,
               "trace": self.trace,
               "all_monotone": self.all_monotone,
               "context_exponent": 1.0 / 3.0,
               "context_note": (
                   "the cube-root exponent is the conjectured asymptotic "
                   "scaling; runs of this size cannot resolve its "
                   "logarithmic corrections, so the fitted exponent is "
                   "reported as data, not as a verdict"),
               "versions": _versions()}
        out.update(_power_fit_dict(self.fit, "threshold"))
        return out


def run_threshold_scan(spec: ExperimentSpec) -> ThresholdReport:
    """Bisect the amplitude where the full flow departs from the linear one.

    Per frequency: one linear reference run at a tiny amplitude gives the
    baseline density history (linear mode is exactly scale-free, so the
    reference rescales to any eps).  An amplitude classifies as nonlinear
    when the full run exceeds threshold_factor times the scaled reference
    anywhere above the classifier floor; each classifier run stops at its
    first such departure, so its drifts cover only the steps it took.  The
    departure amplitude is then
    log-bisected until hi/lo <= threshold_ratio_tol (about two significant
    digits at the default).  A cap verdict of linear marks the cell
    saturated; a classifier trace that is not monotone in eps is flagged
    rather than silently bisected.
    """
    cfg = spec.config
    d_eta = _D_ETA["threshold"]
    factor = cfg.threshold_factor
    cap = cfg.threshold_eps_cap
    rtol = cfg.threshold_ratio_tol
    eps_ref = 1e-8
    rows = []
    traces = []
    for nu in spec.nu_list:
        nu13 = nu ** (-1.0 / 3.0)
        eta_star = 1.2 * nu13
        t_hor = cfg.threshold_horizon * nu13
        grid = _window(d_eta, eta_star + t_hor + 12.0, 2)
        w = cfg.kernel_object(k_max=2)
        n_steps = int(math.ceil(t_hor / grid.dt))
        modes = (Mode(1, 1.0, eta_star, 1.0),)
        cols = [grid.k_index(1), grid.k_index(2)]

        f, _ = init_state(InitialData(eps=eps_ref, modes=modes), grid, w)
        ref = run_simulation(f, nu, w, n_steps, mode="linear")
        lin_unit = np.max(np.abs(ref.rho[:, cols]), axis=1) / eps_ref
        lin_peak_unit = float(np.max(lin_unit))
        drifts = [ref.max_mass_drift, ref.max_momentum_drift]
        trace = []

        def classify(eps_val: float) -> bool:
            g, _ = init_state(InitialData(eps=eps_val, modes=modes), grid, w)
            lin = lin_unit * eps_val
            floor = _CLASSIFIER_FLOOR * lin_peak_unit * eps_val
            hit = False

            def departed(state, _cons, i):
                nonlocal hit
                nl = np.max(np.abs(compute_moments(state, w).rho[cols]))
                hit = bool(nl > factor * lin[i] and nl >= floor)
                return hit

            dm, dp, _ = march(g, nu, w, n_steps, "full", departed)
            drifts[0] = max(drifts[0], dm)
            drifts[1] = max(drifts[1], dp)
            trace.append({"nu": nu, "eps": float(eps_val),
                          "verdict": "nonlinear" if hit else "linear"})
            return hit

        saturated = False
        degenerate = False
        eps_star = math.nan
        lo = math.nan
        hi = math.nan
        if not classify(cap):
            saturated = True
        else:
            hi = cap
            lo = cap / 6.0
            expansions = 0
            while classify(lo):
                hi = lo
                lo /= 3.0
                expansions += 1
                if expansions > 3:
                    degenerate = True
                    break
            if not degenerate:
                while hi / lo > rtol:
                    mid = math.sqrt(lo * hi)
                    if classify(mid):
                        hi = mid
                    else:
                        lo = mid
                eps_star = math.sqrt(lo * hi)
        lin_eps = [p["eps"] for p in trace if p["verdict"] == "linear"]
        nl_eps = [p["eps"] for p in trace if p["verdict"] == "nonlinear"]
        monotone = (not lin_eps or not nl_eps
                    or max(lin_eps) < min(nl_eps))
        rows.append({"nu": nu, "eps_star": eps_star,
                     "eps_star_2sig": float(f"{eps_star:.2g}")
                     if math.isfinite(eps_star) else math.nan,
                     "eps_lo": lo, "eps_hi": hi,
                     "saturated": saturated, "degenerate": degenerate,
                     "monotone": monotone, "n_classified": len(trace),
                     "mass_drift": drifts[0], "momentum_drift": drifts[1]})
        traces.extend(trace)
    fit = None
    usable = [r for r in rows
              if math.isfinite(r["eps_star"]) and not r["saturated"]]
    if len(usable) >= 3:
        fit = fit_power_law([r["nu"] for r in usable],
                            [r["eps_star"] for r in usable])
    report = ThresholdReport(rows=rows, trace=traces, fit=fit,
                             all_monotone=all(r["monotone"] for r in rows),
                             config_hash=config_hash(cfg))
    star_schema = ("nu", "eps_star", "eps_star_2sig", "eps_lo", "eps_hi",
                   "saturated", "degenerate", "monotone", "n_classified",
                   "mass_drift", "momentum_drift")
    trace_schema = ("nu", "eps", "verdict")
    _write_outputs(spec, report.summary(),
                   {"threshold_stars.csv": (rows, star_schema),
                    "threshold_trace.csv": (traces, trace_schema)})
    return report


# ---------------------------------------------------------------------------
# long-time relaxation toward the spatially uniform equilibrium

@dataclass
class ThermalizationReport:
    """Relaxation rates of one long run plus its conservation residuals."""

    nu: float
    eps: float
    heating_residual: float
    x_rate: float | None
    x_rate_over_nu: float | None
    k_rate: float | None
    k_rate_nu13: float | None
    identically_zero: bool
    max_mass_drift: float
    max_momentum_drift: float
    n_steps: int
    config_hash: str

    def summary(self) -> dict:
        return _flat_summary("thermalize", self)


def run_thermalize(spec: ExperimentSpec) -> ThermalizationReport:
    """One long run tracking how the perturbation relaxes.

    Two rates are measured: the x-averaged profile deviation decays at the
    collisional rate (fitted on the second half of the run, after the
    transfer from the oscillating modes has settled), while the x-dependent
    remainder dies on the cube-root time scale.  Kinetic plus field energy
    must stay put to rounding accumulation; a zero-amplitude datum must
    produce exactly zero deviation at every sample.
    """
    cfg = spec.config
    if cfg.nu_list:
        raise ConfigError("thermalize runs the single frequency `nu`; "
                          "`nu_list` is not read, leave it empty")
    nu = spec.nu_list[0]
    if abs(cfg.mode_k) > 2:
        raise DomainError("thermalize keeps modes |k| <= 2")
    d_eta = _D_ETA["thermalize"]
    nu13 = nu ** (-1.0 / 3.0)
    t_final = cfg.t_final if cfg.t_final > 0.0 else 1000.0
    # edge sizing: a mode-2 harmonic crosses the window in eta_max / 2 time
    # units while the state norm itself shrinks; balancing the two decays
    # gives a cube-root law with a floor at the probed default
    eta_edge = max(64.0, 8.0 * math.ceil((170.0 / nu) ** (1.0 / 3.0) / 8.0))
    grid = _window(d_eta, eta_edge, 2)
    w = cfg.kernel_object(k_max=2)
    n_steps = int(math.ceil(t_final / grid.dt))
    stride = 8
    datum = InitialData(eps=cfg.eps, modes=(
        Mode(cfg.mode_k, 1.0, cfg.mode_center, cfg.mode_width),))
    f, _ = init_state(datum, grid, w)
    i0 = grid.k_index(0)

    t_s = []
    f0_dev = []
    u0_abs = []
    t0_dev = []
    fneq = []
    kin = []
    fld = []

    def take(state, cons, i):
        if i % stride and i != n_steps:
            return
        m = compute_moments(state, w)
        iso = SpectralField.zeros(grid)
        iso.data[i0] = state.data[i0]
        t_s.append(state.time)
        f0_dev.append(norm_sobolev_moment(iso, s=cfg.norm_beta, q=cfg.norm_m))
        u0_abs.append(abs(complex(m.u[i0])))
        t0_dev.append(abs(complex(m.T[i0])))
        total = float(np.sum(np.abs(state.data) ** 2))
        row0 = float(np.sum(np.abs(state.data[i0]) ** 2))
        fneq.append(math.sqrt(max(total - row0, 0.0) * grid.d_eta))
        kin.append(cons.kinetic_energy)
        fld.append(cons.field_energy)

    max_dm, max_dp, _ = march(f, nu, w, n_steps, "full", take)

    t_arr = np.asarray(t_s)
    f0_arr = np.asarray(f0_dev)
    fneq_arr = np.asarray(fneq)
    total0 = kin[0] + fld[0]
    heating = abs((kin[-1] + fld[-1]) - total0) / abs(total0)
    identically_zero = bool(np.max(f0_arr) == 0.0
                            and np.max(fneq_arr) == 0.0)
    x_rate = x_over = k_rate = k_13 = None
    if not identically_zero:
        x_fit = fit_decay_rate(t_arr, f0_arr, (0.5 * t_final, t_final))
        x_rate = x_fit.rate
        x_over = x_fit.rate / nu
        k_fit = fit_decay_rate(t_arr, fneq_arr,
                               (1.5 * nu13, min(3.0 * nu13, t_final)))
        k_rate = k_fit.rate
        k_13 = k_fit.rate * nu13
    report = ThermalizationReport(
        nu=nu, eps=cfg.eps,
        heating_residual=heating,
        x_rate=x_rate, x_rate_over_nu=x_over,
        k_rate=k_rate, k_rate_nu13=k_13,
        identically_zero=identically_zero,
        max_mass_drift=max_dm, max_momentum_drift=max_dp,
        n_steps=n_steps,
        config_hash=config_hash(cfg))
    rows, schema = _series_csv({
        "t": t_arr, "f0_dev": f0_arr, "u0_abs": np.asarray(u0_abs),
        "t0_dev": np.asarray(t0_dev), "fneq": fneq_arr,
        "kinetic_energy": np.asarray(kin), "field_energy": np.asarray(fld)})
    _write_outputs(spec, report.summary(),
                   {"thermalize_series.csv": (rows, schema)})
    return report


# ---------------------------------------------------------------------------
# dispatch

_DISPATCH = {
    "dissipation": run_dissipation_scan,
    "landau": run_landau_linear,
    "echo": run_echo,
    "threshold": run_threshold_scan,
    "thermalize": run_thermalize,
}


def run_experiment(kind: str, config: RunConfig, out_dir: str = ""):
    """Resolve a spec from the config and run the named campaign."""
    spec = ExperimentSpec.from_config(kind, config, out_dir)
    return _DISPATCH[spec.kind](spec)


def rerun_from_manifest(manifest_path, out_dir: str = ""):
    """Repeat a recorded campaign from its manifest alone.

    The embedded canonical config re-parses to the original RunConfig, so a
    rerun into a fresh directory reproduces every CSV byte for byte.
    """
    doc = read_manifest(manifest_path)
    kind = doc["results"].get("experiment")
    if kind not in EXPERIMENT_KINDS:
        raise DomainError(f"manifest does not name a known experiment, "
                          f"got {kind!r}")
    config = parse_config(doc["config"])
    return run_experiment(kind, config, out_dir)
