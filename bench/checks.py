"""Correctness checks on a repetition's outputs, run outside the timed region.

Every check compares against a separate computation or a property of the
method, never against stored output.  Each check function returns a list of
failure messages; an empty list means the outputs are correct.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from pathlib import Path

import numpy as np
from scipy import integrate

from workloads import WE_GRID


def digests(out_dir: Path) -> dict:
    """SHA-256 of every output file, by path relative to out_dir."""
    return {str(p.relative_to(out_dir)):
            hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


def _rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _slope(x, y) -> float:
    """Least-squares slope of y on x, written out."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xc = x - x.mean()
    return float(np.sum(xc * (y - y.mean())) / np.sum(xc * xc))


def check_echo(out: Path, config, seed: int) -> list[str]:
    bad = []
    rows = sorted(_rows(out / "echo_peaks.csv"), key=lambda r: float(r["nu"]))
    if not all(r["found"] == "true" for r in rows):
        bad.append("echo: no peak found at some nu")
        return bad
    amps = [float(r["peak_amp"]) for r in rows]
    if any(a < b for a, b in zip(amps, amps[1:])):
        bad.append(f"echo: peak amplitude grows with nu: {amps}")
    # k = 1 characteristic reaches eta*: (1 - e^(-nu t)) / nu = eta*
    nu = float(rows[0]["nu"])
    eta_star = config.echo_eta_star
    t_star = -math.log1p(-nu * eta_star) / nu
    peak = float(rows[0]["peak_time"])
    if abs(peak - t_star) > 0.10 * t_star:
        bad.append(f"echo: nu = {nu:g} peak at t = {peak} is not within 10% "
                   f"of the characteristic time {t_star:.6g}")
    for r in rows:
        for col in ("mass_drift", "momentum_drift"):
            if not abs(float(r[col])) < 1e-12:
                bad.append(f"echo: nu = {r['nu']} {col} = {r[col]} per step")
    return bad


def _threshold_cell(config, nu: float):
    """The campaign's lattice and step count for one nu (5 x 584, 216 steps
    at nu = 1e-4): spacing 0.5, bump at 1.2 nu^(-1/3), horizon
    threshold_horizon nu^(-1/3), 12 units of margin."""
    from vpfp.grids import PhaseGrid

    nu13 = nu ** (-1.0 / 3.0)
    t_hor = config.threshold_horizon * nu13
    eta_star = 1.2 * nu13
    half = max(math.ceil((eta_star + t_hor + 12.0) / 0.5), 8)
    grid = PhaseGrid(k_max=2, eta_max=half * 0.5, n_eta=2 * half, dt=0.5)
    return grid, eta_star, math.ceil(t_hor / 0.5)


def check_threshold(out: Path, config, seed: int) -> list[str]:
    from vpfp.solver import InitialData, Mode, init_state, run_simulation

    bad = []
    trace = _rows(out / "threshold_trace.csv")
    lin = [float(p["eps"]) for p in trace if p["verdict"] == "linear"]
    nl = [float(p["eps"]) for p in trace if p["verdict"] == "nonlinear"]
    if lin and nl and not max(lin) < min(nl):
        bad.append("threshold: classifier trace is not monotone in eps")
    for r in _rows(out / "threshold_stars.csv"):
        if r["saturated"] == "true" or r["degenerate"] == "true":
            bad.append(f"threshold: nu = {r['nu']} cell saturated or "
                       "degenerate")
            continue
        lo, hi = float(r["eps_lo"]), float(r["eps_hi"])
        if not (0.0 < lo < hi and hi / lo <= config.threshold_ratio_tol):
            bad.append(f"threshold: bracket [{lo}, {hi}] wider than "
                       f"{config.threshold_ratio_tol}")
        for col in ("mass_drift", "momentum_drift"):
            if not abs(float(r[col])) < 1e-12:
                bad.append(f"threshold: {col} = {r[col]}")
        # linear mode is scale-free: twice the reference amplitude (1e-8)
        # must give twice the density
        nu = float(r["nu"])
        grid, eta_star, n_steps = _threshold_cell(config, nu)
        w = config.kernel_object(k_max=2)
        rho = []
        for eps in (1e-8, 2e-8):
            f, _ = init_state(InitialData(eps=eps, modes=(
                Mode(1, 1.0, eta_star, 1.0),)), grid, w)
            rho.append(run_simulation(f, nu, w, n_steps, mode="linear").rho)
        err = float(np.max(np.abs(rho[1] - 2.0 * rho[0])))
        scale = float(np.max(np.abs(2.0 * rho[0])))
        if not err <= 1e-12 * scale:
            bad.append(f"threshold: linear mode is not scale-free, "
                       f"relative error {err / scale:.3e}")
    return bad


def check_landau(out: Path, config, seed: int) -> list[str]:
    bad = []
    rows = _rows(out / "rates.csv")
    deltas = []
    for i, r in enumerate(rows):
        nu = float(r["nu"])
        nu13 = nu ** (-1.0 / 3.0)
        series = _rows(out / f"landau_series_{i:02d}.csv")
        t = np.array([float(s["t"]) for s in series])
        solver = np.array([float(s["rho_solver_abs"]) for s in series])
        volterra = np.array([float(s["rho_volterra_abs"]) for s in series])
        slow = np.array([float(s["slow_premultiplied"]) for s in series])
        disc = float(np.max(np.abs(solver - volterra)) / np.max(volterra))
        if nu in (1e-4, 1e-3) and not disc <= 0.05:
            bad.append(f"landau: nu = {nu:g} routes differ by {disc:.2%}")
        win = (t >= 1.5 * nu13) & (t <= 3.0 * nu13)
        delta = -_slope(t[win], np.log(slow[win])) * nu13
        deltas.append(delta)
        if not abs(delta - float(r["delta_fit"])) <= 1e-6 * abs(delta):
            bad.append(f"landau: nu = {nu:g} delta {r['delta_fit']} against "
                       f"{delta:.10g} refitted")
        env = (t >= 2.0) & (volterra >= 1e-140)
        expo = _slope(np.log(t[env]), np.log(volterra[env]))
        if not expo <= -3.0:
            bad.append(f"landau: nu = {nu:g} envelope exponent {expo:.3g} "
                       "> -3")
    if not all(d > 0.0 for d in deltas):
        bad.append(f"landau: a normalized rate is not positive: {deltas}")
    elif max(deltas) / min(deltas) > 1.3:
        bad.append(f"landau: normalized rates spread "
                   f"{max(deltas) / min(deltas):.3f} > 1.3: {deltas}")
    return bad


def _ladder_at_zero(h: np.ndarray, grid, spec) -> float:
    """The t = 0 weighted ladder: M = 1, so A = <k, eta>^s, with eta
    derivatives taken through an explicit DFT matrix."""
    n = grid.n_eta
    j = np.arange(n)
    dft = np.exp(-2j * np.pi * np.outer(j, j) / n)
    omega = 2.0 * np.pi * np.where(j < n // 2, j, j - n) / (n * grid.d_eta)
    weight = (1.0 + grid.k_values[:, None] ** 2.0 + grid.eta[None, :] ** 2) \
        ** (spec.s / 2.0)
    spectrum = h @ dft
    total = 0.0
    for alpha in range(spec.m + 1):
        deriv = (spectrum * (-omega) ** alpha) @ np.conj(dft) / n
        total += 4.0 ** -alpha * float(np.sum(np.abs(weight * deriv) ** 2)) \
            * grid.d_eta
    return math.sqrt(total)


def _m_by_quad(t: float, k: int, eta: float, nu: float) -> float:
    """M(t, k, eta) from its definition, integrated by scipy's quad:
    exp(-int_0^t nu^(1/3) / (1 + nu^(2/3) bar_eta(s)^2) ds) with
    bar_eta(s) = e^(nu s) eta - k (e^(nu s) - 1) / nu."""
    def integrand(s):
        bar = math.exp(nu * s) * eta - k * math.expm1(nu * s) / nu
        return nu ** (1.0 / 3.0) / (1.0 + nu ** (2.0 / 3.0) * bar * bar)

    ratio = k / (k - nu * eta)          # e^(nu s) where bar_eta(s) = 0
    points = None
    if ratio > 0.0 and 0.0 < math.log(ratio) / nu < t:
        points = [math.log(ratio) / nu]
    val, _ = integrate.quad(integrand, 0.0, t, points=points, epsabs=0.0,
                            epsrel=1e-13, limit=500)
    return math.exp(-val)


def check_weighted_energy(out: Path, config, seed: int) -> list[str]:
    from vpfp.grids import PhaseGrid
    from vpfp.multiplier import m_eval_grid
    from vpfp.solver import InitialData, Mode, init_state

    bad = []
    rows = json.loads((out / "samples.json").read_text(encoding="utf-8"))
    nu = config.nu
    grid = PhaseGrid(**WE_GRID)
    spec = config.norm_spec()
    for r in rows:
        if not (math.isfinite(r["norm_f"]) and r["norm_f"] > 0.0
                and math.isfinite(r["norm_d"]) and r["norm_d"] > 0.0):
            bad.append(f"weighted_energy: t = {r['t']} norms {r['norm_f']}, "
                       f"{r['norm_d']} not finite and positive")
    h0, _ = init_state(InitialData(eps=config.eps, modes=(
        Mode(config.mode_k, 1.0, config.mode_center, config.mode_width),)),
        grid, config.kernel_object(k_max=WE_GRID["k_max"]))
    ladder = _ladder_at_zero(h0.data, grid, spec)
    if rows[0]["t"] != 0.0 or not (
            abs(rows[0]["norm_f"] - ladder) <= 1e-10 * ladder):
        bad.append(f"weighted_energy: norm_f(0) = {rows[0]['norm_f']!r} "
                   f"against the ladder {ladder!r}")
    rng = random.Random(f"spot:{seed}")
    k_rows = grid.k_values[grid.k_values != 0].astype(float)
    for r in rows[1:]:
        t = r["t"]
        m = m_eval_grid(t, k_rows[:, None], grid.eta[None, :], nu)
        if not (np.all(m > 0.0) and np.all(m <= 1.0)):
            bad.append(f"weighted_energy: M outside (0, 1] at t = {t}")
        for _ in range(4):
            k = rng.choice((-2, -1, 1, 2))
            eta = float(grid.eta[rng.randrange(grid.n_eta)])
            ref = _m_by_quad(t, k, eta, nu)
            got = float(m_eval_grid(t, float(k), eta, nu))
            if not abs(got - ref) <= 1e-8 * ref:
                bad.append(f"weighted_energy: M({t}, {k}, {eta}) = {got!r} "
                           f"against quad {ref!r}")
    return bad


CHECKS = {
    "echo": check_echo,
    "threshold_nu1e-4": check_threshold,
    "landau": check_landau,
    "weighted_energy": check_weighted_energy,
}
