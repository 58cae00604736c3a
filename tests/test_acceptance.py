"""Acceptance checklist: the ten headline guarantees, one test each.

Every test prints a single [PASS]/[FAIL] line with its measured figures
(visible under -s; the same text rides on the assertion message), so a
verbose run of this file reads as the release checklist.  Budgets are
wall-clock ceilings on one core.  These tests rerun the full-size
campaigns, so the module takes several minutes; the unit suites elsewhere
cover the same code at trimmed sizes.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from vpfp.experiments import run_experiment, rerun_from_manifest
from vpfp.grids import PhaseGrid, SpectralField
from vpfp.io_config import RunConfig, read_manifest
from vpfp.linear_theory import InteractionKernel
from vpfp.multiplier import check_propM
from vpfp.semigroup import (check_propS_bounds, eta_ct, s_density_exponent,
                            s_general_exponent)
from vpfp.solver import InitialData, Mode, init_state, ou_step, run_simulation


def _verdict(num: int, name: str, ok: bool, detail: str) -> str:
    line = f"[{'PASS' if ok else 'FAIL'}] {num:02d} {name}: {detail}"
    print(line)
    return line


@pytest.fixture(scope="module")
def landau_default():
    # shared by the cross-validation and rate criteria: one full run of the
    # default three-frequency linear campaign
    return run_experiment("landau", RunConfig())


def test_01_streaming_weight_closed_forms():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    n = 10_000

    # critical-trace identity: the general exponent evaluated on the moving
    # trace must reduce to the closed-form density weight
    nu = 10 ** rng.uniform(-5, -2, n)
    k = rng.integers(1, 5, n).astype(float)
    dt = rng.uniform(0.0, 5.0, n) * nu ** (-1.0 / 3.0)
    eta = np.array([eta_ct(float(d), float(kk), float(nn))
                    for d, kk, nn in zip(dt, k, nu)])
    got = s_general_exponent(dt, np.zeros(n), k, eta, nu)
    want = np.array([s_density_exponent(float(d), float(kk), float(nn))
                     for d, kk, nn in zip(dt, k, nu)])
    trace_err = float(np.max(np.abs(got - want)
                             / (np.abs(want) + 1e-2)))
    trace_ok = bool(np.all(np.abs(got - want)
                           <= 1e-12 * np.abs(want) + 1e-14))

    # two-time additivity of the exponent on an independent random grid
    nu2 = 10 ** rng.uniform(-5, -2, n)
    k2 = rng.integers(-4, 5, n).astype(float)
    eta2 = rng.normal(0.0, 10.0, n)
    t2 = rng.uniform(0.0, 5.0, n) * nu2 ** (-1.0 / 3.0)
    tau = t2 * rng.uniform(0.0, 1.0, n)
    tau2 = tau * rng.uniform(0.0, 1.0, n)
    whole = s_general_exponent(t2, tau2, k2, eta2, nu2)
    parts = (s_general_exponent(t2, tau, k2, eta2, nu2)
             + s_general_exponent(tau, tau2, k2, eta2, nu2))
    add_ok = bool(np.all(np.abs(whole - parts)
                         <= 1e-12 * np.abs(whole) + 1e-14))

    rep = check_propS_bounds()
    delta0 = rep.constants["delta0"]
    elapsed = time.perf_counter() - t0
    ok = (trace_ok and add_ok and rep.satisfied and delta0 > 0.0
          and elapsed < 60.0)
    detail = (f"trace identity {'holds' if trace_ok else 'BROKEN'} at 1e-12 "
              f"rel on {n} points (worst residual ratio {trace_err:.1e}), "
              f"additivity {'holds' if add_ok else 'BROKEN'} on {n} points, "
              f"delta0 = {delta0:.6g} > 0, "
              f"b = {rep.constants['b_constant']:.6g}, "
              f"{elapsed:.1f} s of 60 s")
    assert ok, _verdict(1, "streaming weight closed forms", ok, detail)
    _verdict(1, "streaming weight closed forms", ok, detail)


def test_02_multiplier_certificate():
    t0 = time.perf_counter()
    rep = check_propM()
    elapsed = time.perf_counter() - t0
    cons = rep.constants
    finite = all(np.isfinite(v) for v in cons.values())
    closed_ok = cons["k0_closed_form_err"] <= 1e-10
    floor_ok = cons["c_m"] >= 0.1
    ok = finite and closed_ok and floor_ok and elapsed < 300.0
    detail = (f"c_m = {cons['c_m']:.10f} against the 0.1 floor, "
              f"zero-mode closed-form error = "
              f"{cons['k0_closed_form_err']:.2e} (<= 1e-10), "
              f"all constants finite = {finite}, "
              f"b_min = {cons['b_min']:.6f}, "
              f"{elapsed:.1f} s of 300 s")
    assert ok, _verdict(2, "multiplier certificate", ok, detail)
    _verdict(2, "multiplier certificate", ok, detail)


def test_03_drift_diffusion_propagator():
    t0 = time.perf_counter()

    # Maxwellian-profile rows: per-step relative deviation over 20 steps
    g = PhaseGrid(k_max=2, eta_max=16.0, n_eta=256, dt=0.125)
    f = SpectralField.zeros(g)
    rng = np.random.default_rng(3)
    coeffs = rng.standard_normal(g.n_k) + 1j * rng.standard_normal(g.n_k)
    f.data = np.outer(coeffs, np.exp(-g.eta ** 2 / 2.0))
    scale = float(np.max(np.abs(f.data)))
    worst_inv = 0.0
    for _ in range(20):
        before = f.data.copy()
        ou_step(f, nu=0.3, dt=0.7)
        worst_inv = max(worst_inv,
                        float(np.max(np.abs(f.data - before))) / scale)

    # generic state: the closed form is pinned to a method-of-lines
    # integration at 1e-12 on a mid-size lattice, then the lattice step is
    # held to the closed form at 1e-8 on a fine one (resampling loses order
    # at extrema, hence the fine lattice)
    nu, dt = 0.1, 0.1

    def datum(eta):
        # both bumps must clear the window edge by well under 1e-12 or the
        # periodized FFT derivative rings at the leftover amplitude
        return (np.exp(-(eta - 2.0) ** 2 / 2.0)
                + 0.5 * np.exp(-(eta + 0.5) ** 2 / 3.0))

    def closed(eta):
        shrink = np.exp(-nu * dt)
        return datum(shrink * eta) * np.exp(
            0.5 * np.expm1(-2.0 * nu * dt) * eta ** 2)

    gm = PhaseGrid(k_max=1, eta_max=12.0, n_eta=2400, dt=0.01)
    om = 2.0 * np.pi * np.fft.fftfreq(gm.n_eta, d=gm.d_eta)

    def rhs(_t, y):
        dy = np.fft.ifft(1j * om * np.fft.fft(y)).real
        return nu * (-gm.eta ** 2 * y - gm.eta * dy)

    sol = solve_ivp(rhs, (0.0, dt), datum(gm.eta), rtol=1e-12, atol=1e-15,
                    t_eval=[dt], method="DOP853")
    mol_err = float(np.max(np.abs(sol.y[:, -1] - closed(gm.eta))))

    n_fine = 153_600
    gf = PhaseGrid(k_max=1, eta_max=12.0, n_eta=n_fine, dt=24.0 / n_fine)
    ff = SpectralField.zeros(gf)
    ff.data[gf.k_index(1)] = datum(gf.eta)
    ou_step(ff, nu, dt)
    step_err = float(np.max(np.abs(ff.data[gf.k_index(1)].real
                                   - closed(gf.eta))))

    # mass column: bit-identical through repeated steps
    fr = SpectralField.zeros(g)
    fr.data = ((rng.standard_normal(fr.data.shape)
                + 1j * rng.standard_normal(fr.data.shape))
               * np.exp(-g.eta ** 2 / 8.0)[None, :])
    col0 = fr.data[:, g.i_zero].copy()
    mass_exact = True
    for _ in range(10):
        ou_step(fr, nu=0.2, dt=0.5)
        mass_exact = mass_exact and bool(
            np.array_equal(fr.data[:, g.i_zero], col0))

    elapsed = time.perf_counter() - t0
    oracle_gap = step_err + mol_err
    ok = (worst_inv < 1e-12 and mol_err < 1e-12 and oracle_gap < 1e-8
          and mass_exact)
    detail = (f"Maxwellian rows move {worst_inv:.1e} per step (< 1e-12), "
              f"generic state within {oracle_gap:.1e} of the method-of-lines "
              f"oracle (< 1e-8; closed-form pin {mol_err:.1e}, lattice step "
              f"{step_err:.1e}), mass column bit-identical = {mass_exact}, "
              f"{elapsed:.1f} s")
    assert ok, _verdict(3, "drift-diffusion propagator", ok, detail)
    _verdict(3, "drift-diffusion propagator", ok, detail)


def test_04_conservation_long_run():
    t0 = time.perf_counter()
    grid = PhaseGrid(k_max=16, eta_max=128.0, n_eta=2048, dt=0.125)
    w = InteractionKernel.coulomb(16)
    nu, eps, t_final = 1e-3, 1e-4, 50.0
    f, _ = init_state(InitialData(eps=eps,
                                  modes=(Mode(1, 1.0, 0.0, 1.0),)), grid, w)
    n_steps = int(round(t_final / grid.dt))
    res = run_simulation(f, nu, w, n_steps, mode="full")
    total = res.kinetic_energy + res.field_energy
    energy_drift = float(np.max(np.abs(total - total[0]))) / abs(total[0])
    elapsed = time.perf_counter() - t0
    ok = (res.max_mass_drift < 1e-12 and res.max_momentum_drift < 1e-12
          and energy_drift < 1e-7 and elapsed <= 600.0)
    detail = (f"{n_steps} steps on {grid.n_k} x {grid.n_eta}: mass drift "
              f"{res.max_mass_drift:.1e}, momentum drift "
              f"{res.max_momentum_drift:.1e} (each < 1e-12 per step), "
              f"relative energy drift {energy_drift:.2e} (< 1e-7), "
              f"{elapsed:.0f} s of 600 s")
    assert ok, _verdict(4, "conservation long run", ok, detail)
    _verdict(4, "conservation long run", ok, detail)


def test_05_linear_route_cross_check(landau_default):
    rows = [r for r in landau_default.rows if r["nu"] in (1e-4, 1e-3)]
    worst = max(r["discrepancy"] for r in rows)
    ok = len(rows) == 2 and worst <= 0.05
    detail = (f"lattice vs density-equation sup-relative gap "
              f"{worst:.2e} over nu in {{1e-4, 1e-3}} (<= 0.05), "
              f"horizon 3 nu^(-1/3)")
    assert ok, _verdict(5, "linear route cross-check", ok, detail)
    _verdict(5, "linear route cross-check", ok, detail)


def test_06_dissipation_scaling():
    t0 = time.perf_counter()
    rep = run_experiment("dissipation", RunConfig())
    elapsed = time.perf_counter() - t0
    plane = rep.plane_fit
    nu_exp = rep.measured_nu_fit.exponent
    ok = (plane is not None
          and abs(nu_exp + 1.0 / 3.0) <= 0.05
          and abs(plane.exponent_nu + 1.0 / 3.0) <= 0.05
          and abs(plane.exponent_k + 2.0 / 3.0) <= 0.10
          and elapsed <= 1800.0)
    detail = (f"nu exponent {nu_exp:.4f} at k = 1 and "
              f"{plane.exponent_nu:.4f} +/- {plane.ci95_nu:.4f} jointly "
              f"(-1/3 +/- 0.05), k exponent {plane.exponent_k:.4f} +/- "
              f"{plane.ci95_k:.4f} (-2/3 +/- 0.1), surrogate ratio off by "
              f"{rep.max_ratio_error:.1e} at worst, {elapsed:.0f} s of 1800 s")
    assert ok, _verdict(6, "dissipation scaling", ok, detail)
    _verdict(6, "dissipation scaling", ok, detail)


def test_07_collisional_damping_rates(landau_default):
    rep = landau_default
    span = max(r["nu"] for r in rep.rows) / min(r["nu"] for r in rep.rows)
    env_worst = max(r["envelope_exponent"] for r in rep.rows)
    ok = (rep.all_positive and span >= 100.0
          and rep.stability_ratio <= 1.3 and env_worst <= -3.0)
    deltas = ", ".join(f"{r['delta_fit']:.3f}" for r in rep.rows)
    detail = (f"normalized rates [{deltas}] all positive, spread ratio "
              f"{rep.stability_ratio:.3f} (<= 1.3) across {span:.0f}x in nu, "
              f"Gaussian envelope exponent <= {env_worst:.1f} (<= -3)")
    assert ok, _verdict(7, "collisional damping rates", ok, detail)
    _verdict(7, "collisional damping rates", ok, detail)


def test_08_echo_suppression():
    rep = run_experiment("echo", RunConfig())
    all_found = all(r["found"] for r in rep.rows)
    ok = (all_found and rep.monotone_amp
          and rep.collisionless_deviation <= 0.10)
    amps = ", ".join(f"{r['peak_amp']:.3e}" for r in rep.rows)
    detail = (f"peaks found at all {len(rep.rows)} frequencies, amplitudes "
              f"[{amps}] nonincreasing = {rep.monotone_amp} (strict = "
              f"{rep.strictly_decreasing}), most-collisionless peak time off "
              f"the un-mixing prediction by "
              f"{rep.collisionless_deviation:.1%} (<= 10%)")
    assert ok, _verdict(8, "echo suppression", ok, detail)
    _verdict(8, "echo suppression", ok, detail)


def test_09_threshold_report(tmp_path):
    out = tmp_path / "threshold"
    rep = run_experiment("threshold", RunConfig(), str(out))
    doc = read_manifest(out / "manifest.json")
    exponent = doc["results"].get("threshold_exponent")
    ci = doc["results"].get("threshold_ci95")
    nus = [r["nu"] for r in rep.rows]
    decades = math.log10(max(nus) / min(nus))
    recorded = (isinstance(exponent, float) and math.isfinite(exponent)
                and isinstance(ci, float) and math.isfinite(ci))
    ok = rep.all_monotone and decades >= 2.0 and recorded
    detail = (f"classifier trace monotone at every frequency = "
              f"{rep.all_monotone}, span {decades:.1f} decades (>= 2), "
              f"fitted exponent {exponent} +/- {ci} recorded in the manifest "
              f"(report only; no tolerance asserted)")
    assert ok, _verdict(9, "threshold report", ok, detail)
    _verdict(9, "threshold report", ok, detail)


def test_10_manifest_determinism(tmp_path):
    cfg = RunConfig(nu_list=(1e-3,), t_final=10.0, echo_eta_star=4.0)
    first = tmp_path / "first"
    second = tmp_path / "second"
    run_experiment("echo", cfg, str(first))
    rerun_from_manifest(first / "manifest.json", str(second))
    names = sorted(p.name for p in first.glob("*.csv"))
    same_names = names == sorted(p.name for p in second.glob("*.csv"))
    same_bytes = all((first / n).read_bytes() == (second / n).read_bytes()
                     for n in names)
    same_summary = ((first / "summary.json").read_bytes()
                    == (second / "summary.json").read_bytes())
    ok = bool(names) and same_names and same_bytes and same_summary
    detail = (f"rerun from the manifest alone reproduced {len(names)} CSV "
              f"files byte for byte = {same_bytes} (and the summary too = "
              f"{same_summary})")
    assert ok, _verdict(10, "manifest determinism", ok, detail)
    _verdict(10, "manifest determinism", ok, detail)
