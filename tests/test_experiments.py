"""Scan driver checks at reduced sizes.

The fit helpers are validated on synthetic exact power laws.  Each driver
then runs a trimmed frequency list and is held to value bands frozen from
reference runs at the driver's own spacing; the bands absorb rounding noise
but not regressions in the windows, the detectors, or the fits.  The
thermalization run is the one full-length cell here because its rate fit
needs the settled second half of the series.
"""

import json
import math

import numpy as np
import pytest

from csv_reader import read_csv
from vpfp import experiments, solver
from vpfp.errors import AliasingError, ConfigError, DomainError, HorizonError
from vpfp.experiments import (
    _CLASSIFIER_FLOOR,
    _D_ETA,
    EXPERIMENT_KINDS,
    ExperimentSpec,
    _measured_half_life,
    _window,
    fit_power_law,
    fit_power_plane,
    rerun_from_manifest,
    run_dissipation_scan,
    run_echo,
    run_experiment,
    run_landau_linear,
    run_thermalize,
    run_threshold_scan,
    surrogate_half_life,
)
from vpfp.io_config import (RunConfig, config_hash, parse_config,
                            read_manifest)
from vpfp.semigroup import eta_ct, s_density_exponent
from vpfp.solver import InitialData, Mode, init_state, run_simulation

LN2 = math.log(2.0)


class TestFitHelpers:
    def test_exact_power_law_recovered(self):
        x = np.geomspace(1e-6, 1e-2, 9)
        y = 3.0 * x ** (-2.0 / 3.0)
        fit = fit_power_law(x, y)
        assert abs(fit.exponent + 2.0 / 3.0) < 1e-12
        assert abs(fit.prefactor - 3.0) < 1e-10
        assert fit.ci95 < 1e-10
        assert fit.residual_rms < 1e-12

    def test_noisy_fit_brackets_truth(self):
        rng = np.random.default_rng(7)
        x = np.geomspace(1e-5, 1e-1, 25)
        y = 0.7 * x ** 1.5 * np.exp(rng.normal(0.0, 0.05, x.size))
        fit = fit_power_law(x, y)
        assert abs(fit.exponent - 1.5) < fit.ci95
        assert fit.n == 25

    def test_rejects_tiny_or_nonpositive_input(self):
        with pytest.raises(DomainError):
            fit_power_law([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(DomainError):
            fit_power_law([1.0, 2.0, 3.0], [1.0, -2.0, 3.0])

    def test_plane_fit_recovers_two_exponents(self):
        nu = []
        k = []
        t = []
        for kk in (1, 2, 4):
            for nn in (1e-6, 1e-5, 1e-4):
                nu.append(nn)
                k.append(kk)
                t.append(2.0 * nn ** (-1.0 / 3.0) * kk ** (-2.0 / 3.0))
        fit = fit_power_plane(t, nu, k)
        assert abs(fit.exponent_nu + 1.0 / 3.0) < 1e-12
        assert abs(fit.exponent_k + 2.0 / 3.0) < 1e-12
        assert abs(fit.prefactor - 2.0) < 1e-10

    def test_plane_fit_needs_two_sided_scan(self):
        with pytest.raises(DomainError):
            fit_power_plane([1.0, 2.0, 3.0, 4.0],
                            [1e-5, 1e-4, 1e-3, 1e-2],
                            [1, 1, 1, 1])


class TestExperimentSpec:
    def test_defaults_filled_per_kind(self):
        cfg = RunConfig()
        for kind in EXPERIMENT_KINDS:
            spec = ExperimentSpec.from_config(kind, cfg)
            assert spec.kind == kind
            assert len(spec.nu_list) >= 1
            assert list(spec.nu_list) == sorted(spec.nu_list)
        assert ExperimentSpec.from_config("landau", cfg).nu_list == \
            (1e-5, 1e-4, 1e-3)
        assert ExperimentSpec.from_config("thermalize", cfg).nu_list == \
            (cfg.nu,)

    def test_explicit_list_sorted_and_deduplicated(self):
        cfg = RunConfig(nu_list=(1e-3, 1e-5, 1e-3))
        spec = ExperimentSpec.from_config("echo", cfg)
        assert spec.nu_list == (1e-5, 1e-3)

    def test_rejects_unknown_kind(self):
        with pytest.raises(DomainError):
            ExperimentSpec.from_config("resonance", RunConfig())

    def test_rejects_bad_frequencies(self):
        with pytest.raises(DomainError):
            ExperimentSpec(kind="echo", config=RunConfig(), nu_list=())
        with pytest.raises(DomainError):
            ExperimentSpec(kind="echo", config=RunConfig(),
                           nu_list=(1e-3, -1e-4))
        # echo reads its verdicts off an ascending sweep
        for nus in ((1e-3, 1e-9), (1e-3, 1e-3)):
            with pytest.raises(DomainError, match="strictly increasing"):
                ExperimentSpec(kind="echo", config=RunConfig(), nu_list=nus)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_frequencies(self, bad):
        with pytest.raises(DomainError, match="finite"):
            ExperimentSpec(kind="echo", config=RunConfig(),
                           nu_list=(1e-3, bad))


class TestSurrogateHalfLife:
    def test_solves_the_defining_equation(self):
        for k, nu in ((1, 1e-3), (2, 1e-5), (4, 1e-6)):
            ts = surrogate_half_life(k, nu)
            assert abs(s_density_exponent(ts, k, nu) + LN2) < 1e-10

    def test_cube_root_scaling_in_nu(self):
        # suppression is collisional, so the half life grows like nu^(-1/3)
        t1 = surrogate_half_life(1, 1e-6)
        t2 = surrogate_half_life(1, 1e-3)
        assert abs(math.log(t1 / t2) / math.log(10.0) - 1.0) < 0.02

    def test_rejects_degenerate_cells(self):
        with pytest.raises(DomainError):
            surrogate_half_life(0, 1e-3)
        with pytest.raises(DomainError):
            surrogate_half_life(1, 0.0)


@pytest.fixture(scope="module")
def dissipation_report():
    cfg = RunConfig(nu_list=(1e-5, 1e-4, 1e-3), k_list=(1, 2))
    return run_dissipation_scan(ExperimentSpec.from_config(
        "dissipation", cfg))


class TestDissipationScan:

    def test_solver_matches_surrogate(self, dissipation_report):
        # reference runs put the worst cell at 3.2e-4 relative
        assert dissipation_report.max_ratio_error < 5e-3
        assert len(dissipation_report.cells) == 6

    def test_nu_exponent_near_minus_third(self, dissipation_report):
        assert abs(dissipation_report.surrogate_nu_fit.exponent + 1.0 / 3.0) < 0.02
        assert abs(dissipation_report.measured_nu_fit.exponent + 1.0 / 3.0) < 0.02

    def test_plane_fit_exponents(self, dissipation_report):
        plane = dissipation_report.plane_fit
        assert plane is not None
        assert abs(plane.exponent_nu + 1.0 / 3.0) < 0.03
        assert abs(plane.exponent_k + 2.0 / 3.0) < 0.05

    def test_free_flow_conserves_mass(self, dissipation_report):
        for cell in dissipation_report.cells:
            assert cell["mass_drift"] == 0.0
            assert abs(cell["momentum_drift"]) < 1e-15

    def test_single_k_scan_skips_plane_fit(self):
        cfg = RunConfig(nu_list=(1e-4, 5e-4, 1e-3), k_list=(1,))
        rep = run_dissipation_scan(ExperimentSpec.from_config(
            "dissipation", cfg))
        assert rep.plane_fit is None
        assert rep.max_ratio_error < 5e-3

    def test_unreachable_crossing_names_the_cell(self):
        w = RunConfig().kernel_object(k_max=1)
        # a deliberately small surrogate caps the march before the true
        # crossing at t ~ 12.8
        with pytest.raises(HorizonError, match=r"k = 1, nu = 0.001"):
            _measured_half_life(1, 1e-3, 1.0, 0.25, w)

    def test_window_escape_converts_to_horizon_error(self):
        w = RunConfig().kernel_object(k_max=2)
        # true half life at this cell is ~ 80, so the sized window is
        # outrun by the sliding content before any crossing; the free flow's
        # dropped-amplitude guard is what stops the march
        with pytest.raises(HorizonError, match=r"k = 2, nu = 1e-06") as exc:
            _measured_half_life(2, 1e-6, 30.0, 0.25, w)
        assert isinstance(exc.value.__cause__, AliasingError)
        assert "dropped amplitude" in str(exc.value.__cause__)


@pytest.fixture(scope="module")
def landau_report():
    cfg = RunConfig(nu_list=(1e-4, 1e-3))
    return run_landau_linear(ExperimentSpec.from_config("landau", cfg))


class TestLandau:

    def test_routes_agree(self, landau_report):
        # reference runs sit at 2e-5 sup-relative
        assert landau_report.max_discrepancy < 0.05

    def test_rate_constant_positive_and_stable(self, landau_report):
        assert landau_report.all_positive
        assert landau_report.stability_ratio < 1.3
        for row in landau_report.rows:
            assert 4.0 < row["delta_fit"] < 6.5

    def test_gaussian_envelope_is_steep(self, landau_report):
        for row in landau_report.rows:
            assert row["envelope_exponent"] <= -3.0

    def test_conservation_in_linear_runs(self, landau_report):
        for row in landau_report.rows:
            assert row["mass_drift"] == 0.0
            assert abs(row["momentum_drift"]) < 1e-15

    def test_rejects_zero_amplitude(self):
        cfg = RunConfig(eps=0.0, nu_list=(1e-3,))
        with pytest.raises(DomainError):
            run_landau_linear(ExperimentSpec.from_config("landau", cfg))

    def test_one_entry_custom_kernel_covers_the_band(self, landau_report):
        # landau runs on k = 1 alone, and w(1) = 1 is the coulomb weight
        cfg = parse_config("kernel = custom\nkernel_table = 1.0\n"
                           "nu_list = 0.001\n")
        rep = run_landau_linear(ExperimentSpec.from_config("landau", cfg))
        assert rep.rows == [r for r in landau_report.rows if r["nu"] == 1e-3]


@pytest.fixture(scope="module")
def echo_report():
    cfg = RunConfig(nu_list=(1e-6, 1e-3))
    return run_echo(ExperimentSpec.from_config("echo", cfg))


class TestEcho:

    def test_peaks_found_near_prediction(self, echo_report):
        for row in echo_report.rows:
            assert row["found"]
            assert row["verdict"] == "echo"
            assert row["relative_deviation"] < 0.10

    def test_peak_values_frozen(self, echo_report):
        near, coll = echo_report.rows[0], echo_report.rows[1]
        assert near["nu"] == 1e-6 and coll["nu"] == 1e-3
        # reference amplitudes 3.511608e-2 and 1.815708e-2
        assert abs(near["peak_amp"] - 3.511608e-2) < 3e-5
        assert abs(coll["peak_amp"] - 1.815708e-2) < 3e-5
        assert abs(near["peak_time"] - 12.75) < 1e-9
        assert abs(coll["peak_time"] - 12.5) < 1e-9

    def test_collisions_suppress_the_echo(self, echo_report):
        assert echo_report.monotone_amp
        assert echo_report.strictly_decreasing
        assert echo_report.collisionless_deviation < 0.10

    @pytest.mark.parametrize(
        "nu", [float(v) for v in np.geomspace(1e-9, 3e-2, 15)])
    def test_predicted_time_closed_form(self, nu):
        # every seed offset from 4 to 128; the k = 1 characteristic never
        # reaches eta_star when nu * eta_star >= 1
        for j in range(4, 15):
            eta_star = 2.0 ** (j / 2)
            t_pred = predicted_echo_time(nu, eta_star)
            if nu * eta_star >= 1.0:
                assert math.isnan(t_pred)
            else:
                assert t_pred == -math.log1p(-nu * eta_star) / nu
                assert abs(eta_ct(t_pred, 1, nu) / eta_star - 1.0) < 1e-13

    def test_predicted_time_near_the_reach_limit(self):
        # nu * eta_star = 0.999: the crossing comes at 6.9 eta_star, past
        # the [1e-9, 6 eta_star] bracket a root search used to take
        t_pred = predicted_echo_time(0.0999, 10.0)
        assert 6.0 * 10.0 < t_pred < math.inf
        assert abs(eta_ct(t_pred, 1, 0.0999) / 10.0 - 1.0) < 1e-13

    def test_out_of_reach_seed_reports_no_echo(self):
        cfg = RunConfig(nu_list=(1e-3,), echo_eta_star=40.0, t_final=10.0)
        rep = run_echo(ExperimentSpec.from_config("echo", cfg))
        row = rep.rows[0]
        assert not row["found"]
        assert row["verdict"] == "no echo"
        assert math.isnan(row["peak_amp"])
        assert not rep.monotone_amp

    def test_custom_kernel_shorter_than_band_rejected(self):
        # pump_k = 3 couples modes up to |k| = 6; four weights do not cover it
        cfg = parse_config("kernel = custom\nkernel_table = 1, 0.25, 0.1, 0.05\n"
                           "echo_pump_k = 3\nnu_list = 0.001\nt_final = 4\n")
        with pytest.raises(ConfigError, match="`kernel_table` has 4 entries"):
            run_echo(ExperimentSpec.from_config("echo", cfg))


def predicted_echo_time(nu, eta_star):
    """predicted_time of a one-step echo run with this seed offset."""
    cfg = RunConfig(nu_list=(nu,), echo_eta_star=eta_star, t_final=0.25)
    return run_echo(ExperimentSpec.from_config("echo", cfg)).rows[0][
        "predicted_time"]


THRESHOLD_CFG = RunConfig(nu_list=(1e-4,), threshold_ratio_tol=1.3)


@pytest.fixture(scope="module")
def threshold_run():
    """The scan, with the steps each classifier march took counted: a list
    of (n_steps asked, steps taken) in trace order."""
    marches = []
    taken = [0]
    real_step, real_march = solver.step, experiments.march

    def counted_step(*args, **kwargs):
        taken[0] += 1
        return real_step(*args, **kwargs)

    def recorded_march(field, nu, w, n_steps, mode, observe):
        taken[0] = 0
        out = real_march(field, nu, w, n_steps, mode, observe)
        marches.append((n_steps, taken[0]))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "step", counted_step)
        mp.setattr(experiments, "march", recorded_march)
        report = run_threshold_scan(ExperimentSpec.from_config(
            "threshold", THRESHOLD_CFG))
    return report, marches


@pytest.fixture(scope="module")
def threshold_report(threshold_run):
    return threshold_run[0]


def reference_threshold_scan(cfg):
    """The scan with the classifier on run_simulation: every run marches the
    whole horizon and is nonlinear when any state departs.  Returns rows,
    trace and the index of each run's first departing state (None when
    none departs)."""
    rows, traces, first_hits = [], [], []
    for nu in cfg.nu_list:
        nu13 = nu ** (-1.0 / 3.0)
        eta_star = 1.2 * nu13
        t_hor = cfg.threshold_horizon * nu13
        grid = _window(_D_ETA["threshold"], eta_star + t_hor + 12.0, 2)
        w = cfg.kernel_object(k_max=2)
        n_steps = int(math.ceil(t_hor / grid.dt))
        modes = (Mode(1, 1.0, eta_star, 1.0),)
        cols = [grid.k_index(1), grid.k_index(2)]
        f, _ = init_state(InitialData(eps=1e-8, modes=modes), grid, w)
        ref = run_simulation(f, nu, w, n_steps, mode="linear")
        lin_unit = np.max(np.abs(ref.rho[:, cols]), axis=1) / 1e-8
        drifts = [ref.max_mass_drift, ref.max_momentum_drift]
        trace = []

        def classify(eps):
            g, _ = init_state(InitialData(eps=eps, modes=modes), grid, w)
            r = run_simulation(g, nu, w, n_steps, mode="full")
            drifts[0] = max(drifts[0], r.max_mass_drift)
            drifts[1] = max(drifts[1], r.max_momentum_drift)
            nl = np.max(np.abs(r.rho[:, cols]), axis=1)
            floor = _CLASSIFIER_FLOOR * float(np.max(lin_unit)) * eps
            departs = (nl > cfg.threshold_factor * lin_unit * eps) & (nl >= floor)
            hit = bool(np.any(departs))
            first_hits.append(int(np.argmax(departs)) if hit else None)
            trace.append({"nu": nu, "eps": float(eps),
                          "verdict": "nonlinear" if hit else "linear"})
            return hit

        saturated = degenerate = False
        eps_star = lo = hi = math.nan
        if not classify(cfg.threshold_eps_cap):
            saturated = True
        else:
            hi, lo = cfg.threshold_eps_cap, cfg.threshold_eps_cap / 6.0
            expansions = 0
            while classify(lo):
                hi, lo = lo, lo / 3.0
                expansions += 1
                if expansions > 3:
                    degenerate = True
                    break
            if not degenerate:
                while hi / lo > cfg.threshold_ratio_tol:
                    mid = math.sqrt(lo * hi)
                    if classify(mid):
                        hi = mid
                    else:
                        lo = mid
                eps_star = math.sqrt(lo * hi)
        lin_eps = [p["eps"] for p in trace if p["verdict"] == "linear"]
        nl_eps = [p["eps"] for p in trace if p["verdict"] == "nonlinear"]
        rows.append({"nu": nu, "eps_star": eps_star,
                     "eps_star_2sig": float(f"{eps_star:.2g}")
                     if math.isfinite(eps_star) else math.nan,
                     "eps_lo": lo, "eps_hi": hi,
                     "saturated": saturated, "degenerate": degenerate,
                     "monotone": (not lin_eps or not nl_eps
                                  or max(lin_eps) < min(nl_eps)),
                     "n_classified": len(trace),
                     "mass_drift": drifts[0], "momentum_drift": drifts[1]})
        traces.extend(trace)
    return rows, traces, first_hits


class TestThreshold:

    def test_runs_stop_at_their_first_departure(self, threshold_run):
        report, marches = threshold_run
        rows, trace, first_hits = reference_threshold_scan(THRESHOLD_CFG)
        assert report.rows == rows
        assert report.trace == trace
        assert len(marches) == len(first_hits) == len(trace)
        verdicts = {p["verdict"] for p in trace}
        assert verdicts == {"linear", "nonlinear"}
        for (n_steps, taken), first, p in zip(marches, first_hits, trace):
            if p["verdict"] == "nonlinear":
                assert taken == first < n_steps
            else:
                assert first is None and taken == n_steps

    def test_departure_amplitude_bracketed(self, threshold_report):
        row = threshold_report.rows[0]
        assert not row["saturated"] and not row["degenerate"]
        assert 0.15 < row["eps_star"] < 0.30
        assert row["eps_hi"] / row["eps_lo"] <= 1.3 + 1e-12
        assert row["eps_lo"] <= row["eps_star"] <= row["eps_hi"]

    def test_trace_is_monotone(self, threshold_report):
        assert threshold_report.all_monotone
        lin = [p["eps"] for p in threshold_report.trace if p["verdict"] == "linear"]
        non = [p["eps"] for p in threshold_report.trace if p["verdict"] == "nonlinear"]
        assert lin and non
        assert max(lin) < min(non)
        assert threshold_report.rows[0]["n_classified"] == len(threshold_report.trace)

    def test_fit_needs_three_cells(self, threshold_report):
        assert threshold_report.fit is None

    def test_low_cap_flags_saturation(self):
        cfg = RunConfig(nu_list=(1e-4,), threshold_eps_cap=0.05)
        rep = run_threshold_scan(ExperimentSpec.from_config(
            "threshold", cfg))
        row = rep.rows[0]
        assert row["saturated"]
        assert math.isnan(row["eps_star"])
        assert row["n_classified"] == 1


@pytest.fixture(scope="module")
def thermalize_report():
    cfg = RunConfig(eps=1e-3)
    return run_thermalize(ExperimentSpec.from_config("thermalize", cfg))


class TestThermalize:

    def test_no_net_heating(self, thermalize_report):
        assert thermalize_report.heating_residual < 1e-7

    def test_x_averaged_rate_tracks_nu(self, thermalize_report):
        assert thermalize_report.x_rate is not None
        assert 0.5 <= thermalize_report.x_rate_over_nu <= 2.0

    def test_x_dependent_rate_on_cube_root_scale(self, thermalize_report):
        assert 3.0 <= thermalize_report.k_rate_nu13 <= 8.0

    def test_exact_conservation(self, thermalize_report):
        assert thermalize_report.max_mass_drift == 0.0
        assert abs(thermalize_report.max_momentum_drift) < 1e-15
        assert not thermalize_report.identically_zero

    def test_zero_amplitude_stays_exactly_zero(self):
        cfg = RunConfig(eps=0.0, t_final=50.0)
        rep = run_thermalize(ExperimentSpec.from_config("thermalize", cfg))
        assert rep.identically_zero
        assert rep.heating_residual == 0.0
        assert rep.x_rate is None and rep.k_rate is None

    def test_rejects_modes_outside_the_band(self):
        cfg = RunConfig(mode_k=3)
        with pytest.raises(DomainError):
            run_thermalize(ExperimentSpec.from_config("thermalize", cfg))

    def test_rejects_nonpositive_nu(self):
        with pytest.raises(ConfigError, match="thermalize.*`nu`"):
            run_experiment("thermalize", parse_config("nu = 0\n"))

    def test_rejects_nu_list(self):
        # thermalize runs cfg.nu alone; a frequency list would be ignored
        cfg = parse_config("nu = 0.01\nnu_list = 1e-3, 1e-4\nt_final = 20\n")
        with pytest.raises(ConfigError, match="nu_list"):
            run_thermalize(ExperimentSpec.from_config("thermalize", cfg))


class TestOutputs:
    def test_summary_and_manifest_written(self, tmp_path):
        cfg = RunConfig(nu_list=(1e-4, 1e-3), k_list=(1,))
        out = tmp_path / "scan"
        rep = run_experiment("dissipation", cfg, str(out))
        summary = json.loads((out / "summary.json").read_text())
        assert summary["experiment"] == "dissipation"
        assert summary["config_hash"] == config_hash(cfg)
        assert summary["config_hash"] == rep.config_hash
        assert "surrogate_nu_exponent" in summary
        assert "versions" in summary
        doc = read_manifest(out / "manifest.json")
        assert doc["results"]["experiment"] == "dissipation"
        schema, rows = read_csv(out / "cells.csv")
        assert list(schema[:2]) == ["k", "nu"]
        assert len(rows) == 2

    def test_rerun_reproduces_every_csv_byte(self, tmp_path):
        cfg = RunConfig(nu_list=(1e-3,), t_final=10.0, echo_eta_star=4.0)
        first = tmp_path / "a"
        second = tmp_path / "b"
        run_experiment("echo", cfg, str(first))
        rerun_from_manifest(first / "manifest.json", str(second))
        names = sorted(p.name for p in first.glob("*.csv"))
        assert names == sorted(p.name for p in second.glob("*.csv"))
        assert names
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes()
        assert (first / "summary.json").read_bytes() == \
            (second / "summary.json").read_bytes()

    def test_rerun_rejects_foreign_manifest(self, tmp_path):
        from vpfp.io_config import write_manifest
        path = tmp_path / "manifest.json"
        write_manifest(RunConfig(), {"note": "no experiment recorded"}, path)
        with pytest.raises(DomainError):
            rerun_from_manifest(path)

    @staticmethod
    def refuses_version(tmp_path, version):
        from vpfp.io_config import write_manifest
        path = tmp_path / "manifest.json"
        write_manifest(RunConfig(), {"experiment": "echo"}, path)
        doc = json.loads(path.read_text())
        doc["version"] = version
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError,
                           match=f"manifest version {version} unsupported"):
            rerun_from_manifest(path)

    def test_rerun_refuses_version_1_manifest(self, tmp_path):
        # version 1 manifests hash a config text with keys that no longer
        # exist, so a rerun cannot reproduce their identity
        self.refuses_version(tmp_path, 1)

    def test_rerun_refuses_version_2_manifest(self, tmp_path):
        # version 2 manifests embed the lattice keys k_max, eta_max, n_eta
        # and dt, which no longer parse
        self.refuses_version(tmp_path, 2)

    def test_rerun_refuses_version_3_manifest(self, tmp_path):
        # version 3 manifests embed the workers key, which no longer parses
        self.refuses_version(tmp_path, 3)

    def test_rerun_refuses_version_4_manifest(self, tmp_path):
        # version 4 manifests embed the norm, echo amplitude, fit window and
        # out_dir keys, which no longer parse
        self.refuses_version(tmp_path, 4)

    def test_in_memory_run_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = RunConfig(nu_list=(1e-4, 1e-3), k_list=(1,))
        run_experiment("dissipation", cfg)
        assert list(tmp_path.iterdir()) == []


# Small runs of the four campaigns that march, with the step modes each takes.
STEP_ACCOUNTING = [
    ("echo", RunConfig(nu_list=(1e-3,), t_final=4.0, echo_eta_star=4.0),
     {"full"}),
    ("landau", RunConfig(nu_list=(1e-3,)), {"linear"}),
    ("threshold", RunConfig(nu_list=(1e-4,), threshold_eps_cap=0.05),
     {"linear", "full"}),
    ("dissipation", RunConfig(nu_list=(1e-3,), k_list=(1,)), {"free"}),
]


@pytest.mark.parametrize("kind, cfg, modes", STEP_ACCOUNTING,
                         ids=[kind for kind, _, _ in STEP_ACCOUNTING])
def test_every_step_goes_through_solver_step(monkeypatch, kind, cfg, modes):
    """The benchmark counts steps and lattice updates by rebinding
    solver.step, reading the field's grid and the mode from the call's
    arguments; a march that advanced any other way would read as no work.
    The witness is the free flow S(dt), which every step takes once.
    Every state a step sees or leaves is real."""
    stepped, streamed, dtypes = [], [], set()
    real_step, real_flow = solver.step, solver._FreeFlow.__call__

    def counted_step(*args, **kwargs):
        grid = args[0].grid
        mode = kwargs.get("mode", args[3] if len(args) > 3 else "full")
        stepped.append((mode, grid.n_k * grid.n_eta))
        dtypes.add(args[0].data.dtype)
        diag = real_step(*args, **kwargs)
        dtypes.add(args[0].data.dtype)
        return diag

    def counted_flow(plan, y, *args):
        streamed.append(plan.grid.n_k * plan.grid.n_eta)
        return real_flow(plan, y, *args)

    monkeypatch.setattr(solver, "step", counted_step)
    monkeypatch.setattr(solver._FreeFlow, "__call__", counted_flow)
    run_experiment(kind, cfg)
    assert streamed
    assert [size for _, size in stepped] == streamed
    assert {mode for mode, _ in stepped} == modes
    assert dtypes == {np.dtype(np.float64)}


def test_threshold_closures_run_only_in_full_steps(monkeypatch):
    """The classifier reads its density off the state and the linear
    reference never solves the closure, so every closure of the scan is one
    of a full step's eight RK4 stages."""
    modes, closures = [], []
    in_step = [False]
    real_step, real_closure = solver.step, solver.Stepper.closure

    def counted_step(field, nu, w, mode="full"):
        modes.append(mode)
        in_step[0] = True
        try:
            return real_step(field, nu, w, mode)
        finally:
            in_step[0] = False

    def counted_closure(stepper, y):
        closures.append(in_step[0])
        return real_closure(stepper, y)

    monkeypatch.setattr(solver, "step", counted_step)
    monkeypatch.setattr(solver.Stepper, "closure", counted_closure)
    run_experiment("threshold", RunConfig(nu_list=(1e-4,),
                                          threshold_eps_cap=0.05))
    assert set(modes) == {"linear", "full"}
    assert all(closures)
    assert len(closures) == 8 * modes.count("full")
