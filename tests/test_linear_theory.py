"""Density equation and memory kernel against closed forms."""

import math

import numpy as np
import pytest

from vpfp.errors import DomainError
from vpfp.linear_theory import (
    InteractionKernel,
    VolterraProblem,
    fit_decay_rate,
    free_streaming_source,
    kernel_K0,
    mu_hat,
    volterra_solve,
)
from vpfp.semigroup import eta_ct, s_density_exponent


class TestMuHat:
    def test_normalized_at_zero(self):
        assert mu_hat(0.0) == 1.0

    def test_gaussian_mass(self):
        eta = np.linspace(-24, 24, 2048)
        got = np.sum(mu_hat(eta) ** 2) * (eta[1] - eta[0])
        assert got == pytest.approx(math.sqrt(math.pi), rel=1e-12)


class TestInteractionKernel:
    def test_coulomb_weights(self):
        w = InteractionKernel.coulomb()
        assert w(1) == 1.0 and w(-2) == 0.25

    def test_screened_weights(self):
        w = InteractionKernel.screened()
        assert w(1) == 0.5 and w(3) == 0.1

    def test_zero_mode_rejected(self):
        w = InteractionKernel.coulomb()
        with pytest.raises(DomainError):
            w(0)

    def test_negative_weight_rejected(self):
        with pytest.raises(DomainError):
            InteractionKernel(table={1: -0.5})

    def test_missing_modes_weigh_zero(self):
        w = InteractionKernel(table={1: 0.7, -1: 0.7})
        assert w(5) == 0.0


class TestKernelK0:
    def test_zero_at_origin(self):
        w = InteractionKernel.coulomb()
        assert kernel_K0(0.0, 1, 1e-3, w) == 0.0

    def test_rejects_zero_mode(self):
        with pytest.raises(DomainError):
            kernel_K0(1.0, 0, 1e-3, InteractionKernel.coulomb())

    def test_collisionless_limit(self):
        # At nu -> 0 the kernel is w(k) k^2 t mu_hat(k t).
        w = InteractionKernel.coulomb()
        t = np.linspace(0.5, 6.0, 12)
        got = kernel_K0(t, 1, 1e-8, w)
        want = t * np.exp(-t * t / 2.0)
        assert np.allclose(got, want, rtol=1e-4)

    def test_uniform_integrability(self):
        # int_0^inf kernel dt stays bounded across modes and frequencies.
        w = InteractionKernel.coulomb()
        t = np.linspace(0.0, 16.0, 4001)
        for nu in (1e-5, 1e-3):
            for k in (1, 2, 4, 8):
                vals = kernel_K0(t, k, nu, w)
                mass = np.trapezoid(vals, t)
                assert 0.0 < mass < 1.5


def time_grid(dt: float, t_final: float) -> np.ndarray:
    """volterra_solve's time grid, on which a source is sampled."""
    return np.arange(int(round(t_final / dt)) + 1) * dt


class TestVolterraSolve:
    def test_no_interaction_returns_source(self):
        w = InteractionKernel.none()
        p = VolterraProblem(k=1, nu=1e-3,
                            source=np.exp(-time_grid(0.01, 2.0)),
                            dt=0.01, t_final=2.0)
        r = volterra_solve(p, w)
        assert np.allclose(r.rho, np.exp(-r.t), rtol=1e-12)

    def test_exponential_kernel_closed_form(self):
        # K(dt) = a exp(-b dt), F = 1 has rho = (a e^((a-b)t) - b)/(a - b);
        # the trapezoid scheme is second order, 7.8e-8 relative at dt = 1e-3.
        a, b = 0.5, 1.0
        p = VolterraProblem(k=1, nu=1e-3,
                            source=np.ones_like(time_grid(1e-3, 5.0)),
                            dt=1e-3, t_final=5.0,
                            kernel_override=lambda s: a * math.exp(-b * s))
        r = volterra_solve(p)
        exact = (a * np.exp((a - b) * r.t) - b) / (a - b)
        assert np.max(np.abs(r.rho - exact) / np.abs(exact)) < 1e-6

    def test_second_order_convergence(self):
        a, b = 0.5, 1.0
        errs = []
        for dt in (2e-3, 1e-3):
            p = VolterraProblem(k=1, nu=1e-3,
                                source=np.ones_like(time_grid(dt, 4.0)),
                                dt=dt, t_final=4.0,
                                kernel_override=lambda s: a * math.exp(-b * s))
            r = volterra_solve(p)
            exact = (a * np.exp((a - b) * r.t) - b) / (a - b)
            errs.append(np.max(np.abs(r.rho - exact)))
        ratio = errs[0] / errs[1]
        assert 3.3 < ratio < 4.7

    def test_linearity(self):
        w = InteractionKernel.coulomb()
        nu = 1e-3
        src = np.exp(-time_grid(0.01, 8.0) ** 2 / 2.0)
        common = dict(k=1, nu=nu, dt=0.01, t_final=8.0)
        r1 = volterra_solve(VolterraProblem(source=src, **common), w)
        r2 = volterra_solve(VolterraProblem(source=3.0 * src, **common), w)
        assert np.allclose(3.0 * r1.rho, r2.rho, rtol=1e-12, atol=1e-300)

    def test_simpson_residual(self):
        # The trapezoid solution must satisfy the equation under an
        # independent quadrature rule to 1e-8 of the solution scale.
        w = InteractionKernel.coulomb()
        nu, k = 1e-3, 1
        dt, t_final = 1.5e-4, 1.5

        def h_in(kk, e):
            return math.exp(-e * e / 2.0)

        t = time_grid(dt, t_final)
        src = free_streaming_source(h_in, t, k, nu)
        p = VolterraProblem(k=k, nu=nu, source=src, dt=dt, t_final=t_final)
        r = volterra_solve(p, w)
        n = r.t.size - 1
        assert n % 2 == 0
        kern = -kernel_K0(r.t[n] - r.t, k, nu, w)
        simp = np.ones(n + 1)
        simp[1:-1:2] = 4.0
        simp[2:-1:2] = 2.0
        simp *= dt / 3.0
        conv = np.dot(simp * kern, r.rho)
        residual = abs(r.rho[n] - src[n] - conv)
        assert residual < 1e-8 * np.max(np.abs(r.rho))

    def test_source_off_the_grid_rejected(self):
        p = VolterraProblem(k=1, nu=1e-3,
                            source=np.ones_like(time_grid(0.5, 4.5)),
                            dt=0.5, t_final=5.0)
        with pytest.raises(DomainError, match="source grid"):
            volterra_solve(p, InteractionKernel.coulomb())

    def test_resolution_warning(self):
        # A kernel with structure finer than dt is flagged, not hidden.
        p = VolterraProblem(k=1, nu=1e-3,
                            source=np.ones_like(time_grid(0.5, 5.0)),
                            dt=0.5, t_final=5.0,
                            kernel_override=lambda s: math.exp(-8.0 * s))
        r = volterra_solve(p)
        assert "resolution_warning" in r.meta

    def test_damping_rate_stable_across_frequencies(self):
        # Slowly decaying data make the collision-limited phase of the
        # density visible; after removing the algebraic envelope, the fitted
        # rate in units of nu^(1/3) is the same across two decades of nu.
        w = InteractionKernel.coulomb()
        rates = []
        for nu in (1e-5, 1e-4, 1e-3):
            scale = nu ** (-1.0 / 3.0)

            def h_in(kk, e):
                return (1.0 + e * e) ** -4.0

            t = time_grid(0.02, 3.0 * scale)
            p = VolterraProblem(k=1, nu=nu,
                                source=free_streaming_source(h_in, t, 1, nu),
                                dt=0.02, t_final=3.0 * scale)
            res = volterra_solve(p, w)
            envelope = (1.0 + eta_ct(res.t, 1, nu) ** 2) ** 4.0
            series = np.abs(res.rho) * envelope
            fit = fit_decay_rate(res.t, series, (1.5 * scale, 3.0 * scale))
            assert fit.rate > 0.0
            rates.append(fit.rate * scale)
        assert max(rates) / min(rates) < 1.3


class TestFreeStreamingSource:
    def test_initial_value(self):
        got = free_streaming_source(lambda k, e: 2.0 + 0j, 0.0, 1, 1e-3)
        assert got == 2.0 + 0j

    def test_samples_critical_frequency(self):
        nu, k, t = 1e-3, 2, 5.0
        marker = eta_ct(t, k, nu)

        def h_in(kk, e):
            return complex(e)

        got = free_streaming_source(h_in, t, k, nu)
        want = marker * math.exp(s_density_exponent(t, k, nu))
        assert got == pytest.approx(want, rel=1e-12)

    def test_rejects_zero_mode(self):
        with pytest.raises(DomainError):
            free_streaming_source(lambda k, e: 1.0, 1.0, 0, 1e-3)


class TestFitDecayRate:
    def test_recovers_exact_exponential(self):
        t = np.linspace(0, 10, 101)
        v = 3.0 * np.exp(-0.7 * t)
        fit = fit_decay_rate(t, v, (0.0, 10.0))
        assert fit.rate == pytest.approx(0.7, rel=1e-12)
        assert fit.amplitude == pytest.approx(3.0, rel=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert not fit.flat

    def test_constant_series_flagged_flat(self):
        t = np.linspace(0, 5, 50)
        fit = fit_decay_rate(t, np.full(50, 2.0), (0.0, 5.0))
        assert fit.flat and fit.rate == 0.0

    def test_rejects_nonpositive_values(self):
        t = np.linspace(0, 5, 50)
        v = np.linspace(1.0, -0.5, 50)
        with pytest.raises(DomainError):
            fit_decay_rate(t, v, (0.0, 5.0))

    def test_rejects_thin_window(self):
        t = np.linspace(0, 5, 50)
        with pytest.raises(DomainError):
            fit_decay_rate(t, np.exp(-t), (2.0, 2.05))
