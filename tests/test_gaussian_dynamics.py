"""Tests for the closed-form Gaussian propagator.

The width flow has an independent oracle: high-accuracy Runge-Kutta
integration of the complex Riccati equation as a two-component real system.
Mean diffusion laws are checked against exact integrals of the linear SDEs.
"""
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from gravlab import ensemble_stats as es
from gravlab.errors import DomainError, InstabilityError
from gravlab.gaussian_dynamics import (
    GaussianState,
    Variant,
    kinetic_energy,
    soliton_state,
    step,
    variant_coefficients,
)
from gravlab.noise_field import wiener_increments

SQ2 = math.sqrt(2.0)


def stepped(state, variant, path):
    """The start state and the state after each step along a noise path."""
    states = [state]
    for dw in path.increments:
        states.append(step(states[-1], variant, path.dt, dw))
    return states


def riccati_rhs_factory(variant):
    """Independent width-flow right-hand side built from (alpha, s) only."""
    alpha, s = variant_coefficients(variant)
    gamma = alpha / 2.0 + 0.5 * s * s

    def rhs(t, y):
        a = y[0] + 1j * y[1]
        da = gamma - 2j * a * a
        return [da.real, da.imag]

    return rhs


def integrate_width(variant, a0, t_end):
    rhs = riccati_rhs_factory(variant)
    sol = solve_ivp(
        rhs, (0.0, t_end), [a0.real, a0.imag], rtol=1e-12, atol=1e-14, dense_output=True
    )
    assert sol.success
    return sol


class TestSolitonStates:
    def test_sne(self):
        s = soliton_state(Variant.SNE)
        assert s.a == 0.5 + 0.0j
        assert s.delta_x2 == 0.5
        assert (s.xbar, s.pbar) == (0.0, 0.0)

    def test_gsse(self):
        s = soliton_state(Variant.GSSE)
        assert s.a == complex(0.5, -0.5)
        assert s.delta_x2 == 0.5  # same spread as the deterministic soliton
        assert np.imag(s.a) / np.real(s.a) == -1.0

    def test_ssne(self):
        s = soliton_state(Variant.SSNE)
        assert abs(s.delta_x2 - 1.0 / SQ2) < 1e-15
        assert s.a == complex(SQ2 / 4.0, -SQ2 / 4.0)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_heisenberg_bound(self, variant):
        s = soliton_state(variant)
        product = math.sqrt(s.delta_x2) * math.sqrt(s.delta_p2())
        assert product >= 0.5 * (1.0 - 1e-14)
        if variant is Variant.SNE:
            assert abs(product - 0.5) < 1e-15  # real a: minimal uncertainty


class TestWidthFlow:
    @pytest.mark.parametrize("variant", list(Variant))
    def test_soliton_bitwise_stationary(self, variant):
        s0 = soliton_state(variant)
        s = s0
        rng = np.random.default_rng(5)
        for _ in range(3000):
            s = step(s, variant, 1e-3, rng.standard_normal() * math.sqrt(1e-3))
        assert s.a == s0.a  # exact fixed point of the update map

    @pytest.mark.parametrize("variant", list(Variant))
    def test_single_large_step_is_exact(self, variant):
        # one dt = 0.3 step matches a high-accuracy ODE solve: the update is
        # the exact flow map, not a first-order discretization
        a0 = 1.3 + 0.4j
        sol = integrate_width(variant, a0, 0.3)
        got = step(GaussianState(0.0, 0.0, a0), variant, 0.3, 0.0).a
        want = sol.y[0, -1] + 1j * sol.y[1, -1]
        assert abs(got - want) < 1e-9

    @pytest.mark.parametrize("variant", list(Variant))
    def test_many_steps_track_ode(self, variant):
        a0 = 0.8 - 0.1j
        sol = integrate_width(variant, a0, 2.0)
        s = GaussianState(0.0, 0.0, a0)
        dt = 1e-3
        for k in range(2000):
            s = step(s, variant, dt, 0.0)
        want = sol.sol(2.0)
        assert abs(s.a - (want[0] + 1j * want[1])) < 1e-8

    def test_sne_flow_is_periodic_not_contracting(self):
        # neutral center: the width orbit closes after period pi / omega_g...
        # with omega_g = 1 the tan-flow period is pi, and the exact step map
        # composes to the identity over one period
        a0 = 0.9 + 0.2j
        s = GaussianState(0.0, 0.0, a0)
        dt = math.pi / 1000.0
        for _ in range(1000):
            s = step(s, Variant.SNE, dt, 0.0)
        assert abs(s.a - a0) < 1e-10
        # twenty periods: still no contraction toward the fixed point
        for _ in range(19):
            for _ in range(1000):
                s = step(s, Variant.SNE, dt, 0.0)
        assert abs(s.a - a0) < 1e-9

    @pytest.mark.parametrize(
        "variant,rate", [(Variant.GSSE, -2.0), (Variant.SSNE, -SQ2)]
    )
    def test_relaxation_rate(self, variant, rate):
        a_star = soliton_state(variant).a
        s = GaussianState(0.0, 0.0, a_star + 0.08 + 0.05j)
        dt = 1e-3
        log_dev = []
        for k in range(4000):
            s = step(s, variant, dt, 0.0)
            log_dev.append(math.log(abs(s.a - a_star)))
        t = dt * np.arange(1, 4001)
        # late window: linear regime
        fit = np.polyfit(t[1000:], np.asarray(log_dev)[1000:], 1)
        assert abs(fit[0] - rate) < 0.01 * abs(rate)

    def test_width_flow_ignores_noise(self):
        s0 = GaussianState(0.0, 0.0, 0.7 + 0.2j)
        a_quiet = step(s0, Variant.GSSE, 1e-3, 0.0).a
        a_noisy = step(s0, Variant.GSSE, 1e-3, 3.7).a
        assert a_quiet == a_noisy

    def test_two_seeds_same_width_series(self):
        p1 = wiener_increments(1, 0, 200, 1e-3)
        p2 = wiener_increments(99, 7, 200, 1e-3)
        s0 = GaussianState(0.0, 0.0, 1.1 - 0.3j)
        r1 = stepped(s0, Variant.SSNE, p1)
        r2 = stepped(s0, Variant.SSNE, p2)
        assert [s.a for s in r1] == [s.a for s in r2]
        assert [s.xbar for s in r1] != [s.xbar for s in r2]


class TestMeans:
    def test_sne_ballistic(self):
        s = GaussianState(0.0, 0.3, 0.5 + 0.0j)
        dt = 1e-3
        for _ in range(1000):
            s = step(s, Variant.SNE, dt, 0.0)
        assert s.pbar == 0.3
        assert abs(s.xbar - 0.3) < 1e-12
        assert s.a == 0.5 + 0.0j

    def test_gsse_soliton_step_coefficients(self):
        # at the stationary width: dx = p dt + dW, dp = dW, with the same dW
        s0 = GaussianState(0.2, 0.4, soliton_state(Variant.GSSE).a)
        dt, dw = 1e-3, 0.123
        s1 = step(s0, Variant.GSSE, dt, dw)
        assert abs(s1.xbar - (0.2 + 0.4 * dt + dw)) < 1e-15
        assert abs(s1.pbar - (0.4 + dw)) < 1e-15

    def test_ssne_soliton_momentum_exactly_constant(self):
        path = wiener_increments(31, 2, 5000, 1e-3)
        states = stepped(GaussianState(0.0, 0.7, soliton_state(Variant.SSNE).a),
                         Variant.SSNE, path)
        assert all(s.pbar == 0.7 for s in states)  # zero deviation at every step

    def test_ssne_soliton_position_is_pure_wiener(self):
        path = wiener_increments(8, 0, 2000, 1e-3)
        states = stepped(soliton_state(Variant.SSNE), Variant.SSNE, path)
        want = np.concatenate([[0.0], np.cumsum(path.increments)])
        assert np.allclose([s.xbar for s in states], want, rtol=0.0, atol=1e-13)

    def test_gsse_ensemble_diffusion_laws(self):
        # vectorized ensemble at the stationary width; exact continuum laws:
        # Var p = t, Var x = t + t^2 + t^3/3, Cov = t + t^2/2
        n, n_steps, dt = 4000, 1000, 1e-3
        rng = np.random.default_rng(12)
        dW = rng.standard_normal((n_steps, n)) * math.sqrt(dt)
        a0 = np.full(n, soliton_state(Variant.GSSE).a)
        s = GaussianState(np.zeros(n), np.zeros(n), a0)
        for k in range(n_steps):
            s = step(s, Variant.GSSE, dt, dW[k])
        t = n_steps * dt
        var_p = s.pbar.var()
        var_x = s.xbar.var()
        cov = np.mean(s.xbar * s.pbar) - s.xbar.mean() * s.pbar.mean()
        assert abs(var_p - t) < 5.0 * t * math.sqrt(2.0 / n)
        want_x = t + t**2 + t**3 / 3.0
        assert abs(var_x - want_x) < 5.0 * want_x * math.sqrt(2.0 / n)
        want_c = t + t**2 / 2.0
        sd_c = math.sqrt((var_x * var_p + want_c**2) / n)
        assert abs(cov - want_c) < 5.0 * sd_c

    def test_ssne_ensemble_variance_linear(self):
        n, n_steps, dt = 4000, 800, 1e-3
        rng = np.random.default_rng(21)
        dW = rng.standard_normal((n_steps, n)) * math.sqrt(dt)
        a0 = np.full(n, soliton_state(Variant.SSNE).a)
        s = GaussianState(np.zeros(n), np.zeros(n), a0)
        checks = {400: None, 800: None}
        for k in range(n_steps):
            s = step(s, Variant.SSNE, dt, dW[k])
            if k + 1 in checks:
                checks[k + 1] = s.xbar.var()
        for n_k, var in checks.items():
            t = n_k * dt
            assert abs(var - t) < 5.0 * t * math.sqrt(2.0 / n)


class TestGuards:
    def test_dt_positive(self):
        with pytest.raises(DomainError):
            step(soliton_state(Variant.SNE), Variant.SNE, 0.0, 0.0)

    def test_unnormalizable_width_raises(self):
        # the mirror fixed point has Re a < 0 and stays there
        bad = GaussianState(0.0, 0.0, -0.5 + 0.0j)
        with pytest.raises(InstabilityError):
            step(bad, Variant.SNE, 1e-3, 0.0)

    def test_vectorized_guard_trips_on_any_element(self):
        a = np.array([0.5 + 0.0j, -0.5 + 0.0j])
        bad = GaussianState(np.zeros(2), np.zeros(2), a)
        with pytest.raises(InstabilityError):
            step(bad, Variant.SNE, 1e-3, np.zeros(2))


class TestKineticEnergy:
    def test_soliton_values(self):
        assert abs(kinetic_energy(soliton_state(Variant.SNE)) - 0.25) < 1e-15
        assert abs(kinetic_energy(soliton_state(Variant.GSSE)) - 0.5) < 1e-15
        assert abs(kinetic_energy(soliton_state(Variant.SSNE)) - 1.0 / (2.0 * SQ2)) < 1e-15

    def test_momentum_shift_identity(self):
        s = GaussianState(0.1, 0.6, 0.8 + 0.2j)
        q = 0.35
        shifted = GaussianState(s.xbar, s.pbar + q, s.a)
        got = kinetic_energy(shifted) - kinetic_energy(s)
        assert abs(got - (2.0 * s.pbar * q + q * q) / 2.0) < 1e-15

    def test_vectorized(self):
        a = np.array([0.5 + 0.0j, 0.5 - 0.5j])
        s = GaussianState(np.zeros(2), np.zeros(2), a)
        assert np.allclose(kinetic_energy(s), [0.25, 0.5], rtol=1e-14)


class TestRunTrajectory:
    """Single trajectories as the ensemble runner records them."""

    def test_record_layout(self):
        cfg = es.EnsembleConfig(Variant.GSSE, n_trajectories=2, t_final=0.2, dt=2e-3,
                                base_seed=4)  # 100 steps: a record after every step
        records = es.run_ensemble(cfg)
        assert records.times.shape == (101,)
        assert np.allclose(np.diff(records.times), 2e-3, rtol=1e-12)
        assert records.times[0] == 0.0
        for arr in (records.xbar, records.pbar, records.delta_x, records.kinetic, records.a):
            assert arr.shape == (2, 101)
        assert np.all(np.isfinite(records.xbar))
        assert np.allclose(records.delta_x, math.sqrt(0.5), rtol=1e-12)

    def test_matches_manual_stepping(self):
        cfg = es.EnsembleConfig(Variant.GSSE, n_trajectories=4, t_final=0.05, dt=1e-3,
                                base_seed=6)
        records = es.run_ensemble(cfg)
        path = wiener_increments(6, 3, 50, 1e-3)
        s = soliton_state(Variant.GSSE)
        for k in range(50):
            s = step(s, Variant.GSSE, 1e-3, path.increments[k])
        # row 3 is trajectory 3
        assert records.xbar[3, -1] == s.xbar
        assert records.pbar[3, -1] == s.pbar
        assert records.a[3, -1] == s.a


class TestVariantCoefficients:
    def test_values_natural_units(self):
        alpha, s = variant_coefficients(Variant.SNE)
        assert (alpha, s) == (1j, 0.0 + 0.0j)
        alpha, s = variant_coefficients(Variant.GSSE)
        assert alpha == 1.0 + 0.0j and s == complex(1.0, 0.0)
        alpha, s = variant_coefficients(Variant.SSNE)
        assert alpha == 1.0 + 1.0j
        assert s.real == -s.imag and abs(s.real - 1.0 / SQ2) < 1e-15
