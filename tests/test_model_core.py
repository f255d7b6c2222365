"""Statics checks: trap frequency, self-energy, pair potential, quadratic expansion.

Expected values come from independent routes frozen here:
* closed forms (shell theorem, uniform-sphere overlap polynomial, Gaussian erf
  formulas),
* a Fourier-side quadrature oracle U(d) = -(2/pi) int fhat^2 sinc(kd) dk,
  which shares no code with the bipolar real-space reduction used by the
  implementation.

Units are natural, G = hbar = M = 1, as in the implementation.
"""
import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import erf

from gravlab.errors import DomainError, InvalidProfileError
from gravlab.model_core import (
    MassProfile,
    delta_e_g,
    mutual_potential,
    omega_g,
    quadratic_coefficients,
    quadratic_potential_check,
    self_energy,
)

UNIFORM = MassProfile.uniform_sphere(1.0)
GAUSS = MassProfile.gaussian_ball(1.0)


def pair_potential_fourier_oracle(profile, d):
    """U(d) by momentum-space quadrature; independent of the implementation."""
    if d == 0:
        val, _ = integrate.quad(lambda k: profile.form_factor(k) ** 2, 0.0, np.inf, limit=400)
    elif profile.form_factor(30.0) > 1e-12:
        # slowly decaying form factor: oscillatory-weight rule for sin(kd)/k
        val, _ = integrate.quad(
            lambda k: profile.form_factor(k) ** 2 / k,
            1e-12,
            400.0,
            weight="sin",
            wvar=d,
            limit=2000,
        )
        val /= d
    else:
        val, _ = integrate.quad(
            lambda k: profile.form_factor(k) ** 2 * np.sinc(k * d / math.pi),
            0.0,
            40.0,
            limit=400,
        )
    return -2.0 / math.pi * val


def uniform_overlap_polynomial(d, R=1.0):
    """Closed-form pair energy of two uniform spheres, d <= 2R."""
    x = d / R
    return -(1.0 / R) * (6.0 / 5.0 - 0.5 * x**2 + 3.0 / 16.0 * x**3 - x**5 / 160.0)


class TestOmegaG:
    def test_uniform_reference(self):
        assert abs(omega_g(UNIFORM) - 1.0) < 1e-8

    def test_uniform_radius_scaling(self):
        # omega^2 = 1 / R^3
        p = MassProfile.uniform_sphere(2.0)
        assert abs(omega_g(p) - 2.0**-1.5) < 1e-8

    def test_gaussian_reference(self):
        expect = math.sqrt(1.0 / (6.0 * math.sqrt(math.pi)))
        assert abs(omega_g(GAUSS) - expect) < 1e-8
        assert abs(omega_g(GAUSS) ** 2 - 0.094032) < 1e-6

    def test_normalization_guard(self, monkeypatch):
        broken = MassProfile.uniform_sphere(1.0)
        orig = MassProfile.density
        monkeypatch.setattr(MassProfile, "density", lambda self, r: 1.01 * orig(self, r))
        # values are cached per profile; the guard runs when one is computed
        omega_g.cache_clear()
        with pytest.raises(InvalidProfileError):
            omega_g(broken)

    def test_cached_per_profile_and_constants(self):
        again = MassProfile.uniform_sphere(1.0)
        assert omega_g(again) is omega_g(UNIFORM)
        assert self_energy(again) is self_energy(UNIFORM)


class TestSelfEnergy:
    def test_uniform_reference(self):
        assert abs(self_energy(UNIFORM) - (-0.6)) < 1e-8

    def test_gaussian_closed_form(self):
        assert abs(self_energy(GAUSS) - (-1.0 / (2.0 * math.sqrt(math.pi)))) < 1e-10

    def test_mass_and_radius_scaling(self):
        # E_G = -3 / (5 R)
        p = MassProfile.uniform_sphere(2.0)
        assert abs(self_energy(p) - (-0.3)) < 1e-8

    def test_negative(self):
        assert self_energy(GAUSS) < 0


class TestMutualPotential:
    def test_disjoint_is_point_coulomb(self):
        # shell theorem: exact -1 / d for d >= 2R
        for d in (2.0, 2.5, 4.0, 10.0):
            assert abs(mutual_potential(UNIFORM, d) - (-1.0 / d)) < 1e-10

    def test_reference_value(self):
        assert abs(mutual_potential(UNIFORM, 4.0) - (-0.25)) < 1e-6

    def test_overlapping_closed_form(self):
        for d in (0.25, 0.5, 1.0, 1.5, 1.99):
            assert abs(mutual_potential(UNIFORM, d) - uniform_overlap_polynomial(d)) < 1e-9

    def test_gaussian_closed_form(self):
        for d in (0.5, 1.0, 3.0):
            expect = -erf(d / 2.0) / d
            assert abs(mutual_potential(GAUSS, d) - expect) < 1e-10

    @pytest.mark.parametrize("profile", [UNIFORM, GAUSS])
    @pytest.mark.parametrize("d", [0.0, 0.7, 2.2])
    def test_fourier_oracle_agreement(self, profile, d):
        assert abs(mutual_potential(profile, d) - pair_potential_fourier_oracle(profile, d)) < 1e-6

    def test_zero_distance_is_twice_self_energy(self):
        assert abs(mutual_potential(GAUSS, 0.0) - 2.0 * self_energy(GAUSS)) < 1e-12

    def test_curvature_at_origin(self):
        # U''(0) = omega_g^2 by symmetric finite differences
        h = 1e-3
        second = 2.0 * (mutual_potential(UNIFORM, h) - mutual_potential(UNIFORM, 0.0)) / h**2
        assert abs(second - 1.0) < 1e-2

    def test_negative_distance_rejected(self):
        with pytest.raises(DomainError):
            mutual_potential(UNIFORM, -1.0)


class TestDeltaEG:
    def test_reference_value(self):
        assert abs(delta_e_g(UNIFORM, 4.0) - 0.95) < 1e-9

    def test_exact_decomposition(self):
        # 6/5 - 1/4 for disjoint branches of the unit uniform sphere
        assert abs(delta_e_g(UNIFORM, 4.0) - (6.0 / 5.0 - 1.0 / 4.0)) < 1e-9

    def test_small_separation_curvature(self):
        # delta/l^2 = 0.5 - (3/16) l + O(l^3): extrapolate the linear trend
        ells = np.array([0.02, 0.04, 0.06, 0.08, 0.10])
        vals = np.array([delta_e_g(UNIFORM, l) / l**2 for l in ells])
        intercept = np.polyfit(ells, vals, 2)[-1]
        assert abs(intercept - 0.5) < 0.005

    def test_monotone_and_saturates(self):
        ells = [0.5, 1.0, 2.0, 4.0, 8.0]
        vals = [delta_e_g(UNIFORM, l) for l in ells]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert abs(delta_e_g(UNIFORM, 1e3) - 1.2) < 2e-3  # saturation at -2 E_G

    def test_zero_at_origin(self):
        assert delta_e_g(GAUSS, 0.0) == 0.0


class TestQuadraticCheck:
    def test_uniform_small_spread(self):
        res = quadratic_potential_check(UNIFORM, 0.05)
        assert res.rel_error < 1e-2
        assert res.within_domain

    def test_error_shrinks_with_spread(self):
        r1 = quadratic_potential_check(UNIFORM, 0.05)
        r2 = quadratic_potential_check(UNIFORM, 0.025)
        assert r1.rel_error / r2.rel_error >= 2.0

    def test_gaussian_closed_form_exact_branch(self):
        # f * q for Gaussian f is again Gaussian: <V> = -1 / (sqrt(pi) sqrt(sig^2+dx^2))
        dx = 0.3
        res = quadratic_potential_check(GAUSS, dx)
        expect = -1.0 / (math.sqrt(math.pi) * math.sqrt(1.0 + dx**2))
        assert abs(res.exact - expect) < 1e-8

    def test_uniform_real_space_oracle(self):
        # independent route: smear f radially, then the self-overlap Coulomb
        # integral via the ell=0 reduction 1/max(r,s)
        dx = 0.1

        def smeared(r):
            def inner(u):
                return (
                    u
                    * UNIFORM.density(u)
                    * (
                        math.exp(-((r - u) ** 2) / (2 * dx**2))
                        - math.exp(-((r + u) ** 2) / (2 * dx**2))
                    )
                )

            val, _ = integrate.quad(inner, 0.0, 1.0, limit=200)
            return val / (r * dx * math.sqrt(2.0 * math.pi))

        def outer(r):
            inner1, _ = integrate.quad(
                lambda s: s**2 * smeared(s), 0.0, r, limit=100
            )
            inner2, _ = integrate.quad(
                lambda s: s * smeared(s), r, 1.0 + 8 * dx, limit=100
            )
            return r**2 * smeared(r) * (inner1 / r + inner2)

        i_gg, _ = integrate.quad(outer, 1e-6, 1.0 + 8 * dx, limit=100)
        oracle = -(4.0 * math.pi) ** 2 / 2.0 * i_gg * 2.0  # (1/2)*2 for s<r and s>r symmetry
        res = quadratic_potential_check(UNIFORM, dx)
        assert abs(res.exact - oracle) / abs(oracle) < 1e-4

    def test_domain_warning(self):
        assert not quadratic_potential_check(UNIFORM, 0.2).within_domain


class TestTypes:
    def test_quadratic_coefficients(self):
        qc = quadratic_coefficients(UNIFORM)
        assert abs(qc.offset - (-1.2)) < 1e-8
        assert abs(qc.curvature - 1.0) < 1e-8

    def test_profile_size_validation(self):
        with pytest.raises(InvalidProfileError):
            MassProfile.uniform_sphere(0.0)
