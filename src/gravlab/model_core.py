"""Static gravitational kernels for rigid spherical mass distributions.

A point particle is smeared with a normalized profile f (uniform sphere or
Gaussian ball).  Units are natural, G = hbar = M = 1, and everything
downstream is controlled by three numbers derived from f:

* the trap frequency omega_g, with omega_g^2 = (4 pi / 3) int f^2,
* the (negative) Newtonian self-energy E_G,
* the pair potential U(d) between two copies of the profile held at
  center-to-center distance d.

U(0) = 2 E_G, U''(0) = omega_g^2, and the energy gap
delta_e_g(l) = U(l) - U(0) interpolates between (1/2) omega_g^2 l^2 at
small l and -2 E_G at large l.  All integrals reduce to one-dimensional
adaptive quadrature because the profiles are spherical.

scipy.integrate and scipy.special are imported by the functions that use
them, on first use.  So ke-rate and diffusion never load either, and cat
never loads scipy.integrate (its transforms bring in scipy.special): on a
2-core machine that import took 0.15-0.17 s and 25 MB after scipy.fft.
"""
from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidProfileError

# Tolerance on the quadrature check of int f d^3r = 1.
NORMALIZATION_TOL = 1e-8

# Beyond this fraction of the profile size the quadratic expansion of the
# mean-field potential is not trustworthy; results carry a warning flag.
QUADRATIC_DOMAIN_FRACTION = 0.1


class ProfileKind(enum.Enum):
    UNIFORM_SPHERE = "uniform_sphere"
    GAUSSIAN_BALL = "gaussian_ball"


@dataclass(frozen=True)
class MassProfile:
    """Normalized spherical smearing profile f(r) with int f d^3r = 1."""

    kind: ProfileKind
    size: float  # radius R for the sphere, width sigma for the Gaussian

    def __post_init__(self) -> None:
        if not self.size > 0:
            raise InvalidProfileError("profile size must be positive")

    @classmethod
    def uniform_sphere(cls, radius: float) -> "MassProfile":
        return cls(ProfileKind.UNIFORM_SPHERE, radius)

    @classmethod
    def gaussian_ball(cls, width: float) -> "MassProfile":
        return cls(ProfileKind.GAUSSIAN_BALL, width)

    # -- radial building blocks ------------------------------------------

    def density(self, r):
        """Profile value f(r) at radius r."""
        r = np.asarray(r, dtype=float)
        if self.kind is ProfileKind.UNIFORM_SPHERE:
            R = self.size
            return np.where(r <= R, 3.0 / (4.0 * math.pi * R**3), 0.0)
        sig = self.size
        return np.exp(-(r**2) / (2.0 * sig**2)) / (2.0 * math.pi * sig**2) ** 1.5

    def form_factor(self, k):
        """3D Fourier transform of f; equals 1 at k = 0."""
        k = np.asarray(k, dtype=float)
        if self.kind is ProfileKind.UNIFORM_SPHERE:
            x = k * self.size
            small = np.abs(x) < 1e-4
            xs = np.where(small, 1.0, x)
            exact = 3.0 * (np.sin(xs) - xs * np.cos(xs)) / xs**3
            series = 1.0 - x**2 / 10.0
            return np.where(small, series, exact)
        return np.exp(-(self.size**2) * k**2 / 2.0)

    def unit_potential(self, r, erf):
        """psi(r) = int f(s) / |r - s| d^3s for the normalized profile.

        erf is scipy.special.erf, imported once by the quadrature that
        calls this at every point.
        """
        r = np.asarray(r, dtype=float)
        if self.kind is ProfileKind.UNIFORM_SPHERE:
            R = self.size
            inner = (3.0 - r**2 / R**2) / (2.0 * R)
            outer = 1.0 / np.where(r > 0, r, 1.0)
            return np.where(r <= R, inner, outer)
        sig = self.size
        rs = np.where(r > 0, r, 1.0)
        out = erf(rs / (math.sqrt(2.0) * sig)) / rs
        center = math.sqrt(2.0 / math.pi) / sig
        return np.where(r > 0, out, center)

    def _potential_antiderivative(self, w: float, erf) -> float:
        """Antiderivative of psi(w) * w, used by the bipolar reduction of U(d)."""
        if self.kind is ProfileKind.UNIFORM_SPHERE:
            R = self.size
            if w <= R:
                return (3.0 * w**2 / 4.0 - w**4 / (8.0 * R**2)) / R
            # constant fixed by continuity at w = R
            return w - 3.0 * R / 8.0
        sig = self.size
        return w * erf(w / (math.sqrt(2.0) * sig)) + math.sqrt(2.0 / math.pi) * sig * math.exp(
            -(w**2) / (2.0 * sig**2)
        )

    @property
    def char_length(self) -> float:
        """Characteristic spatial scale (R or sigma)."""
        return self.size

    def radial_cutoff(self) -> float:
        """Radius beyond which the density is negligible for quadrature."""
        if self.kind is ProfileKind.UNIFORM_SPHERE:
            return self.size
        return 12.0 * self.size

    def normalization_defect(self) -> float:
        """|4 pi int f r^2 dr - 1| evaluated by adaptive quadrature."""
        from scipy import integrate

        val, _ = integrate.quad(
            lambda r: 4.0 * math.pi * r**2 * self.density(r), 0.0, self.radial_cutoff(), limit=200
        )
        return abs(val - 1.0)

    def _require_normalized(self) -> None:
        defect = self.normalization_defect()
        if defect > NORMALIZATION_TOL:
            raise InvalidProfileError(f"profile normalization defect {defect:.3e} exceeds {NORMALIZATION_TOL:.0e}")


@dataclass(frozen=True)
class QuadraticCoefficients:
    """Coefficients of the small-displacement expansion of the pair potential:
    U(d) ~ offset + 0.5 * curvature * d^2 with offset = 2 E_G and
    curvature = omega_g^2."""

    offset: float
    curvature: float


@dataclass(frozen=True)
class QuadraticCheckResult:
    """Outcome of comparing the exact smeared potential energy with its
    quadratic expansion at Gaussian spread dx."""

    exact: float
    quadratic: float
    rel_error: float
    within_domain: bool


@functools.lru_cache(maxsize=64)
def omega_g(profile: MassProfile) -> float:
    """Trap/collapse frequency of the profile, omega_g = sqrt((4pi/3) int f^2).

    The density-squared integral is evaluated by adaptive radial quadrature;
    the profile normalization is re-checked the same way first.  Profiles
    are frozen, so the value is cached per profile.
    """
    from scipy import integrate

    profile._require_normalized()
    f2, _ = integrate.quad(
        lambda r: 4.0 * math.pi * r**2 * profile.density(r) ** 2,
        0.0,
        profile.radial_cutoff(),
        limit=200,
    )
    return math.sqrt(4.0 * math.pi / 3.0 * f2)


@functools.lru_cache(maxsize=64)
def self_energy(profile: MassProfile) -> float:
    """Newtonian self-energy E_G = -(1/2) int int f f / |r - s|.

    Uses the shell-theorem reduction: E_G = -(1/2) int f(r) psi(r) d^3r
    with psi the profile's own unit potential.  Cached per profile, like
    omega_g.
    """
    from scipy import integrate
    from scipy.special import erf

    val, _ = integrate.quad(
        lambda r: 4.0 * math.pi * r**2 * profile.density(r) * profile.unit_potential(r, erf),
        0.0,
        profile.radial_cutoff(),
        limit=200,
    )
    return -0.5 * val


def mutual_potential(profile: MassProfile, d: float) -> float:
    """Interaction energy U(d) of two rigid copies of the profile at distance d.

    For spherical densities the 6D Coulomb integral collapses to a single
    radial quadrature over the bipolar kernel
        U(d) = -(2 pi / d) int u f(u) [W(d+u) - W(|d-u|)] du
    where W is the antiderivative of psi(w) w.  U(0) = 2 E_G.
    """
    from scipy import integrate
    from scipy.special import erf

    if d < 0:
        raise DomainError("separation must be non-negative")
    if d == 0.0:
        return 2.0 * self_energy(profile)
    W = profile._potential_antiderivative
    cutoff = profile.radial_cutoff()

    def integrand(u: float) -> float:
        return u * profile.density(u) * (W(d + u, erf) - W(abs(d - u), erf))

    # breakpoints where W or f change branch
    pts = sorted(
        p for p in (profile.size, abs(d - profile.size), d) if 0.0 < p < cutoff
    )
    val, _ = integrate.quad(integrand, 0.0, cutoff, points=pts or None, limit=200)
    return -2.0 * math.pi / d * val


def delta_e_g(profile: MassProfile, ell: float) -> float:
    """Energy gap delta E_G(l) = U(l) - U(0) of a two-branch superposition.

    Vanishes quadratically at small l with curvature omega_g^2 and
    saturates at -2 E_G once the branches no longer overlap.
    """
    if ell < 0:
        raise DomainError("branch separation must be non-negative")
    if ell == 0.0:
        return 0.0
    return mutual_potential(profile, ell) - 2.0 * self_energy(profile)


def quadratic_coefficients(profile: MassProfile) -> QuadraticCoefficients:
    """Expansion coefficients of U(d) around d = 0."""
    return QuadraticCoefficients(
        offset=2.0 * self_energy(profile),
        curvature=omega_g(profile) ** 2,
    )


def quadratic_potential_check(profile: MassProfile, dx: float) -> QuadraticCheckResult:
    """Compare the exact smeared mean-field energy with its quadratic expansion.

    For an isotropic Gaussian position spread dx (per-axis standard
    deviation), the exact expectation of the mean-field potential is the
    Coulomb self-overlap of the smeared profile g = f * q,
        <V> = -(2/pi) int |f_hat(k)|^2 exp(-dx^2 k^2) dk,
    while the quadratic model predicts 2 E_G + 0.5 omega_g^2 <x_c^2>
    with <x_c^2> = 3 dx^2.  Returns both values and their relative gap.
    The expansion drops a state-dependent scalar term, so the gap closes
    like dx^2 rather than dx^4.
    """
    from scipy import integrate

    if dx < 0:
        raise DomainError("spread must be non-negative")
    coeff = quadratic_coefficients(profile)

    def integrand(k: float) -> float:
        return profile.form_factor(k) ** 2 * math.exp(-(dx**2) * k**2)

    kmax = 60.0 / profile.size + (8.0 / dx if dx > 0 else 0.0)
    val, _ = integrate.quad(integrand, 0.0, kmax, limit=400)
    exact = -(2.0 / math.pi) * val
    quadratic = coeff.offset + 0.5 * coeff.curvature * 3.0 * dx**2
    rel = abs(exact - quadratic) / abs(exact)
    return QuadraticCheckResult(
        exact=exact,
        quadratic=quadratic,
        rel_error=rel,
        within_domain=dx < QUADRATIC_DOMAIN_FRACTION * profile.char_length,
    )
