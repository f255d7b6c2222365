"""Closed-form Gaussian propagation for the three quadratic dynamics.

A single-axis Gaussian wave packet exp(-a (x - xbar)^2 + i pbar x / hbar)
stays Gaussian under all three variants, because the Hamiltonian is at most
quadratic and the noise couples linearly in x.  The state therefore reduces
to the triple (xbar, pbar, a) obeying Ito equations

    da        = [gamma - 2 i (hbar / M) a^2] dt            (deterministic)
    dxbar     = (pbar / M) dt + Re(s) / (2 Re a) dW
    dpbar     = hbar [Im(s) - (Im a / Re a) Re(s)] dW

with gamma = alpha * M omega^2 / (2 hbar) + s^2 / 2 built from the variant's
quadratic drift coefficient alpha and noise amplitude s.  The same scalar dW
drives position and momentum, which is what lets the SSNE soliton keep its
momentum exactly constant.

The width equation is a constant-coefficient complex Riccati flow, so each
time step applies its exact Moebius solution rather than a discretization:
steps are exact for any dt, and the stationary widths are fixed points of the
update map to the last bit.  Axes decouple, so three-dimensional runs are
three independent single-axis systems; all state fields may be numpy arrays
for vectorized ensembles.
"""
from __future__ import annotations

import cmath
import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InstabilityError
from .model_core import Constants


class Variant(enum.Enum):
    """The three single-body dynamics sharing one quadratic generator."""

    SNE = "sne"  # deterministic mean-field attraction
    GSSE = "gsse"  # collapse noise only
    SSNE = "ssne"  # mean-field attraction plus phase-rotated collapse noise


def variant_coefficients(
    variant: Variant,
    constants: Constants = Constants(),
    omega: float = 1.0,
):
    """Quadratic drift coefficient alpha and noise amplitude s of a variant.

    The state-equation generator acts as
        dPsi = [-(i/hbar) H - (alpha / 2 hbar) M omega^2 x_c^2] dt + s x_c dW
    with x_c = x - <x>.  Returns the complex pair (alpha, s).
    """
    m, hbar = constants.mass, constants.hbar
    if variant is Variant.SNE:
        return 1j, 0.0 + 0.0j
    if variant is Variant.GSSE:
        return 1.0 + 0.0j, complex(math.sqrt(m / hbar) * omega, 0.0)
    c = math.sqrt(m / (2.0 * hbar)) * omega
    return 1.0 + 1.0j, complex(c, -c)


def _stationary_a(variant: Variant, constants: Constants, omega: float) -> complex:
    """Closed-form stationary width; Im == -Re holds bitwise where it should."""
    m, hbar = constants.mass, constants.hbar
    if variant is Variant.SNE:
        return complex(m * omega / (2.0 * hbar), 0.0)
    if variant is Variant.GSSE:
        c = m * omega / (2.0 * hbar)
        return complex(c, -c)
    c = math.sqrt(2.0) * m * omega / (4.0 * hbar)
    return complex(c, -c)


@functools.lru_cache(maxsize=128)
def _step_coefficients(variant: Variant, dt: float, constants: Constants, omega: float):
    """Constants of the exact width map and the mean-update noise weights."""
    m, hbar = constants.mass, constants.hbar
    u = m * omega**2 / (2.0 * hbar)
    if variant is Variant.SNE:
        c0 = complex(0.0, u)
    elif variant is Variant.GSSE:
        c0 = complex(2.0 * u, 0.0)
    else:
        c0 = complex(u, 0.0)
    c2 = complex(0.0, -2.0 * hbar / m)
    om = cmath.sqrt(c0 * c2)
    big_c = (c2 / om) * cmath.sin(om * dt)
    cos = cmath.cos(om * dt)
    pivot = _stationary_a(variant, constants, omega)
    # moving a by the exact flow: (a - pivot) -> (a - pivot) * P / (Q - C (a - pivot))
    p_num = cos + big_c * pivot
    q_den = cos - big_c * pivot
    _, s = variant_coefficients(variant, constants, omega)
    return pivot, p_num, q_den, big_c, s


@dataclass(frozen=True)
class GaussianState:
    """Per-axis Gaussian packet: wave function ~ exp(-a x_c^2 + i pbar x / hbar).

    Fields may be scalars or numpy arrays that broadcast together (one entry
    per trajectory or axis; an ensemble may share a single width).  Re(a) > 0
    is required for normalizability.
    """

    xbar: float | np.ndarray
    pbar: float | np.ndarray
    a: complex | np.ndarray

    @property
    def delta_x2(self):
        """Position variance 1 / (4 Re a)."""
        return 1.0 / (4.0 * np.real(self.a))

    def delta_p2(self, constants: Constants = Constants()):
        """Momentum variance hbar^2 |a|^2 / Re a."""
        return constants.hbar**2 * np.abs(self.a) ** 2 / np.real(self.a)

    def repeated(self, rows: int) -> "GaussianState":
        """A batch of `rows` copies of this single packet sharing one width.

        The width map does not depend on the noise, so copies that start
        from one width keep sharing it exactly: the scalar width broadcasts
        against the (rows,) means inside ``step`` and takes the same
        arithmetic as a single-trajectory run.
        """
        return GaussianState(
            np.full(rows, float(self.xbar)),
            np.full(rows, float(self.pbar)),
            complex(self.a),
        )


@dataclass(frozen=True)
class FixedPoint:
    """Stationary width of the Riccati flow with its linear stability."""

    a: complex
    eigenvalue: complex
    stability: str  # "attracting" | "neutral" | "repelling"
    physical: bool  # normalizable (Re a > 0)


def soliton_state(
    variant: Variant,
    constants: Constants = Constants(),
    omega: float = 1.0,
) -> GaussianState:
    """Stationary-width packet at the origin with zero momentum."""
    return GaussianState(0.0, 0.0, _stationary_a(variant, constants, omega))


def step(
    state: GaussianState,
    variant: Variant,
    dt: float,
    dW,
    constants: Constants = Constants(),
    omega: float = 1.0,
) -> GaussianState:
    """Advance one Ito step: exact width map, Euler-Maruyama means.

    dW is the scalar (or state-shaped) Wiener increment ~ Normal(0, dt); the
    same increment enters the position and momentum updates.  Noise
    coefficients are evaluated at the pre-step state (Ito convention).
    """
    if dt <= 0:
        raise DomainError("dt must be positive")
    pivot, p_num, q_den, big_c, s = _step_coefficients(variant, float(dt), constants, omega)
    a_r = np.real(state.a)
    a_i = np.imag(state.a)
    xbar = state.xbar + (state.pbar / constants.mass) * dt + (s.real / (2.0 * a_r)) * dW
    pbar = state.pbar + constants.hbar * (s.imag - (a_i / a_r) * s.real) * dW
    dev = state.a - pivot
    a_new = pivot + dev * p_num / (q_den - big_c * dev)
    if not np.all(np.real(a_new) > 0.0):
        raise InstabilityError("width lost normalizability; reduce the time step")
    return GaussianState(xbar, pbar, a_new)


def width_flow_fixed_points(
    variant: Variant,
    constants: Constants = Constants(),
    omega: float = 1.0,
) -> tuple[FixedPoint, ...]:
    """Both stationary widths of da/dt = gamma - 2i (hbar/M) a^2, classified.

    The physical (Re a > 0) fixed point comes first.  Eigenvalues are of the
    linearized flow d(delta a)/dt = -4i (hbar/M) a* delta a.
    """
    a_star = _stationary_a(variant, constants, omega)
    out = []
    for a in (a_star, -a_star):
        lam = -4.0j * (constants.hbar / constants.mass) * a
        scale = abs(lam)
        if lam.real < -1e-12 * scale:
            stability = "attracting"
        elif lam.real > 1e-12 * scale:
            stability = "repelling"
        else:
            stability = "neutral"
        out.append(FixedPoint(a, lam, stability, a.real > 0))
    return tuple(out)


def kinetic_energy(state: GaussianState, constants: Constants = Constants()):
    """<p^2> / 2M per axis: [pbar^2 + hbar^2 |a|^2 / Re a] / 2M."""
    return (state.pbar**2 + state.delta_p2(constants)) / (2.0 * constants.mass)
