"""Closed-form Gaussian propagation for the three quadratic dynamics.

Units are natural: hbar = M = omega_g = 1.  A single-axis Gaussian wave
packet exp(-a (x - xbar)^2 + i pbar x) stays Gaussian under all three
variants, because the Hamiltonian is at most quadratic and the noise couples
linearly in x.  The state therefore reduces to the triple (xbar, pbar, a)
obeying Ito equations

    da        = [gamma - 2 i a^2] dt                       (deterministic)
    dxbar     = pbar dt + Re(s) / (2 Re a) dW
    dpbar     = [Im(s) - (Im a / Re a) Re(s)] dW

with gamma = alpha / 2 + s^2 / 2 built from the variant's quadratic drift
coefficient alpha and noise amplitude s.  The same scalar dW
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


class Variant(enum.Enum):
    """The three single-body dynamics sharing one quadratic generator."""

    SNE = "sne"  # deterministic mean-field attraction
    GSSE = "gsse"  # collapse noise only
    SSNE = "ssne"  # mean-field attraction plus phase-rotated collapse noise


def variant_coefficients(variant: Variant):
    """Quadratic drift coefficient alpha and noise amplitude s of a variant.

    The state-equation generator acts as
        dPsi = [-i H - (alpha / 2) x_c^2] dt + s x_c dW
    with x_c = x - <x>.  Returns the complex pair (alpha, s).
    """
    if variant is Variant.SNE:
        return 1j, 0.0 + 0.0j
    if variant is Variant.GSSE:
        return 1.0 + 0.0j, complex(1.0, 0.0)
    c = math.sqrt(0.5)
    return 1.0 + 1.0j, complex(c, -c)


def _stationary_a(variant: Variant) -> complex:
    """Closed-form stationary width; Im == -Re holds bitwise where it should."""
    if variant is Variant.SNE:
        return complex(0.5, 0.0)
    if variant is Variant.GSSE:
        return complex(0.5, -0.5)
    c = math.sqrt(2.0) / 4.0
    return complex(c, -c)


@functools.lru_cache(maxsize=128)
def _step_coefficients(variant: Variant, dt: float):
    """Fixed coefficients of the exact width map and the mean-update noise weights."""
    if variant is Variant.SNE:
        c0 = complex(0.0, 0.5)
    elif variant is Variant.GSSE:
        c0 = complex(1.0, 0.0)
    else:
        c0 = complex(0.5, 0.0)
    c2 = complex(0.0, -2.0)
    om = cmath.sqrt(c0 * c2)
    big_c = (c2 / om) * cmath.sin(om * dt)
    cos = cmath.cos(om * dt)
    pivot = _stationary_a(variant)
    # moving a by the exact flow: (a - pivot) -> (a - pivot) * P / (Q - C (a - pivot))
    p_num = cos + big_c * pivot
    q_den = cos - big_c * pivot
    _, s = variant_coefficients(variant)
    return pivot, p_num, q_den, big_c, s


@dataclass(frozen=True)
class GaussianState:
    """Per-axis Gaussian packet: wave function ~ exp(-a x_c^2 + i pbar x).

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

    def delta_p2(self):
        """Momentum variance |a|^2 / Re a."""
        return np.abs(self.a) ** 2 / np.real(self.a)

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


def soliton_state(variant: Variant) -> GaussianState:
    """Stationary-width packet at the origin with zero momentum."""
    return GaussianState(0.0, 0.0, _stationary_a(variant))


def step(state: GaussianState, variant: Variant, dt: float, dW) -> GaussianState:
    """Advance one Ito step: exact width map, Euler-Maruyama means.

    dW is the scalar (or state-shaped) Wiener increment ~ Normal(0, dt); the
    same increment enters the position and momentum updates.  Noise
    coefficients are evaluated at the pre-step state (Ito convention).
    """
    if dt <= 0:
        raise DomainError("dt must be positive")
    pivot, p_num, q_den, big_c, s = _step_coefficients(variant, float(dt))
    a_r = np.real(state.a)
    a_i = np.imag(state.a)
    xbar = state.xbar + state.pbar * dt + (s.real / (2.0 * a_r)) * dW
    pbar = state.pbar + (s.imag - (a_i / a_r) * s.real) * dW
    dev = state.a - pivot
    a_new = pivot + dev * p_num / (q_den - big_c * dev)
    if not np.all(np.real(a_new) > 0.0):
        raise InstabilityError("width lost normalizability; reduce the time step")
    return GaussianState(xbar, pbar, a_new)


def kinetic_energy(state: GaussianState):
    """<p^2> / 2 per axis: [pbar^2 + |a|^2 / Re a] / 2."""
    # pbar * pbar, not pbar**2: a scalar ** goes through libm pow, which can
    # round one ulp away from the product that numpy's array square takes
    return (state.pbar * state.pbar + state.delta_p2()) / 2.0
