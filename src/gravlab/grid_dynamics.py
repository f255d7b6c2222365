"""Split-step 1D wave-function solver for the quadratic stochastic dynamics.

Complements the closed-form Gaussian propagator: works for arbitrary states
(notably two-packet cats), so it serves both as an independent oracle for the
Gaussian moment equations and as the only way to simulate collapse and
decoherence observables.

One Ito step of the quadratic dynamics is Strang-split:

    half kinetic (Fourier)  ->  floor clipping  ->  local factor
    ->  renormalize  ->  half kinetic

with the local factor exp[-(alpha M omega^2 / 2 hbar + s^2/2) x_c^2 dt
+ s x_c dW], x_c = x - <x> centered on the midpoint mean (after the first
kinetic half step).  The -s^2 x_c^2 / 2 term converts the exponential
(Stratonovich-like) update into the Ito generator: with it, the
pre-renormalization norm deviation per step has zero mean and O(dt) size,
and Gaussian initial data reproduce the closed-form moment flow on shared
noise paths.

Amplitudes below FLOOR_FRACTION of the peak are zeroed at the midpoint,
just before the noisy local factor that would otherwise grow them.  The
kinetic factor is unitary, so the norm is read right after the local
factor, and the renormalization is folded into the trailing kinetic factor
in Fourier space.  That spectrum is kept in GridState.spectrum (the FFT of
the returned amplitudes), and the next step starts from it: a step costs
three FFTs (inverse, forward, inverse) instead of four, and every step
still returns the real-space amplitudes.

A deterministic nonlocal mode evolves the mean-field dynamics with a
softened attractive kernel; that update is exactly unitary on the grid, so
the norm is preserved to machine precision without renormalization.  It
carries its spectrum the same way.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import fft as sfft

from .errors import ContainmentError, DomainError, StatisticsError, StepSizeError
from .gaussian_dynamics import Variant, variant_coefficients
from .model_core import Constants
from .noise_field import run_batches

DEFAULT_N = 1024
DEFAULT_X_MIN = -20.0
DEFAULT_X_MAX = 20.0

# |psi| allowed at the outermost cells; larger means the state touches the box
CONTAINMENT_TOL = 1e-8
# amplitudes this far below the peak are roundoff, not physics; the noisy
# local factor would otherwise grow that floor in a geometric random walk
FLOOR_FRACTION = 1e-13
MIN_COHERENCE_SEEDS = 100


@functools.lru_cache(maxsize=16)
def _k_grids(n: int, dx: float):
    k = 2.0 * math.pi * np.fft.fftfreq(n, d=dx)
    kd = k.copy()
    if n % 2 == 0:
        kd[n // 2] = 0.0  # aliased Nyquist has no usable derivative sign
    # cached arrays are shared by every caller and pool thread; read-only,
    # an in-place write raises instead of corrupting them all
    k.flags.writeable = kd.flags.writeable = False
    return k, kd


@functools.lru_cache(maxsize=32)
def _half_kinetic_factor(n: int, dx: float, dt: float, hbar: float, mass: float):
    k, _ = _k_grids(n, dx)
    factor = np.exp(-0.25j * hbar * k**2 * dt / mass)
    factor.flags.writeable = False
    return factor


@functools.lru_cache(maxsize=16)
def _dealias_mask(n: int, dx: float):
    # two-thirds rule: near-Nyquist modes can exceed pi kinetic phase per
    # step and get parametrically pumped by a state-dependent potential;
    # our packets carry no physical content there
    k, _ = _k_grids(n, dx)
    mask = (np.abs(k) <= (2.0 / 3.0) * np.max(np.abs(k))).astype(float)
    mask.flags.writeable = False
    return mask


@functools.lru_cache(maxsize=32)
def _dealiased_half_kinetic_factor(n: int, dx: float, dt: float, hbar: float, mass: float):
    factor = _half_kinetic_factor(n, dx, dt, hbar, mass) * _dealias_mask(n, dx)
    factor.flags.writeable = False
    return factor


@functools.lru_cache(maxsize=16)
def _x_grids(n: int, dx: float, x0: float):
    x = x0 + dx * np.arange(n)
    x2 = x**2
    x.flags.writeable = x2.flags.writeable = False
    return x, x2


@dataclass(frozen=True, eq=False)
class GridState:
    """Wave function on a uniform 1D grid x_j = x0 + j dx.

    amplitudes may be (n,) for one trajectory or (batch, n) for a vectorized
    ensemble; all moment accessors reduce over the last axis.  States are
    kept L2-normalized (sum |psi|^2 dx = 1) by the quadratic stepper; the
    pre-renormalization mismatch of the latest step is kept in
    norm_deviation as a solver diagnostic.  spectrum, set only by the
    steppers, is the FFT of amplitudes along the last axis; the next step
    and the momentum-space moments start from it instead of a new FFT.
    """

    amplitudes: np.ndarray
    dx_grid: float
    x0: float
    norm_deviation: float | np.ndarray = 0.0
    spectrum: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.amplitudes.shape[-1]

    @property
    def x(self) -> np.ndarray:
        return _x_grids(self.n, self.dx_grid, self.x0)[0]

    def density(self) -> np.ndarray:
        return _abs2(self.amplitudes)

    def norm(self):
        return np.sqrt(np.sum(self.density(), axis=-1) * self.dx_grid)

    def mean_x(self):
        rho = self.density()
        return np.sum(self.x * rho, axis=-1) / np.sum(rho, axis=-1)

    def delta_x2(self):
        rho = self.density()
        tot = np.sum(rho, axis=-1)
        x, x2 = _x_grids(self.n, self.dx_grid, self.x0)
        m1 = np.sum(x * rho, axis=-1) / tot
        m2 = np.sum(x2 * rho, axis=-1) / tot
        return m2 - m1**2

    def _fourier(self) -> np.ndarray:
        """FFT of the amplitudes along the last axis (the carried spectrum)."""
        if self.spectrum is not None:
            return self.spectrum
        return sfft.fft(self.amplitudes, axis=-1)

    def _spectral_weights(self):
        w = _abs2(self._fourier())
        return w, np.sum(w, axis=-1)

    def mean_p(self, constants: Constants = Constants()):
        _, kd = _k_grids(self.n, self.dx_grid)
        w, tot = self._spectral_weights()
        return constants.hbar * np.sum(kd * w, axis=-1) / tot

    def delta_p2(self, constants: Constants = Constants()):
        k, kd = _k_grids(self.n, self.dx_grid)
        w, tot = self._spectral_weights()
        m1 = np.sum(kd * w, axis=-1) / tot
        m2 = np.sum(k**2 * w, axis=-1) / tot
        return constants.hbar**2 * (m2 - m1**2)

    def kinetic_energy(self, constants: Constants = Constants()):
        k, _ = _k_grids(self.n, self.dx_grid)
        w, tot = self._spectral_weights()
        return constants.hbar**2 * np.sum(k**2 * w, axis=-1) / tot / (2.0 * constants.mass)

    def correlation_xp(self, constants: Constants = Constants()):
        """Symmetrized covariance <xp + px>/2 - <x><p>."""
        _, kd = _k_grids(self.n, self.dx_grid)
        psi = self.amplitudes
        dpsi = sfft.ifft(1j * kd * self._fourier(), axis=-1)
        xc = self.x - self.mean_x()[..., None]
        raw = np.sum(np.conj(psi) * xc * (-1j * constants.hbar) * dpsi, axis=-1).real
        tot = np.sum(_abs2(psi), axis=-1)
        return raw / tot

    def repeated(self, rows: int) -> "GridState":
        """A batch of `rows` independent copies of this single state."""
        amps = np.broadcast_to(self.amplitudes, (rows, self.n)).copy()
        return GridState(amps, self.dx_grid, self.x0)


@dataclass(frozen=True)
class CatState:
    """Two-packet superposition spec: equal widths a0 at separation ell.

    Branches sit at -ell/2 and +ell/2 with amplitude weights
    sqrt(weight_left), sqrt(weight_right).
    """

    a0: complex
    separation: float
    weight_left: float = 0.5
    weight_right: float = 0.5

    def __post_init__(self):
        if not np.real(self.a0) > 0:
            raise DomainError("packet width parameter needs Re(a0) > 0")
        if self.weight_left < 0 or self.weight_right < 0:
            raise DomainError("branch weights must be non-negative")
        if abs(self.weight_left + self.weight_right - 1.0) > 1e-12:
            raise DomainError("branch weights must sum to 1")
        if not self.separation > 4.0 * self.packet_delta_x:
            raise DomainError("branches closer than 4 packet widths are not resolvable")

    @property
    def packet_delta_x(self) -> float:
        return math.sqrt(1.0 / (4.0 * np.real(self.a0)))

    def separation_cells(self, dx: float) -> int:
        """The separation in whole cells of a grid with spacing dx.

        Grid readers shift by whole cells, so the separation they use is
        this times dx, the nearest multiple of dx; the CLI reports it.
        """
        cells = int(round(self.separation / dx))
        if cells < 1:
            raise DomainError(f"separation {self.separation} is under half a cell of {dx}")
        return cells


@dataclass(frozen=True)
class SoftKernelSpec:
    """Softened 1D pair kernel -strength / sqrt(dx^2 + a_soft^2).

    strength plays the role of G M^2; a_soft keeps the kernel regular at
    contact so packets can overlap without a singularity.
    """

    a_soft: float
    strength: float

    def __post_init__(self):
        if not self.a_soft > 0:
            raise DomainError("softening length must be positive")
        if self.strength < 0:
            raise DomainError("kernel strength must be non-negative")

    def pair_energy(self, distance) -> float:
        """Potential energy of two unit point masses at the given distance."""
        return -self.strength / np.sqrt(np.asarray(distance) ** 2 + self.a_soft**2)


def make_axis(n: int = DEFAULT_N, x_min: float = DEFAULT_X_MIN, x_max: float = DEFAULT_X_MAX):
    if n < 16:
        raise DomainError("grid needs at least 16 cells")
    if not x_max > x_min:
        raise DomainError("empty grid domain")
    dx = (x_max - x_min) / n
    return x_min + dx * np.arange(n), dx


def init_gaussian(
    xbar: float,
    pbar: float,
    a: complex,
    n: int = DEFAULT_N,
    x_min: float = DEFAULT_X_MIN,
    x_max: float = DEFAULT_X_MAX,
    constants: Constants = Constants(),
) -> GridState:
    """Normalized Gaussian exp(-a (x - xbar)^2 + i pbar (x - xbar) / hbar)."""
    if not np.real(a) > 0:
        raise DomainError("need Re(a) > 0 for a normalizable packet")
    x, dx = make_axis(n, x_min, x_max)
    spread = math.sqrt(1.0 / (4.0 * np.real(a)))
    if xbar - 6.0 * spread < x_min or xbar + 6.0 * spread > x_max:
        raise ContainmentError("grid does not contain 6 standard deviations around xbar")
    xc = x - xbar
    psi = np.exp(-a * xc**2 + 1j * pbar * xc / constants.hbar)
    psi = psi / (math.sqrt(np.sum(np.abs(psi) ** 2) * dx))
    return GridState(psi, dx, x_min)


def init_cat(
    cat: CatState,
    n: int = DEFAULT_N,
    x_min: float = DEFAULT_X_MIN,
    x_max: float = DEFAULT_X_MAX,
    constants: Constants = Constants(),
) -> GridState:
    """Normalized two-branch state centered on the origin."""
    x, dx = make_axis(n, x_min, x_max)
    half = 0.5 * cat.separation
    spread = cat.packet_delta_x
    if -half - 6.0 * spread < x_min or half + 6.0 * spread > x_max:
        raise ContainmentError("grid does not contain the cat branches")
    left = np.exp(-cat.a0 * (x + half) ** 2)
    right = np.exp(-cat.a0 * (x - half) ** 2)
    peak = 1.0 / math.sqrt(math.sqrt(math.pi / (2.0 * np.real(cat.a0))))
    psi = math.sqrt(cat.weight_left) * left + math.sqrt(cat.weight_right) * right
    psi = psi * peak  # scale is irrelevant; normalization follows
    psi = psi / math.sqrt(np.sum(np.abs(psi) ** 2) * dx)
    return GridState(psi.astype(complex), dx, x_min)


def _abs2(z: np.ndarray) -> np.ndarray:
    out = np.square(z.real)
    out += np.square(z.imag)
    return out


def _rowdot(a: np.ndarray, b: np.ndarray):
    # sum over the last axis in one pass with no temporary; einsum's
    # per-row sum is the same bytes for a row alone or inside any batch
    return np.einsum("...j,...j->...", a, b)


def _norm(psi: np.ndarray, dx: float):
    flat = psi.view(np.float64)  # (re, im) pairs: sum of squares is sum |psi|^2
    return np.sqrt(_rowdot(flat, flat) * dx)


def _check_contained(psi: np.ndarray):
    # np.max propagates NaN, and a NaN edge fails the <= test
    edge = np.max(np.abs(psi[..., [0, -1]]))
    if not edge <= CONTAINMENT_TOL:
        raise ContainmentError(
            f"edge amplitude {edge:.2e} exceeds {CONTAINMENT_TOL:.0e}; enlarge the box"
        )


def _check_kinetic_resolution(dt: float, dx: float, constants: Constants):
    phase = constants.hbar * dt / (2.0 * constants.mass * dx**2)
    if phase >= 0.5:
        raise StepSizeError(f"kinetic phase per step {phase:.3f} >= 0.5; reduce dt")


def step_quadratic(
    state: GridState,
    variant: Variant,
    dt: float,
    dW,
    constants: Constants = Constants(),
    omega: float = 1.0,
) -> GridState:
    """One Ito step of the chosen variant; see the module docstring.

    dW is scalar for a single state or shape (batch,) for batched states.
    The returned state is renormalized; its norm_deviation records the
    pre-renormalization mismatch, and its spectrum is the FFT of its
    amplitudes, which the next step starts from.
    """
    if dt <= 0:
        raise DomainError("dt must be positive")
    _check_kinetic_resolution(dt, state.dx_grid, constants)
    m, hbar = constants.mass, constants.hbar
    alpha, s = variant_coefficients(variant, constants, omega)
    # Ito-compensated local drift; for SSNE the imaginary parts cancel
    c_loc = -(alpha * m * omega**2 / (2.0 * hbar) + 0.5 * s * s)

    if state.amplitudes.ndim == 1 and np.ndim(dW) != 0:
        raise DomainError("scalar state needs a scalar dW")
    dw = np.asarray(dW)

    half = _half_kinetic_factor(state.n, state.dx_grid, float(dt), hbar, m)
    psi = sfft.ifft(state._fourier() * half, axis=-1, overwrite_x=True)
    rho = _abs2(psi)
    # center the noise factor on the midpoint mean: pre-step centering leaves
    # a systematic O(pbar dt^2) kick per step that accumulates to dt * |int
    # pbar| once the momentum has diffused
    x, x2 = _x_grids(state.n, state.dx_grid, state.x0)
    tot = np.sum(rho, axis=-1)
    xbar = _rowdot(rho, x) / tot
    dx2_mid = _rowdot(rho, x2) / tot - xbar**2
    xc = x - xbar[..., None]
    # exponent (c_loc dt xc + s dW) xc and its exp in one array; GSSE has a
    # purely real exponent, and the real exp path is much cheaper
    if c_loc.imag == 0.0 and s.imag == 0.0:
        factor = xc * (c_loc.real * dt)
        factor += s.real * dw[..., None]
    else:
        factor = xc * (c_loc * dt)
        factor += s * dw[..., None]
    factor *= xc
    np.exp(factor, out=factor)
    # floor clipping right before the noisy factor, which is what would grow
    # the floor: the factor is zeroed where |psi| < FLOOR_FRACTION * peak,
    # i.e. where rho < FLOOR_FRACTION^2 * max rho (nowhere if rho has a NaN)
    floor = FLOOR_FRACTION**2 * np.max(rho, axis=-1)
    factor *= ~(rho < floor[..., None])
    psi *= factor

    # the trailing half kinetic factor is unitary, so the norm is read here
    nrm = _norm(psi, state.dx_grid)
    deviation = nrm - 1.0
    # realized-noise bound: the leading deviation is s^2 (dW^2 - dt) 2 Dx^2;
    # written so that a NaN deviation fails it
    bound = 10.0 * (2.0 * abs(s) ** 2 * dx2_mid * (dw**2 + dt)) + 1e-9
    if not np.all(np.abs(deviation) <= bound):
        raise StepSizeError(
            "pre-renormalization norm deviation too large or not finite; reduce dt"
        )
    spectrum = sfft.fft(psi, axis=-1, overwrite_x=True)
    spectrum *= half
    spectrum *= 1.0 / nrm[..., None]
    psi = sfft.ifft(spectrum, axis=-1)
    _check_contained(psi)
    return GridState(psi, state.dx_grid, state.x0, deviation, spectrum)


@functools.lru_cache(maxsize=16)
def _soft_kernel_spectrum(n: int, dx: float, a_soft: float, strength: float):
    # padded length 2n removes periodic wrap, making the convolution linear
    m = np.arange(2 * n)
    disp = dx * (((m + n) % (2 * n)) - n)
    kern = -strength / np.sqrt(disp**2 + a_soft**2)
    spec = sfft.rfft(kern)
    spec.flags.writeable = False
    return spec


def mean_field_potential(rho: np.ndarray, dx: float, kernel: SoftKernelSpec) -> np.ndarray:
    """V(x) = int K_soft(x - y) rho(y) dy on the grid, rho = |psi|^2."""
    n = rho.shape[-1]
    padded = np.zeros(rho.shape[:-1] + (2 * n,))
    np.multiply(rho, dx, out=padded[..., :n])
    spec = _soft_kernel_spectrum(n, dx, kernel.a_soft, kernel.strength)
    return sfft.irfft(sfft.rfft(padded, axis=-1) * spec, axis=-1)[..., :n]


def step_sne_nonlocal(
    state: GridState,
    kernel: SoftKernelSpec,
    dt: float,
    constants: Constants = Constants(),
) -> GridState:
    """One deterministic mean-field step with the softened nonlocal kernel.

    Strang split: half kinetic, full potential phase with V built from the
    current density (|psi| is constant during the phase substep, so this is
    self-consistent), half kinetic.  Exactly unitary; no renormalization.
    Like step_quadratic it starts from the carried spectrum and returns the
    new one.
    """
    if dt <= 0:
        raise DomainError("dt must be positive")
    _check_kinetic_resolution(dt, state.dx_grid, constants)
    half = _dealiased_half_kinetic_factor(
        state.n, state.dx_grid, float(dt), constants.hbar, constants.mass
    )
    psi = sfft.ifft(state._fourier() * half, axis=-1, overwrite_x=True)
    v = mean_field_potential(_abs2(psi), state.dx_grid, kernel)
    psi *= np.exp(1j * (v * (-dt / constants.hbar)))
    spectrum = sfft.fft(psi, axis=-1, overwrite_x=True)
    spectrum *= half
    psi = sfft.ifft(spectrum, axis=-1)
    deviation = _norm(psi, state.dx_grid) - 1.0
    # written so that a NaN deviation fails it
    if not np.all(np.abs(deviation) <= 1e-9):
        raise StepSizeError("unitary step lost the norm or is not finite; reduce dt")
    _check_contained(psi)
    return GridState(psi, state.dx_grid, state.x0, deviation, spectrum)


def separation_series(
    state: GridState,
    kernel: SoftKernelSpec,
    dt: float,
    n_steps: int,
    stride: int,
):
    """Two-packet separation under the nonlocal mean field.

    Takes n_steps of step_sne_nonlocal and, every stride steps, records the
    time and the centroid of the density on x > 0 minus its centroid on
    x < 0.  Returns (times, separations, final state).
    """
    x = state.x
    times, separations = [], []
    for k in range(1, n_steps + 1):
        state = step_sne_nonlocal(state, kernel, dt)
        if k % stride == 0:
            rho = state.density()
            right, left = rho * (x > 0), rho * (x < 0)
            times.append(k * dt)
            separations.append(
                np.sum(x * right) / np.sum(right) - np.sum(x * left) / np.sum(left)
            )
    return times, separations, state


def coherence_series(
    seeds,
    cat: CatState,
    variant: Variant,
    times,
    dt: float = 1e-3,
    base_seed: int = 0,
    n: int = DEFAULT_N,
    x_min: float = DEFAULT_X_MIN,
    x_max: float = DEFAULT_X_MAX,
    constants: Constants = Constants(),
    omega: float = 1.0,
    workers: int = 1,
) -> np.ndarray:
    """Normalized ensemble coherence between the two branches at each time.

    Runs one trajectory per entry of seeds (trajectory stream indices under
    base_seed) and evaluates the ensemble-mean displaced overlap
        Re mean_traj int psi*(x) psi(x + ell) dx / sqrt(w_L w_R)
    at the requested times, which must be multiples of dt; a time may be
    listed more than once.  The trajectories are stepped in cache-sized
    blocks by run_batches, on `workers` threads; the per-trajectory overlaps
    of all blocks are averaged at once, so the result is the same bytes
    whatever the worker count.
    """
    seeds = list(seeds)
    if len(seeds) < MIN_COHERENCE_SEEDS:
        raise StatisticsError(f"need at least {MIN_COHERENCE_SEEDS} seeds")
    if variant is Variant.SNE:
        raise DomainError("coherence decay needs a noisy variant")
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.size == 0:
        raise DomainError("times must list at least one time")
    steps_at = np.round(times / dt).astype(int)
    if np.any(np.abs(steps_at * dt - times) > 1e-9) or np.any(times < 0):
        raise DomainError("times must be non-negative multiples of dt")
    steps, slot = np.unique(steps_at, return_inverse=True)
    start = init_cat(cat, n, x_min, x_max, constants)
    ell_cells = cat.separation_cells(start.dx_grid)

    def overlap(st):
        # displaced overlap int psi*(x) psi(x + ell) dx isolates the
        # cross-branch off-diagonal and tolerates branch wandering
        psi = st.amplitudes
        return np.sum(np.conj(psi[:, :-ell_cells]) * psi[:, ell_cells:], axis=-1)

    # (read, trajectory) overlaps of every block
    seg = np.stack(run_batches(
        start.repeated,
        lambda st, dw: step_quadratic(st, variant, dt, dw, constants, omega),
        base_seed, seeds, dt, steps, overlap, workers, n,
    ))
    # branch masses are martingales, so the t=0 weights normalize the mean;
    # its real part avoids the upward folding bias of |mean| at low coherence
    num = np.mean(seg, axis=1).real * start.dx_grid
    return (num / math.sqrt(cat.weight_left * cat.weight_right))[slot]


def branch_split_weights(state: GridState, cat: CatState) -> np.ndarray:
    """Left-branch weight per trajectory with a dynamically located split.

    The branches wander as a pair, so the split follows them: global
    density peak, partner peak one separation away on the denser side,
    split halfway between them.  This stays meaningful deep into collapse.
    Returns an array for a batched state and a float for a single one.
    """
    rho = np.atleast_2d(state.density())
    ell_cells = cat.separation_cells(state.dx_grid)
    n = rho.shape[-1]
    rows = np.arange(rho.shape[0])
    i_peak = np.argmax(rho, axis=-1)
    lo = np.clip(i_peak - ell_cells, 0, n - 1)
    hi = np.clip(i_peak + ell_cells, 0, n - 1)
    i_other = np.where(rho[rows, lo] > rho[rows, hi], lo, hi)
    i_split = (i_peak + i_other) // 2
    csum = np.cumsum(rho, axis=-1)
    w = csum[rows, i_split] / csum[:, -1]
    return w if state.amplitudes.ndim > 1 else float(w[0])
