"""Correlated gravitational noise and its reduction to packet-level kicks.

Three layers:

* wiener_increments: counter-based Gaussian increments.  Every increment is a
  pure function of (base_seed, trajectory_index, step), so ensembles are
  reproducible bit-for-bit regardless of execution order.  drive is the one
  ensemble stepping loop built on them: it advances a batch of trajectories,
  each along its own stream (base_seed, j), and shows every intermediate
  state to an observer.  map_chunks is the one way an ensemble is split
  into such batches and spread over worker threads.
* sample_phi_field: a real random potential on a periodic 3D grid with
  spatial covariance G hbar / |r - s| per unit time, synthesized spectrally:
  the rfftn of unit white noise per cell times one cached amplitude filter,
  sqrt(4 pi G hbar / k^2) / h^1.5 with the uniform mode removed.
* reduce_phi_to_w: projection of the field onto the gradient of a mass
  profile.  The resulting 3-vector has identity covariance per unit time,
  which is what the packet-level solvers consume.

The projection is linear in the field, so it is a cached real-space filter:
a (3, n^3) gradient filter D, built once per (profile, grid, center) from
the momentum-space gradient i k_a f_hat (the sharp edge of the
uniform-sphere profile never needs a real-space derivative), makes each
reduction one dot product per axis.  Filtering the white noise and
projecting is linear too: the kick filter G, D with the amplitude filter
applied, takes a sample's white noise straight to its kick (sample_w), with
no FFT per sample, and G G^T is the kick's exact covariance on the lattice.
"""
from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import fft as sfft

from .errors import DomainError, GravlabError, ResolutionError
from .model_core import Constants, MassProfile, omega_g

_MASK64 = (1 << 64) - 1

# Field samples and trajectory noise live in disjoint Philox stream ranges so
# that reusing one base seed for both can never correlate them.
_FIELD_STREAM_BIT = 1 << 63

# Minimum number of grid cells per profile characteristic length for the
# reduction to be trustworthy.
MIN_CELLS_PER_LENGTH = 8

# Complex cells (1 MiB) in one grid chunk.  A block and the temporaries of a
# step on it stay in a core's L2 cache, and blocks let threads share a batch:
# on a 2-core machine, 1000 cat trajectories of 2048 cells stepped 1.4x
# (GSSE) and 1.0x (SSNE) faster in 32-row blocks on one thread, and 2.4x and
# 2.1x faster on two, than in one piece.
BLOCK_CELLS = 1 << 16

# Steps of noise that drive draws at once (8 MB for 1000 trajectories).
NOISE_BLOCK_STEPS = 1024


def _philox(base_seed: int, stream_index: int) -> np.random.Generator:
    """Counter-based generator keyed by (base_seed, stream_index)."""
    if base_seed < 0 or stream_index < 0:
        raise DomainError("seeds and stream indices must be non-negative")
    key = (base_seed & _MASK64) + ((stream_index & _MASK64) << 64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class NoisePath:
    """Wiener increments for one trajectory; increments[k] ~ N(0, dt)."""

    base_seed: int
    trajectory_index: int
    dt: float
    increments: np.ndarray  # shape (n_steps, n_axes)

    @property
    def n_steps(self) -> int:
        return self.increments.shape[0]

    @property
    def n_axes(self) -> int:
        return self.increments.shape[1]


def wiener_increments(
    base_seed: int,
    trajectory_index: int,
    n_steps: int,
    dt: float,
    n_axes: int = 1,
) -> NoisePath:
    """Draw the full increment table for one trajectory.

    The table is a pure function of (base_seed, trajectory_index); different
    trajectories use disjoint Philox keys, so any subset of an ensemble can
    be regenerated independently.
    """
    if dt <= 0:
        raise DomainError("dt must be positive")
    if n_steps < 0 or n_axes < 1:
        raise DomainError("need n_steps >= 0 and n_axes >= 1")
    gen = _trajectory_stream(base_seed, trajectory_index)
    incr = gen.standard_normal((n_steps, n_axes)) * math.sqrt(dt)
    return NoisePath(base_seed, trajectory_index, dt, incr)


def _trajectory_stream(base_seed: int, trajectory_index: int) -> np.random.Generator:
    """The generator of trajectory noise stream (base_seed, trajectory_index)."""
    if trajectory_index >= _FIELD_STREAM_BIT:
        raise DomainError("trajectory_index out of range")
    return _philox(base_seed, trajectory_index)


def drive(
    state,
    advance: Callable,
    base_seed: int,
    indices: Sequence[int],
    n_steps: int,
    dt: float,
    observe: Callable,
) -> None:
    """Step a batch of trajectories along their own single-axis noise streams.

    Batch column col follows stream (base_seed, indices[col]), so a
    trajectory's path does not depend on which batch carries it or where.
    Step k + 1 is ``state = advance(state, dW)`` with dW the k-th increment of
    every column, and ``observe(k, state)`` sees the state after k steps, for
    k = 0 .. n_steps in order.  The increments are those of
    ``wiener_increments``, drawn NOISE_BLOCK_STEPS steps at a time, so the
    noise held in memory does not grow with n_steps.
    """
    if dt <= 0:
        raise DomainError("dt must be positive")
    if n_steps < 0:
        raise DomainError("need n_steps >= 0")
    streams = [_trajectory_stream(base_seed, j) for j in indices]
    scale = math.sqrt(dt)
    observe(0, state)
    for start in range(0, n_steps, NOISE_BLOCK_STEPS):
        table = np.empty((min(NOISE_BLOCK_STEPS, n_steps - start), len(streams)))
        for col, gen in enumerate(streams):
            # a Generator's normals continue across calls, so block draws
            # equal the rows of one whole-table draw
            table[:, col] = gen.standard_normal(table.shape[0]) * scale
        for k, dw in enumerate(table, start):
            state = advance(state, dw)
            observe(k + 1, state)


def map_chunks(
    run_chunk: Callable,
    indices: Sequence[int],
    workers: int,
    n_cells: int | None = None,
) -> list:
    """run_chunk over contiguous chunks of indices, results in index order.

    Grid ensembles pass n_cells, the grid size, so that no chunk holds more
    than BLOCK_CELLS // n_cells rows; n_cells=None (Gaussian ensembles)
    bounds nothing.  There are at least `workers` chunks, split as evenly as
    np.array_split does.  With workers == 1 they run in a loop on the
    calling thread, otherwise on min(workers, chunks) pool threads.  Every
    per-row operation of the steppers is independent of the batch it runs
    in, so the results do not depend on the chunking.  When a chunk fails
    with a solver error, its trajectories are rerun one by one and the error
    is raised again naming the first one that fails.
    """

    def attributed(chunk):
        try:
            return run_chunk(chunk)
        except GravlabError as exc:
            if len(chunk) == 1:
                raise type(exc)(f"trajectory {chunk[0]}: {exc}") from exc
            for j in chunk:
                try:
                    run_chunk([j])
                except GravlabError as single:
                    raise type(single)(f"trajectory {j}: {single}") from single
            raise

    count = workers
    if n_cells is not None:
        rows = max(1, BLOCK_CELLS // n_cells)
        count = max(count, -(-len(indices) // rows))
    chunks = [c.tolist() for c in np.array_split(np.asarray(indices), count) if c.size]
    if workers == 1:
        return [attributed(chunk) for chunk in chunks]
    with ThreadPoolExecutor(max_workers=min(workers, len(chunks))) as pool:
        return list(pool.map(attributed, chunks))


@dataclass(frozen=True)
class FieldGrid:
    """Periodic cubic grid: n cells per axis, physical side length box."""

    n: int
    box: float

    def __post_init__(self) -> None:
        if self.n < 4:
            raise DomainError("grid needs at least 4 cells per axis")
        if not self.box > 0:
            raise DomainError("box size must be positive")

    @property
    def h(self) -> float:
        return self.box / self.n

    def axis(self) -> np.ndarray:
        """Cell-center coordinates, centered on the box."""
        return (np.arange(self.n) - self.n // 2) * self.h


# The (3, n^3) projection filters take 3 n^3 8 B each: 3.4 MB at n = 52,
# 400 MB at n = 256.  Their caches hold two, enough for one profile and grid
# at a time; the amplitude filter and k^2 are a sixth of that size each.
FILTER_CACHE_SIZE = 2


@functools.lru_cache(maxsize=FILTER_CACHE_SIZE)
def _k_arrays(n: int, h: float):
    kx = 2.0 * math.pi * np.fft.fftfreq(n, d=h)
    kz = 2.0 * math.pi * np.fft.rfftfreq(n, d=h)
    k2 = kx[:, None, None] ** 2 + kx[None, :, None] ** 2 + kz[None, None, :] ** 2
    # Derivative wavenumbers: the Nyquist mode aliases +-pi/h, so the
    # band-limited derivative of a real field is zero there.
    kxd = kx.copy()
    kzd = kz.copy()
    if n % 2 == 0:
        kxd[n // 2] = 0.0
        kzd[-1] = 0.0
    # cached arrays are shared by every caller and pool thread; read-only,
    # an in-place write raises instead of corrupting them all
    for arr in (k2, kxd, kzd):
        arr.flags.writeable = False
    return k2, kxd, kzd


@functools.lru_cache(maxsize=FILTER_CACHE_SIZE)
def _amplitude_filter(n: int, h: float, G: float, hbar: float) -> np.ndarray:
    """sample_phi_field's filter on the rfftn of unit normals per cell.

    sqrt(4 pi G hbar / k^2) / h^1.5, zero at k = 0; the h^-1.5 makes each
    normal the white noise of a cell of volume h^3.
    """
    k2, _, _ = _k_arrays(n, h)
    amp = np.sqrt(4.0 * math.pi * G * hbar / np.where(k2 > 0, k2, 1.0)) / h**1.5
    amp[0, 0, 0] = 0.0
    amp.flags.writeable = False
    return amp


@dataclass(frozen=True)
class PhiFieldSample:
    """One spatial sample of the random potential, scaled by sqrt(dt)."""

    grid: FieldGrid
    dt: float
    values: np.ndarray  # (n, n, n) real
    base_seed: int
    sample_index: int
    constants: Constants


def _white_noise(grid: FieldGrid, base_seed: int, sample_index: int) -> np.ndarray:
    """Unit normals per cell of field sample (base_seed, sample_index)."""
    if sample_index >= _FIELD_STREAM_BIT:
        raise DomainError("sample_index out of range")
    gen = _philox(base_seed, _FIELD_STREAM_BIT | sample_index)
    return gen.standard_normal((grid.n,) * 3)


def sample_phi_field(
    grid: FieldGrid,
    dt: float,
    base_seed: int,
    sample_index: int = 0,
    constants: Constants = Constants(),
) -> PhiFieldSample:
    """Synthesize one field sample with covariance G hbar / |r - s| * dt.

    White noise per cell is filtered with sqrt(4 pi G hbar / k^2); the k = 0
    mode is dropped (only gradients of the field are ever observed, so the
    uniform component is unphysical).
    """
    if dt <= 0:
        raise DomainError("dt must be positive")
    spec = sfft.rfftn(_white_noise(grid, base_seed, sample_index))
    spec *= _amplitude_filter(grid.n, grid.h, constants.G, constants.hbar)
    vals = sfft.irfftn(spec, s=(grid.n,) * 3, overwrite_x=True)
    vals *= math.sqrt(dt)
    return PhiFieldSample(grid, dt, vals, base_seed, sample_index, constants)


def _profile_spectrum(profile: MassProfile, grid: FieldGrid, center: tuple) -> np.ndarray:
    """rfftn of the profile density sampled on the grid around `center`.

    Displacements are minimum-image on the periodic box, so moving the center
    by a whole number of cells is exactly a cyclic shift of the samples.
    """
    ax = grid.axis()
    cx, cy, cz = center
    box = grid.box

    def wrap(d):
        return (d + 0.5 * box) % box - 0.5 * box

    r = np.sqrt(
        wrap(ax[:, None, None] - cx) ** 2
        + wrap(ax[None, :, None] - cy) ** 2
        + wrap(ax[None, None, :] - cz) ** 2
    )
    spec = sfft.rfftn(profile.density(r))
    spec.flags.writeable = False  # the filters only read it
    return spec


def _check_resolution(grid: FieldGrid, profile: MassProfile) -> None:
    if grid.h > profile.char_length / MIN_CELLS_PER_LENGTH:
        raise ResolutionError(
            f"grid spacing {grid.h:.4f} too coarse for profile scale {profile.char_length:.4f}"
        )


@functools.lru_cache(maxsize=FILTER_CACHE_SIZE)
def _gradient_filter(profile: MassProfile, grid: FieldGrid, center: tuple) -> np.ndarray:
    """(3, n^3) real filter D with reduce_phi_to_w(field) = D @ field values.

    Row a is the profile gradient sqrt(M / hbar) / omega_g h^3 (d_a f)(r -
    center), taken spectrally as irfftn(i k_a f_hat): the sharp edge of the
    uniform-sphere profile never needs a real-space derivative.
    """
    c = profile.constants
    n = grid.n
    fhat = _profile_spectrum(profile, grid, center)
    _, kxd, kzd = _k_arrays(n, grid.h)
    pref = math.sqrt(c.mass / c.hbar) / omega_g(profile) * grid.h**3
    d = np.empty((3, n**3))
    for row, k in zip(d, (kxd[:, None, None], kxd[None, :, None], kzd[None, None, :])):
        grad = sfft.irfftn((1j * k) * fhat, s=(n,) * 3, overwrite_x=True)
        np.multiply(grad.ravel(), pref, out=row)
    d.flags.writeable = False
    return d


def _center_key(center) -> tuple:
    return tuple(float(x) for x in center)


def reduce_phi_to_w(
    field: PhiFieldSample,
    profile: MassProfile,
    center: tuple = (0.0, 0.0, 0.0),
) -> np.ndarray:
    """Project a field sample onto the profile gradient around `center`.

    Returns the 3-vector
        w_a = sqrt(M / hbar) / omega_g * int (d_a f)(r - center) Phi(r) d^3r
    carrying the sample's sqrt(dt) scaling, i.e. a Wiener increment with
    identity covariance per unit time.  One dot product per axis with the
    cached gradient filter.
    """
    _check_resolution(field.grid, profile)
    d = _gradient_filter(profile, field.grid, _center_key(center))
    return d @ field.values.ravel()


@functools.lru_cache(maxsize=FILTER_CACHE_SIZE)
def _kick_filter(
    profile: MassProfile, grid: FieldGrid, center: tuple, G: float, hbar: float
) -> np.ndarray:
    # the amplitude filter is real and even in k, so filtering the noise and
    # projecting equals projecting onto the filtered gradient rows
    n = grid.n
    d = _gradient_filter(profile, grid, center)
    amp = _amplitude_filter(n, grid.h, G, hbar)
    g = np.empty_like(d)
    for row, d_row in zip(g, d):
        spec = sfft.rfftn(d_row.reshape((n,) * 3))
        spec *= amp
        row[:] = sfft.irfftn(spec, s=(n,) * 3, overwrite_x=True).ravel()
    g.flags.writeable = False
    return g


def kick_filter(
    grid: FieldGrid,
    profile: MassProfile,
    center: tuple = (0.0, 0.0, 0.0),
    constants: Constants = Constants(),
) -> np.ndarray:
    """(3, n^3) filter G from a field sample's white noise to its kick.

    sample_w is sqrt(dt) G @ eta for the sample's unit normals eta, so
    G G^T is the exact covariance of the kick per unit time on this lattice.
    Cached and read-only.
    """
    _check_resolution(grid, profile)
    return _kick_filter(profile, grid, _center_key(center), constants.G, constants.hbar)


def sample_w(
    grid: FieldGrid,
    profile: MassProfile,
    dt: float,
    base_seed: int,
    sample_index: int = 0,
    center: tuple = (0.0, 0.0, 0.0),
    constants: Constants = Constants(),
) -> np.ndarray:
    """reduce_phi_to_w(sample_phi_field(grid, dt, base_seed, sample_index,
    constants), profile, center), up to round-off, without the field."""
    if dt <= 0:
        raise DomainError("dt must be positive")
    g = kick_filter(grid, profile, center, constants)
    return math.sqrt(dt) * (g @ _white_noise(grid, base_seed, sample_index).ravel())
