"""Correlated gravitational noise and its reduction to packet-level kicks.

Three layers:

* wiener_increments: counter-based Gaussian increments.  Every increment is a
  pure function of (base_seed, trajectory_index, step), so ensembles are
  reproducible bit-for-bit regardless of execution order.  drive is the one
  ensemble stepping loop built on them: it advances a batch of trajectories,
  each along its own stream (base_seed, j), to the step counts its caller
  declares, and returns what the caller's reader makes of the state at each
  of them.  run_batches is the one way a whole ensemble is run: it splits
  the trajectories into such batches over worker threads and joins the
  reads of every batch in trajectory order.
* sample_phi_field: a real random potential on a periodic 3D grid with
  spatial covariance 1 / |r - s| per unit time (G = hbar = M = 1).  A
  sample is its unit white noise per cell, eta; the field is eta filtered
  spectrally with one cached amplitude filter, sqrt(4 pi / k^2) / h^1.5
  with the uniform mode removed, and scaled by sqrt(dt).
* reduce_phi_to_w: projection of the field onto the gradient of a mass
  profile.  The resulting 3-vector has identity covariance per unit time,
  which is what the packet-level solvers consume.

The projection is linear in the field, and so is filtering the white noise,
so the kick has one path: the kick filter G, a cached (3, n^3) real array
built from the momentum-space gradient i k_a amp f_hat (the sharp edge of
the uniform-sphere profile never needs a real-space derivative), takes a
sample's eta to its kick with one dot product per axis and no FFT, and
G G^T is the kick's exact covariance on the lattice.

scipy.fft is imported by the functions that transform, on first use, as in
grid_dynamics.
"""
from __future__ import annotations

import functools
import math
import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, GravlabError, ResolutionError
from .model_core import MassProfile, omega_g

# Field samples and trajectory noise live in disjoint Philox stream ranges so
# that reusing one base seed for both can never correlate them.
_FIELD_STREAM_BIT = 1 << 63

# Minimum number of grid cells per profile characteristic length for the
# reduction to be trustworthy.
MIN_CELLS_PER_LENGTH = 8

# Complex cells (1 MiB) in one grid batch.  A block and the temporaries of a
# step on it stay in a core's L2 cache, and blocks let threads share a batch:
# on a 2-core machine, 1000 cat trajectories of 2048 cells stepped 1.4x
# (GSSE) and 1.0x (SSNE) faster in 32-row blocks on one thread, and 2.4x and
# 2.1x faster on two, than in one piece.
BLOCK_CELLS = 1 << 16

# Steps of noise that drive draws at once (8 MB for 1000 trajectories).
NOISE_BLOCK_STEPS = 1024


def _check_seed(base_seed: int) -> None:
    # the seed is the low 64 bits of the Philox key and the stream index the
    # high 64, so a larger seed would draw another (seed, stream) pair's noise
    if not 0 <= base_seed < 1 << 64:
        raise DomainError(f"base seed {base_seed} is outside [0, 2**64)")


def _philox(base_seed: int, stream_index: int) -> np.random.Generator:
    """Counter-based generator keyed by (base_seed, stream_index < 2**64)."""
    _check_seed(base_seed)
    if stream_index < 0:
        raise DomainError("stream indices must be non-negative")
    return np.random.Generator(np.random.Philox(key=base_seed + (stream_index << 64)))


@dataclass(frozen=True)
class NoisePath:
    """Wiener increments for one trajectory; increments[k] ~ N(0, dt)."""

    base_seed: int
    trajectory_index: int
    dt: float
    increments: np.ndarray  # shape (n_steps,)


def wiener_increments(
    base_seed: int,
    trajectory_index: int,
    n_steps: int,
    dt: float,
) -> NoisePath:
    """Draw the full increment table for one trajectory.

    The table is a pure function of (base_seed, trajectory_index); different
    trajectories use disjoint Philox keys, so any subset of an ensemble can
    be regenerated independently.
    """
    if dt <= 0:
        raise DomainError("dt must be positive")
    if n_steps < 0:
        raise DomainError("need n_steps >= 0")
    gen = _trajectory_stream(base_seed, trajectory_index)
    incr = gen.standard_normal(n_steps) * math.sqrt(dt)
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
    dt: float,
    steps: Sequence[int],
    read: Callable,
) -> list:
    """Step a batch of trajectories along their own single-axis noise streams.

    Batch column col follows stream (base_seed, indices[col]), so a
    trajectory's path does not depend on which batch carries it or where.
    Step k + 1 is ``state = advance(state, dW)`` with dW the k-th increment of
    every column.  Returns ``read(state)`` after each of the declared step
    counts, in order; steps must be non-empty, strictly increasing and >= 0,
    and the run ends at the last one.  The increments are those of
    ``wiener_increments``, drawn NOISE_BLOCK_STEPS steps at a time, so the
    noise held in memory does not grow with the run.
    """
    if dt <= 0:
        raise DomainError("dt must be positive")
    steps = [operator.index(k) for k in steps]
    if not steps or steps[0] < 0 or any(a >= b for a, b in zip(steps, steps[1:])):
        raise DomainError("steps must be non-empty, strictly increasing and >= 0")
    streams = [_trajectory_stream(base_seed, j) for j in indices]
    scale = math.sqrt(dt)
    reads, done = [], 0
    for target in steps:
        while done < target:
            row = done % NOISE_BLOCK_STEPS
            if row == 0:
                table = np.empty((min(NOISE_BLOCK_STEPS, steps[-1] - done), len(streams)))
                for col, gen in enumerate(streams):
                    # a Generator's normals continue across calls, so block
                    # draws equal the rows of one whole-table draw
                    table[:, col] = gen.standard_normal(table.shape[0]) * scale
            state = advance(state, table[row])
            done += 1
        reads.append(read(state))
    return reads


def run_batches(
    start, advance: Callable, base_seed: int, indices: Sequence[int], dt: float,
    steps: Sequence[int], read: Callable, workers: int, n_cells: int | None = None,
) -> list:
    """drive over contiguous batches of indices, joined in index order.

    Every trajectory starts from the one state start, which the caller
    builds, so a bad start raises once, before any batch: each batch runs
    drive(start.repeated(rows), advance, ...).  Returns drive's contract for
    the whole ensemble: for each declared step, read's output for all
    trajectories in index order, with tuples joined field by field.  Grid
    ensembles pass n_cells, the grid size, so that no batch holds more than
    BLOCK_CELLS // n_cells rows.  There are at least `workers` batches,
    split as np.array_split does; with workers == 1 they run on the calling
    thread, otherwise on min(workers, batches) pool threads.  Every per-row
    operation of the steppers is independent of its batch, so the reads do
    not depend on the batching.  When a batch fails with a solver error, its
    trajectories are rerun one by one and the error is raised again naming
    the first one that fails.
    """
    if workers < 1:
        raise DomainError("workers must be >= 1")
    _check_seed(base_seed)  # a bad seed is no one trajectory's fault

    def run(batch):
        return drive(start.repeated(len(batch)), advance, base_seed, batch, dt, steps, read)

    def attributed(batch):
        try:
            return run(batch)
        except GravlabError as exc:
            if len(batch) == 1:
                raise type(exc)(f"trajectory {batch[0]}: {exc}") from exc
            for j in batch:
                try:
                    run([j])
                except GravlabError as single:
                    raise type(single)(f"trajectory {j}: {single}") from single
            raise

    count = workers
    if n_cells is not None:
        rows = max(1, BLOCK_CELLS // n_cells)
        count = max(count, -(-len(indices) // rows))
    batches = [b.tolist() for b in np.array_split(np.asarray(indices), count) if b.size]
    if workers == 1:
        parts = [attributed(batch) for batch in batches]
    else:
        with ThreadPoolExecutor(max_workers=min(workers, len(batches))) as pool:
            parts = list(pool.map(attributed, batches))
    if len(parts) == 1:
        return parts[0]
    # parts[batch][read] -> one read per step over every batch
    return [
        tuple(map(np.concatenate, zip(*pieces))) if isinstance(pieces[0], tuple)
        else np.concatenate(pieces)
        for pieces in zip(*parts)
    ]


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


# The (3, n^3) kick filter takes 3 n^3 8 B: 3.4 MB at n = 52, 400 MB at
# n = 256.  Its cache holds two, enough for one profile and grid at a time;
# the amplitude filter and k^2 are a sixth of that size each.
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
def _amplitude_filter(n: int, h: float) -> np.ndarray:
    """sample_phi_field's filter on the rfftn of unit normals per cell.

    sqrt(4 pi / k^2) / h^1.5, zero at k = 0; the h^-1.5 makes each normal
    the white noise of a cell of volume h^3.
    """
    k2, _, _ = _k_arrays(n, h)
    amp = np.sqrt(4.0 * math.pi / np.where(k2 > 0, k2, 1.0)) / h**1.5
    amp[0, 0, 0] = 0.0
    amp.flags.writeable = False
    return amp


@dataclass(frozen=True, eq=False)
class PhiFieldSample:
    """One spatial sample of the random potential, scaled by sqrt(dt).

    The sample is its read-only unit normals per cell, noise, drawn from
    stream (base_seed, sample_index); reduce_phi_to_w takes them to the
    sample's kick.
    """

    grid: FieldGrid
    dt: float
    base_seed: int
    sample_index: int
    noise: np.ndarray = field(repr=False)


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
) -> PhiFieldSample:
    """One field sample with covariance dt / |r - s|.

    Draws the sample's white noise per cell now, so bad arguments raise
    here.  The field is that noise filtered with sqrt(4 pi / k^2) and
    scaled by sqrt(dt); its k = 0 mode is dropped (only gradients of the
    field are ever observed, so the uniform component is unphysical).
    """
    if dt <= 0:
        raise DomainError("dt must be positive")
    eta = _white_noise(grid, base_seed, sample_index)
    eta.flags.writeable = False  # a write here would change the sample's kick
    return PhiFieldSample(grid, dt, base_seed, sample_index, eta)


def _profile_spectrum(profile: MassProfile, grid: FieldGrid) -> np.ndarray:
    """rfftn of the profile density sampled on the grid, centered on the box."""
    import scipy.fft as sfft

    ax = grid.axis()
    r = np.sqrt(ax[:, None, None] ** 2 + ax[None, :, None] ** 2 + ax[None, None, :] ** 2)
    spec = sfft.rfftn(profile.density(r))
    spec.flags.writeable = False  # the kick filter only reads it
    return spec


def _check_resolution(grid: FieldGrid, profile: MassProfile) -> None:
    if grid.h > profile.char_length / MIN_CELLS_PER_LENGTH:
        raise ResolutionError(
            f"grid spacing {grid.h:.4f} too coarse for profile scale {profile.char_length:.4f}"
        )


@functools.lru_cache(maxsize=FILTER_CACHE_SIZE)
def _kick_filter(profile: MassProfile, grid: FieldGrid) -> np.ndarray:
    """(3, n^3) read-only rows h^3 / omega_g irfftn(i k_a amp f_hat).

    Row a is the profile gradient d_a f, taken spectrally,
    filtered with the amplitude filter amp: amp is real and even in k, so
    filtering the noise and projecting equals projecting onto these rows.
    """
    import scipy.fft as sfft

    n = grid.n
    _, kxd, kzd = _k_arrays(n, grid.h)
    spec = _amplitude_filter(n, grid.h) * _profile_spectrum(profile, grid)
    pref = 1.0 / omega_g(profile) * grid.h**3
    rows = np.empty((3, n**3))
    for row, k in zip(rows, (kxd[:, None, None], kxd[None, :, None], kzd[None, None, :])):
        grad = sfft.irfftn((1j * k) * spec, s=(n,) * 3, overwrite_x=True)
        np.multiply(grad.ravel(), pref, out=row)
    rows.flags.writeable = False
    return rows


def kick_filter(grid: FieldGrid, profile: MassProfile) -> np.ndarray:
    """(3, n^3) filter G from a field sample's white noise to its kick.

    reduce_phi_to_w of a sample is sqrt(dt) G @ eta for the sample's unit
    normals eta, so G G^T is the exact covariance of the kick per unit time
    on this lattice.  Cached and read-only.
    """
    _check_resolution(grid, profile)
    return _kick_filter(profile, grid)


def reduce_phi_to_w(field: PhiFieldSample, profile: MassProfile) -> np.ndarray:
    """Project a field sample onto the gradient of the profile at the box center.

    Returns the 3-vector
        w_a = 1 / omega_g * int (d_a f)(r) Phi(r) d^3r
    carrying the sample's sqrt(dt) scaling, i.e. a Wiener increment with
    identity covariance per unit time.  It is sqrt(dt) G @ eta for the
    sample's white noise eta and the cached kick filter G (kick_filter);
    no FFT runs.
    """
    g = kick_filter(field.grid, profile)
    return math.sqrt(field.dt) * (g @ field.noise.ravel())
