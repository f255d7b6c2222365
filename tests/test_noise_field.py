"""Tests for the random potential sampler and its profile reduction.

Oracles used here are independent of the implementation internals:
* exact lattice sums over the full (complex) FFT spectrum,
* an analytic single-mode field whose reduction is known in closed form,
* large-sample moment checks with seeded generators.

The library never builds a sample's field: its kick goes straight from the
white noise.  phi_values synthesizes the field here, from the library's
white noise and amplitude filter, for the field statistics and as input to
the spectral references.

Units are natural, G = hbar = M = 1, as in the implementation.
"""
import math

import numpy as np
import pytest
from scipy import fft as sfft

from gravlab import noise_field
from gravlab.errors import DomainError, ResolutionError
from gravlab.model_core import MassProfile, omega_g
from gravlab.noise_field import (
    FieldGrid,
    PhiFieldSample,
    _k_arrays,
    _profile_spectrum,
    drive,
    reduce_phi_to_w,
    sample_phi_field,
    wiener_increments,
)


def full_spectrum_k(n, h):
    """k arrays for the full complex FFT on one axis."""
    return 2.0 * math.pi * np.fft.fftfreq(n, d=h)


def spectral_deriv_k(n, h):
    """Derivative wavenumbers: Nyquist zeroed (its sign is aliased for real data)."""
    k = full_spectrum_k(n, h).copy()
    if n % 2 == 0:
        k[n // 2] = 0.0
    return k


def lattice_two_point(n, box, shift_cells):
    """Exact E[Phi(x) Phi(x + shift)] / dt on the periodic lattice.

    Direct sum of the filtered white-noise power over all modes:
    C(s) = (1 / V) sum_{k != 0} (4 pi / k^2) cos(k_x s).
    """
    h = box / n
    kx = full_spectrum_k(n, h)
    k2 = kx[:, None, None] ** 2 + kx[None, :, None] ** 2 + kx[None, None, :] ** 2
    power = np.where(k2 > 0, 4.0 * math.pi / np.where(k2 > 0, k2, 1.0), 0.0)
    phase = np.cos(kx[:, None, None] * shift_cells * h)
    return float(np.sum(power * phase)) / box**3


def profile_on_grid(profile, grid):
    ax = grid.axis()
    r = np.sqrt(ax[:, None, None] ** 2 + ax[None, :, None] ** 2 + ax[None, None, :] ** 2)
    return profile.density(r)


def reduced_w_expected_cov(profile, grid):
    """Exact per-axis E[w_a^2] / dt from the full-spectrum lattice sum."""
    h = grid.h
    fhat2 = np.abs(sfft.fftn(profile_on_grid(profile, grid))) ** 2
    kx = full_spectrum_k(grid.n, h)
    k2 = kx[:, None, None] ** 2 + kx[None, :, None] ** 2 + kx[None, None, :] ** 2
    inv_k2 = np.where(k2 > 0, 1.0 / np.where(k2 > 0, k2, 1.0), 0.0)
    base = 4.0 * math.pi * inv_k2 * fhat2
    pref = 1.0 / omega_g(profile) ** 2 * h**3 / grid.n**3
    kd = spectral_deriv_k(grid.n, h)
    out = np.empty(3)
    out[0] = pref * float(np.sum(base * kd[:, None, None] ** 2))
    out[1] = pref * float(np.sum(base * kd[None, :, None] ** 2))
    out[2] = pref * float(np.sum(base * kd[None, None, :] ** 2))
    return out


def phi_values(grid, dt, base_seed, sample_index=0):
    """The field of sample (base_seed, sample_index), synthesized eagerly: its
    white noise filtered with sqrt(4 pi / k^2) / h^1.5, scaled by sqrt(dt)."""
    spec = sfft.rfftn(noise_field._white_noise(grid, base_seed, sample_index))
    spec *= noise_field._amplitude_filter(grid.n, grid.h)
    return math.sqrt(dt) * sfft.irfftn(spec, s=(grid.n,) * 3)


def reduced_w_full_fft(values, grid, profile):
    """Reimplementation of the reduction of field values with the full complex FFT."""
    h = grid.h
    fhat = sfft.fftn(profile_on_grid(profile, grid))
    phat = sfft.fftn(values)
    kd = spectral_deriv_k(grid.n, h)
    pref = 1.0 / omega_g(profile) * h**3 / grid.n**3
    w = np.empty(3)
    w[0] = pref * float(np.sum(1j * kd[:, None, None] * fhat * np.conj(phat)).real)
    w[1] = pref * float(np.sum(1j * kd[None, :, None] * fhat * np.conj(phat)).real)
    w[2] = pref * float(np.sum(1j * kd[None, None, :] * fhat * np.conj(phat)).real)
    return w


class TestWienerIncrements:
    def test_bitwise_reproducible(self):
        a = wiener_increments(17, 4, 128, 1e-3)
        b = wiener_increments(17, 4, 128, 1e-3)
        assert np.array_equal(a.increments, b.increments)

    def test_prefix_stable_in_step_count(self):
        # extending a trajectory must not change its early increments
        short = wiener_increments(9, 0, 50, 0.01).increments
        long = wiener_increments(9, 0, 400, 0.01).increments
        assert np.array_equal(short, long[:50])

    def test_streams_independent(self):
        a = wiener_increments(3, 0, 20000, 1.0).increments
        b = wiener_increments(3, 1, 20000, 1.0).increments
        assert not np.array_equal(a[:100], b[:100])
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.03

    def test_moments(self):
        dt = 0.25
        x = wiener_increments(2024, 7, 1000000, dt).increments
        n = x.size
        assert abs(x.mean()) < 4.0 * math.sqrt(dt / n)
        assert abs(x.var() / dt - 1.0) < 5.0 * math.sqrt(2.0 / n)

    def test_sqrt_dt_scaling_exact(self):
        a = wiener_increments(5, 2, 100, 0.01).increments
        b = wiener_increments(5, 2, 100, 0.04).increments
        assert np.allclose(b, 2.0 * a, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(base_seed=-1, trajectory_index=0, n_steps=1, dt=0.1),
            dict(base_seed=0, trajectory_index=-2, n_steps=1, dt=0.1),
            dict(base_seed=0, trajectory_index=0, n_steps=1, dt=0.0),
            dict(base_seed=0, trajectory_index=0, n_steps=-1, dt=0.1),
            dict(base_seed=0, trajectory_index=1 << 63, n_steps=1, dt=0.1),
        ],
    )
    def test_rejects_bad_arguments(self, kwargs):
        with pytest.raises(DomainError):
            wiener_increments(**kwargs)

    def test_key_is_the_seed_and_the_stream(self):
        # valid seeds keep their draws: the Philox key is base_seed + (stream << 64)
        for seed in (0, 5, (1 << 64) - 1):
            gen = np.random.Generator(np.random.Philox(key=seed + (3 << 64)))
            np.testing.assert_array_equal(wiener_increments(seed, 3, 4, 1.0).increments,
                                          gen.standard_normal(4))

    def test_seed_of_64_bits_or_more_does_not_alias_a_smaller_one(self):
        g = FieldGrid(8, 2.0)
        for seed in (1 << 64, (1 << 64) + 5):
            with pytest.raises(DomainError, match="outside"):
                wiener_increments(seed, 0, 3, 1.0)
            with pytest.raises(DomainError, match="outside"):
                drive(0, lambda state, dw: state, seed, [0], 1.0, [3], lambda state: state)
            with pytest.raises(DomainError, match="outside"):
                sample_phi_field(g, 1.0, seed, 0)

    def test_path_metadata(self):
        p = wiener_increments(1, 2, 90, 0.5)
        assert p.increments.shape == (90,)
        assert (p.base_seed, p.trajectory_index, p.dt) == (1, 2, 0.5)


def driven(base_seed, indices, steps, dt):
    """Rows fed to each step and what was read at each declared step.

    The state counts the steps taken, so each read shows whether it came
    after the right number of steps.
    """
    rows = []

    def advance(state, dw):
        rows.append(dw.copy())
        return state + 1

    reads = drive(0, advance, base_seed, indices, dt, steps, lambda state: state)
    return np.array(rows).reshape(len(rows), len(indices)), reads


class TestDrive:
    def test_rows_follow_each_trajectory_stream(self):
        rows, _ = driven(21, [5, 2, 9], [40], 0.01)
        for col, j in enumerate([5, 2, 9]):
            want = wiener_increments(21, j, 40, 0.01).increments
            np.testing.assert_array_equal(rows[:, col], want)

    def test_blocks_of_steps_feed_the_same_rows(self, monkeypatch):
        whole, _ = driven(21, [5, 2, 9], [40], 0.01)
        monkeypatch.setattr(noise_field, "NOISE_BLOCK_STEPS", 7)
        for steps in (range(41), [6, 7, 8, 40]):
            blocked, reads = driven(21, [5, 2, 9], steps, 0.01)
            np.testing.assert_array_equal(blocked, whole)
            assert reads == list(steps)

    def test_split_batches_feed_the_same_rows(self):
        whole, _ = driven(21, [5, 2, 9], [40], 0.01)
        first, _ = driven(21, [5], [40], 0.01)
        rest, _ = driven(21, [2, 9], [40], 0.01)
        np.testing.assert_array_equal(np.hstack([first, rest]), whole)

    def test_reads_run_only_at_the_declared_steps(self):
        seen = []

        def read(state):
            seen.append(state)
            return -state

        reads = drive(0, lambda state, dw: state + 1, 0, [0, 1], 0.1, [0, 3, 7], read)
        assert seen == [0, 3, 7]
        assert reads == [0, -3, -7]
        _, reads = driven(0, [0, 1], [2, 5], 0.1)
        assert reads == [2, 5]

    @pytest.mark.parametrize("steps", [[0], [4], [0, 3, 9], range(0, 13, 4)])
    def test_advance_runs_exactly_the_last_step_count(self, steps):
        rows, reads = driven(0, [0, 1], steps, 0.1)
        assert rows.shape == (list(steps)[-1], 2)
        assert reads == list(steps)

    @pytest.mark.parametrize("steps", [[], [3, 2], [1, 1], [-1]])
    def test_rejects_bad_steps(self, steps):
        calls = []
        with pytest.raises(DomainError):
            drive(0, lambda state, dw: calls.append(dw), 0, [0, 1], 0.1, steps, calls.append)
        assert calls == []


class TestCachedArrays:
    def test_cached_arrays_are_read_only(self):
        grid = FieldGrid(16, 4.0)
        arrays = [
            *_k_arrays(grid.n, grid.h),
            _profile_spectrum(MassProfile.uniform_sphere(1.0), grid, (0.0, 0.0, 0.0)),
        ]
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[...] = 0.0


class TestPhiField:
    def test_bitwise_reproducible(self):
        g = FieldGrid(16, 4.0)
        a = sample_phi_field(g, 1e-3, 42, 5)
        b = sample_phi_field(g, 1e-3, 42, 5)
        assert np.array_equal(a.noise, b.noise)
        assert not np.array_equal(a.noise, sample_phi_field(g, 1e-3, 42, 6).noise)
        # the noise phi_values filters, and no caller can write to it
        assert np.array_equal(a.noise, noise_field._white_noise(g, 42, 5))
        assert not a.noise.flags.writeable

    def test_zero_spatial_mean(self):
        v = phi_values(FieldGrid(24, 5.0), 1.0, 7, 0)
        assert abs(v.mean()) < 1e-12 * v.std()

    def test_sqrt_dt_scaling_exact(self):
        g = FieldGrid(16, 4.0)
        prof = MassProfile.gaussian_ball(2.0)
        a = sample_phi_field(g, 0.01, 3, 1)
        b = sample_phi_field(g, 0.09, 3, 1)
        assert np.array_equal(a.noise, b.noise)
        assert np.allclose(reduce_phi_to_w(b, prof), 3.0 * reduce_phi_to_w(a, prof),
                           rtol=1e-13, atol=0.0)

    def test_field_stream_separate_from_trajectory_stream(self):
        # same base seed and index must not reuse the trajectory bitstream
        g = FieldGrid(16, 4.0)
        f = sample_phi_field(g, 1.0, 11, 3).noise.ravel()[:4000]
        w = wiener_increments(11, 3, 4000, 1.0).increments
        assert abs(np.corrcoef(f, w)[0, 1]) < 0.06

    def test_two_point_matches_lattice_sum_and_continuum(self):
        n, box, n_samples = 48, 6.0, 500
        g = FieldGrid(n, box)
        exact = lattice_two_point(n, box, 1)
        per_sample = np.empty(n_samples)
        var_sample = np.empty(n_samples)
        for i in range(n_samples):
            v = phi_values(g, 1.0, 909, i)
            per_sample[i] = np.mean(
                [np.mean(v * np.roll(v, 1, axis=a)) for a in range(3)]
            )
            var_sample[i] = np.mean(v * v)
        est = per_sample.mean()
        sigma = per_sample.std(ddof=1) / math.sqrt(n_samples)
        assert abs(est - exact) < 5.0 * sigma
        # one-cell separation still tracks the continuum 1 / s law
        assert abs(exact * g.h / 1.0 - 1.0) < 0.05
        # equal-point variance agrees with the exact mode sum
        assert abs(var_sample.mean() / lattice_two_point(n, box, 0) - 1.0) < 0.05

    def test_variance_diverges_under_refinement(self):
        # equal-point variance is ultraviolet dominated and grows ~ 1/h
        coarse = lattice_two_point(24, 6.0, 0)
        fine = lattice_two_point(48, 6.0, 0)
        assert fine / coarse > 1.6

    def test_rejects_bad_arguments(self):
        g = FieldGrid(8, 2.0)
        with pytest.raises(DomainError):
            sample_phi_field(g, 0.0, 1)
        with pytest.raises(DomainError):
            sample_phi_field(g, 0.1, -1)
        with pytest.raises(DomainError):
            sample_phi_field(g, 0.1, 1, 1 << 63)
        with pytest.raises(DomainError):
            FieldGrid(3, 2.0)
        with pytest.raises(DomainError):
            FieldGrid(8, 0.0)


class TestReduceToW:
    def test_single_mode_field_closed_form(self):
        # Phi = sin(k1 x) picks out one lattice mode; the projection is then
        # an exact finite sum: w_x = -pref * k1 * h^3 sum f cos(k1 x), w_y = w_z = 0.
        # This validates the spectral references the kick is checked against.
        g = FieldGrid(48, 6.0)
        prof = MassProfile.uniform_sphere(1.0)
        ax = g.axis()
        k1 = 2.0 * math.pi / g.box
        vals = np.broadcast_to(np.sin(k1 * ax)[:, None, None], (g.n,) * 3)
        fv = profile_on_grid(prof, g)
        pref = 1.0 / omega_g(prof)
        expected = -pref * k1 * g.h**3 * float(np.sum(fv * np.cos(k1 * ax)[:, None, None]))
        for w in (reduced_w_full_fft(vals, g, prof), reduced_w_half_spectrum(vals, g, prof)):
            assert abs(w[0] - expected) < 1e-12 * abs(expected)
            assert abs(w[1]) < 1e-12 * abs(expected)
            assert abs(w[2]) < 1e-12 * abs(expected)

    def test_matches_full_spectrum_reimplementation(self):
        g = FieldGrid(32, 6.0)
        prof = MassProfile.gaussian_ball(1.6)
        w = reduce_phi_to_w(sample_phi_field(g, 1.0, 13, 2), prof)
        w_ref = reduced_w_full_fft(phi_values(g, 1.0, 13, 2), g, prof)
        assert np.allclose(w, w_ref, rtol=1e-9, atol=1e-12)

    def test_off_center_reduction(self):
        # shifting the noise, and so the field, and the reduction center
        # together must leave w unchanged
        g = FieldGrid(32, 6.0)
        prof = MassProfile.gaussian_ball(1.6)
        f = sample_phi_field(g, 1.0, 21, 0)
        shift = 5  # cells
        rolled = PhiFieldSample(g, 1.0, 21, 0, np.roll(f.noise, shift, axis=0))
        w0 = reduce_phi_to_w(f, prof)
        w1 = reduce_phi_to_w(rolled, prof, center=(shift * g.h, 0.0, 0.0))
        assert np.allclose(w0, w1, rtol=1e-9, atol=1e-12)

    def test_covariance_near_identity_at_reference_geometry(self):
        # the 52-cell box-6.2 geometry is the one the verification suite uses;
        # its exact lattice expectation sits within 0.5% of the ideal identity
        g = FieldGrid(52, 6.2)
        prof = MassProfile.uniform_sphere(1.0)
        expect = reduced_w_expected_cov(prof, g)
        assert np.allclose(expect, expect[0], rtol=1e-10)  # isotropic
        assert abs(expect[0] - 0.9969) < 2e-3  # frozen lattice value
        n_samples = 1000
        ws = np.empty((n_samples, 3))
        for i in range(n_samples):
            ws[i] = reduce_phi_to_w(sample_phi_field(g, 1.0, 31415, i), prof)
        cov = ws.T @ ws / n_samples
        sig_diag = expect[0] * math.sqrt(2.0 / n_samples)
        assert np.all(np.abs(np.diag(cov) - expect) < 5.0 * sig_diag)
        off = cov - np.diag(np.diag(cov))
        assert np.max(np.abs(off)) < 5.0 * expect[0] / math.sqrt(n_samples)
        assert np.all(np.abs(ws.mean(axis=0)) < 5.0 / math.sqrt(n_samples))

    def test_rejects_underresolved_profile(self):
        g = FieldGrid(32, 6.0)  # h = 0.1875, needs sigma >= 1.5
        with pytest.raises(ResolutionError):
            reduce_phi_to_w(sample_phi_field(g, 1.0, 1), MassProfile.gaussian_ball(0.75))


def reduced_w_half_spectrum(values, grid, profile, center=(0.0, 0.0, 0.0)):
    """The reduction of field values as a weighted sum over the rfftn half spectrum.

    Parseval weights 2 for the interior kz planes and 1 for kz = 0 and
    Nyquist, derivative wavenumbers with Nyquist zeroed.
    """
    n, h, box = grid.n, grid.h, grid.box
    ax = grid.axis()

    def wrap(d):
        return (d + 0.5 * box) % box - 0.5 * box

    r = np.sqrt(
        wrap(ax[:, None, None] - center[0]) ** 2
        + wrap(ax[None, :, None] - center[1]) ** 2
        + wrap(ax[None, None, :] - center[2]) ** 2
    )
    fhat = sfft.rfftn(profile.density(r))
    spec = sfft.rfftn(values)
    kx = spectral_deriv_k(n, h)
    kz = 2.0 * math.pi * np.fft.rfftfreq(n, d=h)
    wt = np.full(kz.shape, 2.0)
    wt[0] = 1.0
    if n % 2 == 0:
        kz[-1] = 0.0
        wt[-1] = 1.0
    cross = wt * fhat * np.conj(spec)
    pref = 1.0 / omega_g(profile) * h**3 / n**3
    ks = (kx[:, None, None], kx[None, :, None], kz[None, None, :])
    return pref * np.array([float(np.sum(1j * k * cross).real) for k in ks])


def assert_relative(w, ref, rel):
    assert np.max(np.abs(w - ref)) <= rel * np.max(np.abs(ref))


OFF_CENTER_BALL = (FieldGrid(32, 6.0), MassProfile.gaussian_ball(1.6), (0.9, -0.4, 0.25))
CENTERED_SPHERE = (FieldGrid(52, 6.2), MassProfile.uniform_sphere(1.0), (0.0, 0.0, 0.0))


class TestFilters:
    @pytest.mark.parametrize("grid, profile, center", [OFF_CENTER_BALL, CENTERED_SPHERE])
    def test_reduction_matches_half_spectrum_sum(self, grid, profile, center):
        for i in (0, 1, 2, 7, 1000):
            f = sample_phi_field(grid, 0.5, 8, i)
            assert_relative(reduce_phi_to_w(f, profile, center),
                            reduced_w_half_spectrum(phi_values(grid, 0.5, 8, i), grid,
                                                    profile, center), 1e-13)

    def test_kick_covariance_is_the_exact_lattice_covariance(self):
        grid, prof, _ = CENTERED_SPHERE
        g = noise_field.kick_filter(grid, prof)
        expect = reduced_w_expected_cov(prof, grid)
        np.testing.assert_allclose(g @ g.T, np.diag(expect), rtol=0.0, atol=1e-10)

    def test_guards_raise_at_call_time(self):
        grid = FieldGrid(32, 6.0)  # h = 0.1875, needs sigma >= 1.5
        coarse = MassProfile.gaussian_ball(0.75)
        field = sample_phi_field(grid, 1.0, 1)
        with pytest.raises(ResolutionError):
            reduce_phi_to_w(field, coarse)
        with pytest.raises(ResolutionError):
            noise_field.kick_filter(grid, coarse)
        with pytest.raises(DomainError):
            sample_phi_field(grid, 0.0, 1)
        with pytest.raises(DomainError):
            sample_phi_field(grid, 0.1, -1)
        with pytest.raises(DomainError):
            sample_phi_field(grid, 0.1, 1, 1 << 63)


class TestFilterCaches:
    def test_filters_are_cached_read_only_and_few(self):
        grid, prof, center = OFF_CENTER_BALL
        caches = {
            noise_field._k_arrays: (grid.n, grid.h),
            noise_field._amplitude_filter: (grid.n, grid.h),
            noise_field._kick_filter: (prof, grid, center),
        }
        for cached, args in caches.items():
            # each (3, n^3) filter is 3 n^3 8 B: 400 MB at n = 256
            assert cached.cache_info().maxsize <= 2
            first, again = cached(*args), cached(*args)
            assert first is again
            for arr in (first if isinstance(first, tuple) else (first,)):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[...] = 0.0
        assert noise_field.kick_filter(grid, prof, center) is noise_field._kick_filter(
            prof, grid, center)
        assert noise_field._kick_filter(prof, grid, center).shape == (3, grid.n**3)
