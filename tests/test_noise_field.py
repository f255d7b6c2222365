"""Tests for the random potential sampler and its profile reduction.

Oracles used here are independent of the implementation internals:
* exact lattice sums over the full (complex) FFT spectrum,
* an analytic single-mode field whose reduction is known in closed form,
* large-sample moment checks with seeded generators.
"""
import math

import numpy as np
import pytest
from scipy import fft as sfft

from gravlab import noise_field
from gravlab.errors import DomainError, ResolutionError
from gravlab.model_core import Constants, MassProfile, omega_g
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


def lattice_two_point(n, box, shift_cells, G=1.0, hbar=1.0):
    """Exact E[Phi(x) Phi(x + shift)] / dt on the periodic lattice.

    Direct sum of the filtered white-noise power over all modes:
    C(s) = (1 / V) sum_{k != 0} (4 pi G hbar / k^2) cos(k_x s).
    """
    h = box / n
    kx = full_spectrum_k(n, h)
    k2 = kx[:, None, None] ** 2 + kx[None, :, None] ** 2 + kx[None, None, :] ** 2
    power = np.where(k2 > 0, 4.0 * math.pi * G * hbar / np.where(k2 > 0, k2, 1.0), 0.0)
    phase = np.cos(kx[:, None, None] * shift_cells * h)
    return float(np.sum(power * phase)) / box**3


def profile_on_grid(profile, grid):
    ax = grid.axis()
    r = np.sqrt(ax[:, None, None] ** 2 + ax[None, :, None] ** 2 + ax[None, None, :] ** 2)
    return profile.density(r)


def reduced_w_expected_cov(profile, grid):
    """Exact per-axis E[w_a^2] / dt from the full-spectrum lattice sum."""
    c = profile.constants
    h = grid.h
    fhat2 = np.abs(sfft.fftn(profile_on_grid(profile, grid))) ** 2
    kx = full_spectrum_k(grid.n, h)
    k2 = kx[:, None, None] ** 2 + kx[None, :, None] ** 2 + kx[None, None, :] ** 2
    inv_k2 = np.where(k2 > 0, 1.0 / np.where(k2 > 0, k2, 1.0), 0.0)
    base = 4.0 * math.pi * c.G * c.hbar * inv_k2 * fhat2
    pref = c.mass / (c.hbar * omega_g(profile) ** 2) * h**3 / grid.n**3
    kd = spectral_deriv_k(grid.n, h)
    out = np.empty(3)
    out[0] = pref * float(np.sum(base * kd[:, None, None] ** 2))
    out[1] = pref * float(np.sum(base * kd[None, :, None] ** 2))
    out[2] = pref * float(np.sum(base * kd[None, None, :] ** 2))
    return out


def reduced_w_full_fft(field, profile):
    """Reimplementation of the reduction with the full complex FFT."""
    c = profile.constants
    grid = field.grid
    h = grid.h
    fhat = sfft.fftn(profile_on_grid(profile, grid))
    phat = sfft.fftn(field.values)
    kd = spectral_deriv_k(grid.n, h)
    pref = math.sqrt(c.mass / c.hbar) / omega_g(profile) * h**3 / grid.n**3
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

    def test_path_metadata(self):
        p = wiener_increments(1, 2, 90, 0.5)
        assert p.n_steps == 90
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
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, sample_phi_field(g, 1e-3, 42, 6).values)

    def test_zero_spatial_mean(self):
        g = FieldGrid(24, 5.0)
        f = sample_phi_field(g, 1.0, 7, 0)
        assert abs(f.values.mean()) < 1e-12 * f.values.std()

    def test_sqrt_dt_scaling_exact(self):
        g = FieldGrid(16, 4.0)
        a = sample_phi_field(g, 0.01, 3, 1)
        b = sample_phi_field(g, 0.09, 3, 1)
        assert np.allclose(b.values, 3.0 * a.values, rtol=1e-13, atol=0.0)

    def test_field_stream_separate_from_trajectory_stream(self):
        # same base seed and index must not reuse the trajectory bitstream
        g = FieldGrid(16, 4.0)
        f = sample_phi_field(g, 1.0, 11, 3).values.ravel()[:4000]
        w = wiener_increments(11, 3, 4000, 1.0).increments
        assert abs(np.corrcoef(f, w)[0, 1]) < 0.06

    def test_two_point_matches_lattice_sum_and_continuum(self):
        n, box, n_samples = 48, 6.0, 500
        g = FieldGrid(n, box)
        exact = lattice_two_point(n, box, 1)
        per_sample = np.empty(n_samples)
        var_sample = np.empty(n_samples)
        for i in range(n_samples):
            v = sample_phi_field(g, 1.0, 909, i).values
            per_sample[i] = np.mean(
                [np.mean(v * np.roll(v, 1, axis=a)) for a in range(3)]
            )
            var_sample[i] = np.mean(v * v)
        est = per_sample.mean()
        sigma = per_sample.std(ddof=1) / math.sqrt(n_samples)
        assert abs(est - exact) < 5.0 * sigma
        # one-cell separation still tracks the continuum G hbar / s law
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
        g = FieldGrid(48, 6.0)
        prof = MassProfile.uniform_sphere(1.0, Constants())
        ax = g.axis()
        k1 = 2.0 * math.pi / g.box
        vals = np.broadcast_to(np.sin(k1 * ax)[:, None, None], (g.n,) * 3).copy()
        field = PhiFieldSample(g, 1.0, vals, 0, 0, Constants())
        w = reduce_phi_to_w(field, prof)
        fv = profile_on_grid(prof, g)
        pref = math.sqrt(1.0) / omega_g(prof)
        expected = -pref * k1 * g.h**3 * float(np.sum(fv * np.cos(k1 * ax)[:, None, None]))
        assert abs(w[0] - expected) < 1e-12 * abs(expected)
        assert abs(w[1]) < 1e-12 * abs(expected)
        assert abs(w[2]) < 1e-12 * abs(expected)

    def test_matches_full_spectrum_reimplementation(self):
        g = FieldGrid(32, 6.0)
        prof = MassProfile.gaussian_ball(1.6)
        f = sample_phi_field(g, 1.0, 13, 2)
        w = reduce_phi_to_w(f, prof)
        w_ref = reduced_w_full_fft(f, prof)
        assert np.allclose(w, w_ref, rtol=1e-9, atol=1e-12)

    def test_off_center_reduction(self):
        # shifting field and reduction center together must leave w unchanged
        g = FieldGrid(32, 6.0)
        prof = MassProfile.gaussian_ball(1.6)
        f = sample_phi_field(g, 1.0, 21, 0)
        shift = 5  # cells
        rolled = PhiFieldSample(g, 1.0, np.roll(f.values, shift, axis=0), 21, 0, f.constants)
        w0 = reduce_phi_to_w(f, prof)
        w1 = reduce_phi_to_w(rolled, prof, center=(shift * g.h, 0.0, 0.0))
        assert np.allclose(w0, w1, rtol=1e-9, atol=1e-12)

    def test_mass_drops_out(self):
        g = FieldGrid(48, 6.0)
        f = sample_phi_field(g, 1.0, 77, 0)
        w1 = reduce_phi_to_w(f, MassProfile.uniform_sphere(1.0))
        w7 = reduce_phi_to_w(f, MassProfile.uniform_sphere(1.0, Constants(mass=7.0)))
        assert np.allclose(w1, w7, rtol=1e-12, atol=0.0)

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


def reduced_w_half_spectrum(field, profile, center=(0.0, 0.0, 0.0)):
    """The reduction as a weighted sum over the rfftn half spectrum.

    This is the spectral form the cached gradient filter replaced: Parseval
    weights 2 for the interior kz planes and 1 for kz = 0 and Nyquist,
    derivative wavenumbers with Nyquist zeroed.
    """
    c = profile.constants
    grid = field.grid
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
    spec = sfft.rfftn(field.values)
    kx = spectral_deriv_k(n, h)
    kz = 2.0 * math.pi * np.fft.rfftfreq(n, d=h)
    wt = np.full(kz.shape, 2.0)
    wt[0] = 1.0
    if n % 2 == 0:
        kz[-1] = 0.0
        wt[-1] = 1.0
    cross = wt * fhat * np.conj(spec)
    pref = math.sqrt(c.mass / c.hbar) / omega_g(profile) * h**3 / n**3
    ks = (kx[:, None, None], kx[None, :, None], kz[None, None, :])
    return pref * np.array([float(np.sum(1j * k * cross).real) for k in ks])


def assert_relative(w, ref, rel):
    assert np.max(np.abs(w - ref)) <= rel * np.max(np.abs(ref))


OFF_CENTER_BALL = (FieldGrid(32, 6.0), MassProfile.gaussian_ball(1.6), (0.9, -0.4, 0.25))
CENTERED_SPHERE = (FieldGrid(52, 6.2), MassProfile.uniform_sphere(1.0), (0.0, 0.0, 0.0))


class TestFilters:
    @pytest.mark.parametrize("grid, profile, center", [OFF_CENTER_BALL, CENTERED_SPHERE])
    def test_reduction_matches_half_spectrum_sum(self, grid, profile, center):
        for i in range(3):
            f = sample_phi_field(grid, 0.5, 8, i)
            assert_relative(reduce_phi_to_w(f, profile, center),
                            reduced_w_half_spectrum(f, profile, center), 1e-13)

    @pytest.mark.parametrize("grid, profile, center, constants", [
        (*OFF_CENTER_BALL, Constants()),
        (*CENTERED_SPHERE, Constants()),
        # the field's G and hbar drive the noise, the profile's the projection
        (FieldGrid(32, 6.0), MassProfile.gaussian_ball(1.6, Constants(hbar=0.7, mass=3.0)),
         (0.0, 0.0, 0.0), Constants(G=2.5, hbar=0.7)),
    ])
    def test_sampled_kick_equals_projected_values(self, grid, profile, center, constants):
        for i in (0, 1, 7, 1000):
            field = sample_phi_field(grid, 0.3, 1618, i, constants)
            w = reduce_phi_to_w(field, profile, center)
            by_hand = PhiFieldSample(grid, 0.3, field.values, 1618, i, constants)
            assert_relative(w, reduce_phi_to_w(by_hand, profile, center), 1e-13)

    def test_kick_does_not_depend_on_reading_values(self):
        grid, prof, center = OFF_CENTER_BALL
        unread = sample_phi_field(grid, 0.3, 5, 2)
        read = sample_phi_field(grid, 0.3, 5, 2)
        read.values
        w = reduce_phi_to_w(unread, prof, center)
        assert np.array_equal(w, reduce_phi_to_w(read, prof, center))
        unread.values
        assert np.array_equal(w, reduce_phi_to_w(unread, prof, center))

    @pytest.mark.parametrize("constants", [Constants(), Constants(G=2.5, hbar=0.7)])
    def test_values_are_the_eager_synthesis(self, constants):
        grid, dt = FieldGrid(24, 5.0), 0.3
        for i in (0, 7):
            # eager synthesis: filter the sample's normals, then scale by sqrt(dt)
            spec = sfft.rfftn(noise_field._white_noise(grid, 1618, i))
            spec *= noise_field._amplitude_filter(grid.n, grid.h, constants.G, constants.hbar)
            eager = sfft.irfftn(spec, s=(grid.n,) * 3, overwrite_x=True)
            eager *= math.sqrt(dt)
            field = sample_phi_field(grid, dt, 1618, i, constants)
            assert np.array_equal(field.values, eager)
            assert field.values is field.values
            assert not field.values.flags.writeable and not field.noise.flags.writeable

    @pytest.mark.parametrize("grid, profile, center", [OFF_CENTER_BALL, CENTERED_SPHERE])
    def test_kick_filter_is_the_filtered_gradient_filter(self, grid, profile, center):
        n = grid.n
        amp = noise_field._amplitude_filter(n, grid.h, 1.0, 1.0)
        d = noise_field._gradient_filter(profile, grid, noise_field._center_key(center))
        g = noise_field.kick_filter(grid, profile, center)
        for row, d_row in zip(g, d):
            ref = sfft.irfftn(amp * sfft.rfftn(d_row.reshape((n,) * 3)), s=(n,) * 3).ravel()
            assert_relative(row, ref, 1e-13)

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
            reduce_phi_to_w(PhiFieldSample(grid, 1.0, field.values, 1, 0, Constants()), coarse)
        with pytest.raises(ResolutionError):
            noise_field.kick_filter(grid, coarse)
        with pytest.raises(DomainError):
            sample_phi_field(grid, 0.0, 1)
        with pytest.raises(DomainError):
            sample_phi_field(grid, 0.1, -1)
        with pytest.raises(DomainError):
            sample_phi_field(grid, 0.1, 1, 1 << 63)
        with pytest.raises(DomainError):
            PhiFieldSample(grid, 1.0, None, 1, 0, Constants())
        with pytest.raises(DomainError):
            PhiFieldSample(grid, 1.0, field.values, 1, 0, Constants(), noise=field.noise)

    def test_sampled_loop_builds_no_gradient_filter(self):
        grid, prof, center = OFF_CENTER_BALL
        noise_field._gradient_filter.cache_clear()
        for i in range(4):
            field = sample_phi_field(grid, 1.0, 3, i)
            reduce_phi_to_w(field, prof, center)
            field.values
        assert noise_field._gradient_filter.cache_info().currsize == 0


class TestFilterCaches:
    def test_filters_are_cached_read_only_and_few(self):
        grid, prof, center = OFF_CENTER_BALL
        c = Constants()
        caches = {
            noise_field._k_arrays: (grid.n, grid.h),
            noise_field._amplitude_filter: (grid.n, grid.h, c.G, c.hbar),
            noise_field._gradient_filter: (prof, grid, center),
            noise_field._kick_filter: (prof, grid, center, c.G, c.hbar),
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
            prof, grid, center, c.G, c.hbar)
        assert noise_field._gradient_filter(prof, grid, center).shape == (3, grid.n**3)
