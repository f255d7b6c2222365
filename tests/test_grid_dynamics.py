"""Grid solver checks: moment fidelity, stepping accuracy against the
closed-form Gaussian propagator on shared noise, norm diagnostics, branch
bookkeeping, collapse statistics, coherence, and the nonlocal mean-field
mode."""
import math
import sys

import numpy as np
import pytest
from scipy import fft as sfft

from gravlab import ensemble_stats as es
from gravlab import grid_dynamics as gd
from gravlab import gaussian_dynamics as gauss
from gravlab.errors import ContainmentError, DomainError, StatisticsError, StepSizeError
from gravlab.gaussian_dynamics import Variant, soliton_state
from gravlab.model_core import Constants
from gravlab.noise_field import drive, wiener_increments

BIG_BOX = dict(n=2048, x_min=-40.0, x_max=40.0)


def batch_of(state, n_traj):
    amps = np.broadcast_to(state.amplitudes, (n_traj, state.n)).copy()
    return gd.GridState(amps, state.dx_grid, state.x0)


def noise_table(base_seed, n_traj, n_steps, dt):
    out = np.empty((n_steps, n_traj))
    for b in range(n_traj):
        out[:, b] = wiener_increments(base_seed, b, n_steps, dt).increments
    return out


class TestGridStateMoments:
    @pytest.mark.parametrize(
        "xbar, pbar, a",
        [(0.3, -0.4, 0.5 + 0.2j), (0.0, 0.0, 0.5 + 0.0j), (-2.0, 1.5, 1.2 - 0.3j)],
    )
    def test_init_moments_match_parameters(self, xbar, pbar, a):
        st = gd.init_gaussian(xbar, pbar, a)
        scale = math.sqrt(1.0 / (4.0 * a.real))
        assert abs(st.mean_x() - xbar) < 1e-6 * max(1.0, abs(xbar))
        assert abs(st.mean_p() - pbar) < 1e-6 * max(1.0, abs(pbar))
        assert abs(st.delta_x2() - scale**2) < 1e-6 * scale**2
        assert abs(st.norm() - 1.0) < 1e-12

    def test_sne_soliton_momentum_and_width(self):
        st = gd.init_gaussian(0.0, 0.0, soliton_state(Variant.SNE).a)
        assert abs(st.delta_x2() - 0.5) < 1e-6
        assert abs(st.mean_p()) < 1e-10

    def test_ssne_soliton_xp_correlation(self):
        st = gd.init_gaussian(0.0, 0.0, soliton_state(Variant.SSNE).a)
        assert abs(st.correlation_xp() - 0.5) < 1e-6

    def test_momentum_spread_matches_gaussian_formula(self):
        a = 0.8 - 0.3j
        st = gd.init_gaussian(0.0, 1.2, a)
        expected = abs(a) ** 2 / a.real
        assert abs(st.delta_p2() - expected) < 1e-6 * expected
        ke = (1.2**2 + expected) / 2.0
        assert abs(st.kinetic_energy() - ke) < 1e-6 * ke

    def test_batched_moments_match_singles(self):
        params = [(0.3, -0.4, 0.5 + 0.2j), (-1.0, 0.7, 1.1 + 0.0j), (2.0, 0.0, 0.6 - 0.2j)]
        singles = [gd.init_gaussian(*p) for p in params]
        batch = gd.GridState(np.stack([s.amplitudes for s in singles]),
                             singles[0].dx_grid, singles[0].x0)
        np.testing.assert_allclose(batch.mean_x(), [s.mean_x() for s in singles], rtol=1e-12)
        np.testing.assert_allclose(batch.mean_p(), [s.mean_p() for s in singles],
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(batch.delta_x2(), [s.delta_x2() for s in singles], rtol=1e-12)
        np.testing.assert_allclose(batch.correlation_xp(),
                                   [s.correlation_xp() for s in singles],
                                   rtol=1e-10, atol=1e-12)

    def test_unit_scaling(self):
        consts = Constants(hbar=0.5, mass=2.0)
        st = gd.init_gaussian(0.0, 0.6, 1.0 + 0.0j, constants=consts)
        assert abs(st.mean_p(consts) - 0.6) < 1e-6
        expected_dp2 = consts.hbar**2 * 1.0
        assert abs(st.delta_p2(consts) - expected_dp2) < 1e-6 * expected_dp2


class TestInitValidation:
    def test_rejects_non_normalizable_width(self):
        with pytest.raises(DomainError):
            gd.init_gaussian(0.0, 0.0, -0.5 + 1.0j)

    def test_rejects_packet_near_edge(self):
        with pytest.raises(ContainmentError):
            gd.init_gaussian(19.0, 0.0, 0.5 + 0.0j)

    def test_rejects_empty_domain(self):
        with pytest.raises(DomainError):
            gd.init_gaussian(0.0, 0.0, 0.5 + 0.0j, x_min=5.0, x_max=5.0)

    def test_cat_requires_resolved_branches(self):
        with pytest.raises(DomainError):
            gd.CatState(0.25 + 0.0j, 4.0)  # 4 * delta_x = 4 = separation

    def test_separation_rounds_to_whole_cells(self):
        # both cat presets sit at 51.2 cells; observers shift by 51
        assert gd.CatState(1.5 + 0.0j, 4.0).separation_cells(80.0 / 1024) == 51
        assert gd.CatState(4.0 + 0.0j, 2.0).separation_cells(80.0 / 2048) == 51
        assert gd.CatState(4.0 + 0.0j, 2.0).separation_cells(0.5) == 4
        with pytest.raises(DomainError):
            gd.CatState(4.0 + 0.0j, 2.0).separation_cells(5.0)

    def test_cat_weight_validation(self):
        with pytest.raises(DomainError):
            gd.CatState(4.0 + 0.0j, 2.0, weight_left=0.7, weight_right=0.4)
        with pytest.raises(DomainError):
            gd.CatState(4.0 + 0.0j, 2.0, weight_left=-0.1, weight_right=1.1)

    def test_cat_containment(self):
        with pytest.raises(ContainmentError):
            gd.init_cat(gd.CatState(4.0 + 0.0j, 39.0))

    def test_kernel_validation(self):
        with pytest.raises(DomainError):
            gd.SoftKernelSpec(0.0, 5.0)
        with pytest.raises(DomainError):
            gd.SoftKernelSpec(1.0, -2.0)


class TestStepQuadratic:
    def test_sne_soliton_is_stationary(self):
        st0 = gd.init_gaussian(0.0, 0.0, soliton_state(Variant.SNE).a)
        st = st0
        for _ in range(2000):
            st = gd.step_quadratic(st, Variant.SNE, 1e-3, 0.0)
        fidelity = abs(np.sum(np.conj(st0.amplitudes) * st.amplitudes) * st.dx_grid)
        assert fidelity >= 1.0 - 1e-7

    def test_gsse_norm_deviation_zero_mean_o_dt(self):
        dt = 1e-3
        st = gd.init_gaussian(0.0, 0.0, soliton_state(Variant.GSSE).a)
        incr = wiener_increments(7, 3, 2000, dt).increments
        devs = np.empty(2000)
        for k in range(2000):
            st = gd.step_quadratic(st, Variant.GSSE, dt, incr[k])
            devs[k] = float(st.norm_deviation)
        # mean compatible with zero at 4 sigma, fluctuation on the dt scale
        assert abs(devs.mean()) < 4.0 * devs.std() / math.sqrt(devs.size)
        assert devs.std() < 2.0 * dt
        assert np.abs(devs).max() < 20.0 * dt

    @pytest.mark.parametrize("variant", [Variant.GSSE, Variant.SSNE])
    def test_matches_gaussian_solver_on_shared_noise(self, variant):
        dt = 1e-4
        n_steps = 10000  # t = 1
        incr = wiener_increments(11, 5, n_steps, dt).increments
        gs = gauss.GaussianState(0.2, -0.3, 0.8 - 0.1j)
        grid = gd.init_gaussian(0.2, -0.3, 0.8 - 0.1j)
        worst = 0.0
        for k in range(n_steps):
            gs = gauss.step(gs, variant, dt, incr[k])
            grid = gd.step_quadratic(grid, variant, dt, incr[k])
            if (k + 1) % 1000 == 0:
                worst = max(
                    worst,
                    abs(grid.mean_x() - gs.xbar),
                    abs(grid.mean_p() - gs.pbar),
                    abs(math.sqrt(grid.delta_x2()) - math.sqrt(gs.delta_x2)),
                )
        assert worst < 2e-4

    def test_width_relaxes_to_soliton_value(self):
        st = gd.init_gaussian(0.0, 0.0, 2.0 + 0.0j)
        incr = wiener_increments(13, 0, 4000, 1e-3).increments
        for k in range(4000):
            st = gd.step_quadratic(st, Variant.GSSE, 1e-3, incr[k])
        assert abs(st.delta_x2() - 0.5) < 5e-3

    def test_batched_step_matches_singles(self):
        st = gd.init_gaussian(0.0, 0.0, soliton_state(Variant.GSSE).a)
        batch = batch_of(st, 3)
        dw = np.array([0.01, -0.02, 0.005])
        stepped = gd.step_quadratic(batch, Variant.GSSE, 1e-3, dw)
        for i in range(3):
            single = gd.step_quadratic(st, Variant.GSSE, 1e-3, float(dw[i]))
            np.testing.assert_array_equal(stepped.amplitudes[i], single.amplitudes)

    def test_rejects_bad_dt_and_mismatched_noise(self):
        st = gd.init_gaussian(0.0, 0.0, 0.5 + 0.0j)
        with pytest.raises(DomainError):
            gd.step_quadratic(st, Variant.SNE, 0.0, 0.0)
        with pytest.raises(StepSizeError):
            gd.step_quadratic(st, Variant.SNE, 1.0, 0.0)  # kinetic phase >= 0.5
        with pytest.raises(DomainError):
            gd.step_quadratic(st, Variant.SNE, 1e-3, np.array([0.0, 0.1]))

    def test_detects_escaping_amplitude(self):
        st = gd.init_gaussian(0.0, 0.0, 0.5 + 0.0j)
        leaky = st.amplitudes.copy()
        leaky[0] = 1e-5
        leaky[-1] = 1e-5
        st = gd.GridState(leaky, st.dx_grid, st.x0)
        with pytest.raises(ContainmentError):
            gd.step_quadratic(st, Variant.SNE, 1e-3, 0.0)


class TestBranchWeights:
    def test_fresh_symmetric_cat(self):
        cat = gd.CatState(4.0 + 0.0j, 2.0)
        wl = gd.branch_split_weights(gd.init_cat(cat), cat)
        assert isinstance(wl, float)
        # the cell at x = 0 falls to the right of the split; this close cat
        # holds 4e-5 of its mass there, so w_left = 0.5 - 2e-5
        assert abs(wl - 0.5) < 1e-4
        batch = gd.branch_split_weights(gd.init_cat(cat).repeated(3), cat)
        np.testing.assert_array_equal(batch, np.full(3, wl))

    def test_asymmetric_weights_recovered(self):
        cat = gd.CatState(4.0 + 0.0j, 8.0, weight_left=0.2, weight_right=0.8)
        wl = gd.branch_split_weights(gd.init_cat(cat), cat)
        assert abs(wl - 0.2) < 1e-3


class TestCollapse:
    def test_first_passage_times_and_winners(self):
        cat = gd.CatState(1.5 + 0.0j, 8.0)
        records = es.run_collapse_ensemble(
            cat, Variant.GSSE, n_trajectories=100, t_final=0.4, dt=2e-4,
            base_seed=33, n=1024, x_min=-40.0, x_max=40.0, workers=2,
        )
        # first passage read off each branch-weight series directly
        times, winners = [], []
        for w in records.weight_left:
            hits = np.flatnonzero((w >= 0.99) | (w <= 0.01))
            times.append(records.times[hits[0]] if hits.size else np.nan)
            winners.append((-1 if w[hits[0]] > 0.5 else 1) if hits.size else 0)
        times, winners = np.array(times), np.array(winners)
        decided = ~np.isnan(times)
        assert decided.mean() > 0.95
        assert set(np.unique(winners[decided])) <= {-1, 1}
        median = float(np.median(times[decided]))
        # first-passage scale is hbar / (M omega_g^2 ell^2 / 2) = 2 / ell^2
        assert 0.5 * (2.0 / 64.0) < median < 2.0 * (2.0 / 64.0)
        result = es.collapse_time_stats(records, threshold=0.99)
        assert result.estimate == median
        details = result.diagnostics.details
        assert details["n_censored"] == int((~decided).sum())
        assert details["winner_fraction_right"] == np.mean(winners[decided] == 1)

    def test_threshold_validation(self):
        cat = gd.CatState(1.5 + 0.0j, 8.0)
        records = es.run_collapse_ensemble(cat, Variant.GSSE, 4, 0.01, dt=1e-3)
        for threshold in (0.4, 0.5, 1.0):
            with pytest.raises(DomainError):
                es.collapse_time_stats(records, threshold=threshold)


class TestCoherence:
    def test_requires_enough_seeds(self):
        cat = gd.CatState(4.0 + 0.0j, 2.0)
        with pytest.raises(StatisticsError):
            gd.coherence_series(range(10), cat, Variant.GSSE, [0.1])

    def test_rejects_noiseless_variant_and_bad_times(self):
        cat = gd.CatState(4.0 + 0.0j, 2.0)
        with pytest.raises(DomainError):
            gd.coherence_series(range(100), cat, Variant.SNE, [0.1])
        with pytest.raises(DomainError):
            gd.coherence_series(range(100), cat, Variant.GSSE, [0.00037], dt=1e-3)

    def test_decay_rate_tracks_lindblad_prediction(self):
        cat = gd.CatState(4.0 + 0.0j, 4.0)
        times = np.arange(0.0, 0.101, 0.01)
        coh = gd.coherence_series(range(150), cat, Variant.GSSE, times,
                                  dt=1e-3, base_seed=23, **BIG_BOX)
        rate = -np.polyfit(times, np.log(coh), 1)[0]
        # M omega_g^2 ell^2 / (2 hbar) = 8 in natural units
        assert abs(rate - 8.0) < 2.0

    def test_repeated_times_fill_every_slot(self):
        cat = gd.CatState(4.0 + 0.0j, 2.0)
        box = dict(n=256, x_min=-10.0, x_max=10.0)
        coh = gd.coherence_series(range(100), cat, Variant.GSSE, [0.002, 0.002, 0.0], **box)
        once = gd.coherence_series(range(100), cat, Variant.GSSE, [0.002, 0.0], **box)
        assert coh[0] == coh[1]
        np.testing.assert_array_equal(coh[1:], once)

    def test_rejects_empty_times(self):
        cat = gd.CatState(4.0 + 0.0j, 2.0)
        with pytest.raises(DomainError, match="times"):
            gd.coherence_series(range(100), cat, Variant.GSSE, [],
                                n=256, x_min=-10.0, x_max=10.0)

    @pytest.mark.parametrize("variant", [Variant.GSSE, Variant.SSNE])
    def test_bytes_independent_of_workers_and_blocks(self, variant):
        # 300 rows of 256 cells make two or three blocks of BLOCK_CELLS
        seeds, cat, dt = range(300), gd.CatState(4.0 + 0.0j, 2.0), 1e-3
        box = dict(n=256, x_min=-10.0, x_max=10.0)
        times = np.array([0.0, 0.002, 0.005])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # make pool threads interleave often
        try:
            runs = [
                gd.coherence_series(seeds, cat, variant, times, dt=dt, base_seed=5,
                                    workers=w, **box).tobytes()
                for w in (1, 2, 3)
            ]
        finally:
            sys.setswitchinterval(interval)
        assert runs[1] == runs[0] and runs[2] == runs[0]

        # the one-batch reader that blocking replaced
        state = gd.init_cat(cat, **box).repeated(len(seeds))
        ell_cells = int(round(cat.separation / state.dx_grid))

        def read(st):
            psi = st.amplitudes
            seg = np.sum(np.conj(psi[:, :-ell_cells]) * psi[:, ell_cells:], axis=-1)
            num = np.mean(seg).real * st.dx_grid
            return num / math.sqrt(cat.weight_left * cat.weight_right)

        ref = drive(state, lambda st, dw: gd.step_quadratic(st, variant, dt, dw),
                    5, list(seeds), dt, np.round(times / dt).astype(int), read)
        assert runs[0] == np.array(ref).tobytes()


class TestCachedArrays:
    def test_cached_arrays_are_read_only(self):
        arrays = [
            *gd._k_grids(256, 0.1),
            gd._half_kinetic_factor(256, 0.1, 1e-3, 1.0, 1.0),
            gd._dealias_mask(256, 0.1),
            gd._soft_kernel_spectrum(256, 0.1, 1.0, 5.0),
        ]
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[...] = 0.0


    def test_position_and_dealiased_kinetic_caches(self):
        x, x2 = gd._x_grids(256, 0.1, -12.8)
        half = gd._dealiased_half_kinetic_factor(256, 0.1, 1e-3, 1.0, 1.0)
        for arr in (x, x2, half):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[...] = 0.0
        # the cached arrays are the bytes of the per-call expressions
        assert x.tobytes() == (-12.8 + 0.1 * np.arange(256)).tobytes()
        assert x2.tobytes() == (x.copy() ** 2).tobytes()
        product = gd._half_kinetic_factor(256, 0.1, 1e-3, 1.0, 1.0) * gd._dealias_mask(256, 0.1)
        assert half.tobytes() == product.tobytes()
        assert gd.GridState(np.zeros(256, complex), 0.1, -12.8).x is x


class TestNonlocal:
    kernel = gd.SoftKernelSpec(1.0, 5.0)

    def test_potential_matches_direct_convolution(self):
        st = gd.init_cat(gd.CatState(1.1 + 0.0j, 5.0), n=512, x_min=-20.0, x_max=20.0)
        v = gd.mean_field_potential(st.density(), st.dx_grid, self.kernel)
        x = st.x
        dens = st.density() * st.dx_grid
        direct = np.array(
            [np.sum(self.kernel.pair_energy(xi - x) * dens) for xi in x]
        )
        np.testing.assert_allclose(v, direct, rtol=1e-10, atol=1e-12)

    def test_step_is_unitary_without_renormalization(self):
        st = gd.init_cat(gd.CatState(1.1 + 0.0j, 5.0), **BIG_BOX)
        worst = 0.0
        for _ in range(500):
            st = gd.step_sne_nonlocal(st, self.kernel, 1e-3)
            worst = max(worst, abs(float(st.norm_deviation)))
        assert worst < 1e-10

    def test_single_packet_feels_no_self_force(self):
        st = gd.init_gaussian(1.5, 0.0, 0.5 + 0.0j, **BIG_BOX)
        drift = 0.0
        for _ in range(500):
            st = gd.step_sne_nonlocal(st, self.kernel, 1e-3)
            drift = max(drift, abs(float(st.mean_p())))
        assert drift < 1e-8

    def test_symmetric_cat_attracts_with_fixed_center(self):
        st = gd.init_cat(gd.CatState(1.1 + 0.0j, 5.0), **BIG_BOX)
        x = st.x
        seps = []
        for k in range(1200):
            st = gd.step_sne_nonlocal(st, self.kernel, 1e-3)
            if (k + 1) % 100 == 0:
                rho = st.density()
                right = rho * (x > 0)
                left = rho * (x < 0)
                seps.append(np.sum(x * right) / np.sum(right)
                            - np.sum(x * left) / np.sum(left))
        assert np.all(np.diff(seps) < 0)
        assert abs(float(st.mean_x())) < 1e-6

    def test_initial_acceleration_matches_point_mass_force(self):
        st = gd.init_cat(gd.CatState(3.0 + 0.0j, 5.0), **BIG_BOX)
        x = st.x
        ts, seps = [], []
        for k in range(300):
            st = gd.step_sne_nonlocal(st, self.kernel, 1e-3)
            if (k + 1) % 25 == 0:
                rho = st.density()
                right = rho * (x > 0)
                left = rho * (x < 0)
                ts.append((k + 1) * 1e-3)
                seps.append(np.sum(x * right) / np.sum(right)
                            - np.sum(x * left) / np.sum(left))
        accel = 2.0 * np.polyfit(ts, seps, 2)[0]
        classical = -5.0 * 5.0 / (5.0**2 + 1.0) ** 1.5
        assert abs(accel - classical) < 0.05 * abs(classical)

    def test_rejects_bad_dt(self):
        st = gd.init_gaussian(0.0, 0.0, 0.5 + 0.0j)
        with pytest.raises(DomainError):
            gd.step_sne_nonlocal(st, self.kernel, -1e-3)


def reference_step_quadratic(state, variant, dt, dw, constants=Constants(), omega=1.0):
    """The four-FFT step with end-of-step floor clipping that the carried
    spectrum replaced, without its guards."""
    m, hbar = constants.mass, constants.hbar
    alpha, s = gauss.variant_coefficients(variant, constants, omega)
    c_loc = -(alpha * m * omega**2 / (2.0 * hbar) + 0.5 * s * s)
    half = gd._half_kinetic_factor(state.n, state.dx_grid, float(dt), hbar, m)
    x, x2 = gd._x_grids(state.n, state.dx_grid, state.x0)
    fft, ifft = np.fft.fft, np.fft.ifft
    psi = ifft(fft(state.amplitudes) * half)
    rho = np.abs(psi) ** 2
    xc = x - np.sum(x * rho) / np.sum(rho)
    psi = psi * np.exp(c_loc * xc**2 * dt + s * xc * dw)
    psi = ifft(fft(psi) * half)
    nrm = np.sqrt(np.sum(np.abs(psi) ** 2) * state.dx_grid)
    psi = psi / nrm
    mag = np.abs(psi)
    psi = np.where(mag < gd.FLOOR_FRACTION * np.max(mag), 0.0, psi)
    return gd.GridState(psi, state.dx_grid, state.x0, nrm - 1.0)


def stepped(state, advance, dws):
    for dw in dws:
        state = advance(state, dw)
    return state


class TestCarriedSpectrum:
    dt = 1e-3

    def start(self, rows=None):
        st = gd.init_gaussian(0.2, -0.3, 0.8 - 0.1j)
        return st if rows is None else st.repeated(rows)

    @pytest.mark.parametrize("rows", [None, 4])
    @pytest.mark.parametrize("variant", [Variant.GSSE, Variant.SSNE, Variant.SNE])
    def test_spectrum_is_fft_of_amplitudes(self, variant, rows):
        dws = noise_table(3, rows or 1, 50, self.dt)
        if rows is None:
            dws = dws[:, 0]
        st = stepped(self.start(rows),
                     lambda st, dw: gd.step_quadratic(st, variant, self.dt, dw), dws)
        spec = st.spectrum
        assert spec is not None and spec.shape == st.amplitudes.shape
        fresh = sfft.fft(st.amplitudes, axis=-1)
        assert np.max(np.abs(spec - fresh)) <= 1e-12 * np.max(np.abs(spec))

    @pytest.mark.parametrize("rows", [None, 3])
    def test_nonlocal_spectrum_is_fft_of_amplitudes(self, rows):
        kernel = gd.SoftKernelSpec(1.0, 5.0)
        st = gd.init_cat(gd.CatState(1.1 + 0.0j, 5.0), **BIG_BOX)
        st = st if rows is None else st.repeated(rows)
        st = stepped(st, lambda st, _: gd.step_sne_nonlocal(st, kernel, self.dt), range(50))
        fresh = sfft.fft(st.amplitudes, axis=-1)
        assert np.max(np.abs(st.spectrum - fresh)) <= 1e-12 * np.max(np.abs(st.spectrum))

    @pytest.mark.parametrize("variant", [Variant.GSSE, Variant.SSNE])
    def test_batch_blocks_and_singles_equal_over_many_steps(self, variant):
        params = [(0.3 * i - 1.0, 0.2 * i - 0.5, 0.7 + 0.1j * (i - 3)) for i in range(7)]
        singles = [gd.init_gaussian(*p) for p in params]
        amps = np.stack([s.amplitudes for s in singles])
        dws = noise_table(19, 7, 30, self.dt)

        def advance(st, dw):
            return gd.step_quadratic(st, variant, self.dt, dw)

        def run(rows):
            st = gd.GridState(amps[rows].copy(), singles[0].dx_grid, singles[0].x0)
            return stepped(st, advance, dws[:, rows])

        whole = run(slice(0, 7))
        blocks = [run(slice(0, 3)), run(slice(3, 7))]
        for field in ("amplitudes", "spectrum"):
            ref = getattr(whole, field)
            np.testing.assert_array_equal(
                np.concatenate([getattr(b, field) for b in blocks]), ref)
            for i, st in enumerate(singles):
                one = stepped(st, advance, dws[:, i])
                np.testing.assert_array_equal(getattr(one, field), ref[i])

    @pytest.mark.parametrize("variant", [Variant.GSSE, Variant.SSNE, Variant.SNE])
    def test_agrees_with_four_fft_reference(self, variant):
        dws = noise_table(29, 1, 200, self.dt)[:, 0]
        if variant is Variant.SNE:
            dws = np.zeros_like(dws)
        new = stepped(self.start(),
                      lambda st, dw: gd.step_quadratic(st, variant, self.dt, dw), dws)
        ref = stepped(self.start(),
                      lambda st, dw: reference_step_quadratic(st, variant, self.dt, dw), dws)
        assert np.max(np.abs(new.amplitudes - ref.amplitudes)) < 1e-11
        assert abs(float(new.norm_deviation) - float(ref.norm_deviation)) < 1e-11

    def test_moments_from_spectrum_match_fresh_state(self):
        dws = noise_table(31, 3, 20, self.dt)
        st = stepped(self.start(3),
                     lambda st, dw: gd.step_quadratic(st, Variant.SSNE, self.dt, dw), dws)
        fresh = gd.GridState(st.amplitudes, st.dx_grid, st.x0)
        assert fresh.spectrum is None
        for moment in ("mean_p", "kinetic_energy", "delta_p2", "correlation_xp"):
            np.testing.assert_allclose(getattr(st, moment)(), getattr(fresh, moment)(),
                                       rtol=0, atol=1e-12)


class TestNonFiniteGuards:
    def nan_state(self):
        st = gd.init_gaussian(0.0, 0.0, soliton_state(Variant.SNE).a)
        amps = st.amplitudes.copy()
        amps[500] = np.nan
        return gd.GridState(amps, st.dx_grid, st.x0)

    def test_quadratic_step_rejects_nan(self):
        with pytest.raises(StepSizeError, match="not finite"):
            gd.step_quadratic(self.nan_state(), Variant.GSSE, 1e-3, 0.01)

    def test_nonlocal_step_rejects_nan(self):
        with pytest.raises(StepSizeError, match="not finite"):
            gd.step_sne_nonlocal(self.nan_state(), gd.SoftKernelSpec(1.0, 5.0), 1e-3)

    def test_nan_edge_is_not_contained(self):
        psi = np.zeros((2, 64), complex)
        psi[1, -1] = np.nan
        with pytest.raises(ContainmentError):
            gd._check_contained(psi)
