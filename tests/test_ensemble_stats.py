"""Ensemble harness checks: reproducible seeding, worker invariance, the
drift/diffusion/first-passage estimators, and the CSV/JSON emitters."""
import csv
import dataclasses
import json

import numpy as np
import pytest

from gravlab import ensemble_stats as es
from gravlab import grid_dynamics as gd
from gravlab import noise_field
from gravlab.errors import ContainmentError, DomainError, StatisticsError
from gravlab.gaussian_dynamics import (
    GaussianState,
    Variant,
    kinetic_energy,
    soliton_state,
    step,
)
from gravlab.grid_dynamics import CatState
from gravlab.noise_field import BLOCK_CELLS, drive, wiener_increments

GAUSS_SOLITON = dict(solver="gaussian", a0=None)


def small_config(variant, **over):
    base = dict(
        variant=variant,
        solver="gaussian",
        n_trajectories=20,
        t_final=0.5,
        dt=1e-3,
        base_seed=5,
    )
    base.update(over)
    return es.EnsembleConfig(**base)


def records_equal(a, b):
    return all(
        np.array_equal(getattr(a, name), getattr(b, name))
        for name in ("times", "xbar", "pbar", "delta_x", "kinetic", "a")
    )


class TestConfigValidation:
    def test_rejects_bad_solver(self):
        with pytest.raises(DomainError):
            small_config(Variant.GSSE, solver="magic")

    def test_rejects_tiny_ensemble(self):
        with pytest.raises(DomainError):
            small_config(Variant.GSSE, n_trajectories=1)

    def test_rejects_bad_times(self):
        with pytest.raises(DomainError):
            small_config(Variant.GSSE, t_final=-1.0)
        with pytest.raises(DomainError):
            small_config(Variant.GSSE, t_final=0.0015, dt=1e-3)

    def test_initial_spec_validation(self):
        for a0 in (-1.0 + 0.5j, 0.0, 1j):
            with pytest.raises(DomainError, match="Re"):
                small_config(Variant.GSSE, a0=a0)

    def test_auto_stride_targets_two_hundred_samples(self):
        assert es.record_stride(small_config(Variant.GSSE, t_final=10.0).n_steps) == 50
        assert es.record_stride(small_config(Variant.GSSE, t_final=0.1).n_steps) == 1


class TestRunEnsemble:
    def test_identical_configs_give_identical_records(self):
        cfg = small_config(Variant.GSSE)
        first = es.run_ensemble(cfg)
        second = es.run_ensemble(cfg)
        assert len(first) == cfg.n_trajectories
        assert records_equal(first, second)

    def test_worker_count_does_not_change_records(self):
        cfg = small_config(Variant.SSNE)
        serial = es.run_ensemble(cfg, workers=1)
        threaded = es.run_ensemble(cfg, workers=3)
        assert records_equal(serial, threaded)

    def test_grid_worker_count_does_not_change_records(self):
        cfg = small_config(Variant.GSSE, solver="grid", n_trajectories=6, t_final=0.05)
        serial = es.run_ensemble(cfg, workers=1)
        threaded = es.run_ensemble(cfg, workers=2)
        assert records_equal(serial, threaded)

    def test_records_are_finite_and_on_schedule(self):
        cfg = small_config(Variant.GSSE)  # 500 steps: a record every 2nd step
        records = es.run_ensemble(cfg)
        np.testing.assert_array_equal(records.times, [k * 1e-3 for k in range(0, 501, 2)])
        assert records.times[0] == 0.0
        for name in ("xbar", "pbar", "delta_x", "kinetic", "a"):
            values = getattr(records, name)
            assert values.shape == (20, 251)
            # one C-ordered row per trajectory
            assert values.flags.c_contiguous
            assert np.all(np.isfinite(values))
        # the soliton start keeps its width
        np.testing.assert_allclose(records.delta_x, np.sqrt(0.5), rtol=1e-12)

    def test_returned_arrays_are_read_only(self):
        records = es.run_ensemble(small_config(Variant.GSSE))
        for name in ("times", "xbar", "pbar", "delta_x", "kinetic", "a"):
            values = getattr(records, name)
            assert not values.flags.writeable
            with pytest.raises(ValueError):
                values[...] = 0.0

    def test_solvers_agree_trajectory_by_trajectory(self):
        shared = dict(variant=Variant.GSSE, n_trajectories=4, t_final=0.2,
                      dt=1e-3, base_seed=9)
        gauss = es.run_ensemble(es.EnsembleConfig(solver="gaussian", **shared))
        grid = es.run_ensemble(es.EnsembleConfig(solver="grid", **shared))
        for name in ("xbar", "pbar", "delta_x"):
            g, q = getattr(gauss, name), getattr(grid, name)
            assert np.all(np.abs(g[:, -1] - q[:, -1]) < 5e-3)

    def test_solver_failure_names_the_trajectory(self):
        cfg = small_config(
            Variant.GSSE, solver="grid", n_trajectories=3, t_final=0.01,
            a0=0.006,  # a packet this wide reaches the edge of GRID_BOX at once
        )
        with pytest.raises(ContainmentError, match="trajectory 0"):
            es.run_ensemble(cfg)

    def test_rejects_bad_worker_count(self):
        with pytest.raises(DomainError):
            es.run_ensemble(small_config(Variant.GSSE), workers=0)

    @pytest.mark.parametrize("variant", [Variant.GSSE, Variant.SSNE])
    @pytest.mark.parametrize("initial", [
        dict(a0=None),
        dict(a0=2.0 - 0.7j),  # width relaxes
    ])
    def test_shared_width_matches_single_trajectory_runs(self, variant, initial):
        cfg = small_config(variant, n_trajectories=7, t_final=1.0, base_seed=11, **initial)
        records = es.run_ensemble(cfg)
        start = GaussianState(0.0, 0.0, initial["a0"] or soliton_state(variant).a)
        stride = es.record_stride(cfg.n_steps)
        times = [k * cfg.dt for k in range(0, cfg.n_steps + 1, stride)]
        np.testing.assert_array_equal(records.times, times)
        for j in range(len(records)):
            # reference: one trajectory stepped by hand along its own stream
            dws = wiener_increments(cfg.base_seed, j, cfg.n_steps, cfg.dt).increments
            state, samples = start, [start]
            for k, dw in enumerate(dws, start=1):
                state = step(state, variant, cfg.dt, dw)
                if k % stride == 0:
                    samples.append(state)
            ref = {
                "xbar": [s.xbar for s in samples],
                "pbar": [s.pbar for s in samples],
                "delta_x": [np.sqrt(s.delta_x2) for s in samples],
                "kinetic": [kinetic_energy(s) for s in samples],
                "a": [s.a for s in samples],
            }
            # row j is trajectory j
            for name, want in ref.items():
                np.testing.assert_array_equal(getattr(records, name)[j], np.ravel(want),
                                              err_msg=name)


class TestKineticEnergyRate:
    def test_gsse_rate_near_half(self):
        cfg = es.EnsembleConfig(Variant.GSSE, n_trajectories=300, t_final=3.0,
                                dt=1e-3, base_seed=2, **GAUSS_SOLITON)
        result = es.estimate_ke_rate(es.run_ensemble(cfg))
        assert abs(result.estimate - 0.5) < 0.1
        assert result.stderr > 0
        assert result.window == (0.0, 3.0)
        assert result.diagnostics.r_squared > 0.95
        assert not result.diagnostics.residual_trend

    @pytest.mark.parametrize("variant", [Variant.SNE, Variant.SSNE])
    def test_noise_free_kinetic_energy_rate_is_exactly_zero(self, variant):
        cfg = es.EnsembleConfig(variant, n_trajectories=100, t_final=1.0,
                                dt=1e-3, base_seed=3, **GAUSS_SOLITON)
        result = es.estimate_ke_rate(es.run_ensemble(cfg))
        assert result.estimate == 0.0
        assert result.stderr > 0
        assert result.diagnostics.r_squared == 1.0

    def test_requires_hundred_trajectories(self):
        cfg = small_config(Variant.GSSE, n_trajectories=99)
        with pytest.raises(StatisticsError):
            es.estimate_ke_rate(es.run_ensemble(cfg))

    def test_perturbed_start_excludes_width_transient(self):
        cfg = es.EnsembleConfig(
            Variant.GSSE, solver="gaussian", n_trajectories=100, t_final=8.0,
            dt=1e-3, base_seed=4, a0=2.0 + 0.0j,
        )
        records = es.run_ensemble(cfg)
        result = es.estimate_ke_rate(records)
        assert result.window[0] == es.TRANSIENT == 5.0
        # a run that ends with the transient leaves nothing to fit
        short = es.run_ensemble(dataclasses.replace(cfg, t_final=es.TRANSIENT))
        with pytest.raises(StatisticsError, match="does not outlast the width transient"):
            es.estimate_ke_rate(short)
        with pytest.raises(StatisticsError, match="does not outlast the width transient"):
            es.estimate_diffusion(short, "pbar", Variant.GSSE)


class TestDiffusion:
    def test_gsse_momentum_variance_slope_near_one(self):
        cfg = es.EnsembleConfig(Variant.GSSE, n_trajectories=300, t_final=3.0,
                                dt=1e-3, base_seed=6, **GAUSS_SOLITON)
        result = es.estimate_diffusion(es.run_ensemble(cfg), "pbar", Variant.GSSE)
        assert abs(result.estimate - 1.0) < max(0.15, 3.0 * result.stderr)
        assert "quadratic_stderr" in result.diagnostics.details

    def test_ssne_momentum_variance_exactly_zero(self):
        cfg = es.EnsembleConfig(Variant.SSNE, n_trajectories=150, t_final=2.0,
                                dt=1e-3, base_seed=7, **GAUSS_SOLITON)
        result = es.estimate_diffusion(es.run_ensemble(cfg), "pbar", Variant.SSNE)
        assert result.estimate == 0.0
        assert result.stderr > 0

    def test_ssne_position_variance_slope_near_one_with_no_superlinear_part(self):
        cfg = es.EnsembleConfig(Variant.SSNE, n_trajectories=300, t_final=3.0,
                                dt=1e-3, base_seed=8, **GAUSS_SOLITON)
        result = es.estimate_diffusion(es.run_ensemble(cfg), "xbar", Variant.SSNE)
        assert abs(result.estimate - 1.0) < max(0.15, 3.0 * result.stderr)
        assert result.window[0] == 0.0
        details = result.diagnostics.details
        assert abs(details["quadratic"]) < 4.0 * details["quadratic_stderr"]
        assert abs(details["cubic"]) < 4.0 * details["cubic_stderr"]

    def test_rejects_unknown_observable(self):
        cfg = small_config(Variant.GSSE, n_trajectories=2)
        with pytest.raises(DomainError):
            es.estimate_diffusion(es.run_ensemble(cfg), "delta_x")

    @pytest.mark.parametrize("variant, observable", [
        (Variant.SSNE, "xbar"),  # fit through the origin
        (Variant.GSSE, "pbar"),
    ])
    def test_stderrs_match_three_pass_bootstrap(self, variant, observable):
        cfg = es.EnsembleConfig(variant, n_trajectories=120, t_final=1.0,
                                dt=1e-3, base_seed=13, **GAUSS_SOLITON)
        records = es.run_ensemble(cfg)
        result = es.estimate_diffusion(records, observable, variant)
        assert result.window[0] == 0.0
        t = records.times
        sub = getattr(records, observable)
        through_origin = variant is Variant.SSNE and observable == "xbar"

        def var_of(m):
            return m.var(axis=0, ddof=1)

        slope_err = es._bootstrap_stderr(
            sub, var_of, lambda y: es._linear_fit(t, y, through_origin)[0]
        )
        quad_err = es._bootstrap_stderr(sub, var_of, lambda y: np.polyfit(t, y, 3)[1])
        cube_err = es._bootstrap_stderr(sub, var_of, lambda y: np.polyfit(t, y, 3)[0])
        details = result.diagnostics.details
        assert result.stderr == slope_err
        assert details["quadratic_stderr"] == quad_err
        assert details["cubic_stderr"] == cube_err


class TestCrossCovariance:
    def test_gsse_cov_rate_near_one_and_positive(self):
        cfg = es.EnsembleConfig(Variant.GSSE, n_trajectories=400, t_final=0.5,
                                dt=1e-3, base_seed=10, **GAUSS_SOLITON)
        result = es.estimate_xp_covariance(es.run_ensemble(cfg))
        assert abs(result.estimate - 1.0) < max(0.3, 3.0 * result.stderr)
        assert result.diagnostics.details["all_positive"]


def synthetic_branch_weights(rows=4):
    """Rows decided at t = 0.3 (left), 0.5 (right) and 0.7 (left), then an undecided row."""
    flat = np.full(10, 0.5)

    def crossing(k, left):
        w = flat.copy()
        w[k:] = 0.999 if left else 0.001
        return w

    weights = [crossing(2, True), crossing(4, False), crossing(6, True), flat]
    return es.BranchWeights(0.1 * np.arange(1, 11), np.stack(weights[:rows]))


class TestCollapseStats:
    def test_synthetic_first_passage(self):
        records = synthetic_branch_weights(3)
        result = es.collapse_time_stats(records)
        assert result.estimate == pytest.approx(0.5)
        details = result.diagnostics.details
        assert details["n_censored"] == 0
        assert details["winner_fraction_right"] == pytest.approx(1.0 / 3.0)
        assert details["ci_low"] <= result.estimate <= details["ci_high"]

    def test_censoring_budget(self):
        records = synthetic_branch_weights()  # one of four undecided: 25%
        with pytest.raises(StatisticsError):
            es.collapse_time_stats(records)

    def test_first_sample_threshold_and_undecided_rows(self):
        times = 0.1 * np.arange(1, 6)
        weights = np.full((10, 5), 0.5)
        weights[0] = 0.995  # decided left at its first sample
        weights[1, 3:] = 0.99  # exactly at the threshold from step 4 on
        weights[2, 1:] = 0.005  # decided right at step 2
        # row 3 and up: decided right at step 5; the last row stays undecided
        weights[3:9, 4] = 0.001
        result = es.collapse_time_stats(es.BranchWeights(times, weights))
        details = result.diagnostics.details
        # an undecided row is censored, not read as a passage at the first sample
        assert details["n_censored"] == 1
        assert details["n_decided"] == 9
        # first passages 0.1, 0.4, 0.2 and six at 0.5
        assert result.estimate == np.median([0.1, 0.4, 0.2] + [0.5] * 6)
        assert details["winner_fraction_right"] == pytest.approx(7.0 / 9.0)
        assert result.window == (0.1, 0.5)

    def test_grid_cat_ensemble_first_passage(self):
        cat = CatState(1.5 + 0.0j, 8.0)
        records = es.run_collapse_ensemble(
            cat, Variant.GSSE, n_trajectories=60, t_final=0.4, dt=2e-4,
            base_seed=12, workers=2,
        )
        assert len(records) == 60
        assert records.weight_left.shape == (60, 2000)
        result = es.collapse_time_stats(records)
        # first-passage scale 2 / ell^2 = 0.03125 for ell = 8
        assert 0.5 * 0.03125 < result.estimate < 2.0 * 0.03125
        details = result.diagnostics.details
        assert details["n_censored"] <= 2
        assert 0.25 < details["winner_fraction_right"] < 0.75

    def test_collapse_worker_count_does_not_change_records(self):
        cat = CatState(1.5 + 0.0j, 4.0)
        runs = [
            es.run_collapse_ensemble(cat, Variant.GSSE, 5, 0.01, dt=5e-4, base_seed=3,
                                     workers=w)
            for w in (1, 2, 3)
        ]
        for records in runs[1:]:
            assert records.weight_left.shape == (5, 20)
            np.testing.assert_array_equal(runs[0].times, records.times)
            np.testing.assert_array_equal(runs[0].weight_left, records.weight_left)

    def test_returned_arrays_are_read_only(self):
        records = es.run_collapse_ensemble(CatState(1.5 + 0.0j, 4.0), Variant.GSSE, 2, 0.002,
                                           dt=5e-4)
        for values in (records.times, records.weight_left):
            assert not values.flags.writeable
            with pytest.raises(ValueError):
                values[...] = 0.0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_collapse_failure_names_the_trajectory(self, workers):
        # contained at the start (6 packet widths, 3 from the edges of
        # GRID_BOX), but the branch tails reach the box edge after one step
        cat = CatState(1.5 + 0.0j, 74.0)
        with pytest.raises(ContainmentError, match="trajectory 0"):
            es.run_collapse_ensemble(cat, Variant.GSSE, 4, 0.01, dt=5e-4, workers=workers)


class TestBlocks:
    """Grid ensembles step at most BLOCK_CELLS // n rows at once."""

    @pytest.fixture
    def batches(self, monkeypatch):
        seen = []

        def recording(state, advance, base_seed, indices, *rest):
            seen.append(list(indices))
            return drive(state, advance, base_seed, indices, *rest)

        monkeypatch.setattr(noise_field, "drive", recording)
        return seen

    @pytest.mark.parametrize("workers", [1, 2])
    def test_batches_bounded_and_cover_every_trajectory(self, batches, workers):
        n_traj = 300  # three blocks of 128 rows at 512 cells, five of 64 at 1024
        runs = [
            (512, lambda: gd.coherence_series(
                range(n_traj), CatState(4.0 + 0.0j, 2.0), Variant.GSSE, [0.002],
                workers=workers, n=512, x_min=-10.0, x_max=10.0)),
            (es.GRID_BOX["n"], lambda: es.run_collapse_ensemble(
                CatState(1.5 + 0.0j, 4.0), Variant.GSSE, n_traj, 0.002, workers=workers)),
            (es.GRID_BOX["n"], lambda: es.run_ensemble(small_config(
                Variant.GSSE, solver="grid", n_trajectories=n_traj, t_final=0.002,
            ), workers=workers)),
        ]
        for n, run in runs:
            batches.clear()
            run()
            assert max(map(len, batches)) <= BLOCK_CELLS // n
            assert [j for b in sorted(batches) for j in b] == list(range(n_traj))

    def test_gaussian_ensemble_is_one_batch(self, batches):
        es.run_ensemble(small_config(Variant.GSSE, n_trajectories=300), workers=2)
        assert batches == [list(range(300))]


def csv_writer_reference(records, path):
    """The row-by-row csv.writer dump that write_records_csv must reproduce."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trajectory", "time", "observable", "value"])
        for j in range(len(records)):
            for name in es.OBSERVABLES:
                values = getattr(records, name)[j]
                for t, v in zip(records.times, values):
                    writer.writerow([j, repr(float(t)), name, repr(float(v))])


def handmade_records(times, rows, kinetic=None):
    values = np.asarray(rows)
    return es.EnsembleRecords(
        times=times, xbar=values, pbar=-values, delta_x=values[:, ::-1],
        kinetic=values if kinetic is None else kinetic, a=values.astype(complex),
    )


class TestEmission:
    def test_csv_matches_csv_writer_reference(self, tmp_path):
        specials = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e16, 1e-5, 0.1]
        times = 0.25 * np.arange(len(specials))
        ramp = np.linspace(-1.0, 3.0, len(specials))
        ensembles = [
            handmade_records(times, [specials, ramp,
                                     np.arange(len(specials), dtype=float) / 3.0]),
            # float32 column
            handmade_records(times, [ramp], kinetic=np.linspace(
                0.1, 0.7, len(specials), dtype=np.float32)[None]),
            # different times
            handmade_records(np.logspace(-5, 16, len(specials)), [specials[::-1]]),
        ]
        fast, slow = tmp_path / "fast.csv", tmp_path / "slow.csv"
        for records in ensembles:
            es.write_records_csv(records, fast)
            csv_writer_reference(records, slow)
            assert fast.read_bytes() == slow.read_bytes()

    def test_csv_matches_csv_writer_reference_on_ensembles(self, tmp_path):
        gauss = es.run_ensemble(small_config(Variant.SSNE, n_trajectories=4))
        grid = es.run_ensemble(small_config(
            Variant.GSSE, solver="grid", n_trajectories=4, t_final=0.02,
        ), workers=2)  # two batches, joined
        fast, slow = tmp_path / "fast.csv", tmp_path / "slow.csv"
        for records in (gauss, grid):
            es.write_records_csv(records, fast)
            csv_writer_reference(records, slow)
            assert fast.read_bytes() == slow.read_bytes()

    def test_csv_long_format_and_determinism(self, tmp_path):
        cfg = small_config(Variant.GSSE, n_trajectories=3)
        records = es.run_ensemble(cfg)
        path = tmp_path / "records.csv"
        es.write_records_csv(records, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "trajectory,time,observable,value"
        assert len(lines) == 1 + 3 * len(es.OBSERVABLES) * 251
        first = lines[1].split(",")
        assert first[0] == "0" and first[2] == "xbar"
        float(first[1]), float(first[3])
        twin = tmp_path / "again.csv"
        es.write_records_csv(records, twin)
        assert path.read_bytes() == twin.read_bytes()

    def test_json_summary_round_trip(self, tmp_path):
        result = es.collapse_time_stats(synthetic_branch_weights(3))
        path = tmp_path / "summary.json"
        es.write_summary_json([result], path, metadata={"dt": 1e-3})
        payload = json.loads(path.read_text())
        assert payload["schema_version"] == es.SCHEMA_VERSION
        assert payload["metadata"]["dt"] == 1e-3
        entry = payload["estimates"]["collapse_time_median"]
        assert entry["estimate"] == pytest.approx(0.5)
        assert entry["r_squared"] is None

    def test_result_validation(self):
        with pytest.raises(StatisticsError):
            es.EstimatorResult("x", 1.0, 0.0, (0.0, 1.0), es.FitDiagnostics(1.0, False))
        with pytest.raises(StatisticsError):
            es.EstimatorResult("x", 1.0, 0.1, (2.0, 1.0), es.FitDiagnostics(1.0, False))
