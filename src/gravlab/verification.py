"""Frozen end-to-end checks for the physics and statistics stack.

Each criterion runs a pinned configuration (seeds, step sizes, ensemble
sizes) and compares measured numbers against analytic targets with pinned
tolerances.  Statistical estimates pass when |estimate - target| <=
max(tolerance, 3 * stderr), so a seed-level fluctuation carrying an honest
error bar cannot flip the verdict.  All inputs are derived from fixed seed
streams and the solvers are worker-count invariant, so repeated runs of the
battery produce identical reports.
"""

from __future__ import annotations

import dataclasses
import tempfile
from functools import lru_cache
from pathlib import Path

import numpy as np

from .ensemble_stats import (
    GRID_BOX,
    EnsembleConfig,
    estimate_diffusion,
    estimate_ke_rate,
    estimate_xp_covariance,
    collapse_time_stats,
    run_collapse_ensemble,
    run_ensemble,
    write_records_csv,
    write_summary_json,
)
from .gaussian_dynamics import GaussianState, Variant, soliton_state, step
from .grid_dynamics import (
    CatState,
    SoftKernelSpec,
    coherence_series,
    init_cat,
    init_gaussian,
    make_axis,
    separation_series,
    step_quadratic,
    step_sne_nonlocal,
)
from .model_core import (
    MassProfile,
    delta_e_g,
    omega_g,
    quadratic_potential_check,
    self_energy,
)
from .noise_field import (
    FieldGrid,
    kick_filter,
    reduce_phi_to_w,
    sample_phi_field,
    wiener_increments,
)

WIDTH2_TARGET = {Variant.SNE: 0.5, Variant.GSSE: 0.5, Variant.SSNE: 2.0**-0.5}
# boxes of criteria 13 and 11 and the kernel of 13, shared with the attract
# and cat presets; criteria 5 and 12 run on the grid ensembles' GRID_BOX
ATTRACT_BOX = {"n": 2048, "x_min": -40.0, "x_max": 40.0}
ATTRACT_KERNEL = SoftKernelSpec(1.0, 5.0)
COHERENCE_BOX = {"n": 2048, "x_min": -40.0, "x_max": 40.0}


def separation_used(cat: CatState, box: dict) -> float:
    """The separation the cat readers use on a box: whole cells of its grid."""
    dx = make_axis(**box)[1]
    return cat.separation_cells(dx) * dx


@dataclasses.dataclass(frozen=True)
class CriterionResult:
    """Verdict for one numbered check with its measured numbers."""

    number: int
    name: str
    passed: bool
    details: tuple[str, ...]

    @property
    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number:02d} [{status}] {self.name}"


class _Checks:
    """Accumulates (ok, text) pairs and folds them into one result."""

    def __init__(self):
        self.items = []

    def add(self, ok, text: str) -> bool:
        self.items.append((bool(ok), text))
        return bool(ok)

    def result(self, number: int, name: str) -> CriterionResult:
        details = tuple(
            f"{'ok  ' if ok else 'FAIL'} {text}" for ok, text in self.items
        )
        return CriterionResult(number, name, all(ok for ok, _ in self.items), details)


def _close(estimate: float, target: float, tol: float, stderr: float = 0.0) -> bool:
    return abs(estimate - target) <= max(tol, 3.0 * stderr)


@lru_cache(maxsize=8)
def _soliton_ensemble(variant: Variant, base_seed: int, workers: int):
    """Shared 1000-trajectory soliton-start ensemble, gaussian solver."""
    config = EnsembleConfig(variant=variant, base_seed=base_seed)
    return run_ensemble(config, workers=workers)


def criterion_01(workers: int = 1) -> CriterionResult:
    """Trap frequency, self energy, and branch energy gap of the uniform sphere."""
    del workers
    profile = MassProfile.uniform_sphere(1.0)
    c = _Checks()
    w = omega_g(profile)
    c.add(abs(w - 1.0) <= 1e-6, f"trap frequency = {w:.8f} (1 within 1e-6)")
    e = self_energy(profile)
    c.add(abs(e + 0.6) <= 1e-6, f"self energy = {e:.8f} (-0.6 within 1e-6)")
    gap = delta_e_g(profile, 4.0)
    c.add(abs(gap - 0.95) <= 1e-3,
          f"branch energy gap at separation 4 = {gap:.6f} (0.95 within 1e-3)")
    ells = np.array([0.02, 0.04, 0.06, 0.08, 0.10])
    scaled = np.array([delta_e_g(profile, ell) for ell in ells]) / ells**2
    limit = np.polyfit(ells, scaled, 2)[-1]
    c.add(abs(limit - 0.5) <= 0.005,
          f"small-separation gap / separation^2 -> {limit:.6f} (0.5 within 1%)")
    return c.result(1, "static energetics")


def criterion_02(workers: int = 1) -> CriterionResult:
    """Quadratic expansion of the self potential against direct quadrature."""
    del workers
    profile = MassProfile.uniform_sphere(1.0)
    coarse = quadratic_potential_check(profile, 0.05)
    fine = quadratic_potential_check(profile, 0.025)
    c = _Checks()
    c.add(coarse.within_domain, "displacement sits inside the small-spread domain")
    c.add(coarse.rel_error < 1e-2,
          f"relative error at displacement 0.05 = {coarse.rel_error:.2e} (< 1e-2)")
    c.add(fine.rel_error < coarse.rel_error,
          f"halving the displacement refines it to {fine.rel_error:.2e}")
    return c.result(2, "quadratic potential accuracy")


def criterion_03(workers: int = 1) -> CriterionResult:
    """Empirical covariance of the projected field noise is the identity."""
    del workers
    grid = FieldGrid(52, 6.2)
    profile = MassProfile.uniform_sphere(1.0)
    n_samples = 10_000
    ws = np.empty((n_samples, 3))
    for i in range(n_samples):
        ws[i] = reduce_phi_to_w(sample_phi_field(grid, 1.0, 1618, i), profile)
    cov = ws.T @ ws / n_samples
    dev = float(np.abs(cov - np.eye(3)).max())
    # the exact lattice covariance: its part of the deviation is bias, the
    # rest is sampling noise
    g = kick_filter(grid, profile)
    bias = float(np.abs(g @ g.T - np.eye(3)).max())
    c = _Checks()
    c.add(dev <= 0.05,
          f"max |covariance - identity| entry over {n_samples} samples = "
          f"{dev:.4f} (<= 0.05; lattice bias max |G G^T - identity| = {bias:.4f})")
    return c.result(3, "projected field covariance")


def soliton_fidelity(n_steps: int) -> float:
    """|<start|state>| of the noise-free grid soliton after n_steps of 1e-3."""
    start = init_gaussian(0.0, 0.0, soliton_state(Variant.SNE).a)
    state = start
    for _ in range(n_steps):
        state = step_quadratic(state, Variant.SNE, 1e-3, 0.0)
    return float(abs(np.sum(np.conj(start.amplitudes) * state.amplitudes)) * state.dx_grid)


def criterion_04(workers: int = 1) -> CriterionResult:
    """Noise-free soliton keeps unit overlap with its initial profile."""
    del workers
    fidelity = soliton_fidelity(10_000)
    c = _Checks()
    c.add(fidelity >= 1.0 - 1e-6,
          f"soliton fidelity after t = 10: deficit {1.0 - fidelity:.2e} (<= 1e-6)")
    return c.result(4, "free soliton stationarity")


def criterion_05(workers: int = 1) -> CriterionResult:
    """Noise heats the packet at half the trap frequency squared per axis."""
    gauss = estimate_ke_rate(_soliton_ensemble(Variant.GSSE, 101, workers))
    grid_config = EnsembleConfig(
        variant=Variant.GSSE, solver="grid", n_trajectories=400,
        t_final=3.0, base_seed=102,
    )
    grid = estimate_ke_rate(run_ensemble(grid_config, workers=workers))
    c = _Checks()
    c.add(_close(gauss.estimate, 0.5, 0.05, gauss.stderr),
          f"gaussian-solver heating rate = {gauss.estimate:.4f} "
          f"+- {gauss.stderr:.4f} (0.5 within 10%)")
    c.add(_close(grid.estimate, 0.5, 0.05, grid.stderr),
          f"grid-solver heating rate = {grid.estimate:.4f} "
          f"+- {grid.stderr:.4f} (0.5 within 10%)")
    combined = float(np.hypot(gauss.stderr, grid.stderr))
    c.add(abs(gauss.estimate - grid.estimate) <= 3.0 * combined,
          f"solver difference = {abs(gauss.estimate - grid.estimate):.4f} "
          f"(<= 3x combined stderr = {3.0 * combined:.4f})")
    return c.result(5, "kinetic heating rate")


def criterion_06(workers: int = 1) -> CriterionResult:
    """Momentum variance grows at rate 1; x-p covariance is positive, slope 1."""
    records = _soliton_ensemble(Variant.GSSE, 101, workers)
    var_p = estimate_diffusion(records, "pbar", variant=Variant.GSSE)
    cov = estimate_xp_covariance(records)
    c = _Checks()
    c.add(_close(var_p.estimate, 1.0, 0.1, var_p.stderr),
          f"momentum variance rate = {var_p.estimate:.4f} "
          f"+- {var_p.stderr:.4f} (1.0 within 10%)")
    c.add(cov.diagnostics.details["all_positive"],
          "x-p covariance positive at every sampled time after the start")
    c.add(_close(cov.estimate, 1.0, 0.1, cov.stderr),
          f"x-p covariance growth rate = {cov.estimate:.4f} "
          f"+- {cov.stderr:.4f} (1.0 within 10%)")
    return c.result(6, "momentum diffusion and covariance")


def criterion_07(workers: int = 1) -> CriterionResult:
    """Phase-rotated noise leaves the soliton momentum exactly constant."""
    records = _soliton_ensemble(Variant.SSNE, 103, workers)
    drift = float(np.max(np.abs(records.pbar - records.pbar[:, :1])))
    c = _Checks()
    c.add(drift == 0.0,
          f"gaussian-solver momentum deviation over 1000 trajectories = "
          f"{drift} (exactly 0)")
    # same Brownian path at two step sizes: pair-summed fine increments
    # reproduce the coarse increments exactly
    fine_dw = wiener_increments(41, 0, 20_000, 5e-4).increments
    coarse_dw = fine_dw.reshape(-1, 2).sum(axis=1)
    drifts = {}
    for dt, dws in ((1e-3, coarse_dw), (5e-4, fine_dw)):
        state = init_gaussian(0.0, 0.0, soliton_state(Variant.SSNE).a)
        worst = 0.0
        for dw in dws:
            state = step_quadratic(state, Variant.SSNE, dt, dw)
            worst = max(worst, abs(float(state.mean_p())))
        drifts[dt] = worst
    c.add(drifts[1e-3] <= 1e-2,
          f"grid-solver momentum drift over t = 10 at dt = 1e-3: "
          f"{drifts[1e-3]:.3e} (<= 1e-2)")
    c.add(drifts[5e-4] < drifts[1e-3],
          f"halving dt on the same Brownian path shrinks it to {drifts[5e-4]:.3e}")
    return c.result(7, "momentum drift cancellation")


def criterion_08(workers: int = 1) -> CriterionResult:
    """Residual position diffusion is linear with unit rate."""
    records = _soliton_ensemble(Variant.SSNE, 103, workers)
    var_x = estimate_diffusion(records, "xbar", variant=Variant.SSNE)
    quad = var_x.diagnostics.details["quadratic"]
    quad_err = var_x.diagnostics.details["quadratic_stderr"]
    cubic = var_x.diagnostics.details["cubic"]
    cubic_err = var_x.diagnostics.details["cubic_stderr"]
    c = _Checks()
    c.add(_close(var_x.estimate, 1.0, 0.1, var_x.stderr),
          f"position variance rate = {var_x.estimate:.4f} "
          f"+- {var_x.stderr:.4f} (1.0 within 10%)")
    c.add(abs(quad) <= 3.0 * quad_err,
          f"quadratic term = {quad:.2e} +- {quad_err:.2e} (0 at 3 sigma)")
    c.add(abs(cubic) <= 3.0 * cubic_err,
          f"cubic term = {cubic:.2e} +- {cubic_err:.2e} (0 at 3 sigma)")
    return c.result(8, "position diffusion linearity")


def criterion_09(workers: int = 1) -> CriterionResult:
    """Soliton widths land on their targets and relaxation is seed-independent."""
    c = _Checks()
    state = init_gaussian(0.0, 0.0, soliton_state(Variant.SNE).a)
    for _ in range(5_000):
        state = step_quadratic(state, Variant.SNE, 1e-3, 0.0)
    w2 = float(state.delta_x2())
    c.add(abs(w2 / 0.5 - 1.0) <= 0.01,
          f"noise-free soliton width^2 at t = 5: {w2:.6f} (0.5 within 1%)")

    dws = wiener_increments(104, 0, 6_000, 1e-3).increments
    for variant in (Variant.GSSE, Variant.SSNE):
        state = init_gaussian(0.0, 0.0, 2.0 + 0.0j)
        for dw in dws:
            state = step_quadratic(state, variant, 1e-3, dw)
        w2 = float(state.delta_x2())
        target = WIDTH2_TARGET[variant]
        c.add(abs(w2 / target - 1.0) <= 0.01,
              f"grid {variant.name.lower()} width^2 relaxed from a = 2: "
              f"{w2:.6f} ({target:.6f} within 1%)")

    for variant in (Variant.GSSE, Variant.SSNE):
        config = EnsembleConfig(variant=variant, base_seed=105, a0=2.0 + 0.0j)
        records = run_ensemble(config, workers=workers)
        target = WIDTH2_TARGET[variant]
        dev = max(abs(d ** 2 / target - 1.0) for d in records.delta_x[:, -1])
        c.add(dev <= 0.01,
              f"gaussian {variant.name.lower()} relaxation, worst seed of 1000: "
              f"width^2 off target by {dev:.2e} (<= 1%)")
    return c.result(9, "soliton widths and relaxation")


def criterion_10(workers: int = 1) -> CriterionResult:
    """Gaussian and grid solvers agree trajectory-wise on shared noise."""
    del workers
    increments = wiener_increments(42, 0, 50_000, 1e-4).increments
    c = _Checks()
    for variant in (Variant.GSSE, Variant.SSNE):
        gauss = GaussianState(0.3, -0.4, 0.8 - 0.1j)
        grid = init_gaussian(0.3, -0.4, 0.8 - 0.1j)
        worst = np.zeros(3)
        for k, dw in enumerate(increments):
            gauss = step(gauss, variant, 1e-4, dw)
            grid = step_quadratic(grid, variant, 1e-4, dw)
            if (k + 1) % 500 == 0:
                devs = (
                    abs(float(grid.mean_x()) - gauss.xbar),
                    abs(float(grid.mean_p()) - gauss.pbar),
                    abs(float(np.sqrt(grid.delta_x2())) - np.sqrt(gauss.delta_x2)),
                )
                worst = np.maximum(worst, devs)
        c.add(bool(np.all(worst < 1e-3)),
              f"{variant.name.lower()} worst deviation over t in [0, 5] "
              f"(mean x, mean p, width) = ({worst[0]:.2e}, {worst[1]:.2e}, "
              f"{worst[2]:.2e}) (each < 1e-3)")
    return c.result(10, "solver cross-check on shared noise")


def decay_rate(times, coherence, t_max: float = np.inf) -> float:
    """Minus the slope of log coherence against time, over times <= t_max."""
    mask = times <= t_max + 1e-9
    return float(-np.polyfit(times[mask], np.log(coherence[mask]), 1)[0])


def criterion_11(workers: int = 1) -> CriterionResult:
    """Between-branch coherence decays at the dephasing rate, scaling as ell^2."""
    cats = {1: CatState(6.0 + 0.0j, 1.0), 2: CatState(4.0 + 0.0j, 2.0),
            4: CatState(4.0 + 0.0j, 4.0)}
    used = {ell: separation_used(cat, COHERENCE_BOX) for ell, cat in cats.items()}
    c = _Checks()

    times_2 = np.round(np.arange(0.0, 0.31, 0.03), 10)
    series = {
        variant: coherence_series(
            range(1000), cats[2], variant, times_2,
            base_seed=201, workers=workers, **COHERENCE_BOX,
        )
        for variant in (Variant.GSSE, Variant.SSNE)
    }
    rate_2 = decay_rate(times_2, series[Variant.GSSE], 0.30)
    c.add(abs(rate_2 - 2.0) <= 0.2,
          f"decay rate at separation 2 (used {used[2]}) = {rate_2:.4f} (2.0 within 10%)")
    # compare the variants on the earliest resolvable window: the ssne
    # mean-field term slowly contracts the branches, which depresses the
    # measured rate at later times even though the t -> 0 rates agree
    early_g = decay_rate(times_2, series[Variant.GSSE], 0.09)
    early_s = decay_rate(times_2, series[Variant.SSNE], 0.09)
    c.add(abs(early_g - early_s) <= 0.2,
          f"early-window rates, gsse {early_g:.4f} vs ssne {early_s:.4f}: "
          f"difference {abs(early_g - early_s):.4f} (<= 0.2)")

    times_1 = np.round(np.arange(0.0, 1.21, 0.1), 10)
    rate_1 = decay_rate(
        times_1,
        coherence_series(range(400), cats[1], Variant.GSSE,
                         times_1, base_seed=202, workers=workers, **COHERENCE_BOX),
        1.2,
    )
    times_4 = np.round(np.arange(0.0, 0.076, 0.005), 10)
    rate_4 = decay_rate(
        times_4,
        coherence_series(range(400), cats[4], Variant.GSSE,
                         times_4, base_seed=203, workers=workers, **COHERENCE_BOX),
        0.075,
    )
    for (hi, lo), ratio in (((2, 1), rate_2 / rate_1), ((4, 2), rate_4 / rate_2)):
        c.add(abs(ratio - 4.0) <= 0.8,
              f"rate ratio, separation {hi} over {lo}: {ratio:.3f} (4 within 20%; "
              f"used {used[hi]} over {used[lo]}, squared {(used[hi] / used[lo]) ** 2:.3f})")
    return c.result(11, "coherence decay rates")


def criterion_12(workers: int = 1) -> CriterionResult:
    """Collapse picks branches evenly and first-passage times scale as ell^-2."""
    legs = (  # separation, dt, t_final, base_seed
        (4.0, 5e-4, 1.0, 211),
        (8.0, 2e-4, 0.4, 212),
        (16.0, 1e-4, 0.12, 213),
    )
    stats, used = {}, {}
    for ell, dt, t_final, seed in legs:
        cat = CatState(1.5 + 0.0j, ell)
        records = run_collapse_ensemble(
            cat, Variant.GSSE, 400, t_final, dt=dt, base_seed=seed, workers=workers,
        )
        stats[ell] = collapse_time_stats(records)
        used[ell] = separation_used(cat, GRID_BOX)
    c = _Checks()
    for ell, _, _, _ in legs:
        median = stats[ell].estimate
        target = 2.0 / ell**2
        c.add(target / 2.0 <= median <= target * 2.0,
              f"median collapse time at separation {ell:g} (used {used[ell]}) = "
              f"{median:.4f} (within factor 2 of {target:.4g})")
    split = stats[4.0].diagnostics.details["winner_fraction_right"]
    c.add(abs(split - 0.5) <= 0.05,
          f"right-branch winner fraction over 400 runs = {split:.3f} "
          f"(0.5 within 0.05)")
    ratio = stats[4.0].estimate / stats[16.0].estimate
    c.add(8.0 <= ratio <= 32.0,
          f"median ratio across a 4x separation range = {ratio:.2f} "
          f"(16 within factor 2; used {used[4.0]} to {used[16.0]})")
    return c.result(12, "collapse statistics")


def attraction(separation: float, dt: float = 1e-3):
    """Early relative acceleration of two packets (a = 3) under the mean field.

    Fits the separation over 300 steps of dt, sampled every 25, with a
    parabola.  Returns (times, separations, fitted acceleration, softened
    two-body acceleration).
    """
    kernel = ATTRACT_KERNEL
    times, values, _ = separation_series(
        init_cat(CatState(3.0 + 0.0j, separation), **ATTRACT_BOX), kernel, dt, 300, 25
    )
    accel = float(2.0 * np.polyfit(times, values, 2)[0])
    classical = -kernel.strength * separation / (separation**2 + kernel.a_soft**2) ** 1.5
    return times, values, accel, classical


def criterion_13(workers: int = 1) -> CriterionResult:
    """Two packets under the nonlocal mean field attract; one packet does not."""
    del workers
    box, kernel = ATTRACT_BOX, ATTRACT_KERNEL
    c = _Checks()

    _, separations, state = separation_series(
        init_cat(CatState(1.1 + 0.0j, 5.0), **box), kernel, 1e-3, 2_500, 100
    )
    c.add(bool(np.all(np.diff(separations) < 0)),
          f"packet separation decreases monotonically: {separations[0]:.3f} "
          f"-> {separations[-1]:.3f} over t = 2.5")
    com = abs(float(state.mean_x()))
    c.add(com <= 1e-6, f"centre of mass stays put: |mean x| = {com:.1e} (<= 1e-6)")

    _, _, accel, classical = attraction(5.0)
    c.add(abs(accel / classical - 1.0) <= 0.05,
          f"initial relative acceleration = {accel:.5f} vs softened two-body "
          f"value {classical:.5f} (within 5%)")

    state = init_gaussian(1.5, 0.0, 0.5 + 0.0j, **box)
    drift = 0.0
    for _ in range(1_500):
        state = step_sne_nonlocal(state, kernel, 1e-3)
        drift = max(drift, abs(float(state.mean_p())))
    c.add(drift <= 1e-8,
          f"single packet self-force: max |mean p| = {drift:.1e} (<= 1e-8)")
    return c.result(13, "mean-field attraction")


def criterion_14(workers: int = 1) -> CriterionResult:
    """Repeated pipeline runs emit byte-identical data files."""

    def produce(out_dir: Path, n_workers: int) -> None:
        config = EnsembleConfig(
            variant=Variant.GSSE, n_trajectories=120, t_final=2.0, base_seed=314,
        )
        records = run_ensemble(config, workers=n_workers)
        write_records_csv(records, out_dir / "records.csv")
        write_summary_json(
            [estimate_ke_rate(records)],
            out_dir / "summary.json",
            metadata={"base_seed": 314, "n_trajectories": 120, "variant": "gsse"},
        )

    # the second run also changes the worker count, so byte equality covers
    # scheduling independence as well as seed determinism
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "run1"), Path(tmp, "run2")
        first.mkdir()
        second.mkdir()
        produce(first, workers)
        produce(second, workers + 1)
        same_csv = (
            (first / "records.csv").read_bytes()
            == (second / "records.csv").read_bytes()
        )
        same_json = (
            (first / "summary.json").read_bytes()
            == (second / "summary.json").read_bytes()
        )
    c = _Checks()
    c.add(same_csv, "trajectory tables byte-identical across repeated runs")
    c.add(same_json, "summaries byte-identical across runs with different workers")
    return c.result(14, "output determinism")


CRITERIA = (
    criterion_01, criterion_02, criterion_03, criterion_04, criterion_05,
    criterion_06, criterion_07, criterion_08, criterion_09, criterion_10,
    criterion_11, criterion_12, criterion_13, criterion_14,
)


def run_all(workers: int = 1, numbers=None) -> list[CriterionResult]:
    """Run the battery (optionally a subset of criterion numbers) in order."""
    if numbers is None:
        selected = CRITERIA
    else:
        wanted = sorted(set(int(n) for n in numbers))
        bad = [n for n in wanted if not 1 <= n <= len(CRITERIA)]
        if bad:
            raise ValueError(f"no such criterion: {bad}")
        selected = tuple(CRITERIA[n - 1] for n in wanted)
    return [fn(workers=workers) for fn in selected]


def format_report(results) -> str:
    """Plain-text report: one verdict line per criterion plus its numbers."""
    lines = []
    for result in results:
        lines.append(result.line)
        lines.extend(f"    {detail}" for detail in result.details)
    n_pass = sum(r.passed for r in results)
    lines.append(f"{n_pass}/{len(results)} criteria passed")
    return "\n".join(lines)
