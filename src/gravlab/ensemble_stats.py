"""Monte Carlo harness: trajectory ensembles over either solver.

Trajectory j of an ensemble always consumes the noise stream
(base_seed, j), so results are a pure function of the config and do not
depend on batching, execution order, or worker count.  Estimator standard
errors come from resampling whole trajectories (200 bootstrap draws with a
fixed internal seed); pointwise least-squares errors would be badly
overconfident because residuals are correlated along each trajectory.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DomainError, StatisticsError
from .gaussian_dynamics import (
    GaussianState,
    Variant,
    kinetic_energy,
    soliton_state,
    step,
)
from .grid_dynamics import (
    CatState,
    GridState,
    branch_split_weights,
    init_cat,
    init_gaussian,
    step_quadratic,
)
from .noise_field import run_batches

OBSERVABLES = ("xbar", "pbar", "delta_x", "kinetic")
SOLVERS = ("gaussian", "grid")
SCHEMA_VERSION = 1

# the grid solver's box, for every grid ensemble here, criterion 5 and the
# collapse study
GRID_BOX = {"n": 1024, "x_min": -40.0, "x_max": 40.0}

# fit-window, threshold and bootstrap policy
TRANSIENT = 5.0  # skipped for non-soliton starts: width relaxation
COVARIANCE_T_MAX = 0.5  # end of the x-p covariance fit window
COLLAPSE_THRESHOLD = 0.99  # dominant branch weight that decides a collapse
N_BOOTSTRAP = 200
R2_TREND_THRESHOLD = 0.95
STDERR_FLOOR = 1e-12  # keeps exact-zero estimates from reporting stderr 0
MIN_RATE_TRAJECTORIES = 100  # fewest trajectories a rate or covariance fit takes
_BOOTSTRAP_SEED = 0x5EED


def step_count(t_final: float, dt: float) -> int:
    """The number of steps of dt in t_final, which must be a positive multiple of dt."""
    if not (0.0 < t_final < math.inf and 0.0 < dt < math.inf):
        raise DomainError("t_final and dt must be positive and finite")
    n_steps = round(t_final / dt)
    if n_steps < 1 or abs(n_steps * dt - t_final) > 1e-9:
        raise DomainError("t_final must be a positive multiple of dt")
    return n_steps


def record_stride(n_steps: int) -> int:
    """Steps between records, for about 200 records per run."""
    return max(1, n_steps // 200)


@dataclass(frozen=True)
class EnsembleConfig:
    """One reproducible ensemble run; trajectory j uses seed (base_seed, j).

    Every trajectory starts at xbar = pbar = 0 with width a0, or with the
    variant's soliton width when a0 is None.
    """

    variant: Variant
    solver: str = "gaussian"
    n_trajectories: int = 1000
    t_final: float = 10.0
    dt: float = 1e-3
    base_seed: int = 0
    a0: complex | None = None

    def __post_init__(self):
        if self.solver not in SOLVERS:
            raise DomainError(f"unknown solver {self.solver!r}")
        if self.n_trajectories < 2:
            raise DomainError("need at least 2 trajectories")
        if self.a0 is not None and not complex(self.a0).real > 0:
            raise DomainError("explicit initial width needs Re(a0) > 0")
        step_count(self.t_final, self.dt)

    @property
    def n_steps(self) -> int:
        return step_count(self.t_final, self.dt)


def _read_only(record) -> None:
    """Make every field of a frozen record a read-only array view.

    The battery shares one cached ensemble between criteria; a write raises.
    """
    for f in fields(record):
        view = np.asarray(getattr(record, f.name)).view()
        view.flags.writeable = False
        object.__setattr__(record, f.name, view)


@dataclass(frozen=True)
class EnsembleRecords:
    """Moment series of an ensemble: times plus one (trajectory, sample)
    array per observable, read-only; len() is the trajectory count."""

    times: np.ndarray
    xbar: np.ndarray
    pbar: np.ndarray
    delta_x: np.ndarray
    kinetic: np.ndarray
    a: np.ndarray

    def __post_init__(self):
        _read_only(self)

    def __len__(self) -> int:
        return self.xbar.shape[0]


def _start_state(config: EnsembleConfig):
    """The one state every trajectory of the ensemble starts from."""
    a0 = soliton_state(config.variant).a if config.a0 is None else complex(config.a0)
    if config.solver == "gaussian":
        return GaussianState(0.0, 0.0, a0)
    return init_gaussian(0.0, 0.0, a0, **GRID_BOX)


def _gaussian_moments(st: GaussianState):
    rows = np.size(st.xbar)
    return (
        np.asarray(st.xbar, dtype=float),
        np.asarray(st.pbar, dtype=float),
        np.broadcast_to(np.sqrt(st.delta_x2), rows),
        np.asarray(kinetic_energy(st), dtype=float),
        np.broadcast_to(st.a, rows),
    )


def _grid_moments(st: GridState):
    dx2 = st.delta_x2()
    corr = st.correlation_xp()
    # effective complex width read off the moments; exact for Gaussians
    a_eff = 1.0 / (4.0 * dx2) - 0.5j * corr / dx2
    return st.mean_x(), st.mean_p(), np.sqrt(dx2), st.kinetic_energy(), a_eff


def run_ensemble(config: EnsembleConfig, workers: int = 1) -> EnsembleRecords:
    """All trajectories of the configured ensemble, one row each in order.

    Gaussian ensembles run as one vectorized batch on the calling thread
    whatever ``workers`` says: each step is a handful of small numpy calls
    that hold the interpreter lock, and threads made them slower.  Grid
    ensembles are stepped in cache-sized blocks of contiguous trajectories
    by ``noise_field.run_batches``, on ``workers`` threads.  Records are
    identical to the workers=1 output either way, and a solver failure is
    raised naming the trajectory at fault.
    """
    if config.solver == "gaussian":
        # one batch on the calling thread; min(workers, 1) still lets
        # run_batches reject workers < 1
        stepper, moments, workers, n_cells = step, _gaussian_moments, min(workers, 1), None
    else:
        stepper, moments, n_cells = step_quadratic, _grid_moments, GRID_BOX["n"]
    variant, dt = config.variant, config.dt
    steps = range(0, config.n_steps + 1, record_stride(config.n_steps))
    reads = run_batches(
        lambda rows: _start_state(config).repeated(rows),
        lambda st, dw: stepper(st, variant, dt, dw),
        config.base_seed, range(config.n_trajectories), dt, steps,
        moments, workers, n_cells,
    )
    # C-ordered (trajectory, sample) arrays: xbar, pbar, delta_x, kinetic, a
    return EnsembleRecords(
        np.asarray([k * dt for k in steps]),
        *(np.stack(column, axis=1) for column in zip(*reads)),
    )


@dataclass(frozen=True)
class FitDiagnostics:
    """Goodness-of-fit summary attached to every estimate."""

    r_squared: float | None
    residual_trend: bool
    details: dict = field(default_factory=dict)


@dataclass(frozen=True)
class EstimatorResult:
    name: str
    estimate: float
    stderr: float
    window: tuple
    diagnostics: FitDiagnostics

    def __post_init__(self):
        if not self.stderr > 0:
            raise StatisticsError("estimator standard error must be positive")
        if not self.window[0] <= self.window[1]:
            raise StatisticsError("empty fit window")


def _auto_transient(times, delta_x_matrix):
    """Non-soliton starts relax their width; skip TRANSIENT of data."""
    mean_width = delta_x_matrix.mean(axis=0)
    drift = np.max(np.abs(mean_width - mean_width[0])) / mean_width[0]
    return 0.0 if drift < 1e-3 else TRANSIENT


def _window_slice(times, t_lo, t_hi):
    mask = (times >= t_lo - 1e-12) & (times <= t_hi + 1e-12)
    if mask.sum() < 3:
        raise StatisticsError("fit window holds fewer than 3 samples")
    return mask


def _rate_window(records, name, what):
    """Fit-window times, the named observable there per trajectory, the window.

    The window runs from the end of the width transient to the last sample.
    """
    if len(records) < MIN_RATE_TRAJECTORIES:
        raise StatisticsError(f"{what} needs at least {MIN_RATE_TRAJECTORIES} trajectories")
    times, values = records.times, getattr(records, name)
    transient = _auto_transient(times, records.delta_x)
    if transient >= times[-1]:
        raise StatisticsError("simulated range does not outlast the width transient")
    mask = _window_slice(times, transient, times[-1])
    return times[mask], values[:, mask], (float(times[mask][0]), float(times[-1]))


def _r_squared(y, fitted) -> float:
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    return 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot


def _linear_fit(t, y, through_origin=False):
    if through_origin:
        slope = float(np.dot(t, y) / np.dot(t, t))
        fitted = slope * t
    else:
        slope, intercept = np.polyfit(t, y, 1)
        fitted = slope * t + intercept
    return float(slope), _r_squared(y, fitted)


def _bootstrap_draws(n: int) -> np.ndarray:
    """The fixed trajectory resamples, one row of n indices per draw."""
    rng = np.random.default_rng(_BOOTSTRAP_SEED)
    return rng.integers(0, n, size=(N_BOOTSTRAP, n))


def _spread(stats) -> float:
    """Bootstrap standard error, floored so that it stays positive."""
    return max(float(np.std(stats, ddof=1)), STDERR_FLOOR)


def _bootstrap_stderr(matrix, reduce_fn, fit_fn):
    """Std of fit_fn(reduce_fn(resampled rows)) over trajectory resamples."""
    draws = _bootstrap_draws(matrix.shape[0])
    return _spread(np.array([fit_fn(reduce_fn(matrix[d])) for d in draws]))


def estimate_ke_rate(records) -> EstimatorResult:
    """Slope of the ensemble-mean kinetic energy versus time."""
    t, kin, window = _rate_window(records, "kinetic", "kinetic-energy rate")
    series = kin.mean(axis=0)
    if np.ptp(series) == 0.0:
        diag = FitDiagnostics(1.0, False)
        return EstimatorResult("ke_rate", 0.0, STDERR_FLOOR, window, diag)
    slope, r2 = _linear_fit(t, series)
    stderr = _bootstrap_stderr(kin, lambda m: m.mean(axis=0), lambda y: _linear_fit(t, y)[0])
    diag = FitDiagnostics(r2, r2 < R2_TREND_THRESHOLD)
    return EstimatorResult("ke_rate", slope, stderr, window, diag)


def estimate_diffusion(
    records,
    observable: str,
    variant: Variant | None = None,
) -> EstimatorResult:
    """Slope of the ensemble variance of xbar or pbar versus time.

    For the SSNE position variance the fit is constrained through the
    origin (identical starts diffuse from zero spread with no drift term).
    Diagnostics carry quadratic and cubic coefficients of an unconstrained
    cubic fit with bootstrap errors, to expose any superlinear component.
    """
    if observable not in ("xbar", "pbar"):
        raise DomainError("diffusion estimator expects observable xbar or pbar")
    t, sub, window = _rate_window(records, observable, "diffusion fit")
    series = sub.var(axis=0, ddof=1)
    name = f"var_{observable}_rate"
    through_origin = variant is Variant.SSNE and observable == "xbar" and window[0] == 0.0
    if np.ptp(series) == 0.0 and series[0] == 0.0:
        diag = FitDiagnostics(1.0, False, {"quadratic": 0.0, "cubic": 0.0})
        return EstimatorResult(name, 0.0, STDERR_FLOOR, window, diag)
    slope, r2 = _linear_fit(t, series, through_origin)
    cubic = np.polyfit(t, series, 3)
    # one set of resampled variance series serves all three error bars
    boots = [sub[d].var(axis=0, ddof=1) for d in _bootstrap_draws(sub.shape[0])]
    boot_cubics = np.array([np.polyfit(t, y, 3) for y in boots])
    details = {
        "quadratic": float(cubic[1]),
        "quadratic_stderr": _spread(boot_cubics[:, 1]),
        "cubic": float(cubic[0]),
        "cubic_stderr": _spread(boot_cubics[:, 0]),
    }
    stderr = _spread([_linear_fit(t, y, through_origin)[0] for y in boots])
    diag = FitDiagnostics(r2, r2 < R2_TREND_THRESHOLD, details)
    return EstimatorResult(name, slope, stderr, window, diag)


def estimate_xp_covariance(records) -> EstimatorResult:
    """Leading-order growth rate of Cov(xbar, pbar).

    Fits cov = c1 t + c2 t^2 through the origin on [0, COVARIANCE_T_MAX]
    and reports c1; the quadratic term absorbs the drift-fed covariance
    growth so the estimate isolates the shared-noise contribution.
    """
    if len(records) < MIN_RATE_TRAJECTORIES:
        raise StatisticsError(f"covariance fit needs at least {MIN_RATE_TRAJECTORIES} trajectories")
    times, xs, ps = records.times, records.xbar, records.pbar
    mask = _window_slice(times, 0.0, min(COVARIANCE_T_MAX, float(times[-1])))
    t = times[mask]

    def cov_series(xm, pm):
        xc = xm - xm.mean(axis=0)
        pc = pm - pm.mean(axis=0)
        return (xc * pc).sum(axis=0) / (xm.shape[0] - 1)

    basis = np.stack([t, t**2], axis=1)

    def fit(y):
        return np.linalg.lstsq(basis, y, rcond=None)[0]

    series = cov_series(xs[:, mask], ps[:, mask])
    coef = fit(series)
    c1 = float(coef[0])
    r2 = _r_squared(series, basis @ coef)

    boots = np.array([
        fit(cov_series(xs[d][:, mask], ps[d][:, mask]))[0]
        for d in _bootstrap_draws(xs.shape[0])
    ])
    stderr = _spread(boots)
    positive = bool(np.all(series[t > 0] > 0.0))
    diag = FitDiagnostics(r2, r2 < R2_TREND_THRESHOLD, {"all_positive": positive})
    return EstimatorResult(
        "xp_cov_rate", c1, stderr, (float(t[0]), float(t[-1])), diag
    )


@dataclass(frozen=True)
class BranchWeights:
    """Left-branch weights of a cat ensemble after every step: times and a
    (trajectory, step) array, read-only; len() is the trajectory count."""

    times: np.ndarray
    weight_left: np.ndarray

    def __post_init__(self):
        _read_only(self)

    def __len__(self) -> int:
        return self.weight_left.shape[0]


def run_collapse_ensemble(
    cat: CatState,
    variant: Variant,
    n_trajectories: int,
    t_final: float,
    dt: float = 1e-3,
    base_seed: int = 0,
    workers: int = 1,
) -> BranchWeights:
    """Grid cat ensemble on GRID_BOX recording every trajectory's branch weights.

    Weights are identical whatever ``workers`` says: the trajectories are
    stepped in cache-sized blocks by ``noise_field.run_batches``, on
    ``workers`` threads, and a solver failure is raised naming the
    trajectory at fault.
    """
    if n_trajectories < 2:
        raise DomainError("need at least 2 trajectories")
    n_steps = step_count(t_final, dt)
    weights = run_batches(
        lambda rows: init_cat(cat, **GRID_BOX).repeated(rows),
        lambda st, dw: step_quadratic(st, variant, dt, dw),
        base_seed, range(n_trajectories), dt, range(1, n_steps + 1),
        lambda st: branch_split_weights(st, cat), workers, GRID_BOX["n"],
    )
    return BranchWeights(dt * np.arange(1, n_steps + 1), np.stack(weights, axis=1))


def collapse_time_stats(records) -> EstimatorResult:
    """Median first-passage time of the dominant branch weight to COLLAPSE_THRESHOLD.

    The estimate is the median over decided trajectories with a bootstrap
    confidence interval; diagnostics carry the winner split, its binomial
    error, and the censored count.  More than 20% censored trajectories
    make the median untrustworthy and raise StatisticsError.
    """
    if len(records) < 2:
        raise StatisticsError("need at least 2 trajectories")
    w = records.weight_left
    hit = np.maximum(w, 1.0 - w) >= COLLAPSE_THRESHOLD
    rows = np.flatnonzero(hit.any(axis=1))
    first = hit[rows].argmax(axis=1)  # argmax would read 0 on an undecided row
    censored = len(records) - rows.size
    if censored > 0.20 * len(records):
        raise StatisticsError(
            f"{censored} of {len(records)} trajectories undecided at t_final"
        )
    decided = records.times[first]
    median = float(np.median(decided))
    medians = np.median(decided[_bootstrap_draws(decided.size)], axis=1)
    ci = (float(np.percentile(medians, 2.5)), float(np.percentile(medians, 97.5)))
    stderr = _spread(medians)
    n_decided = decided.size
    # past the threshold a weight is never 0.5: below it, the right branch won
    frac_right = float(np.mean(w[rows, first] < 0.5))
    split_err = math.sqrt(max(frac_right * (1.0 - frac_right), 0.25 / n_decided) / n_decided)
    details = {
        "ci_low": ci[0],
        "ci_high": ci[1],
        "winner_fraction_right": frac_right,
        "winner_split_stderr": split_err,
        "n_decided": n_decided,
        "n_censored": censored,
    }
    window = (float(records.times[0]), float(records.times[-1]))
    return EstimatorResult(
        "collapse_time_median", median, stderr, window, FitDiagnostics(None, False, details)
    )


def _float_reprs(values) -> list[str]:
    """repr(float(v)) of every entry, through one tolist() conversion."""
    return list(map(repr, map(float, np.asarray(values).tolist())))


def write_records_csv(records: EnsembleRecords, path) -> None:
    """Long-format dump: one row per (trajectory, time, observable in OBSERVABLES).

    Writes the bytes a ``csv.writer`` row loop would (CRLF line ends,
    ``repr(float(v))`` digits; observable names are attribute names, so no
    field ever needs quoting), but builds each (trajectory, observable)
    block as one string.  Times are formatted once.
    """
    times = _float_reprs(records.times)
    heads = {name: [f"{t},{name}," for t in times] for name in OBSERVABLES}
    with open(path, "w", newline="") as fh:
        fh.write("trajectory,time,observable,value\r\n")
        for j in range(len(records)):
            lead = f"{j},"
            for name in OBSERVABLES:
                rows = map(str.__add__, heads[name], _float_reprs(getattr(records, name)[j]))
                fh.write(lead + ("\r\n" + lead).join(rows) + "\r\n")


def result_to_dict(result: EstimatorResult) -> dict:
    diag = result.diagnostics
    return {
        "estimate": result.estimate,
        "stderr": result.stderr,
        "window": list(result.window),
        "r_squared": diag.r_squared,
        "residual_trend": diag.residual_trend,
        "details": diag.details,
    }


def write_summary_json(results, path, metadata=None, **fields) -> None:
    """The one JSON summary format: schema version and metadata block, the
    estimates keyed by estimator name unless results is None, and any
    further top-level fields."""
    payload = {"schema_version": SCHEMA_VERSION, "metadata": dict(metadata or {}), **fields}
    if results is not None:
        payload["estimates"] = {r.name: result_to_dict(r) for r in results}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
