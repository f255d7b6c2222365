"""The benchmark's workloads: operations on gravlab, their inputs and checks.

An operation is one CLI preset invocation through ``gravlab.cli.main(argv)``
or one direct layer loop.  It fails if it exits non-zero, raises, or fails
its output check.  Targets and tolerances come from the acceptance battery
(``gravlab.verification``).  The battery pins its seeds; the benchmark runs
on any seed, so a statistical check passes when

    |estimate - target| <= max(battery tolerance, 5 sigma)

where sigma is the estimate's standard error at the sample size used here.
The bootstrap errors of the rate fits under-report the spread between seeds
by about a quarter at these sizes, so 5 reported sigma are about 4 true
ones; a correct program then fails a given check on about one seed in 10^4.
"""
from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from gravlab import cli, noise_field
from gravlab.model_core import MassProfile
from gravlab.verification import WIDTH2_TARGET

GAUSSIAN, CAT, SINGLE = "gaussian-ensemble", "cat-ensemble", "single-state"
WORKLOADS = (GAUSSIAN, CAT, SINGLE)
SIGMAS = 5.0

# Problem sizes.  "full" is what a run measures; "tiny" warms the caches
# during set-up and serves as a quick smoke run.
SIZES = {
    "full": {
        # the battery's 1000-trajectory soliton ensemble, t_final 10
        "trajectories": 1000, "t_final": 10.0,
        # collapse: 40 x 1000 steps keeps censoring near 4% (limit 20%)
        "collapse_trajectories": 40, "collapse_t_final": 0.5,
        # coherence: the rate's sampling error is (ell^2/2) sqrt(2/N)
        # whatever the time span, so many trajectories and few steps;
        # 5 sigma is then 22% of the rate
        "coherence_trajectories": 1000, "coherence_t_final": 0.01,
        # field loop: 5 sigma of the mean variance is 5 sqrt(2/(3M)) = 0.20
        "criteria": (1, 2, 4, 13), "field_samples": 400,
    },
    "tiny": {
        "trajectories": 100, "t_final": 1.0,
        "collapse_trajectories": 10, "collapse_t_final": 0.5,
        "coherence_trajectories": 100, "coherence_t_final": 0.01,
        "criteria": (1, 2), "field_samples": 20,
    },
}

COLLAPSE_SEPARATION = 4.0
COHERENCE_SEPARATION = 2.0
ATTRACT_SEPARATION = 5.0
# criterion 3: FieldGrid(52, 6.2), base seed 1618, 10^4 samples, tolerance 0.05
FIELD_GRID = noise_field.FieldGrid(52, 6.2)
FIELD_SEED = 1618
FIELD_BATTERY_SAMPLES, FIELD_BATTERY_TOL = 10_000, 0.05


@dataclass
class Op:
    """One operation; it writes into its own output directory."""

    name: str
    check: Callable[[Path], list]  # problems found in the outputs
    data_files: tuple  # files whose bytes must repeat in every pass
    argv: list = field(default_factory=list)  # preset argv, without --out-dir
    call: Callable[[Path], None] | None = None  # direct layer loop


def run_preset(argv) -> tuple[int, str]:
    """Exit code and stderr of one in-process CLI invocation."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
    return code, err.getvalue()


def execute(op: Op, out_dir: Path) -> list:
    """Run one operation and check its outputs; returns the problems found."""
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        if op.call is not None:
            op.call(out_dir)
        else:
            code, err = run_preset(op.argv + ["--out-dir", str(out_dir)])
            if code != 0:
                return [f"exit code {code}: {err.strip()[-400:]}"]
        return op.check(out_dir)
    except Exception as exc:  # an operation that raises fails; the run goes on
        return [f"raised {type(exc).__name__}: {exc}"]


def _close(name, estimate, target, tol, stderr=0.0) -> list:
    limit = max(tol, SIGMAS * stderr)
    if abs(estimate - target) <= limit:
        return []
    return [f"{name} = {estimate:.6g}, expected {target:.6g} within {limit:.3g}"]


def _estimate(path: Path, name: str) -> dict:
    return json.loads(path.read_text())["estimates"][name]


def _gaussian_ops(seed, size, workers, config) -> list:
    common = ["--trajectories", str(size["trajectories"]), "--seed", str(seed),
              "--workers", str(workers), "--config", str(config)]

    def check_ke(out):
        est = _estimate(out / "ke_rate_summary.json", "ke_rate")
        # criterion 5: 0.5 within 10%
        return _close("ke_rate", est["estimate"], 0.5, 0.05, est["stderr"])

    def check_diffusion(out):
        var_x = _estimate(out / "diffusion_summary.json", "var_xbar_rate")
        var_p = _estimate(out / "diffusion_summary.json", "var_pbar_rate")
        # criterion 8: unit position diffusion; criterion 7: momentum exactly fixed
        problems = _close("var_xbar_rate", var_x["estimate"], 1.0, 0.1, var_x["stderr"])
        if var_p["estimate"] != 0.0:
            problems.append(f"var_pbar_rate = {var_p['estimate']!r}, expected exactly 0")
        return problems

    return [
        Op("ke-rate-gsse", check_ke, ("ke_rate_records.csv",),
           ["ke-rate", "--variant", "gsse", *common]),
        Op("diffusion-ssne", check_diffusion, ("diffusion_records.csv",),
           ["diffusion", "--variant", "ssne", *common]),
    ]


def _cat_ops(seed, size, workers, collapse_config, coherence_config) -> list:
    common = ["--seed", str(seed), "--workers", str(workers)]

    def check_collapse(out):
        # criterion 12: median first passage within a factor 2 of 2 / ell^2
        median = _estimate(out / "cat_summary.json", "collapse_time_median")["estimate"]
        target = 2.0 / COLLAPSE_SEPARATION**2
        if target / 2.0 <= median <= 2.0 * target:
            return []
        return [f"collapse median {median:.4g} not within a factor 2 of {target:.4g}"]

    def check_coherence(out):
        # criterion 11: rate ell^2 / 2 within 10%
        rate = json.loads((out / "cat_summary.json").read_text())["decay_rate"]
        target = COHERENCE_SEPARATION**2 / 2.0
        sigma = target * math.sqrt(2.0 / size["coherence_trajectories"])
        return _close("coherence decay rate", rate, target, 0.1 * target, sigma)

    coherence = ["cat", "--study", "coherence", "--separation", str(COHERENCE_SEPARATION),
                 "--trajectories", str(size["coherence_trajectories"]),
                 "--config", str(coherence_config), *common]
    return [
        Op("cat-collapse-gsse", check_collapse, ("cat_weights.csv",),
           ["cat", "--study", "collapse", "--variant", "gsse",
            "--separation", str(COLLAPSE_SEPARATION),
            "--trajectories", str(size["collapse_trajectories"]),
            "--config", str(collapse_config), *common]),
        Op("cat-coherence-gsse", check_coherence, ("cat_coherence.csv",),
           coherence + ["--variant", "gsse"]),
        Op("cat-coherence-ssne", check_coherence, ("cat_coherence.csv",),
           coherence + ["--variant", "ssne"]),
    ]


def _single_ops(seed, size, workers) -> list:
    common = ["--seed", str(seed), "--workers", str(workers)]
    n_samples = size["field_samples"]

    def check_statics(out):
        summary = json.loads((out / "statics_summary.json").read_text())
        # criterion 1: the unit uniform sphere
        return (_close("omega_g", summary["omega_g"], 1.0, 1e-6)
                + _close("self_energy", summary["self_energy"], -0.6, 1e-6))

    def check_solitons(out):
        summary = json.loads((out / "solitons_summary.json").read_text())
        problems = []
        for variant, target in WIDTH2_TARGET.items():  # criterion 9, 1%
            name = variant.name.lower()
            width2 = summary["final_width2"][name]
            problems += _close(f"{name} width^2", width2, target, 0.01 * target)
        fidelity = summary["sne_grid_fidelity_t2"]
        if not fidelity >= 1.0 - 1e-6:  # criterion 4
            problems.append(f"soliton fidelity {fidelity!r} below 1 - 1e-6")
        return problems

    def check_attract(out):
        deviation = json.loads((out / "attract_summary.json").read_text())["relative_deviation"]
        if deviation <= 0.05:  # criterion 13
            return []
        return [f"attraction off the two-body value by {deviation:.3g} (> 0.05)"]

    def check_verify(out):
        summary = json.loads((out / "verify_summary.json").read_text())
        ran = sorted(c["number"] for c in summary["criteria"])
        failed = [c["number"] for c in summary["criteria"] if not c["passed"]]
        problems = [f"criteria failed: {failed}"] if failed else []
        if ran != sorted(size["criteria"]):
            problems.append(f"verify ran criteria {ran}, asked for {list(size['criteria'])}")
        return problems

    profile = MassProfile.uniform_sphere(1.0)

    def field_loop(out):
        # criterion 3's loop, fed from the benchmark seed: seed 0 draws the
        # first samples of the battery's own stream
        ws = np.empty((n_samples, 3))
        for i in range(n_samples):
            sample = noise_field.sample_phi_field(FIELD_GRID, 1.0, FIELD_SEED + seed, i)
            ws[i] = noise_field.reduce_phi_to_w(sample, profile)
        np.save(out / "field_w.npy", ws)

    def check_field(out):
        ws = np.load(out / "field_w.npy")
        if not np.all(np.isfinite(ws)):
            return ["non-finite projected noise"]
        cov = ws.T @ ws / n_samples
        dev = float(np.abs(cov - np.eye(3)).max())
        # the battery's tolerance scaled to the sample count; a diagonal
        # entry's sampling sigma is sqrt(2 / n)
        tol = FIELD_BATTERY_TOL * math.sqrt(FIELD_BATTERY_SAMPLES / n_samples)
        problems = _close("max |covariance - identity|", dev, 0.0, tol,
                          math.sqrt(2.0 / n_samples))
        # the mean of the three variances pins the noise strength tighter
        # than any one entry; its sampling sigma is sqrt(2 / (3 n))
        return problems + _close("mean variance", float(np.trace(cov)) / 3.0, 1.0, 0.0,
                                 math.sqrt(2.0 / (3.0 * n_samples)))

    return [
        Op("statics", check_statics, ("statics.csv",),
           ["statics", "--profile", "uniform", "--radius", "1", *common]),
        Op("solitons", check_solitons, ("solitons.csv",), ["solitons", *common]),
        Op("attract", check_attract, ("attract_separation.csv",),
           ["attract", "--separation", str(ATTRACT_SEPARATION), *common]),
        Op("verify", check_verify, ("verify_report.txt",),
           ["verify", "--criteria", *map(str, size["criteria"]), *common]),
        Op("field-loop", check_field, ("field_w.npy",), call=field_loop),
    ]


def _write_config(path: Path, **settings) -> Path:
    path.write_text("".join(f"{k} = {v!r}\n" for k, v in settings.items()))
    return path


def build(workload: str, seed: int, size_name: str, workers: int, input_dir: Path) -> list:
    """The workload's operations for this seed; config files go to input_dir."""
    size = SIZES[size_name]
    input_dir.mkdir(parents=True, exist_ok=True)
    if workload == GAUSSIAN:
        config = _write_config(input_dir / "ensemble.cfg", t_final=size["t_final"])
        return _gaussian_ops(seed, size, workers, config)
    if workload == CAT:
        collapse = _write_config(input_dir / "collapse.cfg", t_final=size["collapse_t_final"])
        coherence = _write_config(input_dir / "coherence.cfg",
                                  t_final=size["coherence_t_final"])
        return _cat_ops(seed, size, workers, collapse, coherence)
    if workload == SINGLE:
        return _single_ops(seed, size, workers)
    raise ValueError(f"unknown workload {workload!r}")
