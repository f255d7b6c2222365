"""Command-line front end: reproducible experiment presets with file output.

Every subcommand resolves its settings from built-in defaults, then an
optional KEY=VALUE config file, then explicit flags (flags win), runs the
experiment, and writes plot-ready CSV data plus a JSON summary whose
metadata block records the unit system, seeds, step sizes, grid, thresholds,
and package version.  The only non-reproducible field is the timestamp,
which lives inside that metadata block; all data files are byte-identical
across repeated runs with the same settings, independent of worker count.
"""

from __future__ import annotations

import argparse
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, verification
from .ensemble_stats import (
    COLLAPSE_THRESHOLD,
    GRID_BOX,
    MIN_RATE_TRAJECTORIES,
    EnsembleConfig,
    estimate_diffusion,
    estimate_ke_rate,
    estimate_xp_covariance,
    collapse_time_stats,
    record_stride,
    run_collapse_ensemble,
    run_ensemble,
    step_count,
    write_records_csv,
    write_summary_json,
)
from .errors import ConfigError, GravlabError, StatisticsError
from .gaussian_dynamics import GaussianState, Variant, soliton_state, step
from .grid_dynamics import CatState, coherence_series
from .model_core import (
    MassProfile,
    delta_e_g,
    mutual_potential,
    omega_g,
    self_energy,
)

UNITS = "hbar = mass = omega_g = 1"

# every settings key a config file may set, with its parser
_KEY_TYPES = {
    "seed": int,
    "workers": int,
    "dt": float,
    "trajectories": int,
    "t_final": float,
    "variant": str,
    "profile": str,
    "out_dir": str,
    "radius": float,
    "separation": float,
    "study": str,
}

# the settings every command reads (its metadata records seed and workers)
_SHARED_DEFAULTS = {"seed": 0, "workers": 0, "out_dir": "."}

# the other settings each command reads, with the fallbacks applied after
# config file and flags (None: no fallback, or the cat study's); a command
# has flags for these only, and any other key in its config file is a
# config error
_COMMAND_DEFAULTS = {
    "statics": {"profile": "uniform", "radius": 1.0},
    "solitons": {"variant": None, "dt": 1e-3, "t_final": 10.0},
    "diffusion": {"variant": "gsse", "trajectories": 400, "t_final": 4.0, "dt": 1e-3},
    "ke-rate": {"variant": "gsse", "trajectories": 400, "t_final": 6.0, "dt": 1e-3},
    "cat": {"variant": "gsse", "trajectories": 200, "study": "collapse",
            "separation": None, "dt": None, "t_final": None},
    "attract": {"dt": 1e-3, "separation": 5.0},
    "verify": {},
}

_CAT_STUDY_DEFAULTS = {
    "collapse": {"separation": 4.0, "dt": 5e-4, "t_final": 1.0},
    "coherence": {"separation": 2.0, "dt": 1e-3, "t_final": 0.3},
}


# the flag of each command setting (t_final is set in a config file only)
_FLAGS = {
    "variant": {"choices": ["sne", "gsse", "ssne"], "help": "dynamics variant"},
    "dt": {"type": float, "help": "integrator step"},
    "trajectories": {"type": int, "help": "ensemble size"},
    "profile": {"choices": ["uniform", "gaussian"], "help": "mass density profile"},
    "radius": {"type": float,
               "help": "profile size parameter (sphere radius or ball width)"},
    "study": {"choices": ["collapse", "coherence"]},
    "separation": {"type": float,
                   "help": "branch separation (cat) or initial packet separation (attract)"},
}

_COMMAND_HELP = {
    "statics": "frequency, self-energy, and energy-gap tables",
    "solitons": "stationarity and width-relaxation runs",
    "diffusion": "ensemble variance and covariance growth fits",
    "ke-rate": "kinetic-energy heating rate fit",
    "cat": "two-branch collapse or coherence study",
    "attract": "two-packet attraction under the nonlocal term",
    "verify": "run the acceptance battery and report pass/fail",
}


def build_parser() -> argparse.ArgumentParser:
    """The gravlab parser; each command takes flags only for the settings it reads."""
    parser = argparse.ArgumentParser(
        prog="gravlab",
        description="Stochastic wave-packet experiments with reproducible output.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", type=Path, default=None,
                        help="KEY=VALUE settings file; flags override it")
    shared.add_argument("--seed", type=int, default=None,
                        help="base seed for all trajectory noise streams")
    shared.add_argument("--workers", type=int, default=None,
                        help="worker threads for grid ensembles and the cat "
                             "coherence study (default: available cores); Gaussian "
                             "ensembles run on one thread, where threads made them "
                             "slower")
    shared.add_argument("--out-dir", type=Path, default=None,
                        help="directory for CSV/JSON output (default: .)")

    sub = parser.add_subparsers(dest="command", required=True)
    for command, help_text in _COMMAND_HELP.items():
        command_parser = sub.add_parser(command, parents=[shared], help=help_text)
        for key in _COMMAND_DEFAULTS[command]:
            if key in _FLAGS:
                command_parser.add_argument(f"--{key}", default=None, **_FLAGS[key])
    sub.choices["verify"].add_argument("--criteria", type=int, nargs="+", default=None,
                                       help="criterion numbers to run (default: all)")
    return parser


def _read_config(path: Path, command: str, keys) -> dict:
    """Parse a KEY=VALUE file; '#' starts a comment, blank lines are skipped.

    Every key must be one of `keys`, the settings `command` reads.
    """
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    values = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected KEY=VALUE, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower().replace("-", "_")
        if key not in _KEY_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown setting {key!r}")
        try:
            values[key] = _KEY_TYPES[key](value.strip())
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
        if key not in keys:
            raise ConfigError(f"{path}:{lineno}: {command} does not read setting {key!r}")
    return values


def _resolve(args: argparse.Namespace) -> dict:
    """Merge defaults, config file, and flags into one settings dict.

    The dict holds exactly the settings the command reads.
    """
    command = args.command
    settings = {**_SHARED_DEFAULTS, **dict.fromkeys(_COMMAND_DEFAULTS[command])}
    if args.config is not None:
        settings.update(_read_config(args.config, command, settings))
    for key in settings:
        flag = getattr(args, key, None)
        if flag is not None:
            settings[key] = flag
    for key, value in _COMMAND_DEFAULTS[command].items():
        if settings[key] is None:
            settings[key] = value
    if command == "cat":
        if settings["study"] not in _CAT_STUDY_DEFAULTS:
            raise ConfigError(f"unknown cat study {settings['study']!r}")
        for key, value in _CAT_STUDY_DEFAULTS[settings["study"]].items():
            if settings[key] is None:
                settings[key] = value
    workers = settings["workers"]
    if workers < 0:
        raise ConfigError(f"workers must be >= 0 (0: available cores), got {workers}")
    if workers == 0:  # the cores this process may run on, as nproc counts them
        affinity = getattr(os, "sched_getaffinity", None)
        settings["workers"] = len(affinity(0)) if affinity else os.cpu_count() or 1
    if settings.get("variant") is not None:
        try:
            settings["variant"] = Variant[str(settings["variant"]).upper()]
        except KeyError:
            raise ConfigError(f"unknown variant {settings['variant']!r}") from None
    settings["out_dir"] = Path(settings["out_dir"])
    return settings


def _metadata(settings: dict, **extra) -> dict:
    md = {
        "version": __version__,
        "units": UNITS,
        "seed": settings["seed"],
        "workers": settings["workers"],
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    for key in ("dt", "t_final", "trajectories"):
        if settings.get(key) is not None:
            md[key] = settings[key]
    if settings.get("variant") is not None:
        md["variant"] = settings["variant"].name.lower()
    md.update(extra)
    return md


def _write_table(path: Path, header: str, rows) -> None:
    lines = [header]
    lines.extend(",".join(repr(float(v)) if isinstance(v, float) else str(v)
                          for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def _announce(*paths: Path) -> None:
    for path in paths:
        print(f"wrote {path}")


def _profile_for(settings: dict) -> MassProfile:
    size = float(settings["radius"])
    if settings["profile"] == "uniform":
        return MassProfile.uniform_sphere(size)
    return MassProfile.gaussian_ball(size)


def _run_statics(settings: dict) -> tuple:
    profile = _profile_for(settings)
    size = float(settings["radius"])
    rows = [
        ("omega_g", "", omega_g(profile)),
        ("self_energy", "", self_energy(profile)),
    ]
    grid = np.round(np.arange(0.25, 8.01, 0.25) * size, 12)
    rows.extend(("mutual_potential", float(d), mutual_potential(profile, float(d)))
                for d in grid)
    rows.extend(("delta_e_g", float(ell), delta_e_g(profile, float(ell)))
                for ell in grid)
    out = settings["out_dir"]
    table = out / "statics.csv"
    summary = out / "statics_summary.json"
    _write_table(table, "quantity,argument,value", rows)
    write_summary_json(
        None, summary, _metadata(settings, profile=settings["profile"], size_parameter=size),
        omega_g=omega_g(profile), self_energy=self_energy(profile),
    )
    print(f"omega_g = {omega_g(profile):.6f}, self energy = {self_energy(profile):.6f}")
    return table, summary


def _run_solitons(settings: dict) -> tuple:
    dt, t_final = settings["dt"], settings["t_final"]
    variants = ([settings["variant"]] if settings["variant"] is not None
                else [Variant.SNE, Variant.GSSE, Variant.SSNE])
    n_steps = step_count(t_final, dt)
    stride = record_stride(n_steps)
    rows, finals = [], {}
    for variant in variants:
        # width flow is deterministic, so one zero-noise trajectory tells
        # the whole story; the sne flow is conservative (a perturbed width
        # breathes forever), so that run starts at the soliton and shows
        # stationarity instead of relaxation
        a_start = (soliton_state(variant).a if variant is Variant.SNE
                   else 2.0 + 0.0j)
        state = GaussianState(0.0, 0.0, a_start)
        rows.append((variant.name.lower(), 0.0, float(state.delta_x2)))
        for k in range(n_steps):
            state = step(state, variant, dt, 0.0)
            if (k + 1) % stride == 0:
                rows.append((variant.name.lower(), (k + 1) * dt,
                             float(state.delta_x2)))
        finals[variant.name.lower()] = float(state.delta_x2)

    fidelity = verification.soliton_fidelity(2_000)

    out = settings["out_dir"]
    table = out / "solitons.csv"
    summary = out / "solitons_summary.json"
    _write_table(table, "variant,time,width2", rows)
    write_summary_json(None, summary, _metadata(settings),
                       final_width2=finals, sne_grid_fidelity_t2=fidelity)
    return table, summary


def _run_rate(settings: dict, stem: str, estimators) -> tuple:
    """Gaussian ensemble records and the estimators' fits, as <stem>_*.csv/json."""
    # every fit refuses a small ensemble, so refuse it before stepping one
    if settings["trajectories"] < MIN_RATE_TRAJECTORIES:
        raise StatisticsError(f"rate fits need at least {MIN_RATE_TRAJECTORIES} trajectories")
    config = EnsembleConfig(
        variant=settings["variant"],
        n_trajectories=settings["trajectories"],
        t_final=settings["t_final"],
        dt=settings["dt"],
        base_seed=settings["seed"],
    )
    records = run_ensemble(config, workers=settings["workers"])
    results = [estimate(records) for estimate in estimators]
    out = settings["out_dir"]
    table = out / f"{stem}_records.csv"
    summary = out / f"{stem}_summary.json"
    write_records_csv(records, table)
    write_summary_json(results, summary, _metadata(settings, solver="gaussian"))
    for r in results:
        print(f"{r.name} = {r.estimate:.6f} +- {r.stderr:.6f}")
    return table, summary


def _run_cat(settings: dict) -> tuple:
    out = settings["out_dir"]
    if settings["study"] == "collapse":
        cat, grid = CatState(1.5 + 0.0j, settings["separation"]), GRID_BOX
        weights = run_collapse_ensemble(
            cat, settings["variant"], settings["trajectories"],
            settings["t_final"], dt=settings["dt"], base_seed=settings["seed"],
            workers=settings["workers"],
        )
        stats = collapse_time_stats(weights)
        table = out / "cat_weights.csv"
        times = weights.times.tolist()
        rows = [(j, t, w) for j, row in enumerate(weights.weight_left.tolist())
                for t, w in zip(times, row)]
        _write_table(table, "trajectory,time,weight_left", rows)
        print(f"{stats.name} = {stats.estimate:.6f}")
        results, extra, fields = [stats], {"threshold": COLLAPSE_THRESHOLD}, {}
    else:
        cat, grid = CatState(4.0 + 0.0j, settings["separation"]), verification.COHERENCE_BOX
        n_steps = step_count(settings["t_final"], settings["dt"])
        sample_steps = np.unique(np.round(np.linspace(0, n_steps, 11)).astype(int))
        times = sample_steps * settings["dt"]
        coherence = coherence_series(
            range(settings["trajectories"]), cat, settings["variant"], times,
            dt=settings["dt"], base_seed=settings["seed"],
            workers=settings["workers"], **grid,
        )
        rate = verification.decay_rate(times, coherence)
        table = out / "cat_coherence.csv"
        _write_table(table, "time,coherence",
                     [(float(t), float(c)) for t, c in zip(times, coherence)])
        print(f"coherence decay rate = {rate:.6f}")
        results, extra, fields = None, {}, {"decay_rate": rate}
    summary = out / "cat_summary.json"
    write_summary_json(
        results, summary,
        _metadata(settings, study=settings["study"], separation=settings["separation"],
                  separation_used=verification.separation_used(cat, grid), grid=grid, **extra),
        **fields,
    )
    return table, summary


def _run_attract(settings: dict) -> tuple:
    times, values, accel, classical = verification.attraction(
        settings["separation"], settings["dt"]
    )
    kernel = verification.ATTRACT_KERNEL
    out = settings["out_dir"]
    table = out / "attract_separation.csv"
    summary = out / "attract_summary.json"
    _write_table(table, "time,separation", list(zip(times, values)))
    write_summary_json(
        None, summary,
        _metadata(settings, kernel={"a_soft": kernel.a_soft, "strength": kernel.strength},
                  grid=verification.ATTRACT_BOX),
        fitted_acceleration=accel,
        classical_acceleration=classical,
        relative_deviation=abs(accel / classical - 1.0),
    )
    print(f"fitted acceleration = {accel:.5f} (two-body value {classical:.5f})")
    return table, summary


def _run_verify(settings: dict, criteria) -> int:
    try:
        results = verification.run_all(workers=settings["workers"], numbers=criteria)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    report = verification.format_report(results)
    print(report)
    out = settings["out_dir"]
    report_path = out / "verify_report.txt"
    summary = out / "verify_summary.json"
    report_path.write_text(report + "\n")
    write_summary_json(None, summary, _metadata(settings), criteria=[
        {"number": r.number, "name": r.name, "passed": r.passed, "details": list(r.details)}
        for r in results
    ])
    _announce(report_path, summary)
    return 0 if all(r.passed for r in results) else 1


# every command but verify: its function runs it and returns the paths it
# wrote.  Estimator lists are built per call, so that wrappers patched onto
# this module's estimator names (bench/layers.py) see every fit.
_PRESETS = {
    "statics": _run_statics,
    "solitons": _run_solitons,
    "diffusion": lambda settings: _run_rate(settings, "diffusion", [
        lambda records: estimate_diffusion(records, "xbar", variant=settings["variant"]),
        lambda records: estimate_diffusion(records, "pbar", variant=settings["variant"]),
        estimate_xp_covariance,
    ]),
    "ke-rate": lambda settings: _run_rate(settings, "ke_rate", [estimate_ke_rate]),
    "cat": _run_cat,
    "attract": _run_attract,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        settings = _resolve(args)
        settings["out_dir"].mkdir(parents=True, exist_ok=True)
        if args.command == "verify":
            return _run_verify(settings, args.criteria)
        _announce(*_PRESETS[args.command](settings))
        return 0
    except ConfigError as exc:
        print(f"gravlab: config error: {exc}", file=sys.stderr)
        return 2
    except GravlabError as exc:
        print(f"gravlab: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
