"""Per-layer timing of gravlab, installed from outside the package.

Each timed function is replaced, for the duration of a traced pass, on
every gravlab module attribute that refers to it (``gravlab.cli.run_ensemble``,
``gravlab.ensemble_stats.step_quadratic``, ``gravlab.grid_dynamics.step_quadratic``
and so on), so calls made inside ``run_ensemble`` or ``coherence_series``
are timed too.  ``verification.run_all`` calls the criteria through the
``CRITERIA`` tuple, so that tuple is swapped as well.  Everything is put
back when the pass ends.
"""
from __future__ import annotations

import contextlib
import importlib
import os

from spans import Recorder, children_of, self_time

LAYERS = ("cli", "model_core", "noise_field", "gaussian_dynamics",
          "grid_dynamics", "ensemble_stats", "verification")


def _rows(args, kwargs, result):
    """Trajectory rows advanced by one stepper call (first argument: state)."""
    state = args[0] if args else kwargs["state"]
    if hasattr(state, "amplitudes"):
        return state.amplitudes.shape[0] if state.amplitudes.ndim > 1 else 1
    return getattr(state.xbar, "size", 1)


def _table_bytes(args, kwargs, result):
    return result.increments.nbytes


def _file_bytes(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return os.path.getsize(path)


def _workers(args, kwargs, result):
    return kwargs.get("workers", 1)


ESTIMATORS = ("estimate_ke_rate", "estimate_diffusion",
              "estimate_xp_covariance", "collapse_time_stats")
MODEL_CORE = ("omega_g", "self_energy", "mutual_potential", "delta_e_g",
              "quadratic_coefficients", "quadratic_potential_check")

# layer -> {public function: work measure or None}
TIMED = {
    "cli": {"main": None},
    "model_core": dict.fromkeys(MODEL_CORE),
    "noise_field": {"wiener_increments": _table_bytes,
                    "sample_phi_field": None, "reduce_phi_to_w": None},
    "gaussian_dynamics": {"step": _rows},
    "grid_dynamics": {"step_quadratic": _rows, "step_sne_nonlocal": _rows,
                      "branch_split_weights": None, "coherence_series": None},
    "ensemble_stats": {"run_ensemble": _workers, "run_collapse_ensemble": _workers,
                       "write_records_csv": _file_bytes,
                       **dict.fromkeys(ESTIMATORS)},
}
REPORTED_CRITERIA = (1, 2, 4, 13)


def modules() -> dict:
    return {name: importlib.import_module(f"gravlab.{name}") for name in LAYERS}


@contextlib.contextmanager
def instrumented(recorder: Recorder):
    """Swap every timed function for its span-recording wrapper, then restore."""
    mods = modules()
    patches = []  # (module, attribute, original)
    for layer, functions in TIMED.items():
        for fname, measure in functions.items():
            original = getattr(mods[layer], fname)
            wrapper = recorder.wrap(f"{layer}.{fname}", original, measure)
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
    verification = mods["verification"]
    criteria = verification.CRITERIA
    patches.append((verification, "CRITERIA", criteria))
    verification.CRITERIA = tuple(
        recorder.wrap(f"verification.criterion_{n:02d}", fn)
        for n, fn in enumerate(criteria, start=1)
    )
    try:
        yield
    finally:
        for mod, attr, original in reversed(patches):
            setattr(mod, attr, original)


# per-layer metric -> unit, in report order
METRIC_UNITS = {
    "cli.self_s": "s",
    "model_core.calls": "count",
    "model_core.busy_s": "s",
    "noise_field.wiener_increments.calls": "count",
    "noise_field.wiener_increments.busy_s": "s",
    "noise_field.wiener_increments.table_mb": "MB",
    "noise_field.sample_phi_field.ms_per_call": "ms",
    "noise_field.reduce_phi_to_w.ms_per_call": "ms",
    "gaussian_dynamics.step.calls": "count",
    "gaussian_dynamics.step.busy_s": "s",
    "gaussian_dynamics.step.ns_per_traj_step": "ns",
    "grid_dynamics.step_quadratic.row_steps": "count",
    "grid_dynamics.step_quadratic.busy_s": "s",
    "grid_dynamics.step_quadratic.us_per_row_step": "us",
    "grid_dynamics.step_sne_nonlocal.us_per_step": "us",
    "grid_dynamics.branch_split_weights.busy_s": "s",
    "grid_dynamics.coherence_series.self_s": "s",
    "ensemble_stats.run_ensemble.self_s": "s",
    "ensemble_stats.run_collapse_ensemble.self_s": "s",
    "ensemble_stats.thread_busy_fraction": "fraction",
    "ensemble_stats.estimators.busy_s": "s",
    "ensemble_stats.write_records_csv.busy_s": "s",
    "ensemble_stats.write_records_csv.mb": "MB",
    **{f"verification.criterion_{n:02d}.wall_s": "s" for n in REPORTED_CRITERIA},
    "process.cpu_s": "s",
    "trace.overhead_fraction": "fraction",
}


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced pass; layers not called report 0.

    busy_s sums the outermost spans of a name or group, so a call nested in
    another call of the same group is not counted twice.
    """
    children = children_of(spans)
    by_name: dict = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def group(names):
        names = set(names)
        return [s for n in names for s in by_name.get(n, ())]

    def busy(names):
        names = set(names)
        return sum((s.duration for s in group(names) if not s.has_ancestor(names)), 0.0)

    def calls(name):
        return len(by_name.get(name, ()))

    def work(name):
        return sum((s.work for s in by_name.get(name, ())), 0.0)

    def self_s(name):
        return sum((self_time(s, children) for s in by_name.get(name, ())), 0.0)

    def thread_busy_fraction():
        worker_busy = capacity = 0.0
        for parent in group(["ensemble_stats.run_ensemble",
                             "ensemble_stats.run_collapse_ensemble"]):
            worker_busy += sum(k.duration for k in children.get(id(parent), ())
                               if k.thread != parent.thread)
            capacity += parent.work * parent.duration
        return _ratio(worker_busy, capacity)

    model_core = [f"model_core.{f}" for f in MODEL_CORE]
    wiener = "noise_field.wiener_increments"
    sample, reduce = "noise_field.sample_phi_field", "noise_field.reduce_phi_to_w"
    gstep, qstep = "gaussian_dynamics.step", "grid_dynamics.step_quadratic"
    nonlocal_step = "grid_dynamics.step_sne_nonlocal"
    writer = "ensemble_stats.write_records_csv"
    out = {
        "cli.self_s": self_s("cli.main"),
        "model_core.calls": float(sum(calls(n) for n in model_core)),
        "model_core.busy_s": busy(model_core),
        f"{wiener}.calls": float(calls(wiener)),
        f"{wiener}.busy_s": busy([wiener]),
        f"{wiener}.table_mb": work(wiener) / 1e6,
        f"{sample}.ms_per_call": _ratio(busy([sample]), calls(sample), 1e3),
        f"{reduce}.ms_per_call": _ratio(busy([reduce]), calls(reduce), 1e3),
        f"{gstep}.calls": float(calls(gstep)),
        f"{gstep}.busy_s": busy([gstep]),
        f"{gstep}.ns_per_traj_step": _ratio(busy([gstep]), work(gstep), 1e9),
        f"{qstep}.row_steps": work(qstep),
        f"{qstep}.busy_s": busy([qstep]),
        f"{qstep}.us_per_row_step": _ratio(busy([qstep]), work(qstep), 1e6),
        f"{nonlocal_step}.us_per_step": _ratio(busy([nonlocal_step]), calls(nonlocal_step), 1e6),
        "grid_dynamics.branch_split_weights.busy_s": busy(["grid_dynamics.branch_split_weights"]),
        "grid_dynamics.coherence_series.self_s": self_s("grid_dynamics.coherence_series"),
        "ensemble_stats.run_ensemble.self_s": self_s("ensemble_stats.run_ensemble"),
        "ensemble_stats.run_collapse_ensemble.self_s": self_s("ensemble_stats.run_collapse_ensemble"),
        "ensemble_stats.thread_busy_fraction": thread_busy_fraction(),
        "ensemble_stats.estimators.busy_s": busy([f"ensemble_stats.{f}" for f in ESTIMATORS]),
        f"{writer}.busy_s": busy([writer]),
        f"{writer}.mb": work(writer) / 1e6,
    }
    for n in REPORTED_CRITERIA:
        name = f"verification.criterion_{n:02d}"
        out[f"{name}.wall_s"] = busy([name])
    return out
