"""gravlab benchmark: CLI presets and a direct layer loop, timed end to end.

Run from the repository root:

    python3 bench/run.py --workload gaussian-ensemble --seed 0 --seconds 20 --trace 0

One process runs one workload in a closed loop: it repeats a pass over the
workload's operations until --seconds have elapsed (at least one pass).
With --trace 0 it reports the end-to-end metrics; with --trace 1 it
alternates plain and traced passes and reports the per-layer metrics.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it holds the run's report,
including the machine block.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import layers
from spans import Recorder

BENCH_DIR = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("gaussian-ensemble", "cat-ensemble", "single-state")
SETUP_PROBES = 6  # extra set-ups in fresh interpreters; with the run's own, 7 samples
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "failed_fraction": "fraction"}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def set_up(workload: str, seed: int, size: str, work_dir: Path):
    """Import gravlab, build the inputs and warm the caches; returns (ops, seconds).

    The warm-up runs every operation once at the tiny size, which fills the
    solvers' lru caches and the FFT plan caches for the same grids and steps.
    """
    start = time.perf_counter()
    import workloads  # imports numpy, scipy and gravlab

    workers = nproc()
    ops = workloads.build(workload, seed, size, workers, work_dir / "inputs")
    warm = workloads.build(workload, seed, "tiny", workers, work_dir / "warm-inputs")
    for op in warm:
        workloads.execute(op, work_dir / "warm" / op.name)
    return ops, time.perf_counter() - start


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class Pass:
    """Outcome of one pass over a workload's operations."""

    wall: float
    cpu: float
    attempted: int
    problems: list = field(default_factory=list)  # (op name, problem) pairs
    layer: dict | None = None  # per-layer metrics of a traced pass

    @property
    def failed(self) -> int:
        return len({name for name, _ in self.problems})


def run_pass(ops, out_root: Path, digests: dict, recorder=None) -> Pass:
    import workloads

    problems = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for op in ops:
        out_dir = out_root / op.name
        found = workloads.execute(op, out_dir)
        for name in op.data_files if not found else ():
            # data files are a pure function of the settings: byte-identical
            # in every pass of one invocation
            digest = _sha256(out_dir / name)
            if digests.setdefault((op.name, name), digest) != digest:
                found.append(f"{name} differs from the first pass")
        problems += [(op.name, p) for p in found]
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    layer = layers.layer_metrics(recorder.drain()) if recorder is not None else None
    return Pass(wall, cpu, len(ops), problems, layer)


def measure(workload: str, seed: int, seconds: float, trace: bool, root: Path,
            size: str = "full", setup_probes: int = SETUP_PROBES) -> dict:
    """Set up, run passes for `seconds`, and return the result and the report."""
    work_root = root / ".bench_work"
    work_root.mkdir(exist_ok=True)
    setup_samples = [_probe_setup(workload, seed, root) for _ in range(setup_probes)]
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        work = Path(tmp)
        ops, own_setup = set_up(workload, seed, size, work)
        setup_samples.append(own_setup)
        recorder = Recorder()
        plain, traced, digests = [], [], {}
        start = time.perf_counter()
        while True:
            plain.append(run_pass(ops, work / "out", digests))
            if trace:
                with layers.instrumented(recorder):
                    traced.append(run_pass(ops, work / "out", digests, recorder))
            if time.perf_counter() - start >= seconds:
                break

    passes = plain + traced
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    if trace:
        metrics = {name: statistics.median(p.layer[name] for p in traced)
                   for name in traced[0].layer}
        metrics["process.cpu_s"] = statistics.median(p.cpu for p in plain)
        metrics["trace.overhead_fraction"] = (
            statistics.median(p.wall for p in traced)
            / statistics.median(p.wall for p in plain) - 1.0)
        units = layers.METRIC_UNITS
    else:
        metrics = {
            "wall_s": statistics.median(p.wall for p in plain),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            # add-one smoothing on the per-pass counts keeps the metric
            # positive: with no failure it is 1 / (operations per pass + 1)
            "failed_fraction": (failed / len(passes) + 1.0) / (attempted / len(passes) + 1.0),
        }
        units = END_TO_END_UNITS
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "size": size, "operations": [op.name for op in ops],
        "pass_wall_s": [p.wall for p in plain],
        "traced_pass_wall_s": [p.wall for p in traced],
        "setup_samples_s": setup_samples,
        "failed_over_attempted": failed / attempted,
        "problems": [f"{name}: {p}" for q in passes for name, p in q.problems][:20],
        "machine": machine_block(root),
    }
    return {"result": result, "report": report}


def _probe_setup(workload: str, seed: int, root: Path) -> float:
    """Full-size set-up seconds measured in a fresh interpreter (import included)."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=root, capture_output=True, text=True, timeout=170, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def _git_commit(root: Path):
    """HEAD commit, or None outside a git checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine_block(root: Path) -> dict:
    import numpy
    import scipy

    import gravlab

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    src = hashlib.sha256()
    for path in sorted((root / "src" / "gravlab").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "gravlab_version": gravlab.__version__,
        "gravlab_commit": _git_commit(root),
        "gravlab_src_sha256": src.hexdigest(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    root = Path.cwd()
    if not (root / "src" / "gravlab" / "__init__.py").is_file():
        print(f"bench: no gravlab sources under {root / 'src'}; "
              "run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    if args.setup_probe:
        work_root = root / ".bench_work"
        work_root.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=work_root) as tmp:
            _, seconds = set_up(args.workload, args.seed, "full", Path(tmp))
        print(json.dumps({"setup_s": seconds}))
        return 0
    out = measure(args.workload, args.seed, args.seconds, bool(args.trace), root)
    print(json.dumps({"report": out["report"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
