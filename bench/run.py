"""funcid benchmark: one workload per run, end-to-end or traced per-layer figures.

Usage, from the root of a checkout:

    python3 bench/run.py --workload train-lenet5 --seed 0 --seconds 50 --trace 0

The run sets the workload up several times (the median is ``setup_s``), then
repeats the workload body until ``--seconds`` have passed; ``wall_s`` is the
median repetition.  Every repetition's
outputs are checked: against the values pinned in ``bench/expected.json`` at
the default seed, and against the run's first repetition at any seed.

``--trace 0`` times untraced repetitions and reports the end-to-end metrics
named in ``BENCHMARK.json``.  ``--trace 1`` alternates untraced and traced
repetitions and reports the per-layer metrics: span figures from the traced
ones, stage figures from the untraced ones, and their difference as the
tracing overhead.  Counts from the traced repetitions must repeat exactly.

All load comes from this one process: funcid runs with ``jobs=1`` and BLAS
with one thread.  Human-readable lines and a ``report`` JSON line (run
metadata, error rate, sample counts) precede the last line, which is the
result object ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 1 when any repetition fails its checks, 2 when the checkout has no
funcid sources.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 5
BLAS_THREADS = "1"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--pin", action="store_true",
        help="write this run's outputs and counts to bench/expected.json (needs --trace 1)",
    )
    return parser.parse_args(argv)


def _git(*args) -> str | None:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _blas_threads_in_use() -> int | None:
    """Thread count the loaded OpenBLAS reports, when its library can be found."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def _metadata(declared: dict) -> dict:
    import numpy

    toplevel = _git("rev-parse", "--show-toplevel")
    in_repo = toplevel is not None and Path(toplevel).resolve() == ROOT
    status = _git("status", "--porcelain", "--untracked-files=no") if in_repo else None
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": _git("rev-parse", "HEAD") if in_repo else None,
        "dirty": bool(status) if status is not None else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": _blas_threads_in_use(),
        "nproc": os.cpu_count(),
        "workloads": {w["name"]: w["why"] for w in declared["workloads"]},
    }


def _diff(expected: dict, got: dict) -> list[str]:
    return sorted(k for k in expected.keys() | got.keys() if expected.get(k) != got.get(k))


class ReferenceMismatch(RuntimeError):
    """A repetition's outputs or counts differ from the pinned or first ones."""


class Measurement:
    """Timed repetitions of one workload and the checks of their outputs."""

    def __init__(self, workload, tracing, pinned):
        self.workload = workload
        self.tracing = tracing
        self.recorder = tracing.Recorder()
        self.reference_outputs = pinned["outputs"] if pinned else None
        self.reference_counts = pinned["counts"] if pinned else None
        self.walls = {False: [], True: []}
        self.tries = {False: 0, True: 0}
        self.stages: list[dict] = []
        self.layers: list[dict] = []
        self.failed = 0

    def repeat(self, fixture, seconds: float, trace: bool) -> None:
        """Repeat the body for ``seconds``, alternating traced ones in when ``trace``."""
        started = time.perf_counter()
        traced = False
        while (
            time.perf_counter() - started < seconds
            or not self.tries[False]
            or (trace and not self.tries[True])
        ):
            self.tries[traced] += 1
            try:
                self._once(fixture, traced)
            except Exception:
                self.failed += 1
                self.recorder.take()
                traceback.print_exc()
            traced = trace and not traced

    def _once(self, fixture, traced: bool) -> None:
        t0 = time.perf_counter()
        if traced:
            with self.recorder.active():
                outputs, stage = self.workload.run(fixture)
        else:
            outputs, stage = self.workload.run(fixture)
        wall = time.perf_counter() - t0
        outputs = json.loads(json.dumps(outputs, sort_keys=True))
        if self.reference_outputs is None:
            self.reference_outputs = outputs
        mismatched = _diff(self.reference_outputs, outputs)
        if traced:
            figures = self.tracing.layer_metrics(self.recorder.take())
            counts = {k: figures[k] for k in self.tracing.COUNT_METRICS}
            if self.reference_counts is None:
                self.reference_counts = counts
            mismatched += _diff(self.reference_counts, counts)
        if mismatched:
            raise ReferenceMismatch(f"outputs differ from the reference: {mismatched}")
        self.walls[traced].append(wall)
        if traced:
            self.layers.append(figures)
        else:
            self.stages.append(stage)

    def stage_figures(self) -> dict:
        """Stage figures of the untraced repetitions (0 where a stage did not run)."""
        latencies = [us for stage in self.stages for us in stage.get("latencies_us", [])]

        def median_of(key):
            values = [stage[key] for stage in self.stages if key in stage]
            return statistics.median(values) if values else 0.0

        # Linear interpolation between order statistics, as numpy's default.
        cuts = statistics.quantiles(latencies, n=100, method="inclusive") if latencies else None
        return {
            "train_samples_per_s": median_of("train_samples_per_s"),
            "predict_img_per_s": median_of("predict_img_per_s"),
            "predict_p50_us": cuts[49] if cuts else 0.0,
            "predict_p99_us": cuts[98] if cuts else 0.0,
            "predict_samples": len(latencies),
        }

    def per_layer(self) -> dict:
        layers = self.layers
        values = {k: statistics.median(f[k] for f in layers) for k in layers[0]} if layers else {}
        values.update(self.reference_counts or {})
        values.update(self.stage_figures())
        if self.walls[True] and self.walls[False]:
            values["trace.overhead_s"] = (
                statistics.median(self.walls[True]) - statistics.median(self.walls[False])
            )
        return values


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "funcid" / "__init__.py").is_file():
        print(f"error: no funcid sources under {src}", file=sys.stderr)
        return 2
    # BLAS reads its thread count when numpy is first imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(src))

    started = time.perf_counter()
    import funcid
    import tracing
    from workloads import WORKLOADS

    import_s = time.perf_counter() - started
    if Path(funcid.__file__).resolve().parent != src / "funcid":
        print(f"error: imported funcid from {funcid.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.pin and not args.trace:
        print("error: --pin needs --trace 1", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    pinned_all = json.loads(EXPECTED.read_text(encoding="utf-8")) if EXPECTED.exists() else {}
    pinned = pinned_all.get(args.workload) if args.seed == DEFAULT_SEED and not args.pin else None
    run = Measurement(workload, tracing, pinned)

    scratch_root = ROOT / ".bench_tmp"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=scratch_root))
    try:
        setup_s = []
        for i in range(SETUP_REPEATS):
            tmp = scratch / f"setup{i}"
            tmp.mkdir()
            t0 = time.perf_counter()
            fixture = workload.setup(args.seed, tmp)
            setup_s.append(time.perf_counter() - t0)
        run.repeat(fixture, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(scratch)
        with contextlib.suppress(OSError):
            scratch_root.rmdir()

    if args.trace:
        units = {m["name"]: m["unit"] for m in declared["per_layer"]}
        values = run.per_layer()
    else:
        units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
        values = {
            "wall_s": statistics.median(run.walls[False]) if run.walls[False] else 0.0,
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    if run.failed == 0 and set(values) != set(units):
        print(f"error: metrics {sorted(values)} differ from BENCHMARK.json {sorted(units)}",
              file=sys.stderr)
        return 2
    metrics = {k: {"value": values.get(k, 0.0), "unit": unit} for k, unit in units.items()}

    if args.pin and run.failed == 0:
        pinned_all[args.workload] = {
            "outputs": run.reference_outputs, "counts": run.reference_counts,
        }
        EXPECTED.write_text(json.dumps(pinned_all, indent=2, sort_keys=True) + "\n",
                            encoding="utf-8")

    attempted = sum(run.tries.values())
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "checked_against": "pinned" if pinned else "first repetition",
        "error_rate": run.failed / attempted,
        "repetition_s": {"untraced": run.walls[False], "traced": run.walls[True]},
        "setup_s": setup_s,
        "import_s": import_s,
        "stages": run.stage_figures(),
        "metadata": _metadata(declared),
    }
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"error_rate = {report['error_rate']:.6g} ({run.failed} failed of {attempted})")
    print("report " + json.dumps(report, sort_keys=True))
    result = {
        "correct": run.failed == 0, "attempted": attempted, "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
