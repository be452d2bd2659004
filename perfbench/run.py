"""heatctx benchmark: end-to-end CLI timings and a traced per-layer breakdown.

Run from the root of a checkout:

    python3 perfbench/run.py --workload micadei --seed 1 --seconds 40 --trace 0

Workloads are ``micadei``, ``qutrit-demo`` and ``point-queries`` (see
``workloads.py``). With ``--trace 0`` the run reports the end-to-end metrics;
with ``--trace 1`` it reports the per-layer metrics of ``tracer.py`` and the
tracing overhead. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it print each metric with its unit and sample count, the failed
fraction with its base, the failures by family, and the environment.

``attempted`` counts the distinct operations of the run's seeded plan, and
``failed`` those that exited nonzero, raised, or failed their output check
in any of their repeats. ``correct`` is false when an operation exited 0
with output that failed its check, that is, when the program returned a
wrong answer as a success. Operations the program itself reports as failed count in
``failed`` only.

The measured loop runs in a child process with BLAS pinned to one thread;
``setup_s`` times further fresh interpreters that import ``heatctx.cli`` and
load the workload's configs; ``peak_rss_mb`` is the measuring child's peak
resident memory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

TIME_LIMIT_S = 170.0
SETUP_RUNS = 11
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
TIMED = ["sweep_csv_s", "sweep_json_s", "critical_time_s", "certify_s", "clausius_s"]
P90 = ["certify_s", "clausius_s"]

SETUP_SNIPPET = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
from heatctx import cli
for name in sys.argv[2:]:
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main.main(["builtin", name], prog_name="heatctx", standalone_mode=False)
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["micadei", "qutrit-demo", "point-queries"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# -- environment record ---------------------------------------------------------------


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None when it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the record is informative only
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in PINNED_ENV},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


# -- worker ---------------------------------------------------------------------------


def worker_main(args) -> int:
    sys.path.insert(0, HERE)
    from workloads import run_worker

    result = run_worker(args.workload, args.seed, args.seconds, bool(args.trace))
    result["env"] = environment()
    print(json.dumps(result))
    return 0


# -- parent ---------------------------------------------------------------------------


def measure_setup(builtins, deadline) -> tuple[list[float], list[float]]:
    """Wall time of fresh interpreters importing heatctx.cli and loading configs.

    Returns the raw times and the times scaled by the calibration kernel run
    before and after each interpreter. This process and the interpreters are
    held on one CPU meanwhile, so that the kernel sees the core they run on.
    """
    sys.path.insert(0, HERE)
    import calibrate

    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        return _setup_times(builtins, deadline, calibrate)
    finally:
        os.sched_setaffinity(0, cpus)


def _setup_times(builtins, deadline, calibrate) -> tuple[list[float], list[float]]:
    raw, scaled = [], []
    calibrate.warm_up()
    after = calibrate.kernel_time()
    for _ in range(SETUP_RUNS):
        before = after
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, SRC, *builtins],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            timeout=max(1.0, deadline - perf_counter()),
        )
        dt = perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.decode()[-2000:]}")
        after = calibrate.kernel_time()
        raw.append(dt)
        scaled.append(calibrate.scale(dt, [before, after]))
    return raw, scaled


def run_child(args, deadline) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--worker",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=max(1.0, deadline - perf_counter()))
    if proc.returncode != 0:
        raise RuntimeError(f"measuring child failed ({proc.returncode}): {proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def p90(values):
    return statistics.quantiles(values, n=10)[-1]


def end_to_end(child: dict, setup: tuple[list[float], list[float]]) -> tuple[dict, list[str]]:
    samples, raw = child["samples"], child["raw_samples"]
    metrics, lines = {}, []
    for name in TIMED:
        vals = samples[name]
        metrics[name] = {"value": statistics.median(vals), "unit": "s"}
        lines.append(f"{name:<18} {metrics[name]['value']:.6g} s  (median, n={len(vals)}; "
                     f"raw median {statistics.median(raw[name]):.6g} s)")
        if name in P90:
            if len(vals) < 100:
                raise RuntimeError(f"{name} has {len(vals)} samples, a p90 needs 100")
            metrics[f"{name}.p90"] = {"value": p90(vals), "unit": "s"}
            lines.append(f"{name + '.p90':<18} {metrics[name + '.p90']['value']:.6g} s  "
                         f"(p90, n={len(vals)})")
    setup_raw, setup_scaled = setup
    metrics["setup_s"] = {"value": statistics.median(setup_scaled), "unit": "s"}
    lines.append(f"{'setup_s':<18} {metrics['setup_s']['value']:.6g} s  (median of fresh "
                 f"interpreters, n={len(setup_scaled)}; raw median "
                 f"{statistics.median(setup_raw):.6g} s)")
    metrics["peak_rss_mb"] = {"value": child["peak_rss_mb"], "unit": "MB"}
    lines.append(f"{'peak_rss_mb':<18} {child['peak_rss_mb']:.6g} MB  (measuring process, n=1)")
    return metrics, lines


def per_layer(child: dict) -> tuple[dict, list[str]]:
    sys.path.insert(0, HERE)
    from tracer import LAYER_METRICS

    layers = child["layers"]
    n = child["traced_rounds"]
    metrics, lines = {}, []
    for name, unit in LAYER_METRICS:
        metrics[name] = {"value": layers[name], "unit": unit}
        lines.append(f"{name:<42} {layers[name]:.6g} {unit}  (traced rounds n={n})")
    if child.get("missing_targets"):
        lines.append(f"trace targets not found: {', '.join(child['missing_targets'])}")
    if child.get("counts_differ"):
        lines.append(f"counts differ between traced rounds: {', '.join(child['counts_differ'])}")
    return metrics, lines


def parent_main(args) -> int:
    start = perf_counter()
    deadline = start + TIME_LIMIT_S
    if not os.path.isfile(os.path.join(SRC, "heatctx", "__init__.py")):
        print(f"error: heatctx sources not found under {SRC}", file=sys.stderr)
        return 2
    builtins = {"micadei": ["micadei"], "qutrit-demo": ["qutrit-demo"]}.get(
        args.workload, ["micadei", "qutrit-demo"])
    try:
        setup = ([], []) if args.trace else measure_setup(builtins, deadline)
        child = run_child(args, deadline)
        if args.trace:
            metrics, lines = per_layer(child)
        else:
            metrics, lines = end_to_end(child, setup)
    except (RuntimeError, subprocess.TimeoutExpired, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    ledger = child["ledger"]
    attempted, failed = ledger["attempted"], ledger["failed"]
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env: " + json.dumps(child["env"], sort_keys=True))
    for line in lines:
        print(line)
    print(f"{'ops_failed_frac':<18} {failed / attempted:.6g} ratio  "
          f"(base: {failed} failed / {attempted} attempted)")
    for key, reasons in sorted(ledger["reasons"].items()):
        for reason, count in sorted(reasons.items()):
            print(f"failed {key}: {count} x {reason}")
    print(json.dumps({
        "correct": ledger["silent"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    # Before numpy is imported here or in a child, which inherits the setting.
    os.environ.update(PINNED_ENV)
    if args.worker:
        return worker_main(args)
    return parent_main(args)


if __name__ == "__main__":
    sys.exit(main())
