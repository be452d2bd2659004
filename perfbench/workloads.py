"""Workloads, their seeded inputs, and the timed loop that runs them.

Every operation is one invocation of the public ``heatctx`` command line,
driven in-process through ``heatctx.cli.main``. Each workload runs the same
five commands; the workload decides what they are fed:

* ``micadei``: full-grid sweeps (CSV, JSON) and ``critical-time`` of the NMR
  two-qubit builtin, plus single-time queries on its families (d = 4).
* ``qutrit-demo``: the same on the qutrit partial-SWAP builtin, with
  certification of the d = 9 partial SWAP.
* ``point-queries``: single-time queries only. Sweeps run on a two-point grid
  ``[0, t]`` at the drawn time, so per-point sweep work is negligible;
  ``critical-time`` runs on micadei, certification covers all five families
  and ``clausius`` both builtins.

Query times are drawn with ``g t`` log-uniform on [1e-4, pi]; the draw is a
pure function of the workload name, the seed argument and the round index.
A run draws a fixed number of distinct rounds and its timed loop cycles
through them for as long as the run lasts, so what a run attempts, and which
operations fail, depends on the seed alone and not on the host's speed.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import calibrate
import checks
from tracer import CLI_SPAN, COUNTED, Tracer, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")

GT_RANGE = (1e-4, math.pi)
MIN_QUERY_SAMPLES = 100  # a p90 needs ten samples beyond it
MIN_TRACED_PAIRS = 1

FAMILIES_D4 = (
    ("resonant-exchange", 2),
    ("resonant-detuning", 2),
    ("nonresonant", 2),
    ("partial-swap", 2),
)
FAMILY_D9 = ("partial-swap", 3)

# Metric timed for each operation kind.
METRIC = {
    "sweep_csv": "sweep_csv_s",
    "sweep_json": "sweep_json_s",
    "critical_time": "critical_time_s",
    "certify": "certify_s",
    "clausius": "clausius_s",
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sweep_builtins: tuple[str, ...]  # cycled through, one per round
    point_sweeps: bool  # two-point sweeps at the drawn time, not full grids
    critical_time_builtin: str
    families: tuple[tuple[str, int], ...]
    clausius_builtins: tuple[str, ...]
    critical_time_per_round: int
    queries_per_round: int
    plan_rounds: int  # distinct rounds drawn per run, each run at least once


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="micadei",
            why="100k-point NMR sweeps where emission dominates, plus d=4 certification",
            sweep_builtins=("micadei",),
            point_sweeps=False,
            critical_time_builtin="micadei",
            families=FAMILIES_D4,
            clausius_builtins=("micadei",),
            critical_time_per_round=20,
            queries_per_round=30,
            plan_rounds=3,
        ),
        Workload(
            name="qutrit-demo",
            why="30k-point qutrit sweeps where the O(N d^4) Delta-I einsum dominates, plus d=9 certification",
            sweep_builtins=("qutrit-demo",),
            point_sweeps=False,
            critical_time_builtin="qutrit-demo",
            families=(FAMILY_D9,),
            clausius_builtins=("qutrit-demo",),
            critical_time_per_round=10,
            queries_per_round=15,
            plan_rounds=3,
        ),
        Workload(
            name="point-queries",
            why="seeded single-time queries with no grid: certification, Clausius, two-point sweeps",
            sweep_builtins=("micadei", "qutrit-demo"),
            point_sweeps=True,
            critical_time_builtin="micadei",
            families=FAMILIES_D4 + (FAMILY_D9,),
            clausius_builtins=("micadei", "qutrit-demo"),
            critical_time_per_round=1,
            queries_per_round=10,
            plan_rounds=12,
        ),
    )
}


# -- seeded inputs ---------------------------------------------------------------


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its output is checked against."""

    kind: str  # a key of METRIC
    label: str  # builtin or family, for the failure listing
    args: tuple[str, ...]
    builtin: str | None = None
    t: float | None = None


def draw_gt(rng: random.Random) -> float:
    lo, hi = GT_RANGE
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def round_plan(workload: Workload, seed: int, index: int, g: dict[str, float]) -> list[Op]:
    """The operations of one round; a pure function of its arguments.

    ``g`` maps each builtin to its coupling, which turns a drawn ``g t`` into
    the time passed on the command line. The single-time queries are spread
    in slices between the sweeps and critical-time calls, so that every kind
    of operation samples the whole run rather than one stretch of it.
    """
    rng = random.Random(f"heatctx-perfbench/{workload.name}/{seed}/{index}")
    builtin = workload.sweep_builtins[index % len(workload.sweep_builtins)]
    if workload.point_sweeps:
        t = draw_gt(rng) / g[builtin]
        extra = ("--t-max", repr(t), "--n-points", "2")
        label, formats = f"point-sweep/{builtin}", ("csv", "json")
    else:
        t, extra = None, ()
        label, formats = builtin, ("csv", "json")
    heavy = [
        Op(kind=f"sweep_{fmt}", label=label,
           args=("sweep", "--builtin", builtin) + extra + ("--format", fmt),
           builtin=builtin, t=t)
        for fmt in formats
    ]
    ct = workload.critical_time_builtin
    heavy += [
        Op(kind="critical_time", label=ct, args=("critical-time", "--builtin", ct), builtin=ct)
    ] * workload.critical_time_per_round
    queries = query_ops(workload, rng, g)
    pairs = [queries[i:i + 2] for i in range(0, len(queries), 2)]
    ops: list[Op] = []
    for i, op in enumerate(heavy):
        ops.append(op)
        for pair in pairs[i::len(heavy)]:
            ops.extend(pair)
    return ops


def query_ops(workload: Workload, rng: random.Random, g: dict[str, float]) -> list[Op]:
    """One round's certification and Clausius queries, interleaved.

    Families and builtins are taken in turn, so every seed runs them in the
    same proportions; only the times are drawn.
    """
    ops = []
    for j in range(workload.queries_per_round):
        family, local_dim = workload.families[j % len(workload.families)]
        gt = draw_gt(rng)
        ops.append(
            Op(
                kind="certify",
                label=f"{family}-d{local_dim ** 2}",
                args=("verify-decomposition", "--interaction", family, "--local-dim",
                      str(local_dim), "--g", "1.0", "--t", repr(gt), "--minimal"),
                t=gt,
            )
        )
        builtin = workload.clausius_builtins[j % len(workload.clausius_builtins)]
        t = draw_gt(rng) / g[builtin]
        ops.append(
            Op(kind="clausius", label=builtin, args=("clausius", "--builtin", builtin, "--t", repr(t)),
               builtin=builtin, t=t)
        )
    return ops


# -- running and checking ----------------------------------------------------------


@dataclass
class Ledger:
    """Distinct operations attempted and failed, with the reasons by family.

    An operation that runs several times counts once, and fails if any of
    its runs fails; the first failure is the one kept.
    """

    outcomes: dict = field(default_factory=dict)  # Op -> (rc, reason or None)

    def record(self, op: Op, rc, reason: str | None) -> None:
        if op not in self.outcomes or (reason is not None and self.outcomes[op][1] is None):
            self.outcomes[op] = (rc, reason)

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def failed(self) -> int:
        return sum(reason is not None for _, reason in self.outcomes.values())

    @property
    def silent(self) -> int:
        """Failed checks on operations that exited 0."""
        return sum(reason is not None and rc == 0 for rc, reason in self.outcomes.values())

    @property
    def reasons(self) -> dict:
        out: dict = {}
        for op, (_, reason) in self.outcomes.items():
            if reason is not None:
                by_reason = out.setdefault(f"{op.kind}/{op.label}", {})
                by_reason[reason] = by_reason.get(reason, 0) + 1
        return out

    def as_dict(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "silent": self.silent,
            "reasons": self.reasons,
        }


class Context:
    """The program under test, its references, and where outputs go."""

    def __init__(self, workdir: str):
        if SRC not in sys.path:
            sys.path.insert(0, SRC)
        from heatctx import cli

        self.cli = cli
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        ref = checks.load_reference()
        self.csv_sha = dict(ref["csv_sha256"])
        self.configs = {name: self._builtin_config(name) for name in ("micadei", "qutrit-demo")}
        self.g = {name: float(c["interaction"]["g"]) for name, c in self.configs.items()}
        self.critical_times = {
            "micadei": list(ref["critical_times"]["micadei"]),
            "qutrit-demo": self._qutrit_analytic_times(),
        }
        # sha256 of each builtin's JSON output, once one has passed its check.
        self.verified_json: dict[str, str] = {}

    def _builtin_config(self, name: str) -> dict:
        rc, out, _ = self.invoke(("builtin", name))
        if rc != 0:
            raise RuntimeError(f"heatctx builtin {name} exited with {rc}")
        return json.loads(out)

    def _qutrit_analytic_times(self) -> list[float]:
        """qutrit_critical_times_analytic on qutrit_heat_coefficients, inside the grid."""
        from heatctx import (
            TwoQutritThermalParams,
            qutrit_critical_times_analytic,
            qutrit_heat_coefficients,
        )

        c = self.configs["qutrit-demo"]
        st = c["state"]
        params = TwoQutritThermalParams(
            omegas=tuple(st["omegas"]),
            beta_A=1.0 / st["T_A"],
            beta_B=1.0 / st["T_B"],
            **{k: st[k] for k in ("eta31", "eta62", "eta75", "theta31", "theta62", "theta75")},
        )
        zeta, xi = qutrit_heat_coefficients(params)
        taus = qutrit_critical_times_analytic(zeta, xi, max(st["omegas"]), self.g["qutrit-demo"])
        grid = c["time_grid"]
        return sorted(t for t in taus if grid["t_min"] < t <= grid["t_max"])

    def invoke(self, args) -> tuple[int | None, str, str]:
        """Run one CLI command in-process; rc None means an uncaught exception."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                self.cli.main.main(list(args), prog_name="heatctx", standalone_mode=False)
                rc = 0
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
            except Exception as exc:  # the benchmark must count it and go on
                rc = getattr(exc, "exit_code", None)
                err.write(traceback.format_exc())
        return rc, out.getvalue(), err.getvalue()

    def output_path(self, op: Op) -> str:
        ext = "csv" if op.kind == "sweep_csv" else "json"
        return os.path.join(self.workdir, f"{op.builtin}.{ext}")

    def full_args(self, op: Op) -> tuple[str, ...]:
        if op.kind in ("sweep_csv", "sweep_json"):
            return op.args + ("--output", self.output_path(op))
        return op.args

    def clear_output(self, op: Op) -> None:
        """Remove what an earlier operation wrote where ``op`` will write."""
        if op.kind in ("sweep_csv", "sweep_json"):
            with contextlib.suppress(FileNotFoundError):
                os.remove(self.output_path(op))

    def check(self, op: Op, rc, stdout: str) -> str | None:
        if op.kind == "certify":
            return checks.check_certify(rc, stdout)
        if op.kind == "clausius":
            return checks.check_clausius(rc, stdout)
        if op.kind == "critical_time":
            return checks.check_critical_time(rc, stdout, self.critical_times[op.builtin])
        path = self.output_path(op)
        if op.t is not None:  # two-point sweep at the drawn time
            if op.kind == "sweep_csv":
                return checks.check_point_sweep_csv(rc, path, self.configs[op.builtin], op.t)
            csv_path = os.path.join(self.workdir, f"{op.builtin}.csv")
            if not os.path.exists(csv_path):
                return "no paired CSV output to compare with"
            return checks.check_sweep_json(rc, path, checks.sha256_file(csv_path), None)
        if op.kind == "sweep_csv":
            return checks.check_sweep_csv(rc, path, self.csv_sha[op.builtin])
        sha = checks.sha256_file(path) if rc == 0 and os.path.exists(path) else None
        if sha is not None and self.verified_json.get(op.builtin) == sha:
            return None  # the same bytes as a JSON output that passed
        reason = checks.check_sweep_json(rc, path, self.csv_sha[op.builtin],
                                         self.critical_times[op.builtin])
        if reason is None:
            self.verified_json[op.builtin] = sha
        return reason


def warm_up(plan: list[Op]) -> list[Op]:
    """The first operation of each kind and label in ``plan``."""
    seen, ops = set(), []
    for op in plan:
        if (op.kind, op.label) not in seen:
            seen.add((op.kind, op.label))
            ops.append(op)
    return ops


class Recorder:
    """Raw timings, and the same timings scaled by the calibration kernel."""

    def __init__(self):
        self.raw: dict[str, list[float]] = {}
        self.scaled: dict[str, list[float]] = {}
        calibrate.warm_up()

    def add(self, metric: str, sampler: calibrate.Sampler) -> None:
        self.raw.setdefault(metric, []).append(sampler.elapsed)
        self.scaled.setdefault(metric, []).append(sampler.scaled())

    def count(self, metric: str) -> int:
        return len(self.raw.get(metric, []))


def run_ops(ctx: Context, ops: list[Op], ledger: Ledger, recorder: Recorder | None,
            tracer: Tracer | None = None) -> None:
    """Run, time and check ``ops``; a traced run wraps each in a ``cli`` span."""
    for op in ops:
        args = ctx.full_args(op)
        ctx.clear_output(op)
        gc.collect()
        sampler = calibrate.Sampler() if recorder is not None else contextlib.nullcontext()
        span = tracer.span(CLI_SPAN) if tracer is not None else contextlib.nullcontext()
        with sampler, span:
            rc, out, _ = ctx.invoke(args)
        if recorder is not None:
            recorder.add(METRIC[op.kind], sampler)
        ledger.record(op, rc, ctx.check(op, rc, out))


def run_worker(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """The measured part of one benchmark run, in its own process."""
    deadline = perf_counter() + seconds
    workload = WORKLOADS[name]
    workdir = os.path.join(WORK, f"{name}-{os.getpid()}")
    try:
        ctx = Context(workdir)
        ledger = Ledger()
        result = {"workload": name, "seed": seed}
        if trace:
            result.update(_traced(ctx, workload, seed, deadline, ledger))
        else:
            result.update(_untraced(ctx, workload, seed, deadline, ledger))
        result["ledger"] = ledger.as_dict()
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _untraced(ctx, workload, seed, deadline, ledger) -> dict:
    recorder = Recorder()
    plan = [round_plan(workload, seed, i, ctx.g) for i in range(workload.plan_rounds)]
    run_ops(ctx, warm_up([op for ops in plan for op in ops]), ledger, None)
    index, last = 0, 0.0
    while index < len(plan) or perf_counter() + last <= deadline:
        t0 = perf_counter()
        run_ops(ctx, plan[index % len(plan)], ledger, recorder)
        last = perf_counter() - t0
        index += 1
    # Top up the single-time queries until each has enough samples for a p90.
    while min(recorder.count(m) for m in ("certify_s", "clausius_s")) < MIN_QUERY_SAMPLES:
        queries = [op for op in plan[index % len(plan)] if op.kind in ("certify", "clausius")]
        run_ops(ctx, queries, ledger, recorder)
        index += 1
    return {"samples": recorder.scaled, "raw_samples": recorder.raw}


def _scaled_total(ctx, plan, ledger, tracer) -> float:
    """Summed operation time of one round, scaled by the calibration kernel."""
    recorder = Recorder()
    run_ops(ctx, plan, ledger, recorder, tracer)
    return sum(sum(v) for v in recorder.scaled.values())


def _traced(ctx, workload, seed, deadline, ledger) -> dict:
    """Alternate untraced and traced runs of round 0's operations."""
    plan = round_plan(workload, seed, 0, ctx.g)
    run_ops(ctx, warm_up(plan), ledger, None)
    tracer = Tracer()
    plain, traced, layers = [], [], []
    missing: list[str] = []
    last = 0.0
    while len(traced) < MIN_TRACED_PAIRS or perf_counter() + last <= deadline:
        t0 = perf_counter()
        plain.append(_scaled_total(ctx, plan, ledger, None))
        with tracer.installed():
            traced.append(_scaled_total(ctx, plan, ledger, tracer))
        missing = tracer.missing
        layers.append(layer_metrics(tracer.take()))
        last = perf_counter() - t0
    metrics = {}
    for key in layers[0]:
        if key in COUNTED:
            metrics[key] = layers[0][key]
        else:
            metrics[key] = statistics.median(m[key] for m in layers)
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    differ = sorted(k for k in COUNTED if any(m[k] != layers[0][k] for m in layers))
    return {
        "layers": metrics,
        "traced_rounds": len(traced),
        "missing_targets": missing,
        "counts_differ": differ,
    }
