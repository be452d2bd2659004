"""Self-tests of the benchmark: python3 -m pytest -q perfbench"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import COUNTED, TARGETS, Span, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Context, Ledger, Op, round_plan  # noqa: E402

G = {"micadei": 675.7565797938, "qutrit-demo": 1.0}


@pytest.fixture(scope="module")
def ctx(tmp_path_factory):
    return Context(str(tmp_path_factory.mktemp("out")))


def _run(ctx, op):
    rc, out, _ = ctx.invoke(ctx.full_args(op))
    return rc, out


def test_corrupted_csv_is_one_failed_operation(ctx):
    op = Op("sweep_csv", "qutrit-demo", ("sweep", "--builtin", "qutrit-demo", "--format", "csv"),
            builtin="qutrit-demo")
    rc, out = _run(ctx, op)
    assert ctx.check(op, rc, out) is None
    path = ctx.output_path(op)
    with open(path, "r+b") as fh:
        fh.seek(200)
        byte = fh.read(1)
        fh.seek(200)
        fh.write(b"7" if byte != b"7" else b"8")
    ledger = Ledger()
    ledger.record(op, rc, ctx.check(op, rc, out))
    assert (ledger.attempted, ledger.failed, ledger.silent) == (1, 1, 1)


def test_json_differing_from_a_verified_one_is_checked_again(ctx):
    csv = Op("sweep_csv", "qutrit-demo", ("sweep", "--builtin", "qutrit-demo", "--format", "csv"),
             builtin="qutrit-demo")
    op = Op("sweep_json", "qutrit-demo",
            ("sweep", "--builtin", "qutrit-demo", "--format", "json"), builtin="qutrit-demo")
    for o in (csv, op, op):
        rc, out = _run(ctx, o)
        assert ctx.check(o, rc, out) is None
    path = ctx.output_path(op)
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(text.replace('"heat": 0.0', '"heat": 1e-300', 1))
    assert ctx.check(op, 0, out) == "JSON records differ from the reference CSV"


def test_shifted_critical_time_is_one_failed_operation(ctx):
    op = Op("critical_time", "qutrit-demo", ("critical-time", "--builtin", "qutrit-demo"),
            builtin="qutrit-demo")
    rc, out = _run(ctx, op)
    assert ctx.check(op, rc, out) is None
    t = checks.parse_critical_time(out)[0]
    shifted = out.replace(f"{t:.12e}", f"{t * (1 + 1e-8):.12e}")
    assert shifted != out
    ledger = Ledger()
    ledger.record(op, rc, ctx.check(op, rc, shifted))
    assert (ledger.attempted, ledger.failed) == (1, 1)


def test_reference_times_are_the_documented_ones(ctx):
    assert ctx.critical_times["micadei"] == pytest.approx([1.85e-4], rel=0.01)
    assert len(ctx.critical_times["qutrit-demo"]) == 1


def test_non_cptp_verdict_is_one_failed_operation(ctx):
    args = ("verify-decomposition", "--interaction", "partial-swap", "--local-dim", "3",
            "--g", "1.0", "--minimal", "--t")
    good = Op("certify", "partial-swap-d9", args + ("0.8",))
    rc, out = _run(ctx, good)
    assert ctx.check(good, rc, out) is None
    ledger = Ledger()
    ledger.record(good, 3, ctx.check(good, 3, out.replace("cptp: yes", "cptp: no")))
    assert (ledger.attempted, ledger.failed, ledger.silent) == (1, 1, 0)
    assert list(ledger.reasons) == ["certify/partial-swap-d9"]


def test_minimal_pd_above_analytic_fails():
    out = "p_d = 0.25  (analytic 0.25)\nmin Choi eigenvalue = 0\ncptp: yes\nminimal feasible p_d = 0.26\n"
    assert checks.check_certify(0, out) is not None
    assert checks.check_certify(0, out.replace("0.26", "0.25")) is None


def test_point_queries_inputs_are_a_pure_function_of_the_seed():
    w = WORKLOADS["point-queries"]
    first = [round_plan(w, 7, r, G) for r in range(5)]
    again = [round_plan(w, 7, r, G) for r in range(5)]
    other = [round_plan(w, 8, r, G) for r in range(5)]
    assert first == again
    assert first != other
    gts = [op.t for plan in first for op in plan if op.kind == "certify"]
    assert all(1e-4 <= gt <= 3.1416 for gt in gts)
    assert {op.label for plan in first for op in plan if op.kind == "certify"} <= {
        "resonant-exchange-d4", "resonant-detuning-d4", "nonresonant-d4",
        "partial-swap-d4", "partial-swap-d9",
    }


def test_an_operation_run_twice_counts_once_and_fails_if_either_run_failed():
    op = Op("clausius", "micadei", ("clausius", "--builtin", "micadei", "--t", "1e-4"))
    other = Op("clausius", "micadei", ("clausius", "--builtin", "micadei", "--t", "2e-4"))
    ledger = Ledger()
    ledger.record(op, 0, None)
    ledger.record(other, 0, None)
    ledger.record(op, 1, "exit code 1")
    ledger.record(op, 0, None)
    assert (ledger.attempted, ledger.failed, ledger.silent) == (2, 1, 0)
    assert ledger.reasons == {"clausius/micadei": {"exit code 1": 1}}


def test_counts_depend_on_the_seed_not_on_the_run_length():
    short, long = (workloads.run_worker("point-queries", 5, s, False)["ledger"] for s in (0.1, 12.0))
    assert short == long
    w = WORKLOADS["point-queries"]
    assert short["attempted"] == len({op for r in range(w.plan_rounds)
                                      for op in round_plan(w, 5, r, G)})


def test_layer_metrics_self_time_subtracts_children():
    def span(name, start, end, parent):
        s = Span(name, start, parent)
        s.end = end
        return s

    spans = [
        span("cli", 0.0, 10.0, -1),
        span("scenarios.run_sweep", 1.0, 9.0, 0),
        span("scenarios.delta_mi", 2.0, 5.0, 1),
        span("thermo.heat_trace", 5.0, 6.0, 1),
        span("dynamics.evolve", 5.2, 5.8, 3),
    ]
    m = layer_metrics(spans)
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["scenarios.run_sweep_self_s"] == pytest.approx(4.0)
    assert m["thermo.heat_trace_self_s"] == pytest.approx(0.4)
    assert m["thermo.heat_trace_calls"] == 1


def test_tracer_patches_every_importing_module_and_restores_it(ctx):
    import heatctx.cli
    import heatctx.linalg
    import heatctx.states

    before = (heatctx.linalg.eig_hermitian, heatctx.states.eig_hermitian, heatctx.cli.run_sweep)
    tracer = Tracer()
    with tracer.installed():
        assert heatctx.states.eig_hermitian is heatctx.linalg.eig_hermitian
        assert heatctx.states.eig_hermitian is not before[0]
        assert heatctx.cli.run_sweep is not before[2]
        assert tracer.missing == []
    assert (heatctx.linalg.eig_hermitian, heatctx.states.eig_hermitian,
            heatctx.cli.run_sweep) == before
    assert len({name for name, _, _ in TARGETS}) > 20


def test_counted_metrics_repeat_across_two_traced_runs():
    runs = [workloads.run_worker("point-queries", 3, 0.1, True) for _ in range(2)]
    counts = [{k: r["layers"][k] for k in COUNTED} for r in runs]
    assert counts[0] == counts[1]
    assert runs[0]["counts_differ"] == []
    assert counts[0]["contextuality.minimal_pd_steps"] > 0
    assert counts[0]["scenarios.oracle_calls"] > 0


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "micadei", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
