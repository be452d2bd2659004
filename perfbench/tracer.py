"""Span tracing of heatctx from outside the program.

The tracer wraps the public functions and methods of each heatctx module
(and the few private helpers that carry a stage of the pipeline) while it is
installed, and restores the originals when it is removed. The modules import
one another by name (``from .linalg import eig_hermitian``), so a function is
replaced in every heatctx module that holds a reference to it, not only in
the module that defines it.

Each span records its name, start, end and parent span, plus a small dict of
counts taken at the boundary (records emitted, bytes written, bisection
evaluations, ...). ``layer_metrics`` turns the spans of one traced round into
the per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from contextlib import contextmanager
from time import perf_counter

# (span name, module, attribute path). A dotted attribute path names a method.
TARGETS = [
    ("scenarios.engine_build", "heatctx.scenarios", "_ScenarioEngine.__init__"),
    ("scenarios.heat", "heatctx.scenarios", "_ScenarioEngine.heat"),
    ("scenarios.bounds", "heatctx.scenarios", "_ScenarioEngine.bounds"),
    ("scenarios.oracle", "heatctx.scenarios", "_ScenarioEngine.heat_trace_at"),
    ("scenarios.delta_mi", "heatctx.scenarios", "_ScenarioEngine.delta_mutual_info"),
    ("scenarios.run_sweep", "heatctx.scenarios", "run_sweep"),
    ("scenarios.format_csv", "heatctx.scenarios", "format_csv"),
    ("scenarios.format_json", "heatctx.scenarios", "format_json"),
    ("scenarios.emit", "heatctx.scenarios", "emit"),
    ("contextuality.find_critical_times", "heatctx.contextuality", "find_critical_times"),
    ("contextuality.refine", "heatctx.contextuality", "_refine_bisection"),
    ("contextuality.find_minimal_pd", "heatctx.contextuality", "find_minimal_pd"),
    ("contextuality.extract", "heatctx.contextuality", "extract_stochastic_reversibility"),
    ("contextuality.cptp_verdict", "heatctx.contextuality", "_cptp_verdict"),
    ("contextuality.choi_matrix", "heatctx.contextuality", "choi_matrix"),
    ("contextuality.tp_residual", "heatctx.contextuality", "trace_preservation_residual"),
    ("contextuality.superop", "heatctx.contextuality", "unitary_to_superoperator"),
    ("contextuality.superop", "heatctx.contextuality", "_symmetrized_conjugation"),
    ("thermo.heat_trace", "heatctx.thermo", "heat_trace"),
    ("thermo.clausius_report", "heatctx.thermo", "clausius_report"),
    ("dynamics.evolve", "heatctx.dynamics", "evolve_interaction_picture"),
    ("dynamics.unitary", "heatctx.dynamics", "interaction_unitary"),
    ("states.density_matrix", "heatctx.states", "DensityMatrix.__post_init__"),
    ("states.entropy", "heatctx.states", "von_neumann_entropy"),
    ("states.entropy", "heatctx.states", "mutual_information"),
    ("states.entropy", "heatctx.states", "relative_entropy"),
    ("linalg.eig_hermitian", "heatctx.linalg", "eig_hermitian"),
    ("linalg.expm", "heatctx.linalg", "expm_hermitian_generator"),
    ("linalg.partial_trace", "heatctx.linalg", "partial_trace"),
]

# Span name of the harness's own span around one CLI invocation.
CLI_SPAN = "cli"


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.counts = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


def _delta_mi_counts(span, args, result):
    """Multiply-adds and bytes of the einsums in ``delta_mutual_info``.

    Computed from array sizes, not measured: each einsum is counted as the
    product of its index extents (numpy's unoptimised evaluation) and its
    bytes as the operands read plus the output written, in complex128.
    """
    engine, ts = args[0], args[1]
    n = len(ts)
    d_a, d_b = engine.rho.dims
    d = d_a * d_b
    span.counts["macs"] = (
        n * d**3  # U(t):   ij,nj,kj->nik
        + n * d**4  # rho(t): nij,jk,nlk->nil
        + n * d_a * d_b * d_a  # rho_A:  nijkj->nik
        + n * d_a * d_b * d_b  # rho_B:  nijil->njl
    )
    c = 16  # bytes per complex128
    span.counts["bytes"] = c * (
        (d * d + n * d + n * d * d)  # U(t): v, phases, v* -> u
        + (n * d * d + d * d + n * d * d + n * d * d)  # rho(t): u, rho, u* -> rho_t
        + 2 * n * d * d  # marginals read rho_t twice
        + n * (d_a * d_a + d_b * d_b)  # marginals written
    )


def _records_count(span, args, result):
    span.counts["records"] = len(result.records)


def _crossings_count(span, args, result):
    span.counts["crossings"] = len(result)


def _emit_bytes(span, args, result):
    path = args[2] if len(args) > 2 else None
    span.counts["bytes"] = os.path.getsize(path) if path and os.path.exists(path) else 0


# Hooks run after a wrapped call returns; they attach counts to its span.
AFTER = {
    "scenarios.delta_mi": _delta_mi_counts,
    "scenarios.run_sweep": _records_count,
    "scenarios.emit": _emit_bytes,
    "contextuality.find_critical_times": _crossings_count,
}


class Tracer:
    """Installs span-recording wrappers into heatctx while it is active."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- recording ----------------------------------------------------------

    def _open(self, name) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, perf_counter(), parent)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    def _wrap(self, name, fn):
        tracer = self
        after = AFTER.get(name)
        counting = name == "contextuality.refine"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            s = tracer._open(name)
            try:
                if counting:
                    # Count evaluations of the bracketed function f.
                    f = args[0]

                    def counted(t):
                        s.counts["evals"] = s.counts.get("evals", 0) + 1
                        return f(t)

                    args = (counted,) + args[1:]
                result = fn(*args, **kwargs)
            finally:
                tracer._close(s)
            if after is not None:
                after(s, args, result)
            return result

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; a target missing from the program is listed."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == "heatctx" or name.startswith("heatctx."))
        ]
        self.missing = []
        for name, module_name, path in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *owner_path, attr = path.split(".")
                for part in owner_path:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}.{path}")
                continue
            wrapped = self._wrap(name, original)
            self._set(owner, attr, wrapped)
            if not owner_path:
                # Rebind the name in every module that imported it by name.
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original and m is not owner:
                            self._set(m, key, wrapped)

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def remove(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore = []

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.remove()

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


# -- per-layer metrics --------------------------------------------------------

# Per-layer metrics: (name, unit). Every traced run reports all of them; a
# layer that does not run in a workload reports 0.
LAYER_METRICS = [
    ("cli.self_s", "s"),
    ("scenarios.engine_build_s", "s"),
    ("scenarios.heat_bounds_s", "s"),
    ("scenarios.oracle_s", "s"),
    ("scenarios.oracle_calls", "count"),
    ("scenarios.oracle_coverage", "ratio"),
    ("scenarios.delta_mi_s", "s"),
    ("scenarios.delta_mi_macs_computed", "count"),
    ("scenarios.delta_mi_bytes_computed", "bytes"),
    ("scenarios.run_sweep_s", "s"),
    ("scenarios.run_sweep_self_s", "s"),
    ("scenarios.records", "count"),
    ("scenarios.format_csv_s", "s"),
    ("scenarios.format_json_s", "s"),
    ("scenarios.emit_write_s", "s"),
    ("scenarios.emit_bytes", "bytes"),
    ("contextuality.crossing_s", "s"),
    ("contextuality.crossings", "count"),
    ("contextuality.bisect_evals_per_crossing", "count"),
    ("contextuality.minimal_pd_s", "s"),
    ("contextuality.minimal_pd_steps", "count"),
    ("contextuality.choi_s", "s"),
    ("contextuality.choi_calls", "count"),
    ("contextuality.tp_residual_s", "s"),
    ("contextuality.superop_s", "s"),
    ("thermo.heat_trace_s", "s"),
    ("thermo.heat_trace_self_s", "s"),
    ("thermo.heat_trace_calls", "count"),
    ("thermo.clausius_self_s", "s"),
    ("dynamics.evolve_s", "s"),
    ("dynamics.evolve_calls", "count"),
    ("dynamics.unitary_s", "s"),
    ("dynamics.unitary_calls", "count"),
    ("states.density_matrix_s", "s"),
    ("states.density_matrix_calls", "count"),
    ("states.entropy_s", "s"),
    ("states.entropy_calls", "count"),
    ("linalg.eig_hermitian_s", "s"),
    ("linalg.eig_hermitian_calls", "count"),
    ("linalg.expm_s", "s"),
    ("linalg.expm_calls", "count"),
    ("linalg.partial_trace_s", "s"),
    ("linalg.partial_trace_calls", "count"),
    ("trace.overhead_frac", "ratio"),
]

# Metrics that count work rather than time it; they repeat exactly across
# traced runs of one workload and seed.
COUNTED = [
    name
    for name, unit in LAYER_METRICS
    if unit in ("count", "bytes") or name == "scenarios.oracle_coverage"
]


def _top(spans, names):
    """Spans named in ``names`` that have no ancestor named in ``names``."""
    names = set(names)
    out = []
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        while p >= 0 and spans[p].name not in names:
            p = spans[p].parent
        if p < 0:
            out.append(s)
    return out


def _child_time(spans):
    """Duration covered by each span's direct children, by span index."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.duration
    return covered


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer busy times, self times and counts of one traced round."""
    covered = _child_time(spans)
    index = {id(s): i for i, s in enumerate(spans)}

    def busy(*names):
        return sum(s.duration for s in _top(spans, names))

    def self_time(*names):
        return sum(s.duration - covered[index[id(s)]] for s in _top(spans, names))

    def calls(*names):
        return len(_top(spans, names))

    def total(name, key):
        return sum(s.counts.get(key, 0) for s in spans if s.name == name)

    records = total("scenarios.run_sweep", "records")
    oracle_calls = calls("scenarios.oracle")
    refines = [s for s in spans if s.name == "contextuality.refine"]
    minimal = [i for i, s in enumerate(spans) if s.name == "contextuality.find_minimal_pd"]
    minimal_set = set(minimal)
    steps = sum(
        1 for s in spans if s.name == "contextuality.cptp_verdict" and s.parent in minimal_set
    )
    return {
        "cli.self_s": self_time(CLI_SPAN),
        "scenarios.engine_build_s": busy("scenarios.engine_build"),
        "scenarios.heat_bounds_s": busy("scenarios.heat", "scenarios.bounds"),
        "scenarios.oracle_s": busy("scenarios.oracle"),
        "scenarios.oracle_calls": oracle_calls,
        "scenarios.oracle_coverage": oracle_calls / records if records else 0.0,
        "scenarios.delta_mi_s": busy("scenarios.delta_mi"),
        "scenarios.delta_mi_macs_computed": total("scenarios.delta_mi", "macs"),
        "scenarios.delta_mi_bytes_computed": total("scenarios.delta_mi", "bytes"),
        "scenarios.run_sweep_s": busy("scenarios.run_sweep"),
        "scenarios.run_sweep_self_s": self_time("scenarios.run_sweep"),
        "scenarios.records": records,
        "scenarios.format_csv_s": busy("scenarios.format_csv"),
        "scenarios.format_json_s": busy("scenarios.format_json"),
        "scenarios.emit_write_s": self_time("scenarios.emit"),
        "scenarios.emit_bytes": total("scenarios.emit", "bytes"),
        "contextuality.crossing_s": busy("contextuality.find_critical_times"),
        "contextuality.crossings": total("contextuality.find_critical_times", "crossings"),
        "contextuality.bisect_evals_per_crossing": (
            sum(s.counts.get("evals", 0) for s in refines) / len(refines) if refines else 0.0
        ),
        "contextuality.minimal_pd_s": busy("contextuality.find_minimal_pd"),
        "contextuality.minimal_pd_steps": steps / len(minimal) if minimal else 0.0,
        "contextuality.choi_s": busy("contextuality.choi_matrix"),
        "contextuality.choi_calls": calls("contextuality.choi_matrix"),
        "contextuality.tp_residual_s": busy("contextuality.tp_residual"),
        "contextuality.superop_s": busy("contextuality.superop"),
        "thermo.heat_trace_s": busy("thermo.heat_trace"),
        "thermo.heat_trace_self_s": self_time("thermo.heat_trace"),
        "thermo.heat_trace_calls": calls("thermo.heat_trace"),
        "thermo.clausius_self_s": self_time("thermo.clausius_report"),
        "dynamics.evolve_s": busy("dynamics.evolve"),
        "dynamics.evolve_calls": calls("dynamics.evolve"),
        "dynamics.unitary_s": busy("dynamics.unitary"),
        "dynamics.unitary_calls": calls("dynamics.unitary"),
        "states.density_matrix_s": busy("states.density_matrix"),
        "states.density_matrix_calls": calls("states.density_matrix"),
        "states.entropy_s": busy("states.entropy"),
        "states.entropy_calls": calls("states.entropy"),
        "linalg.eig_hermitian_s": busy("linalg.eig_hermitian"),
        "linalg.eig_hermitian_calls": calls("linalg.eig_hermitian"),
        "linalg.expm_s": busy("linalg.expm"),
        "linalg.expm_calls": calls("linalg.expm"),
        "linalg.partial_trace_s": busy("linalg.partial_trace"),
        "linalg.partial_trace_calls": calls("linalg.partial_trace"),
    }
