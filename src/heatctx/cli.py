"""Command-line interface for sweeps, decompositions, and diagnostics.

Exit codes: 0 success, 3 numerics error, 2 any other heatctx error.
HEATCTX_OUTPUT_DIR sets the default output directory for sweep artifacts.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
from dataclasses import replace

import click
import numpy as np

from .errors import ConfigError, HeatctxError, NumericsError
from .contextuality import extract_stochastic_reversibility, find_minimal_pd
from .dynamics import interaction_unitary
from .scenarios import (
    FACTORS,
    ScenarioConfig,
    TimeGrid,
    _ScenarioEngine,
    builtin_micadei,
    builtin_qutrit_demo,
    emit,
    run_sweep,
)
from .thermo import clausius_report

BUILTINS = {"micadei": builtin_micadei, "qutrit-demo": builtin_qutrit_demo}


def _cli_errors(fn):
    """Map domain errors to the documented exit codes: numerics 3, any other 2."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except NumericsError as exc:
            click.echo(f"numerics error: {exc}", err=True)
            sys.exit(3)
        except HeatctxError as exc:
            click.echo(f"config error: {exc}", err=True)
            sys.exit(2)

    return wrapper


def _load_config(config_path, builtin, t_max, n_points) -> ScenarioConfig:
    if (config_path is None) == (builtin is None):
        raise ConfigError("provide exactly one of --config or --builtin")
    if builtin is not None:
        config = BUILTINS[builtin]()
    else:
        try:
            with open(config_path) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {config_path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {config_path} is not valid JSON: {exc}") from exc
        config = ScenarioConfig.from_dict(raw)
    grid = config.time_grid
    if t_max is not None or n_points is not None:
        grid = TimeGrid(
            t_min=grid.t_min,
            t_max=t_max if t_max is not None else grid.t_max,
            n_points=n_points if n_points is not None else grid.n_points,
        )
    return replace(config, time_grid=grid)


def _resolve_output(output, fmt, config: ScenarioConfig) -> tuple[str, str]:
    fmt = fmt or config.output_format
    path = output or config.output_path
    if path is None:
        outdir = os.environ.get("HEATCTX_OUTPUT_DIR", ".")
        path = os.path.join(outdir, f"{config.scenario}_sweep.{fmt}")
    return path, fmt


_CONFIG_OPTIONS = [
    click.option("--config", "config_path", type=click.Path(), help="Scenario config JSON."),
    click.option("--builtin", type=click.Choice(sorted(BUILTINS)), help="Use a builtin scenario."),
    click.option("--t-max", type=float, default=None, help="Override time_grid.t_max."),
    click.option("--n-points", type=int, default=None, help="Override time_grid.n_points."),
]


def _with_config_options(fn):
    for opt in reversed(_CONFIG_OPTIONS):
        fn = opt(fn)
    return fn


@click.group()
def main():
    """Heat-exchange sweeps and contextuality diagnostics for correlated thermal states."""


@main.command()
@_with_config_options
@click.option("--output", type=click.Path(), default=None, help="Output file path.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default=None)
@_cli_errors
def sweep(config_path, builtin, t_max, n_points, output, fmt):
    """Run a full sweep and write CSV or JSON records."""
    config = _load_config(config_path, builtin, t_max, n_points)
    result = run_sweep(config)
    path, fmt = _resolve_output(output, fmt, config)
    emit(result, fmt, path)
    click.echo(f"wrote {len(result.t)} records to {path}")
    click.echo(f"violating points: {int(result.violates.sum())}")
    if result.critical_times:
        times = ", ".join(f"{t:.6e}" for t in result.critical_times)
        click.echo(f"critical times: {times}")
    else:
        click.echo("critical times: none")


@main.command("critical-time")
@_with_config_options
@_cli_errors
def critical_time(config_path, builtin, t_max, n_points):
    """Report bound-crossing times only."""
    config = _load_config(config_path, builtin, t_max, n_points)
    crossings = _ScenarioEngine(config).crossings()
    if not crossings:
        click.echo("no crossings on the grid")
        return
    for c in crossings:
        click.echo(f"{c.time:.12e}  {c.side}")


def _finite_time(t: float) -> float:
    if not math.isfinite(t):
        raise ConfigError(f"--t must be finite, got {t}")
    return t


def _build_unitary(kind, g, a, theta, local_dim, t):
    """(unitary, analytic p_d) for a named interaction factor at time t."""
    t = _finite_time(t)
    factor = FACTORS[kind]
    u = interaction_unitary(factor.generator(g, a, theta, local_dim), t)
    return u, float(factor.p_d(g * t, a))


_INTERACTION_OPTIONS = [
    click.option("--interaction", "kind", type=click.Choice(list(FACTORS)), required=True),
    click.option("--g", type=float, default=1.0, show_default=True),
    click.option("--a", type=float, default=0.0, show_default=True),
    click.option("--theta", type=float, default=0.0, show_default=True),
    click.option("--local-dim", type=int, default=2, show_default=True),
    click.option("--t", type=float, required=True, help="Evolution time."),
]


def _with_interaction_options(fn):
    for opt in reversed(_INTERACTION_OPTIONS):
        fn = opt(fn)
    return fn


@main.command("verify-decomposition")
@_with_interaction_options
@click.option("--p-d", type=float, default=None, help="Claimed p_d (default: analytic value).")
@click.option("--minimal", is_flag=True, help="Also search for the minimal feasible p_d.")
@_cli_errors
def verify_decomposition(kind, g, a, theta, local_dim, t, p_d, minimal):
    """Check the stochastic-reversibility decomposition of a named unitary."""
    u, p_analytic = _build_unitary(kind, g, a, theta, local_dim, t)
    claimed = p_analytic if p_d is None else p_d
    report = extract_stochastic_reversibility(u, claimed)
    click.echo(f"p_d = {report.p_d:.12g}  (analytic {p_analytic:.12g})")
    click.echo(f"min Choi eigenvalue = {report.choi_eigenvalues.min():.3e}")
    click.echo(f"cptp: {'yes' if report.is_cptp else 'no'}")
    if minimal:
        p_min, _ = find_minimal_pd(u)
        click.echo(f"minimal feasible p_d = {p_min:.12g}")
    if not report.is_cptp:
        sys.exit(3)


@main.command()
@_with_interaction_options
@click.option("--p-d", type=float, default=None, help="Claimed p_d (default: analytic value).")
@_cli_errors
def choi(kind, g, a, theta, local_dim, t, p_d):
    """Print the Choi spectrum of the extracted residual channel."""
    u, p_analytic = _build_unitary(kind, g, a, theta, local_dim, t)
    claimed = p_analytic if p_d is None else p_d
    report = extract_stochastic_reversibility(u, claimed)
    for ev in np.sort(report.choi_eigenvalues):
        click.echo(f"{ev:.12e}")


@main.command()
@_with_config_options
@click.option("--t", type=float, required=True, help="Evolution time.")
@_cli_errors
def clausius(config_path, builtin, t_max, n_points, t):
    """Heat, mutual-information change, and entropy production at one time."""
    t = _finite_time(t)
    config = _load_config(config_path, builtin, t_max, n_points)
    engine = _ScenarioEngine(config)
    beta_a, beta_b = engine.params.beta_A, engine.params.beta_B
    result = clausius_report(
        engine.rho, engine.h_int, engine.h_local, engine.h_local, beta_a, beta_b, t
    )
    click.echo(f"Q_A = {result.q_A:.12e}")
    click.echo(f"Q_B = {result.q_B:.12e}")
    click.echo(f"delta_mutual_info = {result.delta_mutual_info:.12e}")
    click.echo(f"clausius_lhs = {result.clausius_lhs:.12e}")
    click.echo(f"entropy_production = {result.entropy_production:.12e}")


@main.command("builtin")
@click.argument("name", type=click.Choice(sorted(BUILTINS)))
@click.option("--output", "-o", type=click.Path(), default=None, help="Write config JSON here.")
@_cli_errors
def builtin_cmd(name, output):
    """Emit a reference scenario configuration as JSON."""
    config = BUILTINS[name]()
    text = json.dumps(config.to_dict(), indent=2) + "\n"
    if output is None:
        click.echo(text, nl=False)
    else:
        try:
            with open(output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write config to {output}: {exc}") from exc
        click.echo(f"wrote {name} config to {output}")


if __name__ == "__main__":
    main()
