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

from .errors import ConfigError, HeatctxError, NumericsError
from .contextuality import extract_stochastic_reversibility, find_minimal_pd
from .linalg import eig_hermitian
from .scenarios import (
    FACTORS,
    ScenarioConfig,
    _ScenarioEngine,
    builtin_micadei,
    builtin_qutrit_demo,
    check_time,
    emit,
    rate_bound,
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


def _load_config(config_path, builtin, t_max=None, n_points=None) -> ScenarioConfig:
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
    given = {k: v for k, v in (("t_max", t_max), ("n_points", n_points)) if v is not None}
    return replace(config, time_grid=replace(config.time_grid, **given)) if given else config


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
]
_GRID_OPTIONS = [
    click.option("--t-max", type=float, default=None, help="Override time_grid.t_max."),
    click.option("--n-points", type=int, default=None, help="Override time_grid.n_points."),
]


def _options(options):
    """A decorator that adds ``options`` to a command, in list order."""

    def decorate(fn):
        for opt in reversed(options):
            fn = opt(fn)
        return fn

    return decorate


@click.group()
def main():
    """Heat-exchange sweeps and contextuality diagnostics for correlated thermal states."""


@main.command()
@_options(_CONFIG_OPTIONS + _GRID_OPTIONS)
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
@_options(_CONFIG_OPTIONS + _GRID_OPTIONS)
@_cli_errors
def critical_time(config_path, builtin, t_max, n_points):
    """Report bound-crossing times only."""
    config = _load_config(config_path, builtin, t_max, n_points)
    engine = _ScenarioEngine(config)
    crossings = engine.crossings(engine.times())
    if not crossings:
        click.echo("no crossings on the grid")
        return
    for c in crossings:
        click.echo(f"{c.time:.12e}  {c.side}")


def _factor_generator(kind, g, a, theta, local_dim, t, p_d):
    """(eig_hermitian of its generator, analytic p_d at time t, report at the claimed
    p_d) of a named interaction factor; the claim is ``p_d``, or the analytic value if
    it is None. ``verify-decomposition``'s two verdicts read this one decomposition."""
    for option, value in (("--g", g), ("--a", a), ("--theta", theta)):
        if not math.isfinite(value):
            raise ConfigError(f"{option} must be finite, got {value}")
    factor = FACTORS[kind]
    h = factor.generator(g, a, theta, local_dim)
    if h.dim != local_dim**2:
        raise ConfigError(
            f"--interaction {kind} acts on dimension {h.dim}; "
            f"--local-dim {local_dim} needs {local_dim**2}"
        )
    rate = rate_bound(h)
    check_time("--t", t, rate)
    p_analytic = float(factor.p_d(g, t, a))
    spectrum = eig_hermitian(h)
    report = extract_stochastic_reversibility(spectrum, t, p_analytic if p_d is None else p_d)
    return spectrum, p_analytic, report


_INTERACTION_OPTIONS = [
    click.option("--interaction", "kind", type=click.Choice(list(FACTORS)), required=True),
    click.option("--g", type=float, default=1.0, show_default=True),
    click.option("--a", type=float, default=0.0, show_default=True),
    click.option("--theta", type=float, default=0.0, show_default=True),
    click.option("--local-dim", type=int, default=2, show_default=True),
    click.option("--t", type=float, required=True, help="Evolution time."),
]


@main.command("verify-decomposition")
@_options(_INTERACTION_OPTIONS)
@click.option("--p-d", type=float, default=None, help="Claimed p_d (default: analytic value).")
@click.option("--minimal", is_flag=True, help="Also search for the minimal feasible p_d.")
@_cli_errors
def verify_decomposition(kind, g, a, theta, local_dim, t, p_d, minimal):
    """Check the stochastic-reversibility decomposition of a named interaction factor."""
    spectrum, p_analytic, report = _factor_generator(kind, g, a, theta, local_dim, t, p_d)
    click.echo(f"p_d = {report.p_d:.12g}  (analytic {p_analytic:.12g})")
    click.echo(f"min Choi eigenvalue = {report.choi_eigenvalues.min():.3e}")
    click.echo(f"cptp: {'yes' if report.is_cptp else 'no'}")
    if minimal:
        p_min, _ = find_minimal_pd(spectrum, t)
        click.echo(f"minimal feasible p_d = {p_min:.12g}")
    if not report.is_cptp:
        sys.exit(3)


@main.command()
@_options(_INTERACTION_OPTIONS)
@click.option("--p-d", type=float, default=None, help="Claimed p_d (default: analytic value).")
@_cli_errors
def choi(kind, g, a, theta, local_dim, t, p_d):
    """Print the Choi spectrum of the extracted residual channel."""
    *_, report = _factor_generator(kind, g, a, theta, local_dim, t, p_d)
    for ev in report.choi_eigenvalues:
        click.echo(f"{ev:.12e}")


@main.command()
@_options(_CONFIG_OPTIONS)
@click.option("--t", type=float, required=True, help="Evolution time.")
@_cli_errors
def clausius(config_path, builtin, t):
    """Heat, mutual-information change, and entropy production at one time."""
    config = _load_config(config_path, builtin)
    engine = _ScenarioEngine(config)
    check_time("--t", t, engine.rate)
    beta_a, beta_b = engine.params.beta_A, engine.params.beta_B
    result = clausius_report(
        engine.rho, engine.h_int, engine.h_local, engine.h_local, beta_a, beta_b, t
    )
    click.echo(
        f"Q_A = {result.q_A:.12e}\n"
        f"Q_B = {result.q_B:.12e}\n"
        f"delta_mutual_info = {result.delta_mutual_info:.12e}\n"
        f"clausius_lhs = {result.clausius_lhs:.12e}\n"
        f"entropy_production = {result.entropy_production:.12e}"
    )


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
