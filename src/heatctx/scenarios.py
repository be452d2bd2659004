"""Reproducible scenario definitions, sweep orchestration, and data emission.

A scenario bundles a correlated thermal state, an energy-conserving
interaction, a time grid, and units. Sweeps evaluate the closed-form heat and
the noncontextual bounds on the full grid once, find the bound-crossing times
in those columns, check the heat against the trace formula on every grid
point, and evaluate per-point violation flags and the mutual-information
change. A ``SweepResult`` holds these as numpy columns, one entry per grid
point, and CSV and JSON are rendered straight from the columns.

The per-point work that needs more than O(1) memory, the evolved states of
the ΔI column and the output text, runs ``SWEEP_BLOCK`` grid points at a
time, so a sweep holds its O(N) columns plus one block.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, asdict
from typing import Callable, Iterator

import numpy as np

from .errors import ConfigError, NumericsError
from .linalg import eig_hermitian
from .states import (
    TwoQubitThermalParams,
    TwoQutritThermalParams,
    bipartite_marginals,
    entropies,
    mutual_information_change,
    population_entropies,
    two_qubit_thermal,
    two_qutrit_thermal,
    zeeman_hamiltonian,
    qutrit_hamiltonian,
)
from .dynamics import (
    NonResonantInteraction,
    PartialSwapInteraction,
    ResonantInteraction,
    EvolutionPlan,
)
from .thermo import (
    heat_closed_form_2qubit_thermal,
    heat_closed_form_qutrit,
)
from .contextuality import (
    CROSSING_REL_TOL,
    Crossing,
    find_critical_times,
    sequential_b_factors,
)

UNITS = ("natural", "eV_seconds")
FORMATS = ("csv", "json")

COLUMNS = ("t", "heat", "bound_upper", "bound_lower", "violates", "delta_mutual_info")
CSV_HEADER = ",".join(COLUMNS)
VIOLATION_REL_TOL = 1e-12
CROSS_CHECK_TOL = 1e-9
SWEEP_BLOCK = 2048  # grid points whose states, or output rows, exist at once

MICADEI_J_HZ = 215.1
MICADEI_OMEGA_EV = 4.135e-12
MICADEI_T_A_EV = 4.3e-12
MICADEI_T_B_EV = 3.66e-12
MICADEI_ETA = -0.19


@dataclass(frozen=True)
class TimeGrid:
    t_min: float
    t_max: float
    n_points: int

    def __post_init__(self):
        if not (math.isfinite(self.t_min) and self.t_min >= 0):
            raise ConfigError(f"time_grid.t_min must be finite and >= 0, got {self.t_min}")
        if not (math.isfinite(self.t_max) and self.t_max > self.t_min):
            raise ConfigError(
                f"time_grid.t_max ({self.t_max}) must be finite and exceed t_min ({self.t_min})"
            )
        if not self.n_points >= 2:
            raise ConfigError(f"time_grid.n_points must be >= 2, got {self.n_points}")

    def times(self) -> np.ndarray:
        return np.linspace(self.t_min, self.t_max, int(self.n_points))


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    state: dict
    interaction: dict
    time_grid: TimeGrid
    units: str = "natural"
    output_path: str | None = None
    output_format: str = "csv"

    def __post_init__(self):
        if self.scenario not in FAMILIES:
            raise ConfigError(
                f"scenario must be one of {tuple(FAMILIES)}, got {self.scenario!r}"
            )
        if self.units not in UNITS:
            raise ConfigError(f"units must be one of {UNITS}, got {self.units!r}")
        if self.output_format not in FORMATS:
            raise ConfigError(
                f"output.format must be one of {FORMATS}, got {self.output_format!r}"
            )

    def to_dict(self) -> dict:
        d = asdict(self)
        d["time_grid"] = asdict(self.time_grid)
        return d

    @staticmethod
    def from_dict(raw: dict) -> "ScenarioConfig":
        if not isinstance(raw, dict):
            raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
        grid = raw.get("time_grid")
        if not isinstance(grid, dict):
            raise ConfigError("time_grid must be an object with t_min/t_max/n_points")
        t_min, t_max, n_points = (
            _finite("time_grid", grid, key) for key in ("t_min", "t_max", "n_points")
        )
        if not n_points.is_integer():
            raise ConfigError(f"time_grid.n_points must be an integer, got {n_points}")
        tg = TimeGrid(t_min=t_min, t_max=t_max, n_points=int(n_points))
        for req, kind in (("scenario", str), ("state", dict), ("interaction", dict)):
            if not isinstance(raw.get(req), kind):
                raise ConfigError(f"config field {req!r} is missing or not a {kind.__name__}")
        out = raw.get("output", {})
        if not isinstance(out, dict):
            raise ConfigError(f"output must be an object with path/format, got {out!r}")
        for key in ("path", "format"):
            if key in out and not isinstance(out[key], str):
                raise ConfigError(f"output.{key} must be a string, got {out[key]!r}")
        return ScenarioConfig(
            scenario=raw["scenario"],
            state=dict(raw["state"]),
            interaction=dict(raw["interaction"]),
            time_grid=tg,
            units=raw.get("units", "natural"),
            output_path=out.get("path"),
            output_format=out.get("format", "csv"),
        )


@dataclass(frozen=True)
class SweepRecord:
    """One grid point of a sweep; its fields are the ``COLUMNS``."""

    t: float
    heat: float
    bound_upper: float
    bound_lower: float
    violates: bool
    delta_mutual_info: float


@dataclass(frozen=True)
class SweepResult:
    """A sweep as numpy columns named by ``COLUMNS``, one entry per grid point."""

    config: ScenarioConfig
    t: np.ndarray
    heat: np.ndarray
    bound_upper: np.ndarray
    bound_lower: np.ndarray
    violates: np.ndarray  # bool
    delta_mutual_info: np.ndarray
    crossings: list[Crossing]

    @property
    def records(self) -> _Records:
        """The columns as one SweepRecord per grid point, built as they are read."""
        return _Records(self)

    @property
    def critical_times(self) -> list[float]:
        """Crossing times, each instant once.

        Where the heat passes through the common zero of both bounds, both
        sides cross at the same instant; times that agree within the
        bisection tolerance are merged.
        """
        times: list[float] = []
        for c in self.crossings:
            if times and c.time - times[-1] <= CROSSING_REL_TOL * c.time:
                continue
            times.append(c.time)
        return times


class _Records:
    """Read-only view of a SweepResult: its length, SweepRecords by index and in order."""

    def __init__(self, result: SweepResult):
        self._result = result

    def __len__(self) -> int:
        return len(self._result.t)

    def __getitem__(self, i: int) -> SweepRecord:
        return SweepRecord(*(getattr(self._result, name)[i].item() for name in COLUMNS))

    def __iter__(self) -> Iterator[SweepRecord]:
        return map(SweepRecord, *(getattr(self._result, name).tolist() for name in COLUMNS))


def builtin_micadei() -> ScenarioConfig:
    """The NMR two-qubit experiment: J = 215.1 Hz, resonant exchange, eta = -0.19.

    nu0 = null selects the product-diagonal value 1/(Z_A Z_B): the initial
    state is the product of the local Gibbs states plus the eta coherence
    (the literal nu0 = 0 would put negative weight on |11>).
    """
    return ScenarioConfig(
        scenario="two_qubit_resonant",
        units="eV_seconds",
        state={
            "omega": MICADEI_OMEGA_EV,
            "T_A": MICADEI_T_A_EV,
            "T_B": MICADEI_T_B_EV,
            "eta": MICADEI_ETA,
            "xi": 0.0,
            "nu0": None,
            "nu1": 0.0,
            "nu2": 0.0,
            "gamma": 0.0,
        },
        interaction={"g": math.pi * MICADEI_J_HZ, "a": 0.0, "theta": math.pi / 2},
        time_grid=TimeGrid(t_min=0.0, t_max=5e-3, n_points=100_000),
        output_format="csv",
    )


def builtin_qutrit_demo() -> ScenarioConfig:
    """Partial-SWAP qutrit demo: equally spaced levels, pi/2 phases, negative etas."""
    return ScenarioConfig(
        scenario="qutrit_partial_swap",
        units="natural",
        state={
            "omegas": [0.0, 1.0, 2.0],
            "T_A": 2.5,
            "T_B": 1.0,
            "eta31": -0.04,
            "eta62": -0.02,
            "eta75": -0.02,
            "theta31": math.pi / 2,
            "theta62": math.pi / 2,
            "theta75": math.pi / 2,
        },
        interaction={"g": 1.0},
        time_grid=TimeGrid(t_min=0.0, t_max=3.0, n_points=30_000),
        output_format="csv",
    )


# -- config fields -----------------------------------------------------------

_REQUIRED = object()


def _finite(section: str, fields: dict, key: str, default=_REQUIRED) -> float:
    """fields[key] as a finite float, not bool or str (``default`` if absent), else ConfigError."""
    value = fields.get(key, default)
    if value is _REQUIRED:
        raise ConfigError(f"{section} is missing field {key!r}")
    if isinstance(value, (bool, str)):
        raise ConfigError(f"{section}.{key} must be a number, got {value!r}")
    try:
        v = float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{section}.{key} must be a number, got {value!r}") from exc
    if not math.isfinite(v):
        raise ConfigError(f"{section}.{key} must be finite, got {v}")
    return v


def _positive(section: str, fields: dict, key: str) -> float:
    v = _finite(section, fields, key)
    if not v > 0:
        raise ConfigError(f"{section}.{key} must be positive, got {v}")
    return v


def _complex_field(state: dict, key: str) -> complex:
    v = state.get(key, 0.0)
    parts = v if isinstance(v, (list, tuple)) else [v]
    if any(isinstance(p, (bool, str)) for p in parts):
        raise ConfigError(f"state.{key} must be a number or [re, im], got {v!r}")
    try:
        if isinstance(v, (list, tuple)):
            if len(v) != 2:
                raise ConfigError(f"state.{key} as a pair must be [re, im]")
            z = complex(float(v[0]), float(v[1]))
        else:
            z = complex(v)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"state.{key} must be a number or [re, im], got {v!r}") from exc
    if not cmath.isfinite(z):
        raise ConfigError(f"state.{key} must be finite, got {z}")
    return z


def _betas(state: dict) -> tuple[float, float]:
    return 1.0 / _positive("state", state, "T_A"), 1.0 / _positive("state", state, "T_B")


def _coupling(interaction: dict) -> tuple[float, float, float]:
    """(g, a, theta) of an interaction section; a and theta default to 0."""
    return (
        _positive("interaction", interaction, "g"),
        _finite("interaction", interaction, "a", 0.0),
        _finite("interaction", interaction, "theta", 0.0),
    )


def _two_qubit_params(state: dict) -> TwoQubitThermalParams:
    beta_a, beta_b = _betas(state)
    nu0 = state.get("nu0")
    return TwoQubitThermalParams(
        omega=_positive("state", state, "omega"),
        beta_A=beta_a,
        beta_B=beta_b,
        nu0=None if nu0 is None else _finite("state", state, "nu0"),
        nu1=_complex_field(state, "nu1"),
        nu2=_complex_field(state, "nu2"),
        gamma=_complex_field(state, "gamma"),
        eta=_finite("state", state, "eta", 0.0),
        xi=_finite("state", state, "xi", 0.0),
    )


def _qutrit_params(state: dict) -> TwoQutritThermalParams:
    beta_a, beta_b = _betas(state)
    raw = state.get("omegas")
    if not isinstance(raw, (list, tuple)) or len(raw) != 3:
        raise ConfigError(f"state.omegas must list three level energies, got {raw!r}")
    omegas = tuple(_finite("state.omegas", dict(enumerate(raw)), i) for i in range(3))
    if min(omegas) < 0 or not max(omegas) > 0:
        raise ConfigError(f"state.omegas must be >= 0 with a positive top level, got {omegas}")
    return TwoQutritThermalParams(
        omegas=omegas,
        beta_A=beta_a,
        beta_B=beta_b,
        eta31=_finite("state", state, "eta31", 0.0),
        eta62=_finite("state", state, "eta62", 0.0),
        eta75=_finite("state", state, "eta75", 0.0),
        theta31=_finite("state", state, "theta31", 0.0),
        theta62=_finite("state", state, "theta62", 0.0),
        theta75=_finite("state", state, "theta75", 0.0),
    )


def _no_heat(params, g, theta, t):
    """The non-resonant interaction commutes with each local Hamiltonian."""
    out = np.zeros_like(np.asarray(t, dtype=float))
    return out if out.ndim else 0.0


def _a_max(h_local) -> float:
    """Largest eigenvalue of a local Hamiltonian; those in scope are diagonal."""
    return float(np.diag(h_local.matrix).real.max())


# -- interaction families ----------------------------------------------------


@dataclass(frozen=True)
class Factor:
    """One transformation of a family's sequence, keyed by its ``--interaction`` name.

    ``generator(g, a, theta, local_dim)`` is its Hamiltonian; ``p_d(x, a)`` is
    its analytic probability of disturbance at x = g t.
    """

    generator: Callable
    p_d: Callable


def _p_swap(x, a):
    """Partial SWAP and resonant exchange both swap with amplitude sin(x)."""
    return np.sin(x) ** 2


FACTORS = {
    "resonant-exchange": Factor(
        lambda g, a, theta, d: ResonantInteraction(g, a, theta).exchange_part(), _p_swap
    ),
    "resonant-detuning": Factor(
        lambda g, a, theta, d: ResonantInteraction(g, a, theta).detuning_part(),
        lambda x, a: np.sin((a - 1.0) * x / 2) ** 2,
    ),
    "nonresonant": Factor(
        lambda g, a, theta, d: NonResonantInteraction(g).hamiltonian(),
        lambda x, a: np.sin(x / 2) ** 2,
    ),
    "partial-swap": Factor(
        lambda g, a, theta, d: PartialSwapInteraction(g, d).hamiltonian(), _p_swap
    ),
}


@dataclass(frozen=True)
class Family:
    """Everything the engine knows about one scenario, keyed by its name."""

    parse: Callable  # config state -> validated params
    state: Callable  # params -> DensityMatrix
    local: Callable  # params -> local Hamiltonian, the same on A and B
    h_int: Callable  # (g, a, theta) -> interaction Hamiltonian
    heat: Callable  # (params, g, theta, t) -> closed-form <Q_A>
    factors: tuple[str, ...]  # FACTORS keys: one for Theorem 1, two for Theorem 2


_QUBITS = dict(
    parse=_two_qubit_params,
    state=two_qubit_thermal,
    local=lambda p: zeeman_hamiltonian(p.omega),
)

FAMILIES = {
    "two_qubit_resonant": Family(
        **_QUBITS,
        h_int=lambda g, a, theta: ResonantInteraction(g, a, theta).hamiltonian(),
        heat=heat_closed_form_2qubit_thermal,
        # The exchange part first, then the commuting detuning part.
        factors=("resonant-exchange", "resonant-detuning"),
    ),
    "two_qubit_nonresonant": Family(
        **_QUBITS,
        h_int=lambda g, a, theta: NonResonantInteraction(g).hamiltonian(),
        heat=_no_heat,
        factors=("nonresonant",),
    ),
    "qutrit_partial_swap": Family(
        parse=_qutrit_params,
        state=two_qutrit_thermal,
        local=lambda p: qutrit_hamiltonian(p.omegas),
        h_int=lambda g, a, theta: PartialSwapInteraction(g, local_dim=3).hamiltonian(),
        heat=lambda p, g, theta, t: heat_closed_form_qutrit(p, g, t),
        factors=("partial-swap",),
    ),
}


class _ScenarioEngine:
    """Assembled state/interaction/bounds for one config; vectorized over t."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.family = FAMILIES[config.scenario]
        self.g, self.a, self.theta = _coupling(config.interaction)
        self.params = self.family.parse(config.state)
        self.rho = self.family.state(self.params)
        self.h_local = self.family.local(self.params)
        self.a_max = _a_max(self.h_local)
        self.h_int = self.family.h_int(self.g, self.a, self.theta)

    # -- heat ---------------------------------------------------------------

    def heat(self, t):
        return self.family.heat(self.params, self.g, self.theta, t)

    def heat_trace_at(self, t):
        """Trace-formula <Q_A> at time(s) t; a scalar t gives a float.

        In the eigenbasis H_int = V diag(w) V^dag, with C = (V^dag rho V) o
        (V^dag (H_A x 1) V)^T, Tr{rho(t) (H_A x 1)} = sum_ij C_ij
        e^{-it(w_i - w_j)} and its t = 0 value sum_ij C_ij = Tr{rho (H_A x 1)}:
        O(d^2) per time, no matrix exponential. The (N, d) phases are built
        one ``SWEEP_BLOCK`` of times at a time.
        """
        w, v = eig_hermitian(self.h_int.matrix)
        h_full = np.kron(self.h_local.matrix, np.eye(self.rho.dims[1]))
        c = (v.conj().T @ self.rho.matrix @ v) * (v.conj().T @ h_full @ v).T
        t = np.asarray(t, dtype=float)
        flat = t.reshape(-1)
        q = np.empty(len(flat))
        for block in _blocks(len(flat)):
            phases = np.exp(-1j * np.outer(flat[block], w))  # (block, d)
            q[block] = ((phases @ c) * phases.conj()).sum(axis=1).real
        q = q.reshape(t.shape) - c.sum().real
        return q if q.ndim else float(q)

    # -- bounds -------------------------------------------------------------

    def bounds(self, t):
        """(upper, lower) noncontextual bounds at time(s) t.

        Theorem 2 over the family's factors. A one-factor family pads p_d2
        with 0, which reduces Theorem 2 exactly to Theorem 1 at alpha = 1/2.
        """
        x = self.g * np.asarray(t, dtype=float)
        p_d = [FACTORS[name].p_d(x, self.a) for name in self.family.factors] + [0.0]
        b_minus, b_plus = sequential_b_factors(p_d[0], p_d[1])
        return 2 * self.a_max * b_plus, -4 * self.a_max * b_minus

    def scan(self, ts: np.ndarray):
        """(heat, upper, lower, crossings): the closed-form columns on ts and their crossings."""
        heat = np.asarray(self.heat(ts), dtype=float)
        upper, lower = (np.asarray(b, dtype=float) for b in self.bounds(ts))
        crossings = find_critical_times(ts, heat, (upper, lower), self.heat, self.bounds)
        return heat, upper, lower, crossings

    # -- mutual information -------------------------------------------------

    def delta_mutual_info(self, ts: np.ndarray) -> np.ndarray:
        """Batched I(t) - I(0); the global entropy cancels under unitaries.

        One ``EvolutionPlan`` serves the grid, evolved one ``SWEEP_BLOCK`` of times
        at a time; the marginal entropies come from the populations alone where the
        plan's marginals are diagonal. Each step acts per grid point: blocks change no bit.
        """
        plan, dims = EvolutionPlan(self.rho, self.h_int, len(ts)), self.rho.dims
        s_a, s_b = np.empty(len(ts)), np.empty(len(ts))
        for block in _blocks(len(ts)):
            if plan.diagonal is not None:
                s_a[block], s_b[block] = population_entropies(plan.populations(ts[block]), dims)
            else:
                rho_a, rho_b = bipartite_marginals(plan.evolve(ts[block]), dims)
                s_a[block], s_b[block] = entropies(rho_a), entropies(rho_b)
        return mutual_information_change(s_a, s_b)


def _blocks(n: int) -> Iterator[slice]:
    """Consecutive slices of at most ``SWEEP_BLOCK`` grid points covering range(n)."""
    return (slice(lo, lo + SWEEP_BLOCK) for lo in range(0, n, SWEEP_BLOCK))


def _check_against_trace(engine: _ScenarioEngine, ts: np.ndarray, heat: np.ndarray) -> None:
    """NumericsError at the worst grid point where the closed form leaves the trace formula."""
    q_ref = engine.heat_trace_at(ts)
    deviation = np.abs(q_ref - heat)
    allowed = CROSS_CHECK_TOL * np.maximum(max(abs(engine.a_max), 1.0e-300), np.abs(q_ref))
    bad = np.flatnonzero(deviation > allowed)
    if bad.size:
        i = bad[np.argmax(deviation[bad] / allowed[bad])]
        raise NumericsError(
            f"closed-form heat deviates from trace formula at t={ts[i]:g}: "
            f"{heat[i]:.17g} vs {q_ref[i]:.17g}"
        )


def run_sweep(config: ScenarioConfig) -> SweepResult:
    """Evaluate the sweep as columns; deterministic given the config."""
    engine = _ScenarioEngine(config)
    ts = config.time_grid.times()
    heat, upper, lower, crossings = engine.scan(ts)
    _check_against_trace(engine, ts, heat)

    # Delta mutual information, batched over the grid.
    if config.time_grid.t_min == 0:
        delta_i = engine.delta_mutual_info(ts)
    else:
        ts0 = np.concatenate(([0.0], ts))
        delta_i = engine.delta_mutual_info(ts0)[1:]

    tol = VIOLATION_REL_TOL * np.maximum.reduce(
        [np.abs(upper), np.abs(lower), np.abs(heat)]
    )
    violates = (heat > upper + tol) | (heat < lower - tol)

    columns = (ts, heat, upper, lower, violates, delta_i)  # in COLUMNS order
    return SweepResult(config, *columns, crossings=crossings)


# -- emission ----------------------------------------------------------------


def _json_values(column: np.ndarray) -> list:
    """The column's floats, whose str is json's spelling; NaN and +-Infinity as text."""
    values = column.tolist()
    for i in np.flatnonzero(~np.isfinite(column)):
        values[i] = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}[repr(values[i])]
    return values


def _rows(result: SweepResult, block: slice, template: str, floats: Callable) -> Iterator[str]:
    """``template`` filled per grid point of ``block``: floats via ``floats``, flags as true/false."""
    columns = [
        list(map(("false", "true").__getitem__, result.violates[block].tolist()))
        if name == "violates"
        else floats(getattr(result, name)[block])
        for name in COLUMNS
    ]
    return map(template.__mod__, zip(*columns))


_CSV_ROW = ",".join("%s" if name == "violates" else "%.16e" for name in COLUMNS) + "\n"
# One element of the records array in json.dumps's indent-2 layout.
_JSON_RECORD = "    {\n" + ",\n".join(f'      "{name}": %s' for name in COLUMNS) + "\n    }"


def _chunks(result: SweepResult, fmt: str) -> Iterator[str]:
    """The sweep's CSV or JSON text in pieces of at most ``SWEEP_BLOCK`` records.

    The JSON is json.dumps(payload, indent=2), byte for byte: json.dumps
    lays out everything but the records, which are rendered from the columns
    and put in place of the empty list. Only top-level keys sit at an indent
    of exactly two spaces, so the split point is unique.
    """
    blocks = _blocks(len(result.t))
    if fmt == "csv":
        yield CSV_HEADER + "\n"
        for block in blocks:
            yield "".join(_rows(result, block, _CSV_ROW, np.ndarray.tolist))
        return
    payload = {
        "config": result.config.to_dict(),
        "records": [],
        "critical_times": result.critical_times,
        "crossings": [{"time": c.time, "side": c.side} for c in result.crossings],
    }
    text = json.dumps(payload, indent=2) + "\n"
    if not len(result.t):
        yield text
        return
    head, tail = text.split('\n  "records": []', 1)
    yield head + '\n  "records": [\n'
    for i, block in enumerate(blocks):
        records = ",\n".join(_rows(result, block, _JSON_RECORD, _json_values))
        yield ",\n" + records if i else records
    yield "\n  ]" + tail


def format_csv(result: SweepResult) -> str:
    return "".join(_chunks(result, "csv"))


def format_json(result: SweepResult) -> str:
    """The sweep as json.dumps(payload, indent=2), byte for byte."""
    return "".join(_chunks(result, "json"))


def emit(result: SweepResult, fmt: str, path: str) -> None:
    """Write the sweep output to disk a block at a time; IO errors carry the path."""
    if fmt not in FORMATS:
        raise ConfigError(f"format must be one of {FORMATS}, got {fmt!r}")
    try:
        with open(path, "w") as fh:
            fh.writelines(_chunks(result, fmt))
    except OSError as exc:
        raise ConfigError(f"cannot write output to {path}: {exc}") from exc
