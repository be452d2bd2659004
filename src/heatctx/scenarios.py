"""Reproducible scenario definitions, sweep orchestration, and data emission.

A scenario bundles a correlated thermal state, an energy-conserving
interaction, a time grid, and units. Sweeps evaluate the closed-form heat and
the noncontextual bounds on the full grid, find the bound-crossing times
(from the spectral form of heat - bound where its frequencies are commensurate,
else by a scan of the grid), evolve the state once over the grid for the mutual-information
change, check the heat against the trace formula of that evolved state on every
grid point, and evaluate per-point violation flags. A ``SweepResult`` holds these
as numpy columns, one entry per grid point, and CSV and JSON are rendered
straight from the columns.

The per-point work that needs more than O(1) memory, the evolved states of
the ΔI column and the output text, runs ``SWEEP_BLOCK`` grid points at a
time, so a sweep holds its O(N) columns plus one block.

CSV floats are the bytes of Python's correctly rounded ``'%.16e' % x``, formatted
in numpy: the 17 digits N = |x| 10^(16-E) come from x = m 2^q and a double-double
power of ten with an absolute error below 2^-46, so rounding N is decided right
wherever its fraction lies farther than 2^-40 from 1/2. Python formats the rest:
near-ties, zeros, non-finite values.

JSON floats are ``repr``'s, as json.dumps writes them, also formatted in numpy.
From the same unrounded N, N_k = N / 10^(17-k) for k = 15 and 16 comes by integer
division; round(N_k) reads back as x iff it lies within h_k = N_k / (2m) of N_k,
and the first of 15, 16 and 17 digits that does gives repr's digits, trailing zeros
stripped, positional for -4 <= E <= 15 and scientific otherwise. Python's repr
formats what the test cannot decide: distances within 2^-30 of h_k, fractions
within 2^-40 of 1/2, power-of-two significands (whose interval is narrower below
x), subnormals, zeros and non-finite values.

Blocks of fewer than ``FORMAT_IN_PYTHON_BELOW`` rows take their floats from
Python's '%.16e' and repr, whose per-value cost is below the kernels' fixed cost
there. A block's records are the rows of one uint64 matrix, every field starting on
a word and each word read from a table built on first use; ``bytes.translate``
deletes the NUL padding, and the output stays bytes until ``format_csv`` and
``format_json`` decode it once.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .errors import ConfigError, NumericsError
from .linalg import as_matrix
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
from .thermo import build_heat_2qubit_thermal, build_heat_qutrit, harmonic_heat
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
        try:
            return np.linspace(self.t_min, self.t_max, int(self.n_points))
        except (MemoryError, ValueError, IndexError) as exc:  # numpy's errors for too large a grid
            raise ConfigError(f"a time grid of {self.n_points} points cannot be allocated") from exc


def _copied(value):
    """value with every dict, list and tuple in it copied; other values are shared."""
    if isinstance(value, dict):
        return {key: _copied(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(_copied(item) for item in value)
    return value


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
        """The fields in declaration order, ``time_grid`` as a nested dict: what
        ``dataclasses.asdict`` gives, each dict, list and tuple a copy."""
        grid = self.time_grid
        return {
            "scenario": self.scenario,
            "state": _copied(self.state),
            "interaction": _copied(self.interaction),
            "time_grid": {"t_min": grid.t_min, "t_max": grid.t_max, "n_points": grid.n_points},
            "units": self.units,
            "output_path": self.output_path,
            "output_format": self.output_format,
        }

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


def _beta(state: dict, key: str) -> float:
    """1 / state[key]; a temperature so small that its inverse overflows is refused."""
    temperature = _positive("state", state, key)
    beta = 1.0 / temperature
    if not math.isfinite(beta):
        raise ConfigError(f"state.{key} = {temperature:g} is too small: 1/{key} overflows")
    return beta


def _betas(state: dict) -> tuple[float, float]:
    return _beta(state, "T_A"), _beta(state, "T_B")


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


def _qubit_heat(params, g, theta):
    """``build_heat_2qubit_thermal``, once its phase xi - theta is a finite float whose
    rounding (exact by ``math.fsum``) stays within the oracle's ``CROSS_CHECK_TOL``."""
    phase, fields = params.xi - theta, f"state.xi ({params.xi:g}) - interaction.theta ({theta:g})"
    if not math.isfinite(phase):
        raise ConfigError(f"{fields} overflows a float")
    lost = abs(math.fsum([params.xi, -theta, -phase]))
    if lost > CROSS_CHECK_TOL:
        raise ConfigError(f"{fields} rounds off {lost:g} rad, more than {CROSS_CHECK_TOL:g}")
    return build_heat_2qubit_thermal(params, g, theta)


# -- interaction families ----------------------------------------------------


def _p_d(half_gap, t):
    """sin^2(half_gap t): half the gap times t, not a multiple of x = g t, which can
    overflow where the angle does not."""
    return np.sin(half_gap * t) ** 2


@dataclass(frozen=True)
class Factor:
    """One transformation of a family's sequence, keyed by its ``--interaction`` name.

    ``generator(g, a, theta, local_dim)`` is its Hamiltonian and
    ``half_gap(g, a)`` half its gap Delta, the distance of the generator's
    extreme eigenvalues (signed for resonant-detuning). Its analytic probability
    of disturbance at time t is p_d = sin^2(Delta t / 2), whose frequency Delta
    is one of the bounds'.
    """

    generator: Callable
    half_gap: Callable

    def p_d(self, g, t, a):
        return _p_d(self.half_gap(g, a), t)


FACTORS = {
    "resonant-exchange": Factor(
        lambda g, a, theta, d: ResonantInteraction(g, a, theta).exchange_part(),
        lambda g, a: g,
    ),
    "resonant-detuning": Factor(
        lambda g, a, theta, d: ResonantInteraction(g, a, theta).detuning_part(),
        lambda g, a: (a - 1.0) * g / 2,
    ),
    "nonresonant": Factor(
        lambda g, a, theta, d: NonResonantInteraction(g).hamiltonian(),
        lambda g, a: g / 2,
    ),
    "partial-swap": Factor(
        lambda g, a, theta, d: PartialSwapInteraction(g, d).hamiltonian(),
        lambda g, a: g,
    ),
}


@dataclass(frozen=True)
class Family:
    """Everything the engine knows about one scenario, keyed by its name."""

    parse: Callable  # config state -> validated params
    state: Callable  # (params, local Hamiltonian) -> DensityMatrix
    local: Callable  # params -> local Hamiltonian, the same on A and B
    h_int: Callable  # (g, a, theta) -> interaction Hamiltonian
    heat: Callable  # (params, g, theta) -> t -> closed-form <Q_A>, built once per engine
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
        heat=_qubit_heat,
        # The exchange part first, then the commuting detuning part.
        factors=("resonant-exchange", "resonant-detuning"),
    ),
    "two_qubit_nonresonant": Family(
        **_QUBITS,
        h_int=lambda g, a, theta: NonResonantInteraction(g).hamiltonian(),
        # It commutes with each local Hamiltonian: no heat flows, and 0 s^2 + (0 s) c is +0.0.
        heat=lambda p, g, theta: harmonic_heat(0.0, 0.0, g),
        factors=("nonresonant",),
    ),
    "qutrit_partial_swap": Family(
        parse=_qutrit_params,
        state=lambda p, h: two_qutrit_thermal(p),
        local=lambda p: qutrit_hamiltonian(p.omegas),
        h_int=lambda g, a, theta: PartialSwapInteraction(g, local_dim=3).hamiltonian(),
        heat=lambda p, g, theta: build_heat_qutrit(p, g),
        factors=("partial-swap",),
    ),
}


def check_time(field: str, rate: float, t: float) -> None:
    """ConfigError unless t is finite and the phase 2 rate t is a finite float.

    ``rate`` is H_I's ``rate_bound``: its absolute row sums bound its
    eigenvalues, g and g |a - 1|; the closed forms take angles up to 2 g t,
    the evolution w t.
    """
    if not math.isfinite(t):
        raise ConfigError(f"{field} must be finite, got {t}")
    if not math.isfinite(2 * rate * t):
        raise ConfigError(f"{field} = {t:g} is too large: its phases under H_I overflow")


def check_phase_digits(field: str, value: float, rate: float, t: float) -> None:
    """ConfigError naming ``field`` = ``value`` where one ulp of the phase 2 rate t at
    time t exceeds ``CROSS_CHECK_TOL``, with H_I's ``rate_bound``: there the closed
    form and the evolution are each rounding noise, and the time asked for, not the
    program, is at fault."""
    ulp = math.ulp(2 * rate * t)
    if ulp > CROSS_CHECK_TOL:
        raise ConfigError(
            f"{field} = {value:g} is too large: at t={t:g} one ulp of the "
            f"phase under H_I is {ulp:.3g} rad, more than {CROSS_CHECK_TOL:g}"
        )


def rate_bound(h_int) -> float:
    """The largest absolute row sum of H_I, a bound on its eigenvalues."""
    return float(np.abs(as_matrix(h_int)).sum(axis=1).max())


class _ScenarioEngine:
    """Assembled state/interaction/bounds for one config; vectorized over t."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.family = FAMILIES[config.scenario]
        self.g, self.a, self.theta = _coupling(config.interaction)
        self.params = self.family.parse(config.state)
        self.h_local = self.family.local(self.params)
        self.rho = self.family.state(self.params, self.h_local)
        # diag(H_A x 1): the local Hamiltonians in scope are diagonal.
        self.energies = np.repeat(np.diag(self.h_local.matrix).real, self.rho.dims[1])
        self.a_max = float(self.energies.max())
        self.h_int = self.family.h_int(self.g, self.a, self.theta)

    # What heat and bounds need that does not depend on t, computed once, on
    # first use: ``clausius`` evaluates no closed form, and so does not refuse
    # the one config the heat's build does, a qubit xi - theta that overflows.

    @functools.cached_property
    def _heat(self):
        return self.family.heat(self.params, self.g, self.theta)

    @functools.cached_property
    def rate(self) -> float:
        """H_I's ``rate_bound``, for ``check_time`` and ``check_phase_digits``."""
        return rate_bound(self.h_int)

    @functools.cached_property
    def half_gaps(self) -> list[float]:
        return [FACTORS[name].half_gap(self.g, self.a) for name in self.family.factors]

    # -- heat ---------------------------------------------------------------

    def heat(self, t):
        return self._heat(t)

    def heat_trace_at(self, populations: np.ndarray) -> np.ndarray:
        """Trace-formula <Q_A> from the populations p(t) of rho(t), one row per time.

        H_A x 1 is diagonal, so Tr{rho(t) (H_A x 1)} - Tr{rho (H_A x 1)} is
        sum_i E_i (p_i(t) - p_i(0)) with E = diag(H_A x 1).
        """
        return (populations - np.diag(self.rho.matrix).real) @ self.energies

    # -- bounds -------------------------------------------------------------

    def bounds(self, t):
        """(upper, lower) noncontextual bounds at time(s) t.

        Theorem 2 over the family's factors. A one-factor family pads p_d2
        with 0, which reduces Theorem 2 exactly to Theorem 1 at alpha = 1/2.
        """
        t = np.asarray(t, dtype=float)
        p_d = [_p_d(half_gap, t) for half_gap in self.half_gaps] + [0.0]
        b_minus, b_plus = sequential_b_factors(p_d[0], p_d[1])
        return 2 * self.a_max * b_plus, -4 * self.a_max * b_minus

    def frequencies(self) -> list[float]:
        """Angular frequencies in t of heat - bound: 0, the factors' gaps, their sum and difference.

        A factor's p_d = sin^2(Delta t / 2) has its generator's gap Delta, and
        Theorem 2's product p_d1 p_d2 adds Delta1 + Delta2 and |Delta1 - Delta2|.
        The heat's, the Bohr frequencies of H_I, are among these already: the
        partial SWAP's 2g and the non-resonant g are their factor's gap, and the
        resonant g |a - 1|, 2g and g |a + 1| are the two gaps and, for a >= 1,
        their sum, else their difference.
        """
        gaps = [2 * abs(half_gap) for half_gap in self.half_gaps]
        mixed = [gaps[0] + gaps[1], abs(gaps[0] - gaps[1])] if len(gaps) == 2 else []
        return sorted({0.0}.union(gaps, mixed))

    def crossings(self, ts: np.ndarray) -> list[Crossing]:
        """The crossings of heat with either bound on the grid ts (``find_critical_times``)."""
        return find_critical_times(ts, self.heat, self.bounds, self.frequencies())

    # -- mutual information -------------------------------------------------

    def delta_mutual_info(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(I(t) - I(0), trace-formula <Q_A>) on ts, from one evolution of rho.

        The global entropy cancels under unitaries. One ``EvolutionPlan`` serves the
        grid, evolved one ``SWEEP_BLOCK`` of times at a time; the marginal entropies
        come from the populations alone where the plan's marginals are diagonal, and
        ``heat_trace_at`` reads the populations of each block's rho(t). Each step acts
        per grid point: blocks change no bit.
        """
        plan, dims = EvolutionPlan(self.rho, self.h_int), self.rho.dims
        s_a, s_b, q = np.empty(len(ts)), np.empty(len(ts)), np.empty(len(ts))
        for block in _blocks(len(ts)):
            if plan.diagonal:
                populations = plan.populations(ts[block])
                s_a[block], s_b[block] = population_entropies(populations, dims)
            else:
                rho_t = plan.evolve(ts[block])
                populations = np.diagonal(rho_t, axis1=1, axis2=2).real
                rho_a, rho_b = bipartite_marginals(rho_t, dims)
                s_a[block], s_b[block] = entropies(rho_a), entropies(rho_b)
            q[block] = self.heat_trace_at(populations)
        return mutual_information_change(s_a, s_b), q


def _blocks(n: int) -> Iterator[slice]:
    """Consecutive slices of at most ``SWEEP_BLOCK`` grid points covering range(n)."""
    return (slice(lo, lo + SWEEP_BLOCK) for lo in range(0, n, SWEEP_BLOCK))


def _check_against_trace(
    engine: _ScenarioEngine, ts: np.ndarray, heat: np.ndarray, q_ref: np.ndarray
) -> None:
    """NumericsError at the worst grid point where heat leaves the trace formula q_ref,
    unless ``check_phase_digits`` puts the fault on the grid there."""
    deviation = np.abs(q_ref - heat)
    allowed = CROSS_CHECK_TOL * np.maximum(max(abs(engine.a_max), 1.0e-300), np.abs(q_ref))
    bad = np.flatnonzero(~(deviation <= allowed))  # NaN fails too
    if bad.size:
        i = bad[np.argmax(deviation[bad] / allowed[bad])]
        check_phase_digits("time_grid.t_max", ts[-1], engine.rate, ts[i])
        raise NumericsError(
            f"closed-form heat deviates from trace formula at t={ts[i]:g}: "
            f"{heat[i]:.17g} vs {q_ref[i]:.17g}"
        )


def run_sweep(config: ScenarioConfig) -> SweepResult:
    """Evaluate the sweep as columns; deterministic given the config."""
    engine = _ScenarioEngine(config)
    ts = config.time_grid.times()
    check_time("time_grid.t_max", engine.rate, config.time_grid.t_max)
    heat, (upper, lower) = engine.heat(ts), engine.bounds(ts)
    crossings = engine.crossings(ts)

    # Delta mutual information and the trace-formula heat; row 0 is the reference t = 0.
    delta_i, q_trace = (column[1:] for column in engine.delta_mutual_info(np.append(0.0, ts)))
    _check_against_trace(engine, ts, heat, q_trace)

    tol = VIOLATION_REL_TOL * np.maximum.reduce(
        [np.abs(upper), np.abs(lower), np.abs(heat)]
    )
    violates = (heat > upper + tol) | (heat < lower - tol)

    columns = (ts, heat, upper, lower, violates, delta_i)  # in COLUMNS order
    return SweepResult(config, *columns, crossings=crossings)


# -- emission ----------------------------------------------------------------

FORMAT_IN_PYTHON_BELOW = 24  # block rows below which Python's formatting beats the kernels' fixed cost

_E_MIN, _E_MAX = -325, 309  # decimal exponents of the doubles, plus one correction either way
_FIELD = 32  # bytes of a '%.16e' field, 4 words: "-d.", 16 digits, "e+308"
_REPR_FIELD = 48  # bytes of a repr field, 6 words: its 46 slots (_repr_layouts) and 2 NUL
_FLOAT_COLUMNS = [name for name in COLUMNS if name != "violates"]
_FLAGS = np.frombuffer(b"false\0\0\0true\0\0\0\0", "<u8")  # the violates field, one word
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # json.dumps's spelling


@functools.cache
def _powers_of_ten() -> np.ndarray:
    """Rows hi, hi_hi, hi_lo, lo, b with column E - _E_MIN for E: 10^(16-E) = (hi + lo) 2^b,
    hi in [2^52, 2^53) an integer and hi_hi + hi_lo its Veltkamp split (``_split``)."""
    columns = []
    for e in range(_E_MIN, _E_MAX + 1):
        num, den = (10 ** (16 - e), 1) if e <= 16 else (1, 10 ** (e - 16))
        b = num.bit_length() - den.bit_length() - 53
        num, den = num << max(-b, 0), den << max(b, 0)  # num / den in (2^52, 2^54)
        if num >= den << 53:
            b, den = b + 1, den << 1
        hi, rest = divmod(num, den)
        columns.append((hi, rest / den, b))
    hi, lo, b = (np.array(row, dtype=float) for row in zip(*columns))
    return np.stack([hi, *_split(hi), lo, b])


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: a = hi + lo exactly, each half of at most 26 significant bits."""
    c = a * (2.0**27 + 1)
    hi = c - (c - a)
    return hi, a - hi


def _scaled(m: np.ndarray, q: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """N = m 2^q 10^(16-e) as (floor(N) as int64, N - floor(N)), to within 2^-46.

    Preconditions: e in [_E_MIN, _E_MAX], the power table's range, and N >= 2^53,
    where p 2^s below is an integer and its cast to int64 exact; for smaller N the
    fraction of p 2^s is lost and floor(N) may come out a unit low. 10^16 <= N < 10^17
    meets both; a guessed e one too large puts N below 10^16 either way and is then
    corrected. Fewer digits (repr's 15 or 16) come from the 17-digit N by integer
    division, never from here at a shifted e.
    """
    hi, hh, hl, lo, b = np.take(_powers_of_ten(), e - _E_MIN, axis=1)
    p = m * hi
    mh, ml = _split(m)
    err = ((mh * hh - p) + mh * hl + ml * hh) + ml * hl  # m hi = p + err (Dekker)
    s = q + b.astype(np.int32)
    rest = np.ldexp(err + m * lo, s)
    whole = np.floor(rest)
    return np.ldexp(p, s).astype(np.int64) + whole.astype(np.int64), rest - whole


def _unrounded_e16(x: np.ndarray) -> tuple[np.ndarray, ...]:
    """(n, frac, e, m, fallback): |x| = m 2^q = (n + frac) 10^(e - 16), 10^16 <= n < 10^17.

    m is the 53-bit significand of |x| as a float and frac is within 2^-46. fallback
    marks what Python formats: zeros, non-finite values and exponents one correction
    does not settle; their digits and exponent are those of 1.0.
    """
    a = np.abs(x)
    fallback = ~(np.isfinite(a) & (a > 0))
    a[fallback] = 1.0
    f, q = np.frexp(a)
    m, q = np.ldexp(f, 53), q - 53
    e = np.floor(np.log10(a)).astype(np.int32)  # may miss by one near powers of ten
    # E from the unrounded N: 1e-299 lies below 10^-299, so its N for E = -299
    # rounds up to 10^16 while its digits are those of E = -300.
    n_int, frac = _scaled(m, q, e)
    off = (n_int >= 10**17).astype(np.int32) - (n_int < 10**16)
    wrong = off.nonzero()[0]
    if wrong.size:
        e[wrong] += off[wrong]
        n_int[wrong], frac[wrong] = _scaled(m[wrong], q[wrong], e[wrong])
        fallback |= (n_int < 10**16) | (n_int >= 10**17)
        n_int[fallback], frac[fallback], e[fallback] = 10**16, 0.0, 0  # in the tables' range
    return n_int, frac, e, m, fallback


def _round_e16(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(digits, exponent, fallback): |x| = digits 10^(exponent - 16) rounded, digits of 17 figures.

    fallback marks what Python formats: zeros, non-finite values, fractions within 2^-40
    of 1/2 (exact ties included) and exponents one correction does not settle.
    """
    n17, frac, e, _, fallback = _unrounded_e16(x)
    fallback |= np.abs(frac - 0.5) < 2.0**-40
    digits = n17 + (frac > 0.5)
    carry = digits == 10**17
    digits[carry], e[carry] = 10**16, e[carry] + 1
    return digits, e, fallback


def _repr_digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(digits, exponent, fallback) of repr: the shortest digits that round-trip to x.

    |x| = m 2^q spans a rounding interval of half-width h_k = N_k / (2m) around
    N_k = N / 10^(17-k), in units of its k-th digit, so round(N_k) reads back as x
    iff |round(N_k) - N_k| < h_k. Among k digits it is the nearest candidate, and
    the interval (narrower than 0.23 for k = 15) holds one 15-digit integer at most:
    the first k of 15, 16 and 17 that passes gives repr's digits, zero-padded to 17
    figures. fallback adds to _unrounded_e16's the power-of-two significands (their
    interval is narrower below x), subnormals (wider), distances within 2^-30 of h_k
    and fractions within 2^-40 of 1/2 at the chosen k.
    """
    n17, frac, e, m, fallback = _unrounded_e16(x)
    fallback |= (m == 2.0**52) | (np.abs(x) < 2.0**-1022)
    half_ulp = n17 / (2 * m)  # h_17
    digits, chosen = n17 + (frac > 0.5), frac
    for j in (1, 2):  # 16, then 15 digits: the shorter wins where it round-trips
        whole, rest = np.divmod(n17, 10**j)
        f = (rest + frac) / 10**j
        up = f > 0.5
        err, h = np.where(up, 1 - f, f), half_ulp / 10**j
        fallback |= np.abs(err - h) < 2.0**-30
        ok = err < h
        digits = np.where(ok, (whole + up) * 10**j, digits)
        chosen = np.where(ok, f, chosen)
    fallback |= np.abs(chosen - 0.5) < 2.0**-40
    carry = digits == 10**17  # 15 or 16 digits rounded up to 10^15 or 10^16 carry too
    digits[carry], e[carry] = 10**16, e[carry] + 1
    return digits, e, fallback


def _python_fields(values: list, spell: Callable, width: int) -> np.ndarray:
    """spell(v) for each v of values as (len(values), width) bytes, NUL-padded."""
    text = "".join(spell(v).ljust(width, "\0") for v in values).encode()
    return np.frombuffer(text, np.uint8).reshape(-1, width)


class _Words(NamedTuple):
    """The words fields are built from: a field's bytes, NUL-padded, as little-endian integers."""

    digits: np.ndarray  # <u8 at g < 10^4: g's four ASCII digits, in the low half
    pointed: np.ndarray  # <u8 at g: "d.d.d.d.", g's digits in repr's digit and point slots
    last: np.ndarray  # at g: the place, 1 to 4, of g's last nonzero digit; -12 for 0000
    e16_lead: np.ndarray  # <u8 at 10 sign + lead digit: "-d."
    repr_lead: np.ndarray  # <u8 at 10 sign + lead digit: "-0.000d.", the sign slot NUL for +
    e16_exponent: np.ndarray  # <u8 at E - _E_MIN: "e-05", "e+300"
    repr_exponent: np.ndarray  # <u8 at E - _E_MIN: "0e-05", repr's closing-zero slot first


@functools.cache
def _words() -> _Words:
    chars = (np.arange(10**4)[:, None] // [1000, 100, 10, 1] % 10 + ord("0")).astype(np.uint8)
    nonzero = chars != ord("0")
    last = np.where(nonzero.any(axis=1), 4 - nonzero[:, ::-1].argmax(axis=1), -12)
    leads = [b"%s%d." % (sign, d) for sign in (b"\0", b"-") for d in range(10)]
    exponents = [b"e%+03d" % e for e in range(_E_MIN, _E_MAX + 1)]
    repr_leads = [s[:1] + b"0.000" + s[1:] for s in leads]  # the sign slot first
    texts = leads, repr_leads, exponents, [b"0" + s for s in exponents]
    return _Words(
        chars.view("<u4")[:, 0].astype("<u8"),
        np.insert(chars, [1, 2, 3, 4], ord("."), axis=1).view("<u8")[:, 0],
        last.astype(np.int8),
        *(np.array(words, dtype="S8").view("<u8") for words in texts),
    )


def _groups(digits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lead, groups): the leading digit of 17-figure integers and the other 16 as four
    4-digit groups, (4, len), by floor division, whose scalar divisors numpy multiplies out."""
    lead = digits // 10**16
    rest = digits - lead * 10**16
    high = rest // 10**8
    halves = np.stack([high, rest - high * 10**8])
    high = halves // 10**4
    return lead, np.stack([high, halves - high * 10**4], axis=1).reshape(4, -1)


def _e16_fields(x: np.ndarray) -> np.ndarray:
    """'%.16e' % v for each v of x as (len(x), _FIELD) bytes, NUL-padded."""
    digits, e, fallback = _round_e16(x)
    words, (lead, groups) = _words(), _groups(digits)
    fields = np.empty((len(x), _FIELD // 8), "<u8")
    fields[:, 0] = words.e16_lead[np.signbit(x) * 10 + lead]
    chars = words.digits[groups]
    fields[:, 1] = chars[0] | chars[1] << 32  # two groups a word
    fields[:, 2] = chars[2] | chars[3] << 32
    fields[:, 3] = words.e16_exponent[e - _E_MIN]
    text = fields.view(np.uint8)
    text[fallback] = _python_fields(x[fallback].tolist(), "%.16e".__mod__, _FIELD)
    return text


@functools.cache
def _repr_layouts() -> np.ndarray:
    """The words of the slots a repr field keeps, 0xFF, at 22 (figures - 1) + form.

    The slots are the sign, "0." and three zeros (0.0001), 17 digits each followed
    by a point, a closing zero (1000.0) and the exponent (e-05, e+300). form is
    E + 4 for the positional -4 <= E <= 15 (0.0001, 1000000000000000.0) and 20 or 21
    for scientific notation with a 2- or 3-digit exponent (1e-05, 5e-324).
    """
    slot = np.arange(_REPR_FIELD)
    k = np.arange(1, 18)[:, None, None]
    form = np.arange(22)[:, None]
    e, positional, scientific = form - 4, (form >= 4) & (form < 20), form >= 20
    digit = np.where((slot >= 6) & (slot < 40) & (slot % 2 == 0), (slot - 6) // 2, 99)
    point = np.where((slot >= 7) & (slot < 40) & (slot % 2 == 1), (slot - 7) // 2, 99)
    kept = (
        (slot == 0)
        | ((form < 4) & ((slot == 1) | (slot == 2) | ((slot >= 3) & (slot < 6 - form))))
        | (digit < np.where(positional, np.maximum(k, e + 1), k))
        | (positional & (point == e))
        | (scientific & (point == 0) & (k > 1))
        | (positional & (slot == 40) & (k <= e + 1))
        | (scientific & (slot > 40))
    )
    return (kept.reshape(-1, _REPR_FIELD).astype(np.uint8) * np.uint8(0xFF)).view("<u8")


def _json_spelling(v: float) -> str:
    """json.dumps's spelling of a float: its repr, or NaN, Infinity and -Infinity."""
    text = repr(v)
    return _NON_FINITE.get(text, text)


def _repr_fields(x: np.ndarray) -> np.ndarray:
    """json.dumps's spelling of each v of x as (len(x), _REPR_FIELD) bytes, NUL-padded."""
    digits, e, fallback = _repr_digits(x)
    words, (lead, groups) = _words(), _groups(digits)
    fields = np.empty((len(x), _REPR_FIELD // 8), "<u8")
    fields[:, 0] = words.repr_lead[np.signbit(x) * 10 + lead]
    for j, group in enumerate(groups, start=1):
        fields[:, j] = words.pointed[group]
    fields[:, 5] = words.repr_exponent[e - _E_MIN]
    # The last nonzero digit of group j is figure 4 j + 1 + last; zero groups never win.
    figures = (words.last[groups] + np.array([[1], [5], [9], [13]], np.int8)).max(axis=0)
    form = np.where((e >= -4) & (e <= 15), e + 4, 20 + (np.abs(e) >= 100))
    fields &= np.take(_repr_layouts(), 22 * (figures - 1).astype(np.intp) + form, axis=0)
    text = fields.view(np.uint8)
    text[fallback] = _python_fields(x[fallback].tolist(), _json_spelling, _REPR_FIELD)
    return text


class _Layout(NamedTuple):
    """How records are spelled: float fields and the text around each column's field."""

    fields: Callable  # floats -> NUL-padded bytes, from a numpy kernel
    spell: Callable  # one float -> its text, by Python
    width: int  # bytes of one float field, a multiple of 8
    row: np.ndarray  # a record's words, its fields NUL
    starts: list[int]  # first word of each column's field


def _layout(fields: Callable, spell: Callable, width: int, pieces: list[str]) -> _Layout:
    """pieces[i] goes before the field of COLUMNS[i], pieces[-1] after the last; NULs pad
    each piece to whole words, so that every field starts on a word."""
    row, starts = b"", []
    for piece, name in zip(pieces, COLUMNS):
        row += piece.encode().ljust(-(-len(piece) // 8) * 8, b"\0")
        starts.append(len(row) // 8)
        row += b"\0" * (8 if name == "violates" else width)
    row += pieces[-1].encode().ljust(-(-len(pieces[-1]) // 8) * 8, b"\0")
    return _Layout(fields, spell, width, np.frombuffer(row, "<u8"), starts)


_CSV_ROW = _layout(_e16_fields, "%.16e".__mod__, _FIELD, [""] + [","] * (len(COLUMNS) - 1) + ["\n"])
# Each record opens with the ",\n" that separates it from the one before.
_JSON_RECORD = _layout(
    _repr_fields,
    _json_spelling,
    _REPR_FIELD,
    [f',\n    {{\n      "{COLUMNS[0]}": ']
    + [f',\n      "{name}": ' for name in COLUMNS[1:]]
    + ["\n    }"],
)


def _records(result: SweepResult, block: slice, layout: _Layout) -> bytes:
    """The records of ``block`` in ``layout``, flags as true/false.

    Floats come from the layout's numpy kernel, or from Python for blocks of fewer
    than ``FORMAT_IN_PYTHON_BELOW`` rows, where the kernel's fixed cost would dominate.
    The records are laid out as rows of words and their NUL padding deleted.
    """
    floats = np.concatenate([getattr(result, name)[block] for name in _FLOAT_COLUMNS])
    n = len(floats) // len(_FLOAT_COLUMNS)
    if n < FORMAT_IN_PYTHON_BELOW:
        text = _python_fields(floats.tolist(), layout.spell, layout.width)
    else:
        text = layout.fields(floats)
    fields = list(text.view("<u8").reshape(len(_FLOAT_COLUMNS), n, -1))
    fields.insert(COLUMNS.index("violates"), _FLAGS[result.violates[block].view(np.uint8), None])
    rows = np.empty((n, len(layout.row)), "<u8")
    rows[:] = layout.row
    for field, start in zip(fields, layout.starts):
        rows[:, start : start + field.shape[1]] = field
    return rows.tobytes().translate(None, b"\0")


def _chunks(result: SweepResult, fmt: str) -> Iterator[bytes]:
    """The sweep's CSV or JSON bytes in pieces of at most ``SWEEP_BLOCK`` records.

    The JSON is json.dumps(payload, indent=2), byte for byte: json.dumps
    lays out everything but the records, which are rendered from the columns
    and put in place of the empty list. Only top-level keys sit at an indent
    of exactly two spaces, so the split point is unique.
    """
    blocks = _blocks(len(result.t))
    if fmt == "csv":
        yield (CSV_HEADER + "\n").encode()
        for block in blocks:
            yield _records(result, block, _CSV_ROW)
        return
    payload = {
        "config": result.config.to_dict(),
        "records": [],
        "critical_times": result.critical_times,
        "crossings": [{"time": c.time, "side": c.side} for c in result.crossings],
    }
    text = (json.dumps(payload, indent=2) + "\n").encode()  # ASCII: json.dumps escapes the rest
    if not len(result.t):
        yield text
        return
    head, tail = text.split(b'\n  "records": []', 1)
    yield head + b'\n  "records": [\n'
    for i, block in enumerate(blocks):
        records = _records(result, block, _JSON_RECORD)
        yield records if i else records[2:]
    yield b"\n  ]" + tail


def format_csv(result: SweepResult) -> str:
    return b"".join(_chunks(result, "csv")).decode("ascii")


def format_json(result: SweepResult) -> str:
    """The sweep as json.dumps(payload, indent=2), byte for byte."""
    return b"".join(_chunks(result, "json")).decode("ascii")


def emit(result: SweepResult, fmt: str, path: str) -> None:
    """Write the sweep output to disk a block at a time; IO errors carry the path."""
    if fmt not in FORMATS:
        raise ConfigError(f"format must be one of {FORMATS}, got {fmt!r}")
    try:
        with open(path, "wb") as fh:
            fh.writelines(_chunks(result, fmt))
    except OSError as exc:
        raise ConfigError(f"cannot write output to {path}: {exc}") from exc
