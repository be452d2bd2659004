"""Per-family checks, parametrized over the interaction-family table.

A family added to ``FAMILIES`` needs an entry in ``EXAMPLES`` below; every
test here then covers it.
"""

import json
import math
import warnings
from collections import deque
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from heatctx import (
    ConfigError,
    DensityMatrix,
    NumericsError,
    ScenarioConfig,
    builtin_micadei,
    builtin_qutrit_demo,
    clausius_report,
    emit,
    format_csv,
    format_json,
    heat_trace,
    nc_bound_theorem1,
    nc_bound_theorem2,
    qutrit_critical_times_analytic,
    qutrit_heat_coefficients,
    run_sweep,
)
from heatctx.cli import BUILTINS, main
from heatctx.dynamics import (
    EvolutionPlan,
    eigenvector_blocks,
    evolve_on_grid,
)
from heatctx.linalg import HermitianOp, eig_hermitian
from heatctx.scenarios import FACTORS, FAMILIES, SWEEP_BLOCK, _blocks, _ScenarioEngine, rate_bound
from conftest import (
    check_energy_conservation,
    count_calls,
    random_density,
    reference_csv,
    reference_delta_mutual_info,
    reference_evolve_on_grid,
    reference_json,
)

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"

EXAMPLES = {
    "two_qubit_resonant": dict(
        state={"omega": 1.3, "T_A": 2.0, "T_B": 0.9, "eta": -0.08, "xi": 0.2},
        interaction={"g": 0.7, "a": 0.37, "theta": 1.1},
    ),
    "two_qubit_nonresonant": dict(
        state={"omega": 1.0, "T_A": 2.0, "T_B": 1.0, "eta": -0.1, "xi": 0.3},
        interaction={"g": 0.8},
    ),
    "qutrit_partial_swap": dict(
        state={
            "omegas": [0.0, 0.7, 1.9],
            "T_A": 2.0,
            "T_B": 0.8,
            "eta31": -0.03,
            "eta62": 0.01,
            "eta75": -0.02,
            "theta31": 1.2,
            "theta62": 0.4,
            "theta75": 2.0,
        },
        interaction={"g": 1.3},
    ),
}

# Sizes of the blocks of V, in order of their first basis index: energy
# conservation links only states of equal energy, here one or two at a time.
BLOCK_SIZES = {
    "two_qubit_resonant": [1, 2, 1],
    "two_qubit_nonresonant": [1, 1, 1, 1],
    "qutrit_partial_swap": [1, 2, 2, 1, 2, 1],
}

# (section, field, value) edits that make a config invalid for every family.
COMMON_BAD = [
    ("state", "T_A", 0.0),
    ("state", "T_B", -1.0),
    ("state", "T_A", math.nan),
    ("state", "T_B", "hot"),
    ("interaction", "g", 0.0),
    ("interaction", "g", -1.0),
    ("interaction", "g", math.nan),
    ("time_grid", "t_max", math.inf),
    ("time_grid", "t_min", math.nan),
    ("time_grid", "n_points", "many"),
    # Numeric strings: float() would parse them, but JSON says they are text.
    ("state", "T_A", "2.0"),
    ("interaction", "g", "0.7"),
    ("time_grid", "t_max", "6.0"),
    ("time_grid", "n_points", "50"),
    # 1 / T overflows to inf.
    ("state", "T_B", 5e-324),
]
QUBIT_BAD = [
    ("state", "omega", -1.0),
    ("state", "omega", 0.0),
    ("state", "omega", math.inf),
    ("state", "eta", math.nan),
    ("state", "nu1", [0.0, math.nan]),
    ("state", "nu1", True),
    ("state", "gamma", [True, 0.0]),
    ("state", "omega", "1.0"),
    ("state", "eta", "-0.1"),
    ("state", "nu1", "0.01+0.01j"),
    ("state", "nu2", ["0.01", 0.0]),
    ("state", "gamma", [0.0, "0.01"]),
]
FAMILY_BAD = {
    "two_qubit_resonant": QUBIT_BAD
    + [("interaction", "a", math.nan), ("interaction", "theta", "1.1")],
    "two_qubit_nonresonant": QUBIT_BAD,
    "qutrit_partial_swap": [
        ("state", "omegas", [0.0, math.nan, 1.0]),
        ("state", "omegas", [-1.0, 0.5, 1.0]),
        ("state", "omegas", [0.0, 0.0, 0.0]),
        ("state", "eta31", math.nan),
        ("state", "omegas", ["0", 1, 2]),
        ("state", "eta31", "-0.03"),
    ],
}


def example_config(name):
    raw = dict(
        scenario=name,
        units="natural",
        time_grid={"t_min": 0.0, "t_max": 6.0, "n_points": 400},
        **EXAMPLES[name],
    )
    return json.loads(json.dumps(raw))


# A grid that crosses two block seams of the sweep and ends in a short block.
SEAM_POINTS = 2 * SWEEP_BLOCK + 7


def seeded_times(t_max, n=20):
    return np.sort(np.random.default_rng(20).uniform(0.0, t_max, n))


def test_every_family_has_an_example():
    assert set(EXAMPLES) == set(FAMILIES) == set(FAMILY_BAD) == set(BLOCK_SIZES)


def bits(a):
    """The IEEE bit patterns of a float or complex array, so -0.0 differs from +0.0."""
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("name", sorted(FAMILIES))
class TestFamily:
    @pytest.mark.parametrize("n", [20, 257])
    def test_closed_form_heat_matches_trace(self, name, n):
        # A short grid and a long one both take the blocks and the populations path.
        engine = _ScenarioEngine(ScenarioConfig.from_dict(example_config(name)))
        ts = seeded_times(6.0, n)
        _, q_trace = engine.delta_mutual_info(ts)
        assert np.max(np.abs(engine.heat(ts) - q_trace)) <= 1e-10 * engine.a_max

    def test_trace_kernel_matches_heat_trace(self, name):
        engine = _ScenarioEngine(ScenarioConfig.from_dict(example_config(name)))
        ts = seeded_times(6.0)
        rho_t = reference_evolve_on_grid(engine.rho, engine.h_int, ts)
        batched = engine.heat_trace_at(np.diagonal(rho_t, axis1=1, axis2=2).real)
        assert batched.shape == ts.shape
        for t, q in zip(ts, batched):
            ref = heat_trace(engine.rho, engine.h_int, engine.h_local, float(t))
            assert abs(q - ref) <= 1e-12 * engine.a_max

    @pytest.mark.parametrize("n_points", [400, SEAM_POINTS])
    @pytest.mark.parametrize("t_min", [0.0, 0.7])
    @pytest.mark.parametrize("state", ["example", "cold"])
    def test_delta_mutual_info_matches_the_reference(self, name, state, t_min, n_points):
        raw = example_config(name)
        raw["time_grid"].update(t_min=t_min, n_points=n_points)
        if state == "cold":  # no coherence, and some populations exactly 0
            cold = raw["state"]
            cold.update({key: 0.0 for key in cold if key.startswith("eta")})
            cold.update(T_A=cold["T_A"] * 3e-3, T_B=cold["T_B"] * 3e-3)
        config = ScenarioConfig.from_dict(raw)
        engine = _ScenarioEngine(config)
        ts = config.time_grid.times()
        # Every family's marginals stay diagonal here: the sweep takes the populations path.
        assert EvolutionPlan(engine.rho, engine.h_int).diagonal
        if t_min == 0:
            expect = reference_delta_mutual_info(engine.rho, engine.h_int, ts)
        else:
            expect = reference_delta_mutual_info(engine.rho, engine.h_int, np.r_[0.0, ts])[1:]
        assert np.array_equal(bits(run_sweep(config).delta_mutual_info), bits(expect))

    @pytest.mark.parametrize("n", [1, 2, 255, 257, SEAM_POINTS])
    @pytest.mark.parametrize("state", ["example", "dense"])
    def test_evolve_on_grid_matches_the_einsums_bit_for_bit(self, name, state, n):
        engine = _ScenarioEngine(ScenarioConfig.from_dict(example_config(name)))
        rho = engine.rho
        if state == "dense":
            dense = random_density(np.random.default_rng(n), len(rho.matrix))
            rho = DensityMatrix(dense, rho.dims)
        ts = np.linspace(0.0, 6.0, n)  # t = 0 is on the grid
        expect = reference_evolve_on_grid(rho, engine.h_int, ts)
        assert np.array_equal(bits(evolve_on_grid(rho, engine.h_int, ts)), bits(expect))

    @pytest.mark.parametrize("state", ["example", "dense"])
    def test_one_time_matches_the_einsums_bit_for_bit(self, name, state):
        # clausius evolves a single time. On a one-point grid einsum sums in
        # the dense order only while each U_b keeps its row axis fastest.
        engine = _ScenarioEngine(ScenarioConfig.from_dict(example_config(name)))
        rho = engine.rho
        if state == "dense":
            rho = DensityMatrix(random_density(np.random.default_rng(1), len(rho.matrix)), rho.dims)
        for t in seeded_times(6.0, 5):
            expect = reference_evolve_on_grid(rho, engine.h_int, [t])
            assert np.array_equal(bits(evolve_on_grid(rho, engine.h_int, [t])), bits(expect)), t

    def test_eigenvector_blocks(self, name):
        engine = _ScenarioEngine(ScenarioConfig.from_dict(example_config(name)))
        _, v = eig_hermitian(engine.h_int.matrix)
        member, blocks = eigenvector_blocks(v)
        assert [len(rows) for rows, _ in blocks] == BLOCK_SIZES[name]
        assert np.array_equal(member.T, [np.isin(np.arange(len(v)), rows) for rows, _ in blocks])
        for part in zip(*blocks):  # the rows, then the columns, cover the basis once
            assert np.array_equal(np.sort(np.concatenate(part)), np.arange(len(v)))

    def test_clausius_delta_mutual_info_matches_the_sweep(self, name):
        config = ScenarioConfig.from_dict(example_config(name))
        result = run_sweep(config)
        engine = _ScenarioEngine(config)
        p = engine.params
        for i in np.random.default_rng(8).integers(1, len(result.t), size=5):
            report = clausius_report(
                engine.rho, engine.h_int, engine.h_local, engine.h_local,
                p.beta_A, p.beta_B, float(result.t[i]),
            )
            assert abs(report.delta_mutual_info - result.delta_mutual_info[i]) <= 1e-12
            assert abs(report.q_A - result.heat[i]) <= 1e-10 * engine.a_max

    @pytest.mark.parametrize("n_points", [301, SEAM_POINTS])
    @pytest.mark.parametrize("t_min", [0.0, 0.7])
    def test_emission_matches_the_reference(self, name, t_min, n_points, tmp_path):
        raw = example_config(name)
        raw["time_grid"] = {"t_min": t_min, "t_max": 6.0, "n_points": n_points}
        result = run_sweep(ScenarioConfig.from_dict(raw))
        for fmt, text, expect in (
            ("csv", format_csv(result), reference_csv(result.records)),
            ("json", format_json(result), reference_json(result)),
        ):
            assert text == expect
            emit(result, fmt, str(tmp_path / f"out.{fmt}"))
            assert (tmp_path / f"out.{fmt}").read_text() == text

    def test_bounds_follow_the_theorems(self, name):
        engine = _ScenarioEngine(ScenarioConfig.from_dict(example_config(name)))
        ts = seeded_times(6.0)
        upper, lower = engine.bounds(ts)
        p_d = [FACTORS[k].p_d(engine.g, ts, engine.a) for k in FAMILIES[name].factors]
        for i in range(len(ts)):
            if len(p_d) == 1:
                ref = nc_bound_theorem1(engine.a_max, float(p_d[0][i]), 0.5)
            else:
                ref = nc_bound_theorem2(engine.a_max, float(p_d[0][i]), float(p_d[1][i]))
            assert (upper[i], lower[i]) == (ref.upper, ref.lower)

    def test_cli_sweep(self, name, tmp_path):
        raw = example_config(name)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        out_path = tmp_path / "out.csv"
        result = CliRunner().invoke(
            main, ["sweep", "--config", str(cfg_path), "--output", str(out_path)]
        )
        assert result.exit_code == 0, result.output
        expect = format_csv(run_sweep(ScenarioConfig.from_dict(raw)))
        assert out_path.read_text() == expect
        assert len(expect.strip().split("\n")) == 401


def random_sector_interaction(rng):
    """A random energy-conserving two-qutrit H_I for the equally spaced levels 0, 1, 2.

    A random Hermitian matrix in each sector of equal total energy, zero between them.
    """
    energy = np.add.outer(np.arange(3), np.arange(3)).ravel()
    h = np.zeros((9, 9), dtype=complex)
    for e in np.unique(energy):
        s = np.flatnonzero(energy == e)
        m = rng.normal(size=(len(s), len(s))) + 1j * rng.normal(size=(len(s), len(s)))
        h[np.ix_(s, s)] = m + m.conj().T
    return HermitianOp(h)


@pytest.mark.parametrize("n", [1, 257, SWEEP_BLOCK + 1])
def test_evolution_on_blocks_no_family_produces(n):
    # LAPACK's V links the sectors through roundoff-sized entries, into blocks
    # of sizes 1, 7 and 1. SWEEP_BLOCK + 1 points run as the sweep runs them,
    # one SWEEP_BLOCK at a time, the last of one point.
    rng = np.random.default_rng(0)
    h = random_sector_interaction(rng)
    levels = np.diag([0.0, 1.0, 2.0])
    assert check_energy_conservation(h, levels, levels)[0]
    _, v = eig_hermitian(h.matrix)
    assert [len(rows) for rows, _ in eigenvector_blocks(v)[1]] == [1, 7, 1]
    rho = DensityMatrix(random_density(rng, 9), (3, 3))
    ts = np.linspace(0.0, 6.0, n)
    expect = reference_evolve_on_grid(rho, h, ts)
    assert np.array_equal(bits(evolve_on_grid(rho, h, ts)), bits(expect))
    plan = EvolutionPlan(rho, h)
    evolved = np.concatenate([plan.evolve(ts[block]) for block in _blocks(n)])
    populations = np.concatenate([plan.populations(ts[block]) for block in _blocks(n)])
    assert np.array_equal(bits(evolved), bits(expect))
    assert np.array_equal(bits(populations), bits(np.diagonal(expect, axis1=1, axis2=2).real))


def random_block_unitary(rng, sizes):
    """A unitary with blocks of the given sizes, rows and columns shuffled.

    Each block is a product of random rotations along a path through its rows,
    one per edge in random order, so some of its rows share no column and link
    only through a chain of others.
    """
    d = sum(sizes)
    u, rows = np.eye(d, dtype=complex), rng.permutation(d)
    for block in np.split(rows, np.cumsum(sizes)[:-1]):
        for k in rng.permutation(np.arange(1, len(block))):
            i, j = block[k - 1], block[k]
            angle, phase = rng.uniform(0.3, 1.2), np.exp(1j * rng.uniform(0.0, 2 * np.pi))
            rotation = np.eye(d, dtype=complex)
            rotation[[i, i, j, j], [i, j, i, j]] = [
                np.cos(angle), np.sin(angle) * phase, -np.sin(angle) / phase, np.cos(angle)
            ]
            u = rotation @ u
    return u[:, rng.permutation(d)]


def connected_blocks(v):
    """The blocks of V by breadth-first search: rows linked by a nonzero v_ij v_kj."""
    blocks, seen = [], set()
    for first in range(len(v)):
        if first in seen:
            continue
        found, queue = {first}, deque([first])
        while queue:
            for j in np.flatnonzero(v[queue.popleft()]):
                for k in np.flatnonzero(v[:, j]):
                    if k not in found:
                        found.add(k)
                        queue.append(k)
        seen |= found
        rows = sorted(found)
        blocks.append((rows, sorted({j for i in rows for j in np.flatnonzero(v[i])})))
    return blocks


@pytest.mark.parametrize("seed", range(40))
def test_eigenvector_blocks_are_the_connected_components(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 10))
    cuts = np.sort(rng.choice(np.arange(1, d), size=rng.integers(min(d, 3)), replace=False))
    sizes = np.diff(np.r_[0, cuts, d]).tolist()
    v = random_block_unitary(rng, sizes)
    assert np.allclose(v @ v.conj().T, np.eye(d))
    member, blocks = eigenvector_blocks(v)
    assert np.array_equal(member.T, [np.isin(np.arange(d), rows) for rows, _ in blocks])
    blocks = [(rows.tolist(), columns.tolist()) for rows, columns in blocks]
    assert blocks == connected_blocks(v)
    assert sorted(len(rows) for rows, _ in blocks) == sorted(sizes)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_outputs_do_not_depend_on_the_block_size(name, monkeypatch):
    # Blocks of 7 run the grid's path 7 rows at a time; 10**6 makes the grid one block.
    raw = example_config(name)
    raw["time_grid"].update(t_min=0.7, n_points=SEAM_POINTS)
    config = ScenarioConfig.from_dict(raw)
    outputs = []
    for block in (7, 2048, 10**6):
        monkeypatch.setattr("heatctx.scenarios.SWEEP_BLOCK", block)
        result = run_sweep(config)
        outputs.append(
            (format_csv(result), format_json(result), bits(result.delta_mutual_info).tolist())
        )
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_a_sweep_builds_one_evolution_plan(name, monkeypatch):
    # Blocks of 300, 300, 300 and 100 points share one plan, and the oracle
    # reads its populations: one eigendecomposition of H_I and one search for
    # its blocks per sweep.
    raw = example_config(name)
    raw["time_grid"]["n_points"] = 1000
    config = ScenarioConfig.from_dict(raw)
    engine = _ScenarioEngine(config)  # built outside the count: only the sweep's own calls count
    monkeypatch.setattr("heatctx.scenarios._ScenarioEngine", lambda _: engine)
    monkeypatch.setattr("heatctx.scenarios.SWEEP_BLOCK", 300)
    targets = [("heatctx.linalg", "eig_hermitian"), ("heatctx.dynamics", "eigenvector_blocks")]
    calls = count_calls(monkeypatch, targets)
    run_sweep(config)
    assert calls == {"eig_hermitian": 1, "eigenvector_blocks": 1}


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_a_one_time_plan_takes_one_eigensolver_and_one_block_search(name, monkeypatch):
    # clausius evolves rho to one time through one plan: H_I's one eigendecomposition,
    # and one search for the blocks of V, which also gives their membership matrix.
    engine = _ScenarioEngine(ScenarioConfig.from_dict(example_config(name)))
    targets = [("heatctx.linalg", "eig_hermitian"), ("heatctx.dynamics", "eigenvector_blocks")]
    calls = count_calls(monkeypatch, targets)
    evolve_on_grid(engine.rho, engine.h_int, [0.7])
    assert calls == {"eig_hermitian": 1, "eigenvector_blocks": 1}


@pytest.mark.parametrize(
    "args, count",
    [
        (["clausius", "--builtin", "micadei", "--t", "0.7"], 3),
        (["clausius", "--builtin", "qutrit-demo", "--t", "0.7"], 3),
        (["critical-time", "--builtin", "micadei"], 0),
        (["sweep", "--builtin", "micadei", "--n-points", "2"], 1),
    ],
)
def test_gibbs_references_take_no_eigensolver(args, count, tmp_path, monkeypatch):
    # The Gibbs references are read off the local energies. What is left is H_I's
    # one eigendecomposition where a state is evolved, and the two of clausius's
    # relative entropies (the initial marginals).
    calls = count_calls(monkeypatch, [("heatctx.linalg", "eig_hermitian")])
    output = ["--output", str(tmp_path / "out.csv")] if args[0] == "sweep" else []
    result = CliRunner().invoke(main, [*args, *output])
    assert result.exit_code == 0, result.output
    assert calls == {"eig_hermitian": count}


@pytest.mark.parametrize("command", ["critical-time", "sweep", "clausius"])
def test_qutrit_heat_coefficients_are_computed_once_per_engine(command, tmp_path, monkeypatch):
    # zeta and xi do not depend on t: the engine computes them on the first use
    # of the heat, not at every column, spectral sample or bisection step of it;
    # clausius evaluates no closed form, so never.
    calls = count_calls(monkeypatch, [("heatctx.thermo", "qutrit_heat_coefficients")])
    args = {"sweep": ["--output", str(tmp_path / "out.csv")], "clausius": ["--t", "0.7"]}
    result = CliRunner().invoke(main, [command, "--builtin", "qutrit-demo", *args.get(command, [])])
    assert result.exit_code == 0, result.output
    assert calls == {"qutrit_heat_coefficients": int(command != "clausius")}


class CountingNumpy:
    """numpy, with the number of elements each np.exp call receives recorded in
    ``exp_sizes`` and the subscripts of each np.einsum call in ``einsums``."""

    def __init__(self):
        self.exp_sizes, self.einsums = [], []

    def __getattr__(self, name):
        return getattr(np, name)

    def exp(self, x, *args, **kwargs):
        self.exp_sizes.append(np.size(x))
        return np.exp(x, *args, **kwargs)

    def einsum(self, subscripts, *operands, **kwargs):
        self.einsums.append(subscripts)
        return np.einsum(subscripts, *operands, **kwargs)


@pytest.mark.parametrize("n", [1, 257])
@pytest.mark.parametrize(
    "config, unitaries, columns",
    [
        pytest.param(builtin_qutrit_demo, 2, 1, id="qutrit-demo"),
        pytest.param(builtin_micadei, 2, 2, id="micadei"),
        pytest.param(
            lambda: ScenarioConfig.from_dict(example_config("two_qubit_nonresonant")), 2, 2,
            id="two_qubit_nonresonant",
        ),
    ],
)
def test_a_plan_shares_its_unitaries_and_mirrors_its_phases(config, unitaries, columns, n, monkeypatch):
    # qutrit-demo's g S has the eigenvalues -g (3 times) and g (6 times): one +-g pair,
    # so np.exp takes 1 phase per grid point, not 2 (or 9 per eigenvalue). Its blocks
    # [1, 2, 2, 1, 2, 1] fall into 2 classes whose eigen-columns agree up to a sign, so
    # 2 U_b(t) einsums run, not 6. micadei's resonant H_I at a = 0 has the eigenvalues
    # -g, 0, 0, g: 2 columns, not 3, and its blocks [1, 2, 1] take 2 einsums, not 3.
    # The non-resonant g (|01><01| + |10><10|) has 0 and g, twice each, on 4 blocks of
    # one row: 2 columns and 2 einsums, not 4.
    engine = _ScenarioEngine(config())
    plan = EvolutionPlan(engine.rho, engine.h_int)
    counting = CountingNumpy()
    monkeypatch.setattr("heatctx.dynamics.np", counting)
    plan.populations(np.linspace(0.0, 6.0, n))
    assert counting.exp_sizes == [columns * n]
    assert counting.einsums.count("ij,nj,kj->kin") == unitaries


def assert_plan_keeps_the_bits(plan, w, v, rho, ts):
    """The plan's mirrored phases and shared U_b(t) equal, bit for bit, np.exp of every
    eigenvalue and each block's own einsum on them; its rho(t) and populations equal
    the dense einsums' on the same (w, V)."""
    phases = np.exp(-1j * np.multiply.outer(ts, w))
    assert np.array_equal(bits(plan._phases(ts)[:, plan.column]), bits(phases))
    u, u_conj = plan._unitaries(ts)
    for b, (r, c) in enumerate(eigenvector_blocks(v)[1]):
        v_b = v.T[c[:, None], r].T
        own = np.einsum("ij,nj,kj->kin", v_b, phases[:, c], v_b.conj(), order="C").transpose(2, 1, 0)
        assert np.array_equal(bits(u[plan.shared[b]]), bits(own)), b
        assert np.array_equal(bits(u_conj[plan.shared[b]]), bits(own.conj())), b
    dense = np.einsum("ij,nj,kj->nik", v, phases, v.conj())
    expect = np.einsum("nij,jk,nlk->nil", dense, rho.matrix, dense.conj())
    assert np.array_equal(bits(plan.evolve(ts)), bits(expect))
    assert np.array_equal(bits(plan.populations(ts)), bits(np.diagonal(expect, axis1=1, axis2=2).real))


# The grids and single times every plan is checked on: 2048 and 2049 points are
# one SWEEP_BLOCK and one more; -0.0 and a negative time are clausius's too.
PLAN_GRIDS = [1, 2, 7, 2048, 2049]
PLAN_TIMES = [0.0, -0.0, -0.5]


def plan_interactions():
    """(id, H_I, dims) of every FAMILIES and FACTORS interaction at seeded g, a and
    theta: a = 1 and a = -1 (a zero eigenvalue inside the hopping block), a = 0 at
    theta = 0 (real V), and two random draws with complex V."""
    rng = np.random.default_rng(31)
    draws = [(1.0, 0.0), (-1.0, 1.1), (0.0, 0.0)]
    draws += [(rng.uniform(-3, 3), rng.uniform(0, 2 * np.pi)) for _ in range(2)]
    cases = []
    for k, (a, theta) in enumerate(draws):
        g = float(np.exp(rng.uniform(np.log(1e-2), np.log(1e2))))
        for name, family in FAMILIES.items():
            dims = (3, 3) if name == "qutrit_partial_swap" else (2, 2)
            cases.append((f"{name}-{k}", family.h_int(g, a, theta), dims, g))
        for kind, factor in FACTORS.items():
            for local_dim in (2, 3) if kind == "partial-swap" else (2,):
                h = factor.generator(g, a, theta, local_dim)
                cases.append((f"{kind}-{local_dim}-{k}", h, (local_dim, local_dim), g))
    return cases


@pytest.mark.parametrize("case", plan_interactions(), ids=lambda case: case[0])
def test_plan_sharing_and_mirroring_keep_every_bit(case):
    _, h, dims, g = case
    rng = np.random.default_rng(7)
    rho = DensityMatrix(random_density(rng, dims[0] * dims[1]), dims)
    plan = EvolutionPlan(rho, h)
    w, v = eig_hermitian(h.matrix)
    t_end = rng.uniform(0.5, 20.0) / g
    for ts in [np.linspace(0.0, t_end, n) for n in PLAN_GRIDS] + [np.array([t]) for t in PLAN_TIMES]:
        assert_plan_keeps_the_bits(plan, w, v, rho, ts)


def test_plan_shares_sign_flipped_blocks_with_signed_zeros(monkeypatch):
    # A constructed V, in the order of the ascending w = -g (4 times), 0 (2), g (4):
    # blocks A, -A and A with the signs of its zero parts flipped share one U_b
    # einsum; D, whose entries are complex, takes its own; the one-row blocks 1 - 0j
    # and -1 + 0j share a third. Zeros of either sign also fill V between blocks.
    g = 0.83
    w = np.repeat([-g, 0.0, g], [4, 2, 4])
    c, s = np.cos(0.4), np.sin(0.4)
    a = np.array([[complex(c, 0.0), complex(s, -0.0)], [complex(-s, -0.0), complex(c, 0.0)]])
    a_zeros = np.array([[complex(c, -0.0), complex(s, 0.0)], [complex(-s, 0.0), complex(c, -0.0)]])
    d = np.array([[c, s * np.exp(0.7j)], [-s * np.exp(-0.7j), c]])
    v = np.full((10, 10), complex(-0.0, 0.0))
    v[::3, 1::2] = complex(0.0, -0.0)
    for (r0, r1), (c0, c1), block in (
        ((0, 1), (0, 6), a), ((2, 3), (1, 7), -a), ((4, 5), (2, 8), a_zeros), ((6, 7), (3, 9), d)
    ):
        v[np.ix_([r0, r1], [c0, c1])] = block
    v[8, 4], v[9, 5] = complex(1.0, -0.0), complex(-1.0, 0.0)
    monkeypatch.setattr("heatctx.dynamics.eig_hermitian", lambda h: (w, v))
    rho = DensityMatrix(random_density(np.random.default_rng(5), 10), (2, 5))
    plan = EvolutionPlan(rho, np.eye(10))
    assert plan.shared == [0, 0, 0, 1, 2, 2]
    assert plan.exponents.tolist() == [0.0, g] and plan.mirrors == [1]
    for ts in [np.linspace(0.0, 9.0, n) for n in PLAN_GRIDS] + [np.array([t]) for t in PLAN_TIMES]:
        assert_plan_keeps_the_bits(plan, w, v, rho, ts)


# Two-qubit state edits and whether both marginals stay diagonal under the
# interaction: nu1 and nu2 couple |00> to |01> or |10>, which differ in one
# qubit only, and gamma couples |00> to |11>.
PATHS = [
    ({"nu1": [0.02, 0.01]}, False),
    ({"nu2": [0.01, -0.02]}, False),
    ({"gamma": [0.02, 0.01]}, True),
]

# Each family's example, which takes the populations path at every grid size,
# and the nu1 state of PATHS, which takes the general path.
ORACLE_CASES = [(name, "example") for name in sorted(FAMILIES)] + [
    (name, "nu1") for name in ("two_qubit_nonresonant", "two_qubit_resonant")
]


@pytest.mark.parametrize("fault", ["heat off", "trace nan"])
@pytest.mark.parametrize("t_min", [0.0, 0.7])
@pytest.mark.parametrize("name, state", ORACLE_CASES)
def test_oracle_covers_every_grid_point(name, state, t_min, fault, monkeypatch):
    # One grid point off by 1e-6 a_max, or a NaN in the trace column there: a
    # 1 % sample would miss it 99 times in 100, a trace row misaligned with the
    # grid would name another t, and a NaN compares False with any tolerance.
    raw = example_config(name)
    if state == "nu1":
        raw["state"].update(PATHS[0][0])
    raw["time_grid"]["t_min"] = t_min
    config = ScenarioConfig.from_dict(raw)
    engine = _ScenarioEngine(config)
    assert EvolutionPlan(engine.rho, engine.h_int).diagonal == (state == "example")
    ts = config.time_grid.times()
    t_bad = ts[np.random.default_rng(5).integers(len(ts))]
    family = FAMILIES[name]

    def build_heat(params, g, theta):
        closed_form = family.heat(params, g, theta)

        def heat(t):
            q = closed_form(t)
            return np.where(np.asarray(t) == t_bad, q + 1e-6 * engine.a_max, q)

        return heat

    delta_mutual_info = _ScenarioEngine.delta_mutual_info

    def nan_trace(self, ts):
        delta_i, q_trace = delta_mutual_info(self, ts)
        return delta_i, np.where(ts == t_bad, np.nan, q_trace)

    if fault == "heat off":
        monkeypatch.setitem(FAMILIES, name, replace(family, heat=build_heat))
    else:
        monkeypatch.setattr(_ScenarioEngine, "delta_mutual_info", nan_trace)
    with pytest.raises(NumericsError, match=f"t={t_bad:g}:"):
        run_sweep(config)


@pytest.mark.parametrize("block", [7, SWEEP_BLOCK])
@pytest.mark.parametrize("n_points", [2, 400])
@pytest.mark.parametrize("edit, diagonal", PATHS)
@pytest.mark.parametrize("name", ["two_qubit_resonant", "two_qubit_nonresonant"])
def test_delta_mutual_info_path(name, edit, diagonal, n_points, block, monkeypatch):
    # The populations path calls no eigvalsh, on 2 points as on 400; the general
    # one eigensolves the marginals. Both give the reference's bits.
    raw = example_config(name)
    raw["state"].update(edit)
    raw["time_grid"]["n_points"] = n_points
    config = ScenarioConfig.from_dict(raw)
    engine = _ScenarioEngine(config)
    ts = config.time_grid.times()
    assert EvolutionPlan(engine.rho, engine.h_int).diagonal == diagonal
    monkeypatch.setattr("heatctx.scenarios.SWEEP_BLOCK", block)
    calls = count_calls(monkeypatch, [("numpy.linalg", "eigvalsh")])
    delta_i = engine.delta_mutual_info(ts)[0]
    assert (calls["eigvalsh"] == 0) == diagonal
    expect = reference_delta_mutual_info(engine.rho, engine.h_int, ts)
    assert np.array_equal(bits(delta_i), bits(expect))


def test_critical_times_list_each_instant_once():
    # At t = k pi / g the qutrit heat passes through the common zero of both
    # bounds, so both sides cross there at the same instant. Coarser grids
    # report the same nine crossings as 4,000 points.
    raw = example_config("qutrit_partial_swap")
    raw["time_grid"]["n_points"] = 4000
    fine = run_sweep(ScenarioConfig.from_dict(raw)).crossings
    assert len(fine) == 9
    for n_points in (4000, 400, 27, 2):
        raw["time_grid"]["n_points"] = n_points
        result = run_sweep(ScenarioConfig.from_dict(raw))
        assert [c.side for c in result.crossings] == [c.side for c in fine]
        assert [c.time for c in result.crossings] == pytest.approx([c.time for c in fine], rel=1e-9)
        g = result.config.interaction["g"]
        for k in (1, 2):
            at_zero = [c for c in result.crossings if abs(c.time - k * math.pi / g) < 1e-9]
            assert sorted(c.side for c in at_zero) == ["lower", "upper"]
            assert [t for t in result.critical_times if abs(t - k * math.pi / g) < 1e-9] == [
                at_zero[0].time
            ]
        times = result.critical_times
        assert times == sorted(times)
        assert len(times) == len(result.crossings) - 2
        assert all(b - a > 1e-10 * b for a, b in zip(times, times[1:]))


@pytest.mark.parametrize("n_points", [2, 27, 28, 50, 400])
@pytest.mark.parametrize("name", sorted(EXAMPLES) + ["micadei", "qutrit-demo"])
def test_critical_time_prints_the_sweeps_crossings(name, n_points, tmp_path):
    if name in EXAMPLES:
        raw = example_config(name)
        raw["time_grid"]["n_points"] = n_points
        config = ScenarioConfig.from_dict(raw)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        args = ["--config", str(cfg_path)]
    else:
        config = {"micadei": builtin_micadei, "qutrit-demo": builtin_qutrit_demo}[name]()
        config = replace(config, time_grid=replace(config.time_grid, n_points=n_points))
        args = ["--builtin", name, "--n-points", str(n_points)]
    expect = [f"{c.time:.12e}  {c.side}" for c in run_sweep(config).crossings]
    result = CliRunner().invoke(main, ["critical-time", *args])
    assert result.exit_code == 0, result.output
    assert result.output.splitlines() == (expect or ["no crossings on the grid"])


@pytest.mark.parametrize("n_points", [2, 27, 28, 50, 400])
@pytest.mark.parametrize("name", ["micadei", "qutrit-demo"])
def test_builtin_critical_time_does_not_depend_on_the_grid(name, n_points):
    # micadei's pinned tau_c, and the lower time of the qutrit closed form, from
    # every grid: heat - bound is a trigonometric sum, solved for its roots.
    config = {"micadei": builtin_micadei, "qutrit-demo": builtin_qutrit_demo}[name]()
    config = replace(config, time_grid=replace(config.time_grid, n_points=n_points))
    if name == "micadei":
        want = json.loads(REFERENCE.read_text())["critical_times"]["micadei"]
    else:
        params = _ScenarioEngine(config).params
        zeta, xi = qutrit_heat_coefficients(params)
        want = [qutrit_critical_times_analytic(zeta, xi, max(params.omegas), config.interaction["g"])[1]]
    result = run_sweep(config)
    printed = CliRunner().invoke(main, ["critical-time", "--builtin", name, "--n-points", str(n_points)])
    assert printed.exit_code == 0, printed.output
    for times in (result.critical_times, [c.time for c in result.crossings],
                  [float(line.split()[0]) for line in printed.output.splitlines()]):
        assert times == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize(
    "eta_sign,tau_c,side,anomalous,points",
    [(-1, 0.0463123253765, "upper", True, 463), (+1, 0.0260202613421, "lower", False, 260)],
)
def test_qutrit_demo_violates_exactly_on_zero_to_tau_c(eta_sign, tau_c, side, anomalous, points):
    # The builtin has negative etas; flipping their signs flips xi, so the
    # heat leaves the upper bound instead of the lower one. A is the hotter
    # side, so heat > 0 into A is anomalous.
    config = builtin_qutrit_demo()
    etas = {k: eta_sign * config.state[k] for k in ("eta31", "eta62", "eta75")}
    config = replace(config, state={**config.state, **etas})
    result = run_sweep(config)
    assert [c.side for c in result.crossings] == [side]
    assert result.crossings[0].time == pytest.approx(tau_c, rel=1e-10)
    params = _ScenarioEngine(config).params
    zeta, xi = qutrit_heat_coefficients(params)
    g = config.interaction["g"]
    tau_u, tau_l = qutrit_critical_times_analytic(zeta, xi, max(params.omegas), g)
    analytic = tau_u if side == "upper" else tau_l
    assert result.critical_times == [pytest.approx(analytic, rel=1e-9)]

    inside = (result.t > 0) & (result.t < result.critical_times[0])
    assert inside.sum() == points
    assert np.all((result.heat[inside] > 0) == anomalous)
    if side == "upper":
        assert np.all(result.heat[inside] > result.bound_upper[inside])
    else:
        assert np.all(result.heat[inside] < result.bound_lower[inside])
    assert np.all(result.violates[inside])
    assert not result.violates[~inside].any()


# Edits to the shape and JSON types of a config: section None edits a
# top-level field, and key None replaces the whole config with the value.
SHAPE_BAD = [
    (None, None, [1, 2]),
    (None, "output", "x"),
    ("output", "path", 1),
    ("output", "format", 1),
    ("state", "T_A", True),
    ("time_grid", "n_points", 2.5),
]

BAD_CASES = [
    (name, *edit) for name in sorted(FAMILIES) for edit in COMMON_BAD + FAMILY_BAD[name]
] + [(name, *edit) for name in sorted(FAMILIES) for edit in SHAPE_BAD]


MISSING = object()  # an edit that deletes the field


def edited_config(tmp_path, name, section, key, value):
    """The path of the example config of ``name`` with one edit written to a file."""
    raw = example_config(name)
    if key is None:
        raw = value
    else:
        fields = raw if section is None else raw.setdefault(section, {})
        if value is MISSING:
            del fields[key]
        else:
            fields[key] = value
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(raw))
    return cfg_path


@pytest.mark.parametrize("name,section,key,value", BAD_CASES)
def test_invalid_config_exits_2(name, section, key, value, tmp_path):
    cfg_path = edited_config(tmp_path, name, section, key, value)
    runner = CliRunner()
    for args in (["sweep", "--output", str(tmp_path / "o.csv")], ["critical-time"]):
        result = runner.invoke(main, args + ["--config", str(cfg_path)])
        assert result.exit_code == 2, (args, result.output, result.exception)
        assert isinstance(result.exception, SystemExit)
        assert "config error" in result.output


@pytest.mark.parametrize(
    "name,section,key,value,message",
    [
        ("two_qubit_resonant", None, "units", "furlongs", "units must be one of"),
        ("two_qubit_resonant", "output", "format", "xml", "output.format must be one of"),
        ("two_qubit_resonant", "state", "omega", MISSING, "state is missing field 'omega'"),
        ("two_qubit_resonant", "state", "omega", [1.3], "state.omega must be a number, got [1.3]"),
        ("two_qubit_resonant", "state", "nu1", [0.0, 0.0, 0.0], "state.nu1 as a pair must be [re, im]"),
        ("two_qubit_resonant", "state", "nu1", {"re": 0.0}, "state.nu1 must be a number or [re, im]"),
        ("qutrit_partial_swap", "state", "omegas", [0.0, 1.0], "state.omegas must list three level energies"),
    ],
)
def test_an_invalid_config_names_its_mistake(name, section, key, value, message, tmp_path):
    cfg_path = edited_config(tmp_path, name, section, key, value)
    out_path = tmp_path / "o.csv"
    result = CliRunner().invoke(main, ["sweep", "--config", str(cfg_path), "--output", str(out_path)])
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith("config error: ") and message in result.stderr
    assert not out_path.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("etas, status", [("demo", 2), ("zero", 0)])
def test_qutrit_demo_near_zero_temperature_warns_nothing(etas, status, tmp_path):
    # beta_B = 1e308 times the level spacings 1 and 2 overflows a float; B's
    # excited levels get their limit weight 0, with no numpy warning. The demo's
    # coherences then join populated levels to empty ones: not a state, exit 2.
    config = builtin_qutrit_demo()
    state = {**config.state, "T_B": 1e-308}
    if etas == "zero":
        state.update(eta31=0.0, eta62=0.0, eta75=0.0)
    raw = {"scenario": config.scenario, "state": state, "interaction": config.interaction,
           "time_grid": {"t_min": 0.0, "t_max": 3.0, "n_points": 400}}
    cfg_path = tmp_path / "cold.json"
    cfg_path.write_text(json.dumps(raw))
    for args in (["critical-time"], ["sweep", "--output", str(tmp_path / "o.csv")]):
        result = CliRunner().invoke(main, [*args, "--config", str(cfg_path)])
        assert result.exit_code == status, (args, result.output, result.exception)
        if status == 2:
            assert "non-positive matrix" in result.output


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "name, key, value",
    [
        ("two_qubit_resonant", "eta", 1e308),
        ("two_qubit_resonant", "nu1", [1e308, 0.0]),
        ("two_qubit_resonant", "gamma", [0.01, 1e308]),
        ("two_qubit_resonant", "gamma", [1.5e308, 1.5e308]),  # |gamma| itself overflows
        ("two_qubit_nonresonant", "nu2", [0.0, -1e308]),
        ("qutrit_partial_swap", "eta31", 1e308),
    ],
)
def test_a_huge_state_entry_is_not_a_state(name, key, value, tmp_path):
    # Each value is finite, but no entry of a density matrix exceeds 1 in modulus,
    # and validating such a matrix as a state would overflow: exit 2, no warning.
    raw = example_config(name)
    raw["state"][key] = value
    cfg_path = tmp_path / "huge.json"
    cfg_path.write_text(json.dumps(raw))
    for args in (["critical-time"], ["sweep", "--output", str(tmp_path / "o.csv")], ["clausius", "--t", "0.5"]):
        result = CliRunner().invoke(main, [*args, "--config", str(cfg_path)])
        assert result.exit_code == 2, (args, result.output, result.exception)
        assert "non-positive matrix: an entry has a real or imaginary part" in result.output


@pytest.mark.filterwarnings("error")
def test_a_phase_xi_minus_theta_that_overflows_is_a_config_error(tmp_path):
    # xi and theta are each finite; their difference, the phase of the qubit heat,
    # overflows, or rounds off more than CROSS_CHECK_TOL radians: xi - theta is
    # -1e308 at xi = 0.2, theta = 1e308, and loses 7.6e-7 rad at theta = 1e10.
    # theta = 1e6 loses 4.7e-11 rad and runs.
    for xi, theta, error in (
        (1e308, -1e308, "state.xi (1e+308) - interaction.theta (-1e+308) overflows"),
        (0.2, 1e308, "state.xi (0.2) - interaction.theta (1e+308) rounds off 0.2 rad, more than"),
        (0.2, 1e10, "state.xi (0.2) - interaction.theta (1e+10) rounds off 7.62939e-07 rad"),
        (0.2, 1e6, None),
    ):
        raw = example_config("two_qubit_resonant")
        raw["state"]["xi"], raw["interaction"]["theta"] = xi, theta
        cfg_path = tmp_path / "phase.json"
        cfg_path.write_text(json.dumps(raw))
        for args in (["critical-time"], ["sweep", "--output", str(tmp_path / "o.csv")]):
            result = CliRunner().invoke(main, [*args, "--config", str(cfg_path)])
            assert result.exit_code == (0 if error is None else 2), (args, result.output)
            assert error is None or f"config error: {error}" in result.output, result.output
        # clausius evaluates no closed-form heat, so it never forms the phase.
        result = CliRunner().invoke(main, ["clausius", "--t", "0.5", "--config", str(cfg_path)])
        assert result.exit_code == 0, (result.output, result.exception)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t_min, t_max", [(0.0, 1e8), (0.0, 1e12), (1e300, 2e300)])
def test_a_grid_beyond_double_precision_is_a_config_error(t_min, t_max, tmp_path):
    # Where one ulp of the phase 2 rate t of H_I exceeds CROSS_CHECK_TOL, the closed
    # form and the evolution are each rounding noise, and crossings found there would
    # be roots of it: the grid is at fault, not the program. sweep and critical-time
    # apply one rule, scenarios.check_time, at t_max: exit 2, naming time_grid.t_max.
    raw = example_config("two_qubit_resonant")
    raw["time_grid"] = {"t_min": t_min, "t_max": t_max, "n_points": 50}
    cfg_path = tmp_path / "bigt.json"
    cfg_path.write_text(json.dumps(raw))
    out_path = tmp_path / "o.csv"
    refusal = (
        f"config error: time_grid.t_max = {t_max:g} is too large: "
        f"at t={t_max:g} one ulp of the phase under H_I is "
    )
    for args in (["sweep", "--output", str(out_path)], ["critical-time"]):
        result = CliRunner().invoke(main, [*args, "--config", str(cfg_path)])
        assert result.exit_code == 2, result.output
        assert result.stderr.startswith(refusal), result.stderr
    assert not out_path.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale, code", [(0.999, 0), (1.001, 2)])
@pytest.mark.parametrize("source", ["micadei", "qutrit-demo", "two_qubit_resonant"])
def test_sweep_and_critical_time_refuse_t_max_where_one_ulp_of_the_phase_passes_the_tolerance(
    source, scale, code, tmp_path
):
    # One ulp of the phase 2 rate t_max first exceeds CROSS_CHECK_TOL = 1e-9 rad at
    # 2 rate t_max = 2^23, where it becomes 2^-29. Both commands read their grid
    # through one rule, so they give one verdict on it, and a refused sweep writes
    # no file.
    if source in BUILTINS:
        config, args = BUILTINS[source](), ["--builtin", source]
    else:
        cfg_path = tmp_path / "example.json"
        cfg_path.write_text(json.dumps(example_config(source)))
        config, args = ScenarioConfig.from_dict(example_config(source)), ["--config", str(cfg_path)]
    t_max = scale * 2.0**23 / (2 * _ScenarioEngine(config).rate)
    args += ["--t-max", repr(t_max), "--n-points", "50"]
    out_path = tmp_path / "o.csv"
    sweep = CliRunner().invoke(main, ["sweep", *args, "--output", str(out_path)])
    critical = CliRunner().invoke(main, ["critical-time", *args])
    assert sweep.exit_code == critical.exit_code == code, (sweep.output, critical.output)
    assert out_path.exists() == (code == 0)
    if code:
        first = sweep.stderr.splitlines()[0]
        assert first == critical.stderr.splitlines()[0], (first, critical.stderr)
        assert first.startswith(
            f"config error: time_grid.t_max = {t_max:g} is too large: at t={t_max:g} one ulp of the phase"
        ), first


@pytest.mark.parametrize("scale, code", [(0.999, 0), (1.001, 2), (-0.999, 0), (-1.001, 2)])
@pytest.mark.parametrize(
    "command",
    [
        ["clausius", "--builtin", "qutrit-demo"],
        ["clausius", "--builtin", "micadei"],
        ["verify-decomposition", "--interaction", "partial-swap", "--local-dim", "3", "--minimal"],
        ["verify-decomposition", "--interaction", "resonant-detuning", "--a", "0.3"],
        ["choi", "--interaction", "resonant-exchange", "--theta", "0.3"],
    ],
    ids=lambda command: "-".join(command[:3]),
)
def test_single_time_commands_refuse_t_where_one_ulp_of_the_phase_passes_the_tolerance(
    command, scale, code
):
    # The grid's rule for t_max holds at --t: with the rate bound of H_I (clausius)
    # or of the generator (the decomposition commands), one ulp of the phase
    # 2 rate t first exceeds CROSS_CHECK_TOL = 1e-9 rad at 2 rate |t| = 2^23. A
    # negative t is refused by its magnitude.
    if command[0] == "clausius":
        rate = _ScenarioEngine(BUILTINS[command[2]]()).rate
    else:
        options = dict(zip(command[1::2], command[2::2]))
        h = FACTORS[options["--interaction"]].generator(
            1.0, float(options.get("--a", 0.0)), float(options.get("--theta", 0.0)),
            int(options.get("--local-dim", 2)),
        )
        rate = rate_bound(h)
    t = scale * 2.0**23 / (2 * rate)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = CliRunner().invoke(main, [*command, "--t", repr(t)])
    assert caught == []
    assert result.exit_code == code, result.output
    if code:
        if t > 0:
            want = f"config error: --t = {t:g} is too large: at t={t:g}"
        else:
            want = f"config error: --t = {t:g} is too large in magnitude: at |t|={abs(t):g}"
        assert result.stderr.startswith(f"{want} one ulp of the phase"), result.stderr


def test_a_closed_form_off_the_trace_formula_is_a_numerics_error(tmp_path, monkeypatch):
    # On t <= 6 the phases keep their digits, so a closed form 1e-6 relative off the
    # trace formula is a fault of the program: exit 3.
    heat = _ScenarioEngine.heat
    monkeypatch.setattr(_ScenarioEngine, "heat", lambda self, t: heat(self, t) * (1 + 1e-6))
    cfg_path = tmp_path / "a037.json"
    cfg_path.write_text(json.dumps(example_config("two_qubit_resonant")))
    result = CliRunner().invoke(main, ["sweep", "--config", str(cfg_path), "--output", str(tmp_path / "o.csv")])
    assert result.exit_code == 3, result.output
    assert result.stderr.startswith("numerics error: closed-form heat deviates from trace formula at t=")


@pytest.mark.parametrize("value", [True, False, [True, 0.0], [0.0, False]])
@pytest.mark.parametrize("key", ["nu1", "nu2", "gamma"])
def test_json_booleans_are_not_complex_fields(key, value):
    # false would load as 0j, a valid state, so the parser itself must refuse it.
    state = {**EXAMPLES["two_qubit_resonant"]["state"], key: value}
    with pytest.raises(ConfigError, match=f"state.{key} must be a number"):
        FAMILIES["two_qubit_resonant"].parse(state)


def test_integral_n_points_may_be_written_as_a_float():
    raw = example_config("qutrit_partial_swap")
    raw["time_grid"]["n_points"] = 1e5
    grid = ScenarioConfig.from_dict(json.loads(json.dumps(raw))).time_grid
    assert grid.n_points == 100_000 and type(grid.n_points) is int
