"""Crossings from the spectral form of heat - bound, against dense scans of the grid.

``find_critical_times`` takes the spectral path with the (w0, K) that
``spectral_plan`` gives for commensurate frequencies within its budget;
without it, it scans heat and bounds on the grid, which is the reference here.
"""

import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner

from heatctx import (
    HeatctxError,
    NumericsError,
    ScenarioConfig,
    builtin_micadei,
    builtin_qutrit_demo,
    format_csv,
    run_sweep,
)
from heatctx.cli import main
from heatctx.contextuality import find_critical_times, spectral_plan
from heatctx.scenarios import FACTORS, _ScenarioEngine
from test_families import example_config

FAMILY_NAMES = ["two_qubit_resonant", "two_qubit_nonresonant", "qutrit_partial_swap"]
# Values of a that make the resonant family's frequencies commensurate.
COMMENSURATE_A = [0.0, 0.5, 1.0, 2.0, -1.0, 1 / 3, 3.0]
DENSE = 200_000


def engine_of(raw) -> _ScenarioEngine:
    return _ScenarioEngine(ScenarioConfig.from_dict(raw))


def side_function(engine, side):
    """f_upper = heat - upper or f_lower = lower - heat at scalar t."""
    i, sign = (0, 1) if side == "upper" else (1, -1)
    return lambda t: sign * (float(engine.heat(t)) - float(engine.bounds(t)[i]))


def draw_config(rng, family) -> dict:
    """A config drawn over the family's parameter space: state, coupling and grid."""
    g = rng.uniform(0.2, 3.0)
    if family == "qutrit_partial_swap":
        state = {
            "omegas": [0.0, *sorted(rng.uniform(0.1, 2.0, 2))],
            "T_A": rng.uniform(0.3, 4.0),
            "T_B": rng.uniform(0.3, 4.0),
            **{k: rng.uniform(-0.05, 0.05) for k in ("eta31", "eta62", "eta75")},
            **{k: rng.uniform(0.0, 2 * math.pi) for k in ("theta31", "theta62", "theta75")},
        }
        interaction = {"g": g}
    else:
        state = {
            "omega": rng.uniform(0.2, 3.0),
            "T_A": rng.uniform(0.3, 4.0),
            "T_B": rng.uniform(0.3, 4.0),
            "eta": rng.uniform(-0.2, 0.2),
            "xi": rng.uniform(0.0, 2 * math.pi),
        }
        interaction = {"g": g}
        if family == "two_qubit_resonant":
            a = COMMENSURATE_A[rng.integers(len(COMMENSURATE_A))] if rng.random() < 0.6 else rng.uniform(-2, 3)
            interaction.update(a=float(a), theta=rng.uniform(0.0, 2 * math.pi))
    t_max = math.exp(rng.uniform(math.log(0.3), math.log(200.0))) / g
    t_min = 0.0 if rng.random() < 0.75 else rng.uniform(0.0, 0.5) * t_max
    n_points = int(rng.choice([2, 27, 50, 400]))
    grid = {"t_min": t_min, "t_max": t_max, "n_points": n_points}
    return dict(scenario=family, units="natural", state=state, interaction=interaction, time_grid=grid)


def test_seeded_configs_report_every_crossing_of_a_dense_scan():
    # 80 configs per family, each drawn until it validates. A crossing the dense
    # scan finds must be reported within one of its steps on the spectral path.
    # The fallback scans the config's own grid and may miss crossings there (21
    # of its 30 configs here, most of them the first crossing after t = 0); those
    # configs stay in the sample. Every reported crossing changes sign strictly
    # across it.
    rng = np.random.default_rng(19)
    paths = {True: 0, False: 0}
    for k in range(240):
        family = FAMILY_NAMES[k % 3]
        while True:
            try:
                raw = draw_config(rng, family)
                engine = engine_of(raw)
                break
            except HeatctxError:
                continue
        grid = engine.config.time_grid
        ts = grid.times()
        got = engine.crossings(ts)
        spectral = spectral_plan(engine.frequencies(), ts) is not None
        paths[spectral] += 1
        fine = np.linspace(grid.t_min, grid.t_max, DENSE)
        step = fine[1] - fine[0]
        dense = find_critical_times(fine, engine.heat, engine.bounds)
        missed = [
            c for c in dense if not any(r.side == c.side and abs(r.time - c.time) <= step for r in got)
        ]
        if spectral:
            assert missed == [], (raw, missed, got)
        for c in got:
            f = side_function(engine, c.side)
            delta = 1e-9 * c.time
            assert grid.t_min <= c.time <= grid.t_max
            assert f(c.time - delta) * f(c.time + delta) < 0, (raw, c)
    # Both paths are sampled: every family has spectral configs, and resonant
    # qubits with an irrational-looking a or too many periods take the scan.
    assert paths[True] >= 150 and paths[False] >= 30, paths


@pytest.mark.parametrize("n_points", [2, 27, 400])
def test_fallback_configs_scan_their_own_grid(n_points):
    # a = 0.37 needs harmonic 263 of w0 = g / 100: its companion matrices alone
    # would cost more than the budget's scan.
    raw = example_config("two_qubit_resonant")
    raw["time_grid"]["n_points"] = n_points
    engine = engine_of(raw)
    ts = engine.config.time_grid.times()
    assert spectral_plan(engine.frequencies(), ts) is None
    scanned = find_critical_times(ts, engine.heat, engine.bounds)
    assert engine.crossings(ts) == scanned


def test_too_many_periods_take_the_scan():
    # qutrit-demo has K = 1: 200 grid points per candidate, 4 candidates per
    # period and two more periods at most, so 100,000 points pay for 123 periods.
    engine = _ScenarioEngine(builtin_qutrit_demo())
    period = math.pi  # w0 = 2
    assert spectral_plan(engine.frequencies(), np.array([0.0, 1.0])) == (2.0, 1)
    assert spectral_plan(engine.frequencies(), np.array([0.0, 122.9 * period])) == (2.0, 1)
    assert spectral_plan(engine.frequencies(), np.array([0.0, 123.1 * period])) is None
    # A grid of more points buys more periods: the search never costs more than its scan.
    assert spectral_plan(engine.frequencies(), np.linspace(0.0, 123.1 * period, 200_000)) == (2.0, 1)
    assert spectral_plan(engine.frequencies(), np.array([50.0 * period, 172.9 * period])) == (2.0, 1)
    assert spectral_plan(engine.frequencies(), np.array([0.0, 1e300])) is None


@pytest.mark.parametrize(
    "frequencies,expect",
    [
        ([0.0, 1.0, 2.0, 3.0], (1.0, 3)),
        ([0.5, 1.5, 2.0, 2.5], (0.5, 5)),
        ([0.0, 2.0 * (1 + 1e-15)], (2.0 * (1 + 1e-15), 1)),
        ([1.0, math.pi], None),
        # Companion matrices of size 45 (55,000 points) and 92 candidates over
        # 2.16 periods (40,000) fit the budget; size 47 and 96 candidates do not.
        ([1.0, 23.0], (1.0, 23)),
        ([1.0, 24.0], None),
        ([0.0], None),
    ],
)
def test_spectral_plan(frequencies, expect):
    assert spectral_plan(frequencies, np.array([0.0, 1.0])) == expect


def test_a_larger_grid_buys_a_higher_degree():
    assert spectral_plan([1.0, 24.0], np.linspace(0.0, 1.0, 110_000)) == (1.0, 24)
    assert spectral_plan([1.0, 60.0], np.linspace(0.0, 1.0, 110_000)) is None


def test_micadei_frequencies():
    # Bohr frequencies of H_I {g, 2g}, the gaps 2g and g, and their sum 3g.
    engine = _ScenarioEngine(builtin_micadei())
    g = engine.g
    assert engine.frequencies() == pytest.approx([0.0, g, 2 * g, 3 * g], rel=1e-12, abs=1e-9 * g)
    assert spectral_plan(engine.frequencies(), np.array([0.0, 5e-3])) == (pytest.approx(g, rel=1e-12), 3)


@pytest.mark.parametrize("name", sorted(FACTORS))
def test_each_factor_gap_is_its_generators(name):
    # frequencies() reads each factor's gap from its half_gap, which p_d uses too.
    rng = np.random.default_rng(11)
    for local_dim in (2, 3) if name == "partial-swap" else (2,):
        for g, a, theta in zip(rng.uniform(0.1, 5.0, 10), [1.0, *rng.uniform(-2.0, 3.0, 9)], rng.uniform(0, 6.3, 10)):
            w = np.linalg.eigvalsh(FACTORS[name].generator(g, a, theta, local_dim).matrix)
            assert 2 * abs(FACTORS[name].half_gap(g, a)) == pytest.approx(w[-1] - w[0], rel=1e-12, abs=1e-12 * g)


def test_a_missing_frequency_raises():
    # sin^2(t) has frequencies 0 and 2; declaring only 0 and 1 leaves the
    # model short of a harmonic, which the check at the extra points sees.
    heat = lambda t: 0.3 * np.sin(np.asarray(t, dtype=float)) ** 2
    bounds = lambda t: (0.0 * np.asarray(t, dtype=float) + 0.1 * np.sin(np.asarray(t, dtype=float)) ** 2,) * 2
    ts = np.linspace(0.0, 5.0, 50)
    with pytest.raises(NumericsError, match="not a sum of harmonics"):
        find_critical_times(ts, heat, bounds, [0.0, 1.0])
    assert find_critical_times(ts, heat, bounds, [0.0, 2.0]) == []


def test_a_touch_is_no_crossing_on_any_grid():
    # With no coherence the qutrit heat is zeta sin^2(g t): it touches the bounds'
    # common zeros at k pi / g without crossing them.
    raw = example_config("qutrit_partial_swap")
    raw["state"].update(eta31=0.0, eta62=0.0, eta75=0.0)
    for n_points in (2, 400, 4000):
        raw["time_grid"]["n_points"] = n_points
        engine = engine_of(raw)
        assert engine.crossings(engine.config.time_grid.times()) == []


def test_heat_minus_bound_must_vanish_at_zero():
    # The root at t = 0 is divided out of the polynomial, so a curve that does
    # not vanish there is refused rather than solved wrongly.
    heat = lambda t: 0.1 + 0.3 * np.sin(np.asarray(t, dtype=float))
    bounds = lambda t: (0.0 * np.asarray(t, dtype=float),) * 2
    ts = np.linspace(0.0, 5.0, 50)
    with pytest.raises(NumericsError, match="does not vanish at t = 0"):
        find_critical_times(ts, heat, bounds, [0.0, 1.0])
    assert find_critical_times(ts, heat, bounds) != []


@pytest.mark.parametrize("offset", [1e-10, 1e-12])
def test_a_nearly_commensurate_set_takes_the_scan(offset):
    # a = 1/2 + 1e-10 is commensurate only to 1e-10: its model would drift out of
    # the closed form over the periods of the grid, so the scan takes it.
    raw = example_config("two_qubit_resonant")
    raw["interaction"]["a"] = 0.5 + offset
    raw["time_grid"].update(t_max=20 * 2 * math.pi / (0.5 * raw["interaction"]["g"]), n_points=50)
    engine = engine_of(raw)
    ts = engine.config.time_grid.times()
    assert spectral_plan(engine.frequencies(), ts) is None
    assert engine.crossings(ts) == find_critical_times(ts, engine.heat, engine.bounds)
    raw["interaction"]["a"] = 0.5
    assert spectral_plan(engine_of(raw).frequencies(), ts) == (pytest.approx(0.35), 5)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_a_subnormal_coupling_takes_the_scan(family, tmp_path):
    # g = 5e-324 gives w0 ~ 1e-323, whose period 2 pi / w0 overflows a float:
    # no spectral plan, and the scan finds no crossing, with no warning.
    raw = example_config(family)
    raw["interaction"]["g"] = 5e-324
    engine = engine_of(raw)
    ts = engine.config.time_grid.times()
    assert spectral_plan(engine.frequencies(), ts) is None
    assert engine.crossings(ts) == []
    cfg_path = tmp_path / "subnormal.json"
    cfg_path.write_text(json.dumps(raw))
    result = CliRunner().invoke(main, ["critical-time", "--config", str(cfg_path)])
    assert (result.exit_code, result.output) == (0, "no crossings on the grid\n"), result.exception
    result = CliRunner().invoke(main, ["sweep", "--config", str(cfg_path), "--output", str(tmp_path / "o.csv")])
    assert result.exit_code == 0, (result.output, result.exception)
    assert "critical times: none" in result.output


# The float.hex of every crossing, recorded from the code before the closed forms
# were built once per engine: (config, grid field, value) -> [(time, side)]. A
# regrouped closed form moves a crossing by an ulp, which 1e-9 relative misses.
CROSSING_BITS = {
    ('micadei', 'n_points', 2): [('0x1.845f9099e4617p-13', 'upper')],
    ('micadei', 'n_points', 27): [('0x1.845f9099e4617p-13', 'upper')],
    ('micadei', 'n_points', 400): [('0x1.845f9099c7972p-13', 'upper')],
    ('micadei', 'n_points', None): [('0x1.845f909a03458p-13', 'upper')],
    ('qutrit-demo', 'n_points', 2): [('0x1.aa50e2dfdae1dp-6', 'lower')],
    ('qutrit-demo', 'n_points', 27): [('0x1.aa50e2dfdae1dp-6', 'lower')],
    ('qutrit-demo', 'n_points', 400): [('0x1.aa50e2dffffffp-6', 'lower')],
    ('qutrit-demo', 'n_points', None): [('0x1.aa50e2e001e94p-6', 'lower')],
    ('qutrit-demo', 't_max', 0.5): [('0x1.aa50e2dfaa86fp-6', 'lower')],
    ('qutrit-demo', 't_max', 7.0): [('0x1.aa50e2dfd6382p-6', 'lower'), ('0x1.8c3225529d2c0p+1', 'upper'), ('0x1.921fb54469fccp+1', 'upper'), ('0x1.921fb54469fccp+1', 'lower'), ('0x1.95745709fe2c8p+1', 'lower'), ('0x1.8f28ed4b83946p+2', 'upper'), ('0x1.921fb54469fccp+2', 'upper'), ('0x1.921fb54469fccp+2', 'lower'), ('0x1.93ca06273414ap+2', 'lower')],
    ('qutrit_partial_swap', 'n_points', 400): [('0x1.d40ebe11345f7p-8', 'lower'), ('0x1.33af1ee5c6415p+1', 'upper'), ('0x1.355377be50d78p+1', 'upper'), ('0x1.355377be50d78p+1', 'lower'), ('0x1.363d7f1d980f7p+1', 'lower'), ('0x1.34814b520b8c7p+2', 'upper'), ('0x1.355377be50d78p+2', 'upper'), ('0x1.355377be5ac88p+2', 'lower'), ('0x1.35c87b6ddf15ap+2', 'lower')],
    ('two_qubit_nonresonant', 'n_points', 400): [],
    ('two_qubit_resonant', 'n_points', 400): [('0x1.1f8cf05bab4edp-4', 'upper')],
}

# The sha256 of each of those sweeps' CSV: every column keeps its bits too, and a
# regrouped product that moves no crossing still moves a heat or bound value.
CSV_SHA256 = {
    ('micadei', 'n_points', 2): 'e8dfd03382b96d945857d07a3050bf799f0d16db5728426c9bcee7d6de3494df',
    ('micadei', 'n_points', 27): '0113528fda3e03fe1afad570f191dd2a86c5ab0b3fca8cfb0cbd73ae1b49c4ca',
    ('micadei', 'n_points', 400): '6f0b173daa2489d684e633c4ce2a40ff9a2e4bd0a1a3f93eb1bbac9e78ae50bf',
    ('micadei', 'n_points', None): 'c3e007be6dbe5b74384c0fd9b0f199965a748010bc6c2d357ef272bbb1d640d0',
    ('qutrit-demo', 'n_points', 2): '483c7baffb7f9cb98dfb2cb69059221392b4212335cda0ea97b8c49be9fade81',
    ('qutrit-demo', 'n_points', 27): '07fdd3e3a93c231bdd9a50438cfd4d3cc36b650872354da5dc99eef72ca969d7',
    ('qutrit-demo', 'n_points', 400): 'd95240c7efca78a3bb9372dafd2ea45e7730c0dfa6b9e0ec65ad4ade4f28dbe9',
    ('qutrit-demo', 'n_points', None): '9112d76efb10f342d9cbe4a8585fe2aa743b8806aa5f9cfaf4ef51cefa2baf70',
    ('qutrit-demo', 't_max', 0.5): '3ac6e5ffd682ddd21fc77c47272dce0beeccf426fba7d010622681edeba54d0c',
    ('qutrit-demo', 't_max', 7.0): '14bd1ab87e882a35a7ca9985a2618bbb677a55102332f06f0e934c2658759b32',
    ('qutrit_partial_swap', 'n_points', 400): 'b2f1d9f0bb94fdc16ac52474c9e58273620b8bb0159a2b02308101fbe6c08013',
    ('two_qubit_nonresonant', 'n_points', 400): '96d988d26299119b51a4696d2ba57d47530df7b22eb4d165cf01fb60c8582023',
    ('two_qubit_resonant', 'n_points', 400): '168a2aa41f97dc35a4a1932f8dcfa949de61b15c35a0528060f0ee382d091c64',
}


def pinned_config(name, field, value) -> ScenarioConfig:
    builtins = {"micadei": builtin_micadei, "qutrit-demo": builtin_qutrit_demo}
    if name not in builtins:
        return ScenarioConfig.from_dict(example_config(name))
    config = builtins[name]()
    if value is None:
        return config
    return replace(config, time_grid=replace(config.time_grid, **{field: value}))


@pytest.mark.parametrize("name, field, value", list(CROSSING_BITS))
def test_crossings_and_columns_keep_their_bits(name, field, value):
    config = pinned_config(name, field, value)
    want = CROSSING_BITS[name, field, value]
    result = run_sweep(config)
    for crossings in (_ScenarioEngine(config).crossings(config.time_grid.times()), result.crossings):
        assert [(c.time.hex(), c.side) for c in crossings] == want
    assert hashlib.sha256(format_csv(result).encode()).hexdigest() == CSV_SHA256[name, field, value]
