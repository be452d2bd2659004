"""Per-family checks, parametrized over the interaction-family table.

A family added to ``FAMILIES`` needs an entry in ``EXAMPLES`` below; every
test here then covers it.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner

from heatctx import (
    NumericsError,
    ScenarioConfig,
    clausius_report,
    format_csv,
    format_json,
    heat_trace,
    nc_bound_theorem1,
    nc_bound_theorem2,
    run_sweep,
)
from heatctx.cli import main
from heatctx.scenarios import FACTORS, FAMILIES, _ScenarioEngine
from conftest import reference_csv, reference_delta_mutual_info, reference_json

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
]
QUBIT_BAD = [
    ("state", "omega", -1.0),
    ("state", "omega", 0.0),
    ("state", "omega", math.inf),
    ("state", "eta", math.nan),
    ("state", "nu1", [0.0, math.nan]),
]
FAMILY_BAD = {
    "two_qubit_resonant": QUBIT_BAD + [("interaction", "a", math.nan)],
    "two_qubit_nonresonant": QUBIT_BAD,
    "qutrit_partial_swap": [
        ("state", "omegas", [0.0, math.nan, 1.0]),
        ("state", "omegas", [-1.0, 0.5, 1.0]),
        ("state", "omegas", [0.0, 0.0, 0.0]),
        ("state", "eta31", math.nan),
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


def seeded_times(t_max, n=20):
    return np.sort(np.random.default_rng(20).uniform(0.0, t_max, n))


def test_every_family_has_an_example():
    assert set(EXAMPLES) == set(FAMILIES) == set(FAMILY_BAD)


@pytest.mark.parametrize("name", sorted(FAMILIES))
class TestFamily:
    def test_closed_form_heat_matches_trace(self, name):
        engine = _ScenarioEngine(ScenarioConfig.from_dict(example_config(name)))
        ts = seeded_times(6.0)
        heat = np.asarray(engine.heat(ts))
        for t, q in zip(ts, heat):
            assert abs(q - engine.heat_trace_at(float(t))) <= 1e-10 * engine.a_max

    def test_trace_kernel_matches_heat_trace(self, name):
        engine = _ScenarioEngine(ScenarioConfig.from_dict(example_config(name)))
        ts = seeded_times(6.0)
        batched = engine.heat_trace_at(ts)
        for t, q in zip(ts, batched):
            ref = heat_trace(engine.rho, engine.h_int, engine.h_local, float(t))
            assert abs(q - ref) <= 1e-12 * engine.a_max
            assert abs(engine.heat_trace_at(float(t)) - q) <= 1e-15 * engine.a_max
        assert type(engine.heat_trace_at(float(ts[0]))) is float

    def test_oracle_covers_every_grid_point(self, name, monkeypatch):
        # One grid point off by 1e-6 a_max: a 1 % sample would miss it 99 times in 100.
        config = ScenarioConfig.from_dict(example_config(name))
        ts = config.time_grid.times()
        t_bad = ts[np.random.default_rng(5).integers(len(ts))]
        family = FAMILIES[name]
        a_max = _ScenarioEngine(config).a_max

        def heat(params, g, theta, t):
            q = family.heat(params, g, theta, t)
            return np.where(np.asarray(t) == t_bad, q + 1e-6 * a_max, q)

        monkeypatch.setitem(FAMILIES, name, replace(family, heat=heat))
        with pytest.raises(NumericsError, match=f"t={t_bad:g}:"):
            run_sweep(config)

    @pytest.mark.parametrize("t_min", [0.0, 0.7])
    def test_delta_mutual_info_matches_the_reference(self, name, t_min):
        raw = example_config(name)
        raw["time_grid"]["t_min"] = t_min
        config = ScenarioConfig.from_dict(raw)
        engine = _ScenarioEngine(config)
        ts = config.time_grid.times()
        if t_min == 0:
            expect = reference_delta_mutual_info(engine.rho, engine.h_int, ts)
        else:
            expect = reference_delta_mutual_info(engine.rho, engine.h_int, np.r_[0.0, ts])[1:]
        assert np.array_equal(run_sweep(config).delta_mutual_info, expect)

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

    @pytest.mark.parametrize("t_min", [0.0, 0.7])
    def test_emission_matches_the_reference(self, name, t_min):
        raw = example_config(name)
        raw["time_grid"] = {"t_min": t_min, "t_max": 6.0, "n_points": 301}
        result = run_sweep(ScenarioConfig.from_dict(raw))
        assert format_csv(result) == reference_csv(result.records)
        assert format_json(result) == reference_json(result)

    def test_bounds_follow_the_theorems(self, name):
        engine = _ScenarioEngine(ScenarioConfig.from_dict(example_config(name)))
        ts = seeded_times(6.0)
        upper, lower = engine.bounds(ts)
        p_d = [FACTORS[k].p_d(engine.g * ts, engine.a) for k in FAMILIES[name].factors]
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


def test_critical_times_list_each_instant_once():
    # At t = k pi / g the qutrit heat passes through the common zero of both
    # bounds, so both sides cross there at the same instant.
    raw = example_config("qutrit_partial_swap")
    raw["time_grid"]["n_points"] = 4000
    result = run_sweep(ScenarioConfig.from_dict(raw))
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


BAD_CASES = [
    (name, *edit) for name in sorted(FAMILIES) for edit in COMMON_BAD + FAMILY_BAD[name]
]


@pytest.mark.parametrize("name,section,key,value", BAD_CASES)
def test_invalid_config_exits_2(name, section, key, value, tmp_path):
    raw = example_config(name)
    raw[section][key] = value
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(raw))
    runner = CliRunner()
    for args in (["sweep", "--output", str(tmp_path / "o.csv")], ["critical-time"]):
        result = runner.invoke(main, args + ["--config", str(cfg_path)])
        assert result.exit_code == 2, (args, result.output, result.exception)
        assert isinstance(result.exception, SystemExit)
        assert "config error" in result.output
