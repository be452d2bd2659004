import json
import math
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner

from heatctx import (
    ConfigError,
    ScenarioConfig,
    SweepRecord,
    TimeGrid,
    builtin_micadei,
    builtin_qutrit_demo,
    format_csv,
    format_json,
    from_natural_units,
    kron,
    run_sweep,
    to_natural_units,
    two_qubit_thermal,
    qutrit_heat_coefficients,
    qutrit_critical_times_analytic,
)
from heatctx.cli import main
from conftest import reference_csv, reference_json, result_from_records
from heatctx.scenarios import (
    CSV_HEADER,
    FACTORS,
    _ScenarioEngine,
    _two_qubit_params,
    _qutrit_params,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]])


def small_config(**overrides):
    base = dict(
        scenario="two_qubit_resonant",
        units="natural",
        state={"omega": 1.0, "T_A": 2.0, "T_B": 1.0, "eta": -0.1, "xi": 0.0},
        interaction={"g": 1.0, "a": 0.0, "theta": math.pi / 2},
        time_grid={"t_min": 0.0, "t_max": 6.0, "n_points": 3000},
    )
    base.update(overrides)
    return ScenarioConfig.from_dict(base)


class TestConfig:
    def test_config_with_a_seed_still_loads(self):
        # Older configs carry "seed"; with no sampled oracle it has no meaning and is ignored.
        with_seed = small_config(seed=4)
        assert with_seed == small_config()
        assert "seed" not in with_seed.to_dict()

    def test_time_grid_validation(self):
        with pytest.raises(ConfigError):
            TimeGrid(t_min=-1.0, t_max=1.0, n_points=10)
        with pytest.raises(ConfigError):
            TimeGrid(t_min=0.0, t_max=0.0, n_points=10)
        with pytest.raises(ConfigError):
            TimeGrid(t_min=0.0, t_max=1.0, n_points=1)

    def test_missing_fields_reported(self):
        with pytest.raises(ConfigError, match="time_grid"):
            ScenarioConfig.from_dict({"scenario": "two_qubit_resonant"})
        with pytest.raises(ConfigError, match="state"):
            ScenarioConfig.from_dict(
                {
                    "scenario": "two_qubit_resonant",
                    "interaction": {"g": 1.0},
                    "time_grid": {"t_min": 0, "t_max": 1, "n_points": 10},
                }
            )

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigError, match="scenario"):
            small_config(scenario="three_qubit")

    def test_round_trips_through_dict(self):
        config = small_config()
        again = ScenarioConfig.from_dict(config.to_dict())
        assert again == config


class TestBuiltins:
    def test_micadei_interaction_hamiltonian(self):
        config = builtin_micadei()
        engine = _ScenarioEngine(config)
        j = 215.1
        expect = (math.pi * j / 2) * (kron(SX, SY) - kron(SY, SX))
        assert np.max(np.abs(engine.h_int.matrix - expect)) < 1e-10

    def test_micadei_state_valid_with_fitted_temperatures(self):
        config = builtin_micadei()
        params = _two_qubit_params(config.state)
        rho = two_qubit_thermal(params)
        omega = params.omega
        for keep, t_expect in ((0, 4.3e-12), (1, 3.66e-12)):
            pops = np.diag(rho.marginal(keep).matrix).real
            beta_fit = -math.log(pops[1] / pops[0]) / omega
            assert 1 / beta_fit == pytest.approx(t_expect, rel=1e-9)

    def test_qutrit_demo_state_valid(self):
        from heatctx import two_qutrit_thermal

        config = builtin_qutrit_demo()
        params = _qutrit_params(config.state)
        rho = two_qutrit_thermal(params)
        assert abs(np.trace(rho.matrix).real - 1) < 1e-12


class TestRunSweep:
    def test_violations_strictly_outside_bounds(self):
        result = run_sweep(small_config())
        assert any(r.violates for r in result.records)
        for r in result.records:
            if r.violates:
                assert r.heat > r.bound_upper or r.heat < r.bound_lower

    def test_deterministic_csv(self):
        config = small_config()
        a = format_csv(run_sweep(config))
        b = format_csv(run_sweep(config))
        assert a == b

    def test_no_coherence_no_violation(self):
        config = small_config(
            state={"omega": 1.0, "T_A": 2.0, "T_B": 1.0, "eta": 0.0, "xi": 0.0}
        )
        result = run_sweep(config)
        assert not any(r.violates for r in result.records)
        assert result.critical_times == []

    def test_qutrit_crossings_match_analytic(self):
        config = builtin_qutrit_demo()
        from dataclasses import replace
        from heatctx.scenarios import TimeGrid as TG

        g = config.interaction["g"]
        config = replace(
            config, time_grid=TG(0.0, 0.99 * math.pi / g, 20000)
        )
        result = run_sweep(config)
        params = _qutrit_params(config.state)
        zeta, xi = qutrit_heat_coefficients(params)
        tau_u, tau_l = qutrit_critical_times_analytic(zeta, xi, max(params.omegas), g)
        by_side = {c.side: c.time for c in result.crossings}
        expect = tau_u if xi > 0 else tau_l
        side = "upper" if xi > 0 else "lower"
        assert by_side[side] == pytest.approx(expect, rel=1e-8)

    def test_delta_mutual_info_starts_at_zero(self):
        result = run_sweep(small_config())
        assert result.records[0].delta_mutual_info == 0.0

    @pytest.mark.parametrize("t_min", [0.05, 2.0])
    def test_crossings_stay_on_the_emitted_grid(self, t_min, tmp_path):
        # From t = 0 the small config crosses its upper bound once, at t = 0.0643.
        config = small_config(time_grid={"t_min": t_min, "t_max": 6.0, "n_points": 3000})
        result = run_sweep(config)
        whole = run_sweep(small_config()).crossings
        assert [c.side for c in result.crossings] == [c.side for c in whole if c.time >= t_min]
        for c, ref in zip(result.crossings, [c for c in whole if c.time >= t_min]):
            assert type(c.time) is float
            assert result.records[0].t <= c.time <= result.records[-1].t
            assert c.time == pytest.approx(ref.time, rel=1e-8)

        # critical-time reports the crossings that sweep writes
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config.to_dict()))
        out_path = tmp_path / "out.json"
        runner = CliRunner()
        args = ["--config", str(cfg_path), "--format", "json", "--output", str(out_path)]
        swept = runner.invoke(main, ["sweep"] + args)
        assert swept.exit_code == 0, swept.output
        crossings = json.loads(out_path.read_text())["crossings"]
        expect = [f"{c['time']:.12e}  {c['side']}" for c in crossings]
        expect = expect or ["no crossings on the grid"]
        ct = runner.invoke(main, ["critical-time", "--config", str(cfg_path)])
        assert ct.exit_code == 0, ct.output
        assert ct.output.splitlines() == expect


class TestEmission:
    def test_empty_records_header_only(self):
        empty = result_from_records(small_config(), [])
        assert format_csv(empty) == CSV_HEADER + "\n"
        assert format_json(empty) == reference_json(empty)

    def test_single_record_round_trip(self):
        rec = SweepRecord(
            t=0.1234567890123456,
            heat=-1.5e-13,
            bound_upper=2.5e-13,
            bound_lower=-5e-13,
            violates=True,
            delta_mutual_info=-3.3e-4,
        )
        result = result_from_records(small_config(), [rec])
        assert len(result.records) == 1 and list(result.records) == [rec] == [result.records[-1]]
        text = format_csv(result)
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        fields = lines[1].split(",")
        assert float(fields[0]) == rec.t
        assert float(fields[1]) == rec.heat
        assert fields[4] == "true"
        assert float(fields[5]) == rec.delta_mutual_info

    def test_json_payload_shape(self):
        result = run_sweep(small_config(time_grid={"t_min": 0, "t_max": 6.0, "n_points": 500}))
        payload = json.loads(format_json(result))
        assert set(payload) == {"config", "records", "critical_times", "crossings"}
        assert len(payload["records"]) == 500
        assert all(isinstance(t, float) for t in payload["critical_times"])

    def test_non_finite_columns_match_the_reference(self):
        # json spells these NaN / Infinity / -Infinity, CSV nan / inf / -inf.
        special = [math.nan, math.inf, -math.inf, -0.0, 5e-324, -1.7976931348623157e308]
        result = run_sweep(small_config(time_grid={"t_min": 0, "t_max": 6.0, "n_points": 40}))
        columns = {}
        floats = ("t", "heat", "bound_upper", "bound_lower", "delta_mutual_info")
        for k, name in enumerate(floats):
            col = getattr(result, name).copy()
            col[k : k + len(special)] = special
            columns[name] = col
        odd = replace(result, **columns)
        assert np.isnan(odd.heat).any() and np.isinf(odd.delta_mutual_info).any()
        assert format_csv(odd) == reference_csv(odd.records)
        assert format_json(odd) == reference_json(odd)


class TestUnits:
    def test_round_trip(self):
        config = builtin_micadei()
        natural, scales = to_natural_units(config)
        assert natural.units == "natural"
        assert natural.interaction["g"] == 1.0
        assert natural.state["omega"] == 1.0
        back = from_natural_units(natural, scales)
        for key in ("omega", "T_A", "T_B"):
            assert back.state[key] == pytest.approx(config.state[key], rel=1e-12)
        assert back.interaction["g"] == pytest.approx(config.interaction["g"], rel=1e-12)
        assert back.time_grid.t_max == pytest.approx(config.time_grid.t_max, rel=1e-12)

    def test_natural_is_fixed_point(self):
        config = small_config()
        natural, scales = to_natural_units(config)
        assert natural == config
        assert from_natural_units(natural, scales) == config

    def test_natural_config_gives_same_dimensionless_heat(self):
        config = builtin_micadei()
        natural, scales = to_natural_units(config)
        e_eng = _ScenarioEngine(config)
        e_nat = _ScenarioEngine(natural)
        t = 1.3e-4
        q_ev = e_eng.heat(t)
        q_nat = e_nat.heat(t / scales.time)
        assert q_ev / scales.energy == pytest.approx(q_nat, rel=1e-12)


class TestCli:
    def test_builtin_outputs_json(self):
        runner = CliRunner()
        result = runner.invoke(main, ["builtin", "micadei"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["scenario"] == "two_qubit_resonant"
        assert payload["interaction"]["g"] == pytest.approx(math.pi * 215.1)

    def test_sweep_writes_csv(self, tmp_path):
        config = small_config(time_grid={"t_min": 0, "t_max": 6.0, "n_points": 400})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config.to_dict()))
        out_path = tmp_path / "out.csv"
        runner = CliRunner()
        result = runner.invoke(
            main, ["sweep", "--config", str(cfg_path), "--output", str(out_path)]
        )
        assert result.exit_code == 0, result.output
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 401

    def test_bad_config_exits_2(self, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text("{\"scenario\": \"nope\"}")
        runner = CliRunner()
        result = runner.invoke(main, ["sweep", "--config", str(cfg_path)])
        assert result.exit_code == 2

    def test_missing_config_file_exits_2(self):
        runner = CliRunner()
        result = runner.invoke(main, ["sweep", "--config", "/does/not/exist.json"])
        assert result.exit_code == 2

    def test_critical_time_command(self, tmp_path):
        config = small_config(time_grid={"t_min": 0, "t_max": 6.0, "n_points": 4000})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config.to_dict()))
        runner = CliRunner()
        result = runner.invoke(main, ["critical-time", "--config", str(cfg_path)])
        assert result.exit_code == 0
        assert "upper" in result.output or "lower" in result.output

    @pytest.mark.parametrize("kind", list(FACTORS))
    def test_verify_decomposition_command(self, kind):
        # each factor's analytic p_d at g t = 0.8 leaves a CPTP residual channel
        runner = CliRunner()
        result = runner.invoke(
            main,
            ["verify-decomposition", "--interaction", kind, "--g", "1.0", "--t", "0.8"],
        )
        assert result.exit_code == 0
        assert "cptp: yes" in result.output

    def test_choi_command_spectrum(self):
        runner = CliRunner()
        result = runner.invoke(
            main, ["choi", "--interaction", "nonresonant", "--g", "1.0", "--t", "0.9"]
        )
        assert result.exit_code == 0
        values = [float(x) for x in result.output.split()]
        assert len(values) == 16
        assert max(values) == pytest.approx(4.0, abs=1e-9)

    def test_clausius_command(self, tmp_path):
        config = small_config()
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config.to_dict()))
        runner = CliRunner()
        result = runner.invoke(main, ["clausius", "--config", str(cfg_path), "--t", "0.5"])
        assert result.exit_code == 0, result.output
        assert "entropy_production" in result.output

    @pytest.mark.parametrize("t", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "command",
        [
            ["clausius", "--builtin", "micadei"],
            ["verify-decomposition", "--interaction", "partial-swap"],
            ["choi", "--interaction", "nonresonant"],
        ],
    )
    def test_non_finite_time_exits_2(self, command, t):
        result = CliRunner().invoke(main, [*command, "--t", t])
        assert result.exit_code == 2, result.output
        assert "--t must be finite" in result.output

    def test_clausius_support_error_exits_2(self, tmp_path):
        # At T_A = 0.001 the evolved marginal of A leaves the support of its Gibbs state.
        config = small_config(state={"omega": 1.0, "T_A": 0.001, "T_B": 1.0})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config.to_dict()))
        result = CliRunner().invoke(main, ["clausius", "--config", str(cfg_path), "--t", "0.5"])
        assert result.exit_code == 2, result.output
        assert "outside the support" in result.output

    def test_output_dir_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HEATCTX_OUTPUT_DIR", str(tmp_path))
        config = small_config(time_grid={"t_min": 0, "t_max": 6.0, "n_points": 300})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config.to_dict()))
        runner = CliRunner()
        result = runner.invoke(main, ["sweep", "--config", str(cfg_path)])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "two_qubit_resonant_sweep.csv").exists()
