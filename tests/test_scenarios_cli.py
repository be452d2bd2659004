import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from heatctx import (
    ConfigError,
    DensityMatrix,
    NumericsError,
    ScenarioConfig,
    SweepRecord,
    TimeGrid,
    builtin_micadei,
    builtin_qutrit_demo,
    emit,
    format_csv,
    format_json,
    kron,
    run_sweep,
    two_qubit_thermal,
    qutrit_heat_coefficients,
    qutrit_critical_times_analytic,
)
from heatctx.cli import BUILTINS, main
from heatctx.contextuality import IDENTITY_GAP_TOL, MINIMAL_PD_TOL
from conftest import reference_csv, reference_json, result_from_records
import heatctx.scenarios as scenarios
from heatctx.scenarios import (
    CSV_HEADER,
    FACTORS,
    FORMAT_IN_PYTHON_BELOW,
    FORMATS,
    SWEEP_BLOCK,
    _ScenarioEngine,
    _e16_fields,
    _repr_digits,
    _repr_fields,
    _round_e16,
    _two_qubit_params,
    _qutrit_params,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]])
REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


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

    @pytest.mark.parametrize(
        "config",
        [
            builtin_micadei(),
            builtin_qutrit_demo(),
            small_config(state={"omega": 1.0, "T_A": 2.0, "T_B": 1.0, "nu1": [0.02, 0.01],
                                "nested": {"a": (1, [2.0])}}),
        ],
    )
    def test_to_dict_is_asdict_with_its_containers_copied(self, config):
        from dataclasses import asdict

        as_dict = config.to_dict()
        assert repr(as_dict) == repr(asdict(config))  # keys, order, values and container types
        pairs = [(as_dict["state"], config.state), (as_dict["interaction"], config.interaction)]
        while pairs:
            copy, original = pairs.pop()
            assert copy is not original
            items = copy.items() if isinstance(copy, dict) else enumerate(copy)
            pairs += [(v, original[k]) for k, v in items if isinstance(v, (dict, list, tuple))]


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

    @pytest.mark.parametrize("builtin", [builtin_micadei, builtin_qutrit_demo])
    def test_heat_and_bounds_evaluated_on_the_grid_once(self, builtin, monkeypatch):
        config = builtin()
        config = replace(config, time_grid=replace(config.time_grid, n_points=4000))
        full_grid = []

        def counted(name):
            method = getattr(_ScenarioEngine, name)

            def wrapper(engine, t):
                if np.ndim(t) and len(t) == config.time_grid.n_points:
                    full_grid.append(name)
                return method(engine, t)

            return wrapper

        for name in ("heat", "bounds"):
            monkeypatch.setattr(_ScenarioEngine, name, counted(name))
        assert run_sweep(config).crossings
        assert sorted(full_grid) == ["bounds", "heat"]

    @pytest.mark.parametrize("builtin", sorted(BUILTINS))
    def test_builtin_sweeps_match_the_reference(self, builtin):
        # The pinned CSV fixes the bits of every column; micadei's tau_c is pinned too.
        reference = json.loads(REFERENCE.read_text())
        result = run_sweep(BUILTINS[builtin]())
        digest = hashlib.sha256(format_csv(result).encode()).hexdigest()
        assert digest == reference["csv_sha256"][builtin]
        want = reference["critical_times"].get(builtin)
        if want is not None:
            got = result.critical_times
            assert len(got) == len(want), got
            assert all(abs(g - w) <= 1e-9 * abs(w) for g, w in zip(got, want)), (got, want)

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
    def test_empty_records_header_only(self, tmp_path):
        empty = result_from_records(small_config(), [])
        assert format_csv(empty) == CSV_HEADER + "\n"
        assert format_json(empty) == reference_json(empty)
        for fmt, text in (("csv", format_csv(empty)), ("json", format_json(empty))):
            emit(empty, fmt, str(tmp_path / f"out.{fmt}"))
            assert (tmp_path / f"out.{fmt}").read_text() == text

    def test_an_unknown_format_is_a_config_error(self, tmp_path):
        # The CLI and the config parser admit only FORMATS; emit refuses the rest itself.
        empty = result_from_records(small_config(), [])
        with pytest.raises(ConfigError, match="format must be one of"):
            emit(empty, "xml", str(tmp_path / "out.xml"))
        assert not (tmp_path / "out.xml").exists()

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

    @pytest.mark.parametrize("block", [SWEEP_BLOCK, 7, 3])
    def test_non_finite_columns_match_the_reference(self, block, monkeypatch):
        # json spells these NaN / Infinity / -Infinity, CSV nan / inf / -inf.
        # Python formats the CSV fields of rows 0 to 9: blocks of 7 and 3 put
        # such rows first and last in a block and next to each other.
        monkeypatch.setattr("heatctx.scenarios.SWEEP_BLOCK", block)
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


def fields_text(kernel, x):
    """The kernel's fields for x, one a line."""
    text = kernel(x)
    lines = np.concatenate([text, np.full((len(x), 1), ord("\n"), np.uint8)], axis=1)
    return lines.tobytes().translate(None, b"\0").decode()


def assert_fields(kernel, spell, x, chunk=2**16):
    """Every field of the vectorized kernel is spell(value), byte for byte."""
    x = np.asarray(x, dtype=float)
    for lo in range(0, len(x), chunk):
        part = x[lo : lo + chunk]
        expect = "".join(spell(v) + "\n" for v in part.tolist())
        got = fields_text(kernel, part)
        if got != expect:
            bad = [(v, g, e) for v, g, e in zip(part, got.split(), expect.split()) if g != e]
            pytest.fail(f"{len(bad)} fields differ from {spell.__name__}, e.g. {bad[:3]}")


def e16(v):
    return "%.16e" % v


def assert_e16(x):
    """Every field of the vectorized formatter is '%.16e' % value, byte for byte."""
    assert_fields(_e16_fields, e16, x)


class TestE16Fields:
    """The CSV's float fields against Python's correctly rounded '%.16e'."""

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(20261018)
        bits = rng.integers(0, 2**64, size=2**20, dtype=np.uint64, endpoint=False)
        x = bits.view(np.float64)
        assert (x < 0).any() and (x > 0).any()
        assert_e16(x)

    def test_powers_of_two(self):
        p = np.ldexp(1.0, np.arange(-1074, 1024))
        assert_e16(np.concatenate([p, -p]))

    def test_powers_of_ten_and_their_neighbours(self):
        p = np.array([float(f"1e{k}") for k in range(-300, 300)])
        x = np.concatenate([np.nextafter(p, 0), p, np.nextafter(p, np.inf)])
        assert_e16(np.concatenate([x, -x]))

    def test_exact_ties_go_to_python(self):
        # x = j 2^(E-17) with j odd puts N = x 10^(16-E) at an odd multiple of 1/2.
        # For E = 15 these are the quarter-integers above 10^15.
        rng = np.random.default_rng(7)
        ties = []
        for e in range(-8, 16):
            lo = math.ceil(Fraction(10) ** e * 2 ** (17 - e))
            hi = min(math.floor(Fraction(10) ** (e + 1) * 2 ** (17 - e)), 2**53)
            j = rng.integers(lo, hi - 1, size=64) | 1
            ties.append(np.ldexp(j.astype(float), e - 17))
        x = np.concatenate(ties)
        _, _, fallback = _round_e16(x)
        assert fallback.all()
        assert_e16(np.concatenate([x, -x]))
        assert "%.16e" % 1000000000000000.25 == "1.0000000000000002e+15"
        assert_e16([1000000000000000.25, 1000000000000000.75])

    def test_rounding_carries_to_the_next_power_of_ten(self):
        # The doubles nearest these powers of ten lie below them by less than
        # half a unit of the 17th digit: N rounds up to 10^17.
        carries = [
            float(f"1e{k}")
            for k in range(-323, 309)
            if 0 < Fraction(10) ** k - Fraction(float(f"1e{k}")) < Fraction(10) ** k / (2 * 10**17)
        ]
        assert len(carries) >= 10
        x = np.array(carries)
        digits, _, fallback = _round_e16(x)
        assert not fallback.any() and (digits == 10**16).all()
        assert_e16(np.concatenate([x, -x]))
        assert "%.16e" % 1e-299 == "9.9999999999999999e-300"
        assert_e16([1e-299, -1e-299])

    def test_three_digit_exponents_and_subnormals(self):
        rng = np.random.default_rng(3)
        big = 10 ** rng.uniform(100, 308.25, size=10_000)
        small = 10 ** rng.uniform(-323.3, -100, size=10_000)
        subnormal = rng.integers(1, 2**52, size=10_000).view(np.float64)
        assert_e16(np.concatenate([big, small, subnormal, -big, -small, -subnormal]))

    def test_zeros_and_non_finite_values(self):
        assert_e16([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf])

    @pytest.mark.parametrize("builtin", [builtin_micadei, builtin_qutrit_demo])
    def test_builtins_leave_only_exact_zeros_to_python(self, builtin):
        result = run_sweep(builtin())
        for name in ("t", "heat", "bound_upper", "bound_lower", "delta_mutual_info"):
            column = getattr(result, name)
            _, _, fallback = _round_e16(column)
            assert (fallback == (column == 0)).all(), name
            assert np.count_nonzero(fallback) < 10, name  # the vector path formats the rest


def assert_repr(x):
    """Every field of the vectorized JSON formatter is json.dumps(value), byte for byte."""
    assert_fields(_repr_fields, json.dumps, x)


class TestReprFields:
    """The JSON's float fields against json.dumps, that is repr and NaN/Infinity."""

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(20261019)
        bits = rng.integers(0, 2**64, size=2**20, dtype=np.uint64, endpoint=False)
        x = bits.view(np.float64)
        assert (x < 0).any() and (x > 0).any()
        assert_repr(x)

    def test_powers_of_two_go_to_python(self):
        # The rounding interval below a power of two is half as wide as above it.
        p = np.ldexp(1.0, np.arange(-1074, 1024))
        x = np.concatenate([p, -p])
        _, _, fallback = _repr_digits(x)
        assert fallback.all()
        assert_repr(x)
        assert_repr(np.concatenate([np.nextafter(x, 0), np.nextafter(x, np.copysign(np.inf, x))]))

    def test_powers_of_ten_and_their_neighbours(self):
        p = np.array([float(f"1e{k}") for k in range(-323, 309)])
        x = np.concatenate([np.nextafter(p, 0), p, np.nextafter(p, np.inf)])
        assert_repr(np.concatenate([x, -x]))

    def test_positional_and_scientific_layouts(self):
        # repr is positional for 1e-4 <= |x| < 1e16 and scientific outside.
        edges = np.array([1e-4, 1e-5, 1e15, 1e16, 1.5e16, 0.00012345, 1.2345e-5, 123456789012345.6])
        x = [edges]
        for _ in range(3):
            x += [np.nextafter(x[-1], 0), np.nextafter(x[-1], np.inf)]
        x = np.concatenate(x)
        assert_repr(np.concatenate([x, -x]))
        assert [json.dumps(v) for v in (1e-4, 1e-5, 1e15, 1e16)] == [
            "0.0001",
            "1e-05",
            "1000000000000000.0",
            "1e+16",
        ]
        # Every (figures, exponent) layout of the positional range and beyond.
        rng = np.random.default_rng(5)
        for figures in range(1, 18):
            mantissa = rng.integers(10 ** (figures - 1), 10**figures, size=40)
            for e in range(-7, 19):
                assert_repr(mantissa * 10.0 ** (e - figures + 1))

    def test_rounding_carries_to_a_shorter_length(self):
        # Doubles just below 10^k whose 15 digits round up to 10^15: repr writes 1eK.
        carries = [
            float(f"1e{k}")
            for k in range(-300, 309)
            if Fraction(float(f"1e{k}")) < Fraction(10) ** k
        ]
        assert len(carries) >= 100
        assert_repr(np.concatenate([carries, -np.array(carries)]))
        assert repr(9.999999999999999e22) == "1e+23"
        assert_repr([9.999999999999999e22, 0.09999999999999999, 9.999999999999999e-5])

    def test_fifteen_sixteen_and_seventeen_digits(self):
        assert [repr(v) for v in (0.3, 1 / 3, 0.30000000000000004)] == [
            "0.3",
            "0.3333333333333333",
            "0.30000000000000004",
        ]
        assert_repr([0.3, 1 / 3, 0.30000000000000004, 2 / 3, 0.1 + 0.2, 1 - 1e-16])
        # Decimals of 15, 16 and 17 significant digits read in as doubles.
        rng = np.random.default_rng(11)
        figures = {}
        for k in (15, 16, 17):
            digits = rng.integers(10 ** (k - 1), 10**k, size=20_000)
            exponents = rng.integers(-30, 30, size=20_000)
            x = np.array([float(f"{d}e{e}") for d, e in zip(digits.tolist(), exponents.tolist())])
            assert_repr(np.concatenate([x, -x]))
            mantissas = (repr(v).split("e")[0] for v in x.tolist())
            figures[k] = {len(m.replace(".", "").strip("-0")) for m in mantissas}
        assert max(figures[15]) == 15 and 16 in figures[16] and 17 in figures[17]

    def test_three_digit_exponents_subnormals_and_zeros(self):
        rng = np.random.default_rng(3)
        big = 10 ** rng.uniform(100, 308.25, size=10_000)
        small = 10 ** rng.uniform(-307.6, -100, size=10_000)
        subnormal = rng.integers(1, 2**52, size=10_000).view(np.float64)
        x = np.concatenate([big, small, subnormal, [5e-324, 2.2250738585072014e-308]])
        assert_repr(np.concatenate([x, -x]))
        assert_repr([0.0, -0.0, 1.7976931348623157e308, -1.7976931348623157e308])
        assert_repr([math.nan, -math.nan, math.inf, -math.inf])

    @pytest.mark.parametrize("builtin", [builtin_micadei, builtin_qutrit_demo])
    def test_builtins_leave_only_exact_zeros_to_python(self, builtin):
        result = run_sweep(builtin())
        for name in ("t", "heat", "bound_upper", "bound_lower", "delta_mutual_info"):
            column = getattr(result, name)
            _, _, fallback = _repr_digits(column)
            assert (fallback == (column == 0)).all(), name
            assert np.count_nonzero(fallback) < 10, name  # the vector path formats the rest


class TestSmallBlocks:
    """Blocks of fewer than FORMAT_IN_PYTHON_BELOW rows take their floats from Python."""

    @pytest.mark.parametrize("n_points", [2, FORMAT_IN_PYTHON_BELOW - 1, FORMAT_IN_PYTHON_BELOW])
    def test_kernels_run_from_the_threshold(self, n_points, monkeypatch):
        calls = []
        for name in ("_CSV_ROW", "_JSON_RECORD"):
            layout = getattr(scenarios, name)

            def counted(x, kernel=layout.fields):
                calls.append(len(x))
                return kernel(x)

            monkeypatch.setattr(scenarios, name, layout._replace(fields=counted))
        grid = {"t_min": 0, "t_max": 6.0, "n_points": n_points}
        result = run_sweep(small_config(time_grid=grid))
        assert format_csv(result) == reference_csv(result.records)
        assert format_json(result) == reference_json(result)
        assert calls == ([] if n_points < FORMAT_IN_PYTHON_BELOW else [5 * n_points] * 2)


def scan_random_doubles(seed, exponent, keep):
    """The first of seeded random bit patterns in [2^exponent, 2^(exponent + 1)) that keep marks."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2**52, size=4096, dtype=np.uint64) | np.uint64(1023 + exponent) << 52
    x = bits.view(np.float64)
    found = x[keep(x)]
    assert found.size, "no value found"
    return float(found[0])


def decimal_exponent(v):
    """E with 10^E <= |v| < 10^(E+1), for v != 0, exactly."""
    a = Fraction(abs(v))
    e = math.floor(math.log10(a))
    return e + (a >= Fraction(10) ** (e + 1)) - (a < Fraction(10) ** e)


def e16_near_tie():
    """A double whose 17-digit N = |x| 10^(16-E) has a fraction within 2^-40 of 1/2.

    Above 10^15, the doubles of [2^50, 2^51) are quarter-integers: the odd ones are ties.
    """
    x = scan_random_doubles(26, 50, lambda x: _round_e16(x)[2])
    n = Fraction(x) * Fraction(10) ** (16 - decimal_exponent(x))
    assert abs(n - math.floor(n) - Fraction(1, 2)) < Fraction(1, 2**40)
    return x


def repr_boundary():
    """A double an end of whose rounding interval lies within 2^-30 of a 15- or 16-digit decimal.

    The doubles of [2^54, 2^55) are multiples of 4 whose interval ends at x +- 2; where
    x + 2 or x - 2 is a multiple of 10, the 16-digit candidate sits on the end.
    """
    x = scan_random_doubles(27, 54, lambda x: _repr_digits(x)[2] & ~_round_e16(x)[2])
    m = math.frexp(x)[0] * 2**53
    assert m != 2**52
    e = decimal_exponent(x)
    distances = []
    for k in (15, 16):
        n_k = Fraction(x) * Fraction(10) ** (k - 1 - e)
        distances.append(abs(abs(round(n_k) - n_k) - n_k / (2 * Fraction(m))))
    assert min(distances) < Fraction(1, 2**30)
    return x


class TestPythonFieldsInAKernelBlock:
    """Fields Python spells land where the numpy kernels' word rows put their own."""

    def test_first_middle_and_last_rows_of_every_float_column(self):
        specials = [0.0, -0.0, 5e-324, 2.0**-30, math.nan, math.inf, -math.inf]
        specials += [e16_near_tie(), repr_boundary()]
        x = np.array(specials)
        assert (_round_e16(x)[2] | _repr_digits(x)[2]).all()  # each Python's in a format
        n = 4 * len(specials)
        assert FORMAT_IN_PYTHON_BELOW <= n <= SWEEP_BLOCK  # one block, numpy-formatted
        result = run_sweep(small_config(time_grid={"t_min": 0, "t_max": 6.0, "n_points": n}))
        columns = {}
        floats = ("t", "heat", "bound_upper", "bound_lower", "delta_mutual_info")
        for k, name in enumerate(floats):
            column = getattr(result, name).copy()
            turned = specials[k:] + specials[:k]  # each column its own order
            for start in (0, (n - len(specials)) // 2, n - len(specials)):
                column[start : start + len(specials)] = turned
            columns[name] = column
        odd = replace(result, **columns)
        assert format_csv(odd) == reference_csv(odd.records)
        assert format_json(odd) == reference_json(odd)


def significant_bits(v):
    """The bits from the first to the last set bit of a float's significand; 0 for zero."""
    n = abs(v.as_integer_ratio()[0])
    return (n >> ((n & -n).bit_length() - 1)).bit_length() if n else 0


def test_power_table_row_by_row():
    # Each E's (hi, hi_hi, hi_lo, lo, b), checked with Python integers and fractions.
    table = scenarios._powers_of_ten()
    exponents = range(scenarios._E_MIN, scenarios._E_MAX + 1)
    assert table.shape == (5, len(exponents))
    for e, (hi, hi_hi, hi_lo, lo, b) in zip(exponents, table.T.tolist()):
        assert hi.is_integer() and 2**52 <= hi < 2**53 and b.is_integer(), e
        assert Fraction(hi_hi) + Fraction(hi_lo) == Fraction(hi), e
        assert significant_bits(hi_hi) <= 26 and significant_bits(hi_lo) <= 26, e
        power = Fraction(10) ** (16 - e)
        scaled = (Fraction(hi) + Fraction(lo)) * Fraction(2) ** int(b)
        assert abs(scaled - power) <= power / 2**46, e


def test_importing_heatctx_builds_no_writer_table():
    # The tables are built on first use, so they stay out of every command's start-up.
    tables = "_powers_of_ten", "_words", "_repr_layouts"
    code = (
        "import heatctx.scenarios as s; "
        f"print(*(getattr(s, name).cache_info().currsize for name in {tables!r}))"
    )
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["0"] * len(tables)
    result = run_sweep(small_config(time_grid={"t_min": 0, "t_max": 6.0, "n_points": 64}))
    format_json(result)  # in this process the sweep's output builds them all
    assert all(getattr(scenarios, name).cache_info().currsize == 1 for name in tables)


class TestMemory:
    """Peaks under tracemalloc, to which numpy reports its array buffers.

    A sweep holds its O(N) columns plus one SWEEP_BLOCK of evolved states,
    and emission one block of text. Holding every grid point's 9 x 9 state
    (116 MiB) or the whole output text (13 MiB CSV, 19 MiB JSON) breaks the
    bounds by 2x and more.
    """

    def test_qutrit_demo_sweep_and_emission_peaks(self, tmp_path):
        mib = 2**20
        emitted = {}
        tracemalloc.start()
        try:
            result = run_sweep(builtin_qutrit_demo())
            _, sweep_peak = tracemalloc.get_traced_memory()
            for fmt in FORMATS:
                tracemalloc.reset_peak()
                held, _ = tracemalloc.get_traced_memory()
                emit(result, fmt, str(tmp_path / f"out.{fmt}"))
                emitted[fmt] = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert sweep_peak <= 48 * mib
        assert emitted["csv"] <= 6 * mib
        assert emitted["json"] <= 8 * mib


class TestUnits:
    def test_natural_config_gives_same_dimensionless_heat(self):
        # Only g t and energies over omega enter: omega -> 1, T -> T / omega,
        # g -> 1 and t -> g t give the heat in units of omega.
        config = builtin_micadei()
        omega, g = config.state["omega"], config.interaction["g"]
        state = {**config.state, "omega": 1.0}
        for key in ("T_A", "T_B"):
            state[key] = config.state[key] / omega
        natural = replace(
            config, units="natural", state=state, interaction={**config.interaction, "g": 1.0}
        )
        t = 1.3e-4
        q_ev = _ScenarioEngine(config).heat(t)
        q_nat = _ScenarioEngine(natural).heat(g * t)
        assert q_ev / omega == pytest.approx(q_nat, rel=1e-12)


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

    @pytest.mark.parametrize("both", [False, True])
    def test_neither_or_both_config_sources_exit_2(self, both, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(builtin_micadei().to_dict()))
        sources = ["--config", str(cfg_path), "--builtin", "micadei"] if both else []
        result = CliRunner().invoke(main, ["critical-time", *sources])
        assert result.exit_code == 2, result.output
        assert "provide exactly one of --config or --builtin" in result.stderr

    def test_a_config_that_is_not_json_exits_2(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{not json")
        result = CliRunner().invoke(main, ["critical-time", "--config", str(cfg_path)])
        assert result.exit_code == 2, result.output
        assert f"config {cfg_path} is not valid JSON" in result.stderr

    @pytest.mark.parametrize(
        "args,message",
        [
            (["sweep", "--builtin", "micadei", "--n-points", "2", "--output"], "cannot write output to"),
            (["builtin", "micadei", "-o"], "cannot write config to"),
        ],
    )
    def test_unwritable_output_exits_2(self, args, message, tmp_path):
        result = CliRunner().invoke(main, [*args, str(tmp_path / "missing" / "out")])
        assert result.exit_code == 2, result.output
        assert message in result.stderr

    def test_builtin_writes_its_config_where_asked(self, tmp_path):
        path = tmp_path / "micadei.json"
        result = CliRunner().invoke(main, ["builtin", "micadei", "-o", str(path)])
        assert result.exit_code == 0, result.output
        assert result.output == f"wrote micadei config to {path}\n"
        assert path.read_text() == CliRunner().invoke(main, ["builtin", "micadei"]).output
        assert ScenarioConfig.from_dict(json.loads(path.read_text())) == builtin_micadei()

    def test_numerics_error_in_a_sweep_exits_3(self, tmp_path, monkeypatch):
        def failing(config):
            raise NumericsError("the oracle disagrees")

        monkeypatch.setattr("heatctx.cli.run_sweep", failing)
        args = ["sweep", "--builtin", "micadei", "--output", str(tmp_path / "out.csv")]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 3, result.output
        assert result.stderr == "numerics error: the oracle disagrees\n"

    def test_a_claimed_pd_that_is_not_cptp_exits_3(self):
        args = ["verify-decomposition", "--interaction", "partial-swap", "--local-dim", "3"]
        result = CliRunner().invoke(main, [*args, "--t", "0.8", "--p-d", "1e-6"])
        assert result.exit_code == 3, result.output
        assert "cptp: no" in result.output

    @pytest.mark.parametrize("n_points", [10**12, 2**60, 2**63 - 1, 2**63, 10**20, 1e300])
    @pytest.mark.parametrize("command", ["sweep", "critical-time"])
    def test_grid_too_large_to_allocate_exits_2(self, command, n_points, tmp_path):
        # numpy refuses each grid before it allocates anything: a MemoryError
        # for the 7.28 TiB of 10**12 points, a ValueError or IndexError beyond.
        if isinstance(n_points, float):  # a config file's number, not an option
            raw = builtin_micadei().to_dict()
            raw["time_grid"]["n_points"] = n_points
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(raw))
            args = [command, "--config", str(cfg_path)]
        else:
            args = [command, "--builtin", "micadei", "--n-points", str(n_points)]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"time grid of {int(n_points)} points cannot be allocated" in result.output

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

    def test_choi_prints_the_multiplier_spectrum_and_exact_zeros(self):
        args = ["choi", "--interaction", "partial-swap", "--local-dim", "3", "--t", "0.8"]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 0
        values = [float(x) for x in result.output.split()]
        assert len(values) == 81
        assert values.count(0.0) >= 81 - 9
        assert values == sorted(values)

    @pytest.mark.parametrize("t", ["1e-6", "1e-4"])
    @pytest.mark.parametrize(
        "kind,local_dim", [(kind, 2) for kind in FACTORS] + [("partial-swap", 3)]
    )
    def test_minimal_pd_near_zero_is_cptp(self, kind, local_dim, t):
        args = ["verify-decomposition", "--interaction", kind, "--local-dim", str(local_dim)]
        result = CliRunner().invoke(main, [*args, "--t", t, "--minimal"])
        assert result.exit_code == 0, result.output
        assert "cptp: yes" in result.output
        # The minimal p_d resolves to 1e-9 relative; every factor here has
        # G_max = 2 p_d, and at G_max <= 1e-12 the map counts as the identity.
        analytic = float(re.search(r"\(analytic (\S+)\)", result.output).group(1))
        minimal = float(re.search(r"minimal feasible p_d = (\S+)", result.output).group(1))
        if 2 * analytic <= IDENTITY_GAP_TOL:
            assert minimal == 0.0
        else:
            assert abs(minimal - analytic) <= 2 * MINIMAL_PD_TOL * analytic

    @pytest.mark.parametrize("t", ["0.8", "1e-4", "1e-7"])
    @pytest.mark.parametrize(
        "kind,local_dim", [(kind, 2) for kind in FACTORS] + [("partial-swap", 3)]
    )
    def test_minimal_pd_line_agrees_with_the_analytic_line(self, kind, local_dim, t):
        # Every factor's generator has two distinct eigenvalues, so its minimal p_d is
        # G_max / 2, the analytic sin^2(Delta t / 2), up to the roundoff of its spectrum.
        args = ["verify-decomposition", "--interaction", kind, "--local-dim", str(local_dim)]
        result = CliRunner().invoke(main, [*args, "--t", t, "--minimal"])
        assert result.exit_code == 0, result.output
        analytic = float(re.search(r"\(analytic (\S+)\)", result.output).group(1))
        minimal = float(re.search(r"minimal feasible p_d = (\S+)", result.output).group(1))
        if 2 * analytic <= IDENTITY_GAP_TOL:
            assert minimal == 0.0
        else:
            assert abs(minimal - analytic) <= 1e-11 * analytic, (minimal, analytic)

    @pytest.mark.parametrize("t", ["1e-7", "1e-8"])
    @pytest.mark.parametrize(
        "kind,local_dim", [(kind, 2) for kind in FACTORS] + [("partial-swap", 3)]
    )
    def test_minimal_pd_where_u_cannot_resolve_the_gaps_is_cptp(self, kind, local_dim, t):
        args = ["verify-decomposition", "--interaction", kind, "--local-dim", str(local_dim)]
        result = CliRunner().invoke(main, [*args, "--t", t, "--minimal"])
        assert result.exit_code == 0, result.output
        assert "cptp: yes" in result.output

    def test_clausius_command(self, tmp_path):
        config = small_config()
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config.to_dict()))
        runner = CliRunner()
        result = runner.invoke(main, ["clausius", "--config", str(cfg_path), "--t", "0.5"])
        assert result.exit_code == 0, result.output
        assert "entropy_production" in result.output

    @pytest.mark.parametrize("option", [["--n-points", "5"], ["--t-max", "1.0"]])
    def test_clausius_takes_no_grid_options(self, option):
        # clausius evaluates one time and reads no grid, so it has no grid overrides.
        runner = CliRunner()
        result = runner.invoke(main, ["clausius", "--builtin", "micadei", "--t", "1e-4", *option])
        assert result.exit_code == 2, result.output
        assert f"No such option '{option[0]}'" in result.output
        result = runner.invoke(main, ["clausius", "--builtin", "micadei", "--t", "1e-4"])
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

    @pytest.mark.parametrize(
        "command, t, field",
        [
            (["sweep", "--n-points", "50"], "--t-max", "time_grid.t_max"),
            (["critical-time", "--n-points", "50"], "--t-max", "time_grid.t_max"),
            (["clausius"], "--t", "--t"),
        ],
    )
    def test_overflowing_phases_exit_2(self, command, t, field, tmp_path, monkeypatch):
        # micadei's g is 675.76: 2 g t overflows a float from t = 1.33e305 on, and
        # the heat, the bounds and U(t) would be NaN. Just below, all is finite.
        monkeypatch.chdir(tmp_path)
        runs = {}
        for value in ("1e306", "1.3e305"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                runs[value] = CliRunner().invoke(main, [*command, "--builtin", "micadei", t, value])
            assert caught == [], value
        over, under = runs["1e306"], runs["1.3e305"]
        assert over.exit_code == 2 and isinstance(over.exception, SystemExit), over.output
        assert f"config error: {field} = 1e+306 is too large" in over.output
        if command[0] == "sweep":
            assert under.exit_code == 0, under.output
        else:
            # Finite, but one ulp of the phase is far past CROSS_CHECK_TOL there; the
            # sweep's oracle applies the same rule only where heat leaves the trace formula.
            assert under.exit_code == 2 and isinstance(under.exception, SystemExit), under.output
            assert f"config error: {field} = 1.3e+305 is too large: at t=1.3e+305 one ulp of the phase under H_I" in under.output

    @pytest.mark.parametrize(
        "command",
        [
            ["verify-decomposition", "--interaction", "partial-swap", "--local-dim", "3"],
            ["choi", "--interaction", "resonant-exchange"],
        ],
    )
    def test_overflowing_decomposition_time_exits_2(self, command):
        # 2 g t overflows a float at g = 10, t = 1e308, where the analytic p_d is NaN.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = CliRunner().invoke(main, [*command, "--g", "10", "--t", "1e308"])
        assert caught == []
        assert result.exit_code == 2 and isinstance(result.exception, SystemExit), result.output
        assert "config error: --t = 1e+308 is too large" in result.output
        assert "Warning" not in result.output

    @pytest.mark.parametrize("a,p_d", [("1.0001", None), ("1", "0")])
    def test_detuning_pd_takes_the_gap_times_half_t(self, a, p_d):
        # The generator's rate g |a - 1| passes the time rule at t = 1e308, where
        # g t alone overflows. At a = 1 the rate is 0 and p_d is exactly 0; at
        # a = 1.0001 the p_d angle ((a - 1) g)(t / 2) is finite but has lost every
        # digit, so the phase rule refuses it.
        args = ["--interaction", "resonant-detuning", "--a", a, "--g", "10", "--t", "1e308"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = CliRunner().invoke(main, ["verify-decomposition", *args, "--minimal"])
        assert caught == []
        if p_d is None:
            assert result.exit_code == 2, result.output
            assert "config error: --t = 1e+308 is too large: at t=1e+308 one ulp" in result.output
            return
        assert result.exit_code == 0, result.output
        assert result.output.splitlines()[0] == f"p_d = {p_d}  (analytic {p_d})"
        assert "cptp: yes" in result.output

    @pytest.mark.parametrize(
        "name,from_gt",
        [
            ("resonant-detuning", lambda x: np.sin((0.0 - 1.0) * x / 2) ** 2),
            ("nonresonant", lambda x: np.sin(x / 2) ** 2),
            ("partial-swap", lambda x: np.sin(x) ** 2),
        ],
    )
    def test_pd_keeps_the_bits_of_its_form_in_g_t(self, name, from_gt):
        # p_d is (half gap) t; its earlier form took x = g t. Negation and halving
        # are exact, so at a = 0 the two agree bit for bit and micadei's bound
        # columns keep their bits.
        rng = np.random.default_rng(43)
        g, t = rng.uniform(0.1, 1e3, 500), np.exp(rng.uniform(-20, 5, 500))
        assert np.array_equal(FACTORS[name].p_d(g, t, 0.0), from_gt(g * t))

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("option", ["--g", "--a", "--theta"])
    @pytest.mark.parametrize("command", [["verify-decomposition"], ["choi"]])
    def test_non_finite_coupling_exits_2(self, command, option, value):
        args = [*command, "--interaction", "resonant-exchange", option, value, "--t", "0.5"]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2, result.output
        assert f"{option} must be finite" in result.output

    @pytest.mark.parametrize(
        "kind,local_dim",
        [
            ("resonant-exchange", 3),
            ("resonant-detuning", 3),
            ("nonresonant", 7),
            ("nonresonant", 1),
            ("partial-swap", 4),
        ],
    )
    @pytest.mark.parametrize("command", [["verify-decomposition", "--minimal"], ["choi"]])
    def test_local_dim_the_factor_does_not_act_on_exits_2(self, command, kind, local_dim):
        args = [*command, "--interaction", kind, "--local-dim", str(local_dim), "--t", "0.8"]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "config error" in result.output

    @pytest.mark.parametrize("g", ["-1", "0"])
    @pytest.mark.parametrize("kind", list(FACTORS))
    @pytest.mark.parametrize("command", [["verify-decomposition"], ["choi"]])
    def test_non_positive_g_exits_2(self, command, kind, g):
        result = CliRunner().invoke(main, [*command, "--interaction", kind, "--g", g, "--t", "0.5"])
        assert result.exit_code == 2, result.output
        assert "g must be positive" in result.output

    def test_clausius_support_error_exits_2(self, tmp_path):
        # At T_A = 0.001 the evolved marginal of A leaves the support of its Gibbs state.
        config = small_config(state={"omega": 1.0, "T_A": 0.001, "T_B": 1.0})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config.to_dict()))
        result = CliRunner().invoke(main, ["clausius", "--config", str(cfg_path), "--t", "0.5"])
        assert result.exit_code == 2, result.output
        assert "outside the support" in result.output

    @pytest.mark.parametrize("builtin,t,most", [("micadei", "1e-4", 1), ("qutrit-demo", "0.7", 1)])
    def test_clausius_validates_states_where_they_are_built(self, builtin, t, most, monkeypatch):
        # Only the state builder builds a DensityMatrix; the Gibbs references of
        # the thermal-marginal checks, the evolved state and the marginals that
        # clausius_report derives from it stay arrays.
        original = DensityMatrix.__post_init__
        built = []

        def counted(self):
            built.append(self.dims)
            original(self)

        monkeypatch.setattr(DensityMatrix, "__post_init__", counted)
        result = CliRunner().invoke(main, ["clausius", "--builtin", builtin, "--t", t])
        assert result.exit_code == 0, result.output
        assert 0 < len(built) <= most

    def test_output_dir_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HEATCTX_OUTPUT_DIR", str(tmp_path))
        config = small_config(time_grid={"t_min": 0, "t_max": 6.0, "n_points": 300})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config.to_dict()))
        runner = CliRunner()
        result = runner.invoke(main, ["sweep", "--config", str(cfg_path)])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "two_qubit_resonant_sweep.csv").exists()
