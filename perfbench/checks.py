"""Output checks for every operation the benchmark runs.

Each check takes what one CLI invocation left behind (exit code, captured
stdout, output file) and returns ``None`` when the output is right or a short
reason when it is not. The references are recorded from the seed commit
(``reference.json``) or computed here from closed forms in the paper.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

HERE = os.path.dirname(os.path.abspath(__file__))

CRITICAL_TIME_REL_TOL = 1e-9
MINIMAL_PD_SLACK = 1e-9
# Same tolerance as the program's own closed-form cross-check.
HEAT_REL_TOL = 1e-9
VIOLATION_REL_TOL = 1e-12


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _fmt(x: float) -> str:
    return f"{x:.16e}"


CSV_HEADER = "t,heat,bound_upper,bound_lower,violates,delta_mutual_info"


def records_to_csv(records: list[dict]) -> str:
    """The CSV text that the JSON records stand for, in the README's format."""
    lines = [CSV_HEADER]
    for r in records:
        lines.append(
            ",".join(
                [
                    _fmt(r["t"]),
                    _fmt(r["heat"]),
                    _fmt(r["bound_upper"]),
                    _fmt(r["bound_lower"]),
                    "true" if r["violates"] else "false",
                    _fmt(r["delta_mutual_info"]),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def _exit_reason(rc) -> str | None:
    if rc is None:
        return "uncaught exception"
    if rc != 0:
        return f"exit code {rc}"
    return None


# -- sweeps -------------------------------------------------------------------


def check_sweep_csv(rc, path, want_sha: str) -> str | None:
    """The CSV file on disk hashes to the seed commit's bytes."""
    reason = _exit_reason(rc)
    if reason:
        return reason
    if not os.path.exists(path):
        return "no output file"
    if sha256_file(path) != want_sha:
        return "CSV differs from the seed's bytes"
    return None


def _close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * abs(want)


def check_times(got: list[float], want: list[float]) -> str | None:
    """Reported critical times equal the reference times to 1e-9 relative."""
    if len(got) != len(want):
        return f"{len(got)} critical times, expected {len(want)}"
    for g, w in zip(sorted(got), sorted(want)):
        if not _close(g, w, CRITICAL_TIME_REL_TOL):
            return f"critical time {g!r} differs from reference {w!r}"
    return None


def check_sweep_json(rc, path, want_sha: str, want_times: list[float] | None) -> str | None:
    """The JSON records reproduce the reference CSV; its critical times match.

    ``want_sha`` is the sha256 of the CSV text the records must reproduce.
    With ``want_times`` None the crossing list is not checked.
    """
    reason = _exit_reason(rc)
    if reason:
        return reason
    if not os.path.exists(path):
        return "no output file"
    try:
        with open(path) as fh:
            payload = json.load(fh)
        times = [float(t) for t in payload["critical_times"]]
        text = records_to_csv(payload["records"])
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed JSON output: {exc!r}"
    if hashlib.sha256(text.encode()).hexdigest() != want_sha:
        return "JSON records differ from the reference CSV"
    if want_times is not None:
        return check_times(times, want_times)
    return None


def parse_critical_time(stdout: str) -> list[float]:
    """Non-grazing crossing times printed by ``heatctx critical-time``."""
    times = []
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) >= 2 and parts[1] in ("upper", "lower") and "(grazing)" not in line:
            times.append(float(parts[0]))
    return times


def check_critical_time(rc, stdout: str, want_times: list[float]) -> str | None:
    reason = _exit_reason(rc)
    if reason:
        return reason
    try:
        got = parse_critical_time(stdout)
    except ValueError as exc:
        return f"malformed output: {exc!r}"
    return check_times(got, want_times)


# -- closed forms for single-time sweeps ----------------------------------------


def closed_form_heat(config: dict, t: float) -> tuple[float, float]:
    """(<Q_A>, energy scale) at time t from the paper's closed forms.

    Two-qubit resonant exchange:
      Q = w [ (1/2) sin^2(gt) (tanh(w b_A/2) - tanh(w b_B/2))
              + eta sin(2gt) sin(xi - theta) ].
    Qutrit partial SWAP: Q = zeta sin^2(gt) + xi sin(gt) cos(gt), with zeta
    from the swapped population pairs and xi from the three coherences.
    """
    st, inter = config["state"], config["interaction"]
    g = float(inter["g"])
    x = g * t
    if config["scenario"] == "two_qubit_resonant":
        w = float(st["omega"])
        b_a, b_b = 1.0 / float(st["T_A"]), 1.0 / float(st["T_B"])
        thermal = 0.5 * (math.tanh(w * b_a / 2) - math.tanh(w * b_b / 2))
        coh = float(st.get("eta", 0.0)) * math.sin(
            float(st.get("xi", 0.0)) - float(inter.get("theta", 0.0))
        )
        return w * (thermal * math.sin(x) ** 2 + coh * math.sin(2 * x)), w
    if config["scenario"] == "qutrit_partial_swap":
        o = [float(v) for v in st["omegas"]]
        b_a, b_b = 1.0 / float(st["T_A"]), 1.0 / float(st["T_B"])
        za = [math.exp(-b_a * (v - min(o))) for v in o]
        zb = [math.exp(-b_b * (v - min(o))) for v in o]
        pa = [v / sum(za) for v in za]
        pb = [v / sum(zb) for v in zb]
        p = [pa[i] * pb[j] for i in range(3) for j in range(3)]
        zeta = (o[1] - o[0]) * (p[1] - p[3]) + (o[2] - o[0]) * (p[2] - p[6]) + (
            o[2] - o[1]
        ) * (p[5] - p[7])
        xi = 2.0 * (
            float(st["eta31"]) * (o[1] - o[0]) * math.sin(float(st["theta31"]))
            + float(st["eta62"]) * (o[2] - o[0]) * math.sin(float(st["theta62"]))
            + float(st["eta75"]) * (o[2] - o[1]) * math.sin(float(st["theta75"]))
        )
        return zeta * math.sin(x) ** 2 + xi * math.sin(x) * math.cos(x), max(o)
    raise ValueError(f"no closed form for scenario {config['scenario']!r}")


def check_point_sweep_csv(rc, path, config: dict, t: float) -> str | None:
    """A two-point sweep [0, t]: rows, closed-form heat and violation flags."""
    reason = _exit_reason(rc)
    if reason:
        return reason
    if not os.path.exists(path):
        return "no output file"
    with open(path) as fh:
        lines = fh.read().splitlines()
    if len(lines) != 3 or lines[0] != CSV_HEADER:
        return f"expected a header and 2 rows, got {len(lines)} lines"
    try:
        rows = [line.split(",") for line in lines[1:]]
        for want_t, row in zip((0.0, t), rows):
            ts, heat, upper, lower = (float(v) for v in row[:4])
            violates, delta_i = row[4], float(row[5])
            if ts != want_t:
                return f"row time {ts!r}, expected {want_t!r}"
            q_ref, scale = closed_form_heat(config, ts)
            if abs(heat - q_ref) > HEAT_REL_TOL * max(scale, abs(q_ref)):
                return f"heat {heat!r} at t={ts!r} differs from closed form {q_ref!r}"
            tol = VIOLATION_REL_TOL * max(abs(upper), abs(lower), abs(heat))
            flag = heat > upper + tol or heat < lower - tol
            if violates != ("true" if flag else "false"):
                return f"violates flag {violates} disagrees with heat and bounds at t={ts!r}"
            if want_t == 0.0 and delta_i != 0.0:
                return f"delta_mutual_info at t=0 is {delta_i!r}, expected 0"
    except (ValueError, IndexError) as exc:
        return f"malformed CSV row: {exc!r}"
    return None


# -- point queries --------------------------------------------------------------


def _value(stdout: str, prefix: str) -> float:
    for line in stdout.splitlines():
        if line.startswith(prefix):
            return float(line[len(prefix):].split()[0])
    raise ValueError(f"no line starting with {prefix!r}")


def check_certify(rc, stdout: str) -> str | None:
    """CPTP at the analytic p_d, and minimal feasible p_d <= analytic + 1e-9."""
    if rc is None:
        return "uncaught exception"
    if "cptp: no" in stdout:
        return "non-CPTP verdict at the analytic p_d"
    if rc != 0:
        return f"exit code {rc}"
    try:
        analytic = float(stdout.split("(analytic", 1)[1].split(")", 1)[0])
        minimal = _value(stdout, "minimal feasible p_d = ")
    except (IndexError, ValueError) as exc:
        return f"malformed output: {exc!r}"
    if "cptp: yes" not in stdout:
        return "no CPTP verdict printed"
    if minimal > analytic + MINIMAL_PD_SLACK:
        return f"minimal p_d {minimal!r} exceeds analytic {analytic!r}"
    return None


def check_clausius(rc, stdout: str) -> str | None:
    reason = _exit_reason(rc)
    if reason:
        return reason
    try:
        for key in ("Q_A", "Q_B", "delta_mutual_info", "clausius_lhs", "entropy_production"):
            v = _value(stdout, f"{key} = ")
            if not math.isfinite(v):
                return f"{key} is not finite"
    except ValueError as exc:
        return f"malformed output: {exc!r}"
    return None
