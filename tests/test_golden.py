"""Golden stdout of the single-time commands, compared byte for byte.

``golden_cli.json`` maps each command line below (joined by spaces) to the
exit code and stdout it produced when it was recorded; a change to any
kernel under these commands that moves one printed digit fails here. The
cases are ``clausius`` on both builtins at seeded times, at t = -0.5, at the
subnormal t = 1e-320 and at the two times CI checks; ``verify-decomposition
--minimal`` on every interaction factor at three times; one ``choi``
spectrum; and ``critical-time`` on both builtins, on the default grid and on
two points, and on the qutrit demo to t = 7, where it crosses nine times.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from heatctx.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")
FACTOR_CASES = [
    ("resonant-exchange", 2),
    ("resonant-detuning", 2),
    ("nonresonant", 2),
    ("partial-swap", 2),
    ("partial-swap", 3),
]


def golden_commands() -> list[list[str]]:
    rng = np.random.default_rng(20190604)
    commands = []
    for name, t_max in (("micadei", 0.005), ("qutrit-demo", 3.0)):
        times = [*rng.uniform(0.0, t_max, size=4), -0.5, 1e-320]
        commands += [["clausius", "--builtin", name, "--t", repr(float(t))] for t in times]
    # The two that CI runs through the installed console script and compares here.
    commands += [
        ["clausius", "--builtin", "qutrit-demo", "--t", "0.7"],
        ["clausius", "--builtin", "micadei", "--t", "1e-4"],
    ]
    for kind, local_dim in FACTOR_CASES:
        for t in ("0.8", "1e-4", "1e-7"):
            commands.append(
                ["verify-decomposition", "--interaction", kind, "--local-dim", str(local_dim),
                 "--t", t, "--minimal"]
            )
    commands.append(["choi", "--interaction", "partial-swap", "--local-dim", "3", "--t", "0.8"])
    for name in ("micadei", "qutrit-demo"):
        commands += [
            ["critical-time", "--builtin", name],
            ["critical-time", "--builtin", name, "--n-points", "2"],
        ]
    # Nine crossings, with the upper and lower times coincident at k pi, on the
    # default grid and on a coarse one.
    commands += [
        ["critical-time", "--builtin", "qutrit-demo", "--t-max", "7"],
        ["critical-time", "--builtin", "qutrit-demo", "--t-max", "7", "--n-points", "400"],
    ]
    return commands


def run(args: list[str]) -> dict:
    result = CliRunner().invoke(main, args)
    return {"exit_code": result.exit_code, "stdout": result.stdout}


def test_golden_file_covers_exactly_the_commands():
    assert list(json.loads(GOLDEN.read_text())) == [" ".join(c) for c in golden_commands()]


@pytest.mark.parametrize("args", golden_commands(), ids=" ".join)
def test_stdout_is_golden(args):
    assert run(args) == json.loads(GOLDEN.read_text())[" ".join(args)]
