"""Committed CLI reports regenerate byte for byte.

``tests/goldens/`` holds the stdout of two short, timing-free commands:
the ``compare`` table and the CI smoke bench sweep.  Any change to the
optimiser, the simulator or the report layout that moves a single byte
of either shows here, in the tier-1 suite, not only in CI.
"""

from __future__ import annotations

from pathlib import Path

from repro.cli import main

GOLDENS = Path(__file__).resolve().parent / "goldens"

#: Golden file name -> the ``autopilot`` argv that prints it.
_COMMANDS = {
    "compare-budget24-seed3.txt":
        ["compare", "--budget", "24", "--seed", "3"],
    "bench-smoke-nano-budget12-seed3.txt":
        ["bench", "--tags", "smoke", "--platforms", "nano",
         "--budget", "12", "--seed", "3"],
}


def test_reports_match_committed_goldens(capsys):
    for name, argv in _COMMANDS.items():
        assert main(argv) == 0
        printed = capsys.readouterr().out
        expected = (GOLDENS / name).read_text()
        assert printed == expected, (
            f"`autopilot {' '.join(argv)}` no longer prints {name}")
