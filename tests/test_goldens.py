"""Committed CLI reports regenerate byte for byte.

``tests/goldens/`` holds the stdout of two short, timing-free commands:
the ``compare`` table and the CI smoke bench sweep.  Any change to the
optimiser, the simulator or the report layout that moves a single byte
of either shows here, in the tier-1 suite, not only in CI.  It also
holds the ``--profile`` section of one ``design`` run with its
wall-clock fields masked, so every counter line is pinned too.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

from repro.cli import main

GOLDENS = Path(__file__).resolve().parent / "goldens"
SRC = Path(__file__).resolve().parent.parent / "src"

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


#: A run that prints every per-phase counter line of the profile:
#: ``gp:``, ``proposals:``, ``batches:`` and ``fidelity:``.
PROFILE_ARGV = ["design", "--budget", "40", "--seed", "3",
                "--proposal-batch", "4", "--gp-refit-every", "4",
                "--fidelity", "on", "--profile"]
PROFILE_GOLDEN = "profile-design-budget40-seed3.txt"

#: A phase-table row (name, then wall seconds); the slices are the
#: ``wall s``, ``evals/s`` and ``steps/s`` columns of that fixed-width row.
_TABLE_ROW = re.compile(r"^\S+ +\d+\.\d{3} ")
_TIMED_COLUMNS = ((19, 27), (36, 45), (56, 65))
_TIMED_FIELDS = (
    (re.compile(r"\(\d+\.\d{3} s"), "(#.### s"),
    (re.compile(r"~\d+\.\d{2} s saved"), "~#.## s saved"),
)


def mask_profile(text: str) -> str:
    """The ``## Profile`` section of ``text`` with wall-clock fields masked."""
    section = text[text.index("## Profile"):]
    lines = []
    for line in section.splitlines():
        if _TABLE_ROW.match(line):
            for start, end in _TIMED_COLUMNS:
                line = line[:start] + "#" * (end - start) + line[end:]
        for pattern, mask in _TIMED_FIELDS:
            line = pattern.sub(mask, line)
        lines.append(line)
    return "\n".join(lines) + "\n"


def run_cli(argv, extra_env=None) -> str:
    """stdout of ``autopilot argv`` in a fresh interpreter.

    A fresh process starts with an empty report cache, so hit rates and
    kernel-simulated design counts do not depend on earlier tests.
    """
    env = {key: value for key, value in os.environ.items()
           if key != "REPRO_FAULTS"}
    env["PYTHONPATH"] = str(SRC)
    env.update(extra_env or {})
    completed = subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv], env=env,
        capture_output=True, text=True, timeout=300)
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


def test_profile_counter_lines_match_committed_golden():
    printed = mask_profile(run_cli(PROFILE_ARGV))
    expected = (GOLDENS / PROFILE_GOLDEN).read_text()
    assert printed == expected, (
        f"`autopilot {' '.join(PROFILE_ARGV)}` no longer prints the "
        f"profile pinned in {PROFILE_GOLDEN}")


def test_profile_renders_injected_pool_fault():
    printed = run_cli(["design", "--budget", "24", "--seed", "3",
                       "--workers", "2", "--profile"],
                      {"REPRO_FAULTS": "transient@pool-task:0"})
    assert ("pool faults: 1 chunk failures, 1 retries, 0 respawns, "
            "0 poisoned, 0 unpicklable, 0 serial-fallback chunks"
            ) in printed.splitlines()
