"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.core.checkpoint import RunManifest
from repro.testing import faults


@pytest.fixture(autouse=True)
def _clean_injector():
    faults.uninstall_injector()
    yield
    faults.uninstall_injector()


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_design_defaults(self):
        args = build_parser().parse_args(["design"])
        assert args.uav == "nano"
        assert args.scenario == "dense"
        assert args.budget == 100
        assert args.checkpoint_dir is None
        assert args.resume is None

    def test_rejects_unknown_uav(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["design", "--uav", "jumbo"])

    def test_checkpoint_dir_and_resume_are_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["design", "--checkpoint-dir", "a",
                                       "--resume", "b"])

    def test_sweep_validates_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--layers", "42"])

    def test_rejects_unknown_backend(self):
        # The kernels always run on NumPy, every run shares one
        # persistent worker pool and fresh Phase 1 training always uses
        # the vectorised rollout engine; no subcommand takes --backend,
        # --pool or --rollout-engine, and bench cells always run in
        # suite order.
        for command in ("design", "bench", "compare", "sweep"):
            for flag in (["--backend", "numpy"], ["--pool", "warm"],
                         ["--rollout-engine", "vec"]):
                with pytest.raises(SystemExit):
                    build_parser().parse_args([command] + flag)
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "--bench-parallel", "2"])


class TestBadInput:
    @pytest.mark.parametrize("argv,env", [
        (["design", "--workers", "0"], {}),
        (["design", "--budget", "0"], {}),
        (["design", "--proposal-batch", "0"], {}),
        (["compare", "--workers", "0"], {}),
        (["design"], {"REPRO_WORKERS": "abc"}),
    ], ids=["design-workers", "design-budget", "design-proposal-batch",
            "compare-workers", "env-workers"])
    def test_config_error_is_a_clean_exit(self, argv, env, monkeypatch,
                                          capsys):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err


class TestCommands:
    def test_f1_command(self, capsys):
        assert main(["f1", "--uav", "nano", "--payload", "24"]) == 0
        out = capsys.readouterr().out
        assert "knee-point" in out
        assert "46" in out  # the calibrated nano knee

    def test_sweep_command(self, capsys):
        assert main(["sweep", "--layers", "4", "--filters", "32"]) == 0
        out = capsys.readouterr().out
        assert "Pareto" in out
        assert "e2e-L4-F32" in out

    def test_design_command_small_budget(self, capsys):
        assert main(["design", "--uav", "nano", "--scenario", "low",
                     "--budget", "15", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "AutoPilot design report" in out
        assert "Missions per charge" in out

    def test_design_writes_report_file(self, tmp_path, capsys):
        path = tmp_path / "report.md"
        assert main(["design", "--uav", "micro", "--scenario", "low",
                     "--budget", "15", "--seed", "3",
                     "--output", str(path)]) == 0
        assert path.exists()
        assert "AutoPilot design report" in path.read_text()

    def test_compare_command(self, capsys):
        assert main(["compare", "--uav", "nano", "--scenario", "low",
                     "--budget", "15", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "Jetson TX2" in out
        assert "PULP-DroNet" in out
        assert "AutoPilot" in out

    def test_design_report_names_the_backend(self, capsys):
        assert main(["design", "--uav", "nano", "--scenario", "low",
                     "--budget", "15", "--seed", "3", "--profile"]) == 0
        lines = capsys.readouterr().out.splitlines()
        # Pinned verbatim: report digests hash this line.
        assert ("- Array backend: numpy "
                "[exact (bit-identical to the NumPy oracle)]") in lines
        assert "backend: numpy [exact]" in lines  # --profile label

    def test_sweep_honours_backend(self, capsys):
        assert main(["sweep", "--layers", "4", "--filters", "32",
                     "--profile"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "backend: numpy [exact]" in lines


DESIGN_ARGS = ["design", "--uav", "nano", "--scenario", "low",
               "--budget", "15", "--seed", "3"]


class TestCheckpointCli:
    def test_checkpoint_dir_then_resume_round_trip(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main(DESIGN_ARGS + ["--checkpoint-dir", str(run_dir)]) == 0
        first = capsys.readouterr().out
        assert "AutoPilot design report" in first
        manifest = RunManifest.load(run_dir)
        assert manifest.status["phase3"] == "complete"
        # Resuming a completed run replays the journals and reproduces
        # the report verbatim -- seed, budget and task all come from
        # the manifest, not the command line.
        assert main(["design", "--resume", str(run_dir)]) == 0
        assert capsys.readouterr().out == first

    def test_interrupted_run_resumes_to_identical_report(self, tmp_path,
                                                         capsys):
        assert main(DESIGN_ARGS) == 0
        baseline = capsys.readouterr().out
        run_dir = tmp_path / "run"
        # Kill the process (simulated) mid-phase-2: after the initial
        # manifest writes and the phase 1 journal, a handful of phase 2
        # evaluations have been journalled when write #35 dies.
        with pytest.raises(faults.SimulatedKill):
            with faults.active_faults("kill@checkpoint-write:35"):
                main(DESIGN_ARGS + ["--checkpoint-dir", str(run_dir)])
        capsys.readouterr()
        assert main(["design", "--resume", str(run_dir)]) == 0
        assert capsys.readouterr().out == baseline

    def test_resume_missing_manifest_is_a_clean_error(self, tmp_path,
                                                      capsys):
        assert main(["design", "--resume", str(tmp_path / "nowhere")]) == 2
        captured = capsys.readouterr()
        assert "no run manifest found" in captured.err
        assert captured.out == ""

    def test_resume_corrupt_manifest_is_a_clean_error(self, tmp_path,
                                                      capsys):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "manifest.json").write_text("{not json")
        assert main(["design", "--resume", str(run_dir)]) == 2
        assert "corrupt run manifest" in capsys.readouterr().err

    def test_resume_ignores_conflicting_command_line_args(self, tmp_path,
                                                          capsys):
        run_dir = tmp_path / "run"
        assert main(DESIGN_ARGS + ["--checkpoint-dir", str(run_dir)]) == 0
        first = capsys.readouterr().out
        # Different --seed/--budget on the resume command line are
        # overridden by the recorded manifest.
        assert main(["design", "--resume", str(run_dir),
                     "--seed", "99", "--budget", "40"]) == 0
        assert capsys.readouterr().out == first
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["seed"] == 3
        assert manifest["budget"] == 15


class TestHermeticRun:
    def test_plain_design_writes_nothing_under_home(self, tmp_path):
        """Two fresh interpreters that differ in home, cwd, hash
        randomisation and BLAS thread count print the same report, and
        neither leaves anything in its home or cwd."""
        reports, dirs = [], []
        for name, hash_seed, blas_threads in (("a", "1", "1"),
                                              ("b", "2", None)):
            home, cwd = tmp_path / f"home-{name}", tmp_path / f"cwd-{name}"
            home.mkdir()
            cwd.mkdir()
            env = {key: value for key, value in os.environ.items()
                   if key not in ("REPRO_TUNE_DIR", "OPENBLAS_NUM_THREADS")}
            env["HOME"] = str(home)
            env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent
                                    / "src")
            env["PYTHONHASHSEED"] = hash_seed
            if blas_threads is not None:
                env["OPENBLAS_NUM_THREADS"] = blas_threads
            completed = subprocess.run(
                [sys.executable, "-m", "repro.cli", "design",
                 "--budget", "24", "--seed", "3"],
                cwd=cwd, env=env, capture_output=True, text=True,
                timeout=300)
            assert completed.returncode == 0, completed.stderr
            reports.append(completed.stdout)
            dirs += [home, cwd]
        assert "AutoPilot design report" in reports[0]
        assert reports[0] == reports[1]
        for directory in dirs:
            assert list(directory.iterdir()) == [], directory
