"""Backward compatibility of checkpoint manifests and CLI handles.

The registry widened the scenario axis from an enum to id strings; an
old checkpoint directory written before that must keep loading, and its
``scenario`` field must resolve to the same enum handle (hence the same
cache keys and journals) it was written with.  New registry ids must
round-trip through the same manifest machinery.
"""

from __future__ import annotations

import argparse
import json

import pytest

from repro.airlearning.scenarios import Scenario, ScenarioSpec, scenario_ids
from repro.airlearning.trainer import CemTrainer
from repro.bench.runner import BENCH_MANIFEST_NAME, BenchManifest, BenchRunner
from repro.bench.suite import build_suite
from repro.cli import (_autopilot, _restore_bench_args,
                       _restore_from_manifest, build_parser, main)
from repro.core.checkpoint import MANIFEST_NAME, RunManifest
from repro.core.pipeline import AutoPilot
from repro.core.spec import TaskSpec
from repro.errors import CheckpointError
from repro.uav.platforms import NANO_ZHANG

# The exact manifest JSON shape the pre-registry code wrote (schema 1,
# legacy enum value in `scenario`).  Loading this file must keep
# working forever -- users have such directories on disk.
_OLD_HEAD_MANIFEST = {
    "uav": "Zhang et al. nano-UAV",
    "scenario": "dense",
    "seed": 7,
    "budget": 40,
    "sensor_fps": 60.0,
    "frontend_backend": "surrogate",
    "trainer": None,
    "proposal_batch": 1,
    "fidelity": "off",
    "promotion_eta": 0.5,
    "array_backend": "numpy",
    "status": {"phase1": "complete", "phase2": "running",
               "phase3": "pending"},
    "phase2_evaluations": 12,
    "schema": 1,
}


def _design_args(**overrides):
    args = argparse.Namespace(
        uav="nano", scenario="dense", sensor_fps=60.0, seed=0, budget=1,
        phase1_backend="surrogate", proposal_batch=1, fidelity="off",
        promotion_eta=0.5, workers=None)
    for key, value in overrides.items():
        setattr(args, key, value)
    return args


def test_old_head_manifest_loads_and_restores_enum_handle(tmp_path):
    (tmp_path / MANIFEST_NAME).write_text(json.dumps(_OLD_HEAD_MANIFEST))
    manifest = RunManifest.load(tmp_path)
    assert manifest.scenario == "dense"

    args = _design_args()
    task = _restore_from_manifest(args, manifest)
    assert task.scenario is Scenario.DENSE
    assert task.platform.name == "Zhang et al. nano-UAV"
    assert args.seed == 7 and args.budget == 40


def test_registry_id_manifest_round_trips(tmp_path):
    from repro.airlearning.scenarios import resolve_scenario

    pilot = AutoPilot(seed=3)
    task = TaskSpec(platform=NANO_ZHANG,
                    scenario=resolve_scenario("urban-canyon"))
    manifest = pilot._manifest_for(task, budget=9)
    assert manifest.scenario == "urban-canyon"
    manifest.save(tmp_path)
    loaded = RunManifest.load(tmp_path)
    assert loaded == manifest

    args = _design_args()
    restored = _restore_from_manifest(args, loaded)
    assert isinstance(restored.scenario, ScenarioSpec)
    assert restored.scenario.value == "urban-canyon"


def test_manifest_with_unknown_scenario_id_fails_loudly(tmp_path):
    payload = dict(_OLD_HEAD_MANIFEST, scenario="no-such-place")
    (tmp_path / MANIFEST_NAME).write_text(json.dumps(payload))
    manifest = RunManifest.load(tmp_path)
    from repro.errors import ConfigError
    with pytest.raises(ConfigError, match="unknown scenario"):
        _restore_from_manifest(_design_args(), manifest)


def test_checkpointed_run_with_registry_scenario_resumes(tmp_path):
    """A full pipeline checkpoint keyed by a registry id verifies on
    resume and replays to the identical selection."""
    from repro.airlearning.scenarios import resolve_scenario

    task = TaskSpec(platform=NANO_ZHANG,
                    scenario=resolve_scenario("corridor-narrow"))
    run_dir = tmp_path / "run"
    first = AutoPilot(seed=5).run(task, budget=6, checkpoint_dir=run_dir)
    resumed = AutoPilot(seed=5).run(task, budget=6, checkpoint_dir=run_dir,
                                    resume=True)
    assert (first.selected.candidate.design
            == resumed.selected.candidate.design)
    assert first.selected.num_missions == resumed.selected.num_missions

    # Resuming under a different scenario id must be refused.
    other = TaskSpec(platform=NANO_ZHANG,
                     scenario=resolve_scenario("corridor-wide"))
    with pytest.raises(CheckpointError, match="scenario"):
        AutoPilot(seed=5).run(other, budget=6, checkpoint_dir=run_dir,
                              resume=True)


def _record_array_backend(path, value):
    """Rewrite a manifest as the selectable-backend code wrote it.

    ``None`` drops the field (manifests older than the backend seam).
    """
    payload = json.loads(path.read_text())
    payload.pop("array_backend", None)
    if value is not None:
        payload["array_backend"] = value
    path.write_text(json.dumps(payload))


_DESIGN_ARGV = ["design", "--uav", "nano", "--scenario", "low",
                "--budget", "6", "--seed", "3"]
_BENCH_ARGV = ["bench", "--scenarios", "low,dense", "--platforms", "nano",
               "--budget", "6", "--seed", "3"]


class TestRecordedArrayBackend:
    """Manifests from when the array backend was selectable.

    ``numpy`` and ``threaded`` were bit-identical to today's kernels, so
    their runs resume to the same output; ``numba``/``jax`` journals
    came from looser arithmetic and are refused.
    """

    @pytest.mark.parametrize("recorded", [None, "numpy", "threaded"],
                             ids=["absent", "numpy", "threaded"])
    def test_run_manifest_resumes_identically(self, tmp_path, capsys,
                                              recorded):
        run_dir = tmp_path / "run"
        assert main(_DESIGN_ARGV + ["--checkpoint-dir", str(run_dir)]) == 0
        first = capsys.readouterr().out
        _record_array_backend(run_dir / MANIFEST_NAME, recorded)
        assert RunManifest.load(run_dir).seed == 3
        assert main(["design", "--resume", str(run_dir)]) == 0
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("recorded", [None, "numpy", "threaded"],
                             ids=["absent", "numpy", "threaded"])
    def test_bench_manifest_resumes_identically(self, tmp_path, capsys,
                                                recorded):
        bench_dir = tmp_path / "bench"
        assert main(_BENCH_ARGV + ["--checkpoint-dir", str(bench_dir)]) == 0
        first = capsys.readouterr().out
        _record_array_backend(bench_dir / BENCH_MANIFEST_NAME, recorded)
        for cell_manifest in bench_dir.glob(f"cells/*/{MANIFEST_NAME}"):
            _record_array_backend(cell_manifest, recorded)
        assert BenchManifest.load(bench_dir).seed == 3
        assert main(["bench", "--resume", str(bench_dir)]) == 0
        assert capsys.readouterr().out == first

    def test_inexact_run_manifest_is_refused(self, tmp_path, capsys):
        payload = dict(_OLD_HEAD_MANIFEST, array_backend="numba")
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="array_backend 'numba'"):
            RunManifest.load(tmp_path)
        assert main(["design", "--resume", str(tmp_path)]) == 2
        assert "array_backend" in capsys.readouterr().err

    def test_inexact_bench_manifest_is_refused(self, tmp_path, capsys):
        bench_dir = tmp_path / "bench"
        assert main(_BENCH_ARGV + ["--checkpoint-dir", str(bench_dir)]) == 0
        capsys.readouterr()
        _record_array_backend(bench_dir / BENCH_MANIFEST_NAME, "jax")
        with pytest.raises(CheckpointError, match="array_backend 'jax'"):
            BenchManifest.load(bench_dir)
        assert main(["bench", "--resume", str(bench_dir)]) == 2
        assert "array_backend" in capsys.readouterr().err


def _record_fields(path, **values):
    """Rewrite a manifest with extra recorded fields (``None`` drops one)."""
    payload = json.loads(path.read_text())
    for name, value in values.items():
        payload.pop(name, None)
        if value is not None:
            payload[name] = value
    path.write_text(json.dumps(payload))


class TestRecordedPoolMode:
    """Manifests from when the pool mode and cell width were selectable.

    ``cold`` and ``warm`` pools and concurrent bench cells were all
    bit-identical to the one persistent pool every run now uses, so
    their runs resume to the same output.
    """

    @pytest.mark.parametrize("pool", [None, "cold", "warm"],
                             ids=["absent", "cold", "warm"])
    def test_run_manifest_resumes_identically(self, tmp_path, capsys, pool):
        run_dir = tmp_path / "run"
        assert main(_DESIGN_ARGV + ["--checkpoint-dir", str(run_dir)]) == 0
        first = capsys.readouterr().out
        _record_fields(run_dir / MANIFEST_NAME, pool=pool)
        assert main(["design", "--resume", str(run_dir)]) == 0
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("pool,bench_parallel",
                             [(None, None), ("cold", 1), ("warm", 2)],
                             ids=["absent", "cold", "warm-parallel"])
    def test_bench_manifest_resumes_identically(self, tmp_path, capsys,
                                                pool, bench_parallel):
        bench_dir = tmp_path / "bench"
        assert main(_BENCH_ARGV + ["--checkpoint-dir", str(bench_dir)]) == 0
        first = capsys.readouterr().out
        _record_fields(bench_dir / BENCH_MANIFEST_NAME, pool=pool,
                       bench_parallel=bench_parallel)
        for cell_manifest in bench_dir.glob(f"cells/*/{MANIFEST_NAME}"):
            _record_fields(cell_manifest, pool=pool)
        assert main(["bench", "--resume", str(bench_dir)]) == 0
        assert capsys.readouterr().out == first


class TestRecordedScalarEngine:
    """Manifests from when the rollout engine was a CLI flag.

    Fresh runs always train on the vectorised engine, but a checkpoint
    that recorded the scalar reference engine resumes under it: the
    rebuilt pipeline describes exactly the recorded configuration, so
    the resume verification accepts it.
    """

    @staticmethod
    def _scalar_pilot():
        trainer = CemTrainer(population_size=4, iterations=1,
                             episodes_per_candidate=1, seed=3,
                             engine="scalar", cache=True)
        return AutoPilot(seed=3, frontend_backend="trainer",
                         trainer=trainer)

    def test_run_manifest_resumes_under_scalar_engine(self, tmp_path):
        task = TaskSpec(platform=NANO_ZHANG, scenario=Scenario.LOW)
        self._scalar_pilot()._manifest_for(task, budget=6).save(tmp_path)
        loaded = RunManifest.load(tmp_path)
        assert loaded.trainer["engine"] == "scalar"

        args = _design_args()
        task = _restore_from_manifest(args, loaded)
        pilot = _autopilot(args)
        assert pilot.frontend.trainer.engine == "scalar"
        assert pilot._manifest_for(task, args.budget) == loaded

    def test_bench_manifest_resumes_under_scalar_engine(self, tmp_path):
        suite = build_suite(ids=["low", "dense"], platforms=["nano"])
        runner = BenchRunner(self._scalar_pilot(), budget=6)
        runner.manifest_for(suite).save(tmp_path)
        loaded = BenchManifest.load(tmp_path)
        assert loaded.trainer["engine"] == "scalar"

        args = _design_args()
        _restore_bench_args(args, loaded)
        pilot = _autopilot(args)
        assert pilot.frontend.trainer.engine == "scalar"
        resumed = BenchRunner(pilot, budget=args.budget,
                              sensor_fps=args.sensor_fps)
        assert resumed.manifest_for(suite) == loaded


class TestParserScenarioChoices:
    def test_parser_accepts_every_registry_id(self):
        parser = build_parser()
        for scenario_id in scenario_ids():
            args = parser.parse_args(
                ["design", "--scenario", scenario_id, "--budget", "1"])
            assert args.scenario == scenario_id

    def test_parser_rejects_unknown_scenario(self, capsys):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["design", "--scenario", "not-a-scenario"])
        assert "invalid choice" in capsys.readouterr().err

    def test_legacy_default_unchanged(self):
        args = build_parser().parse_args(["design"])
        assert args.scenario == "dense"
