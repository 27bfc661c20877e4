"""Profile-guided chunk-autotuner tests: store, answers, plumbing.

Tuning may only ever change wall time (chunking is bit-neutral), so
the contract under test here is about *answers*: no answer until two
distinct chunk sizes are measured, highest-throughput chunk wins,
caps apply, and the persisted store round-trips per machine without
clobbering other machines' profiles.
"""

from __future__ import annotations

import json

from repro.backend.autotune import (
    MIN_DISTINCT_CHUNKS,
    SAVE_EVERY,
    Autotuner,
    autotuner,
    default_store_path,
    machine_key,
    reset_autotuner,
)
from repro.core.parallel import BatchDssocEvaluator
from repro.perf import Counters
from repro.perf.profiler import PhaseRecord, ProfileReport


class TestBestChunk:
    def test_no_answer_until_two_distinct_chunks(self, tmp_path):
        tuner = Autotuner(path=tmp_path / "t.json", machine="m")
        assert MIN_DISTINCT_CHUNKS == 2
        tuner.observe("numpy", "simulate", chunk=64, items=256,
                      wall_s=0.1)
        tuner.observe("numpy", "simulate", chunk=64, items=256,
                      wall_s=0.1)
        assert tuner.best_chunk("numpy", "simulate") is None

    def test_highest_throughput_chunk_wins(self, tmp_path):
        tuner = Autotuner(path=tmp_path / "t.json", machine="m")
        tuner.observe("numpy", "simulate", chunk=64, items=256,
                      wall_s=0.4)
        tuner.observe("numpy", "simulate", chunk=128, items=256,
                      wall_s=0.1)
        assert tuner.best_chunk("numpy", "simulate") == 128

    def test_answer_capped_by_items(self, tmp_path):
        tuner = Autotuner(path=tmp_path / "t.json", machine="m")
        tuner.observe("numpy", "simulate", 64, 256, 0.4)
        tuner.observe("numpy", "simulate", 128, 256, 0.1)
        assert tuner.best_chunk("numpy", "simulate", items=40) == 40

    def test_proposal_group_hint_caps_batch_surfaces(self, tmp_path):
        tuner = Autotuner(path=tmp_path / "t.json", machine="m")
        for surface in ("simulate", "step"):
            tuner.observe("numpy", surface, 64, 256, 0.4)
            tuner.observe("numpy", surface, 128, 256, 0.1)
        tuner.hint("proposal_group", 8.0)
        # Batch-evaluation surfaces never see calls larger than a
        # proposal group mid-run, so tuning past it is pointless...
        assert tuner.best_chunk("numpy", "simulate") == 8
        # ...but rollout surfaces are unrelated to proposal groups.
        assert tuner.best_chunk("numpy", "step") == 128

    def test_surfaces_and_backends_are_independent(self, tmp_path):
        tuner = Autotuner(path=tmp_path / "t.json", machine="m")
        tuner.observe("numpy", "simulate", 64, 256, 0.1)
        tuner.observe("numpy", "simulate", 128, 256, 0.4)
        assert tuner.best_chunk("numpy", "power") is None
        assert tuner.best_chunk("pool", "simulate") is None

    def test_degenerate_observations_ignored(self, tmp_path):
        tuner = Autotuner(path=tmp_path / "t.json", machine="m")
        tuner.observe("numpy", "simulate", 0, 256, 0.1)
        tuner.observe("numpy", "simulate", 64, 0, 0.1)
        tuner.observe("numpy", "simulate", 64, 256, 0.0)
        assert tuner.observation_count("numpy", "simulate") == 0


class TestStore:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.json"
        tuner = Autotuner(path=path, machine="m")
        tuner.observe("numpy", "simulate", 64, 256, 0.4)
        tuner.observe("numpy", "simulate", 128, 256, 0.1)
        tuner.hint("proposal_group", 16.0)
        tuner.save()

        reloaded = Autotuner(path=path, machine="m")
        assert reloaded.observation_count("numpy", "simulate") == 2
        assert reloaded.best_chunk("numpy", "simulate") == 16

    def test_other_machines_preserved(self, tmp_path):
        path = tmp_path / "t.json"
        other = Autotuner(path=path, machine="other-box")
        other.observe("numpy", "simulate", 32, 64, 0.2)
        other.save()

        mine = Autotuner(path=path, machine="my-box")
        mine.observe("numpy", "simulate", 64, 256, 0.1)
        mine.save()

        payload = json.loads(path.read_text())
        assert set(payload["machines"]) == {"other-box", "my-box"}
        assert Autotuner(path=path, machine="other-box") \
            .observation_count("numpy", "simulate") == 1

    def test_corrupt_store_degrades_to_empty(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text("{ not json")
        tuner = Autotuner(path=path, machine="m")
        assert tuner.observation_count("numpy", "simulate") == 0
        tuner.observe("numpy", "simulate", 64, 256, 0.1)
        tuner.save()
        assert json.loads(path.read_text())["machines"]["m"]

    def test_unwritable_store_is_not_an_error(self, tmp_path):
        tuner = Autotuner(path=tmp_path / "no" / "such" / "t.json",
                          machine="m")
        # Parent creation may fail on read-only roots; simulate by
        # pointing the path at a directory.
        tuner.path = tmp_path
        tuner.observe("numpy", "simulate", 64, 256, 0.1)
        tuner.save()  # best-effort: no exception
        assert tuner.observation_count("numpy", "simulate") == 1

    def test_throttled_autosave(self, tmp_path):
        path = tmp_path / "t.json"
        tuner = Autotuner(path=path, machine="m")
        for index in range(SAVE_EVERY):
            tuner.observe("numpy", "simulate", 64, 256, 0.1)
        assert path.exists()

    def test_machine_key_and_default_path(self, monkeypatch, tmp_path):
        assert "cpu" in machine_key()
        monkeypatch.setenv("REPRO_TUNE_DIR", str(tmp_path))
        assert default_store_path() == tmp_path / "autotune.json"

    def test_unset_tune_dir_keeps_the_profile_in_memory(self, monkeypatch,
                                                        tmp_path):
        monkeypatch.delenv("REPRO_TUNE_DIR", raising=False)
        monkeypatch.setenv("HOME", str(tmp_path))
        assert default_store_path() is None
        tuner = Autotuner(machine="m")
        assert tuner.path is None
        for _ in range(SAVE_EVERY + 1):
            tuner.observe("numpy", "simulate", 64, 256, 0.1)
        tuner.observe("numpy", "simulate", 128, 256, 0.05)
        tuner.save()
        assert tuner.observation_count("numpy", "simulate") == SAVE_EVERY + 2
        assert tuner.best_chunk("numpy", "simulate") == 128
        assert list(tmp_path.iterdir()) == []


def _report_with(**sets: Counters) -> ProfileReport:
    record = PhaseRecord(name="phase2")
    for name, delta in sets.items():
        record.counters[name].merge(delta)
    return ProfileReport(phases=[record], total_wall_s=1.0, counters={})


class TestIngestReport:
    def test_proposal_group_hint_caps_pool_chunks(self):
        tuner = autotuner()
        batch = Counters(batch_calls=4, batched_designs=128,
                         kernel_designs=100, kernel_wall_s=0.25)
        proposals = Counters(proposal_groups=5, proposed_points=40)
        tuner.ingest_report(_report_with(batch=batch, proposals=proposals),
                            "numpy")
        # The two pool chunk sizes unlock an answer, capped by the
        # ingested proposal-group hint (mean group = 8).
        tuner.observe("pool", "simulate", 32, 256, 0.01)
        tuner.observe("pool", "simulate", 64, 256, 0.001)
        assert tuner.best_chunk("pool", "simulate") == 8


class TestPoolChunkHeuristicFallback:
    """Regression: the PR-6 spread heuristic stays the untuned default."""

    def test_untuned_machine_uses_spread_heuristic(self):
        evaluator = BatchDssocEvaluator(workers=4, chunksize=16)
        # ceil(40 / 4) = 10 < static 16: spread wins, exactly as PR 6.
        assert evaluator.pool_chunksize(40) == 10
        # Large pools cap at the static chunk size.
        assert evaluator.pool_chunksize(4096) == 16

    def test_tuned_profile_overrides_heuristic(self, fresh_autotuner):
        fresh_autotuner.observe("pool", "simulate", 10, 256, 0.4)
        fresh_autotuner.observe("pool", "simulate", 24, 256, 0.1)
        evaluator = BatchDssocEvaluator(workers=4, chunksize=16)
        assert evaluator.pool_chunksize(4096) == 24
        # The tuned answer is still capped by the pool size.
        assert evaluator.pool_chunksize(12) == 12


class TestSingleton:
    def test_reset_replaces_process_tuner(self, tmp_path):
        replaced = reset_autotuner(path=tmp_path / "x.json", machine="m")
        assert autotuner() is replaced
