"""Atomicity and merge semantics of the benchmark results writer.

``benchmarks/`` is not a package (pytest's tier-1 testpaths exclude
it), so the module under test is loaded by file path.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_RESULTS_PY = (Path(__file__).resolve().parent.parent
               / "benchmarks" / "_results.py")


@pytest.fixture(scope="module")
def results():
    spec = importlib.util.spec_from_file_location("bench_results",
                                                  _RESULTS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestMergeResults:
    def test_fresh_file_and_section_merge(self, results, tmp_path):
        path = tmp_path / "bench.json"
        results.merge_results(path, {"speedup": 2.0}, section="runtime")
        results.merge_results(path, {"batch_eval": {"ok": True}})
        payload = json.loads(path.read_text())
        assert payload == {"runtime": {"speedup": 2.0},
                           "batch_eval": {"ok": True}}

    def test_sections_overwrite_only_themselves(self, results, tmp_path):
        path = tmp_path / "bench.json"
        results.merge_results(path, {"a": 1}, section="one")
        results.merge_results(path, {"b": 2}, section="two")
        results.merge_results(path, {"a": 3}, section="one")
        assert json.loads(path.read_text()) == {"one": {"a": 3},
                                                "two": {"b": 2}}

    def test_corrupt_file_degrades_to_empty(self, results, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text("{ truncated")
        results.merge_results(path, {"a": 1}, section="one")
        assert json.loads(path.read_text()) == {"one": {"a": 1}}

    def test_write_is_atomic_no_temp_left_behind(self, results, tmp_path):
        path = tmp_path / "bench.json"
        results.merge_results(path, {"a": 1}, section="one")
        results.merge_results(path, {"b": 2}, section="two")
        assert [p.name for p in tmp_path.iterdir()] == ["bench.json"]

    def test_failed_write_leaves_previous_file_intact(self, results,
                                                      tmp_path,
                                                      monkeypatch):
        path = tmp_path / "bench.json"
        results.merge_results(path, {"a": 1}, section="one")
        before = path.read_text()

        def exploding_replace(src, dst):
            raise OSError("simulated crash mid-rename")

        monkeypatch.setattr(results.os, "replace", exploding_replace)
        with pytest.raises(OSError, match="simulated crash"):
            results.merge_results(path, {"b": 2}, section="two")
        # Previous contents intact, no temp debris.
        assert path.read_text() == before
        assert [p.name for p in tmp_path.iterdir()] == ["bench.json"]
