"""Tests for the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import analysis  # noqa: E402
import run  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# Tail percentiles

@pytest.mark.parametrize("n, pct", [(19, 0.0), (20, 50.0), (39, 50.0),
                                    (40, 75.0), (100, 90.0), (199, 90.0),
                                    (200, 95.0), (1000, 99.0),
                                    (10000, 99.9)])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, pct):
    values = [float(v) for v in range(n)]
    got_pct, value = analysis.tail_percentile(values)
    assert got_pct == pct
    if pct:
        assert sum(v > value for v in values) >= analysis.TAIL_MIN_BEYOND
        assert value == pytest.approx(analysis.percentile(values, pct))
    else:
        assert value == 0.0


def test_percentile_interpolates_like_numpy():
    values = [3.0, 1.0, 4.0, 1.5, 9.0]
    assert analysis.percentile(values, 50) == 3.0
    assert analysis.percentile(values, 75) == 4.0
    assert analysis.percentile(values, 90) == pytest.approx(7.0)
    assert analysis.percentile([2.0], 99) == 2.0


# ----------------------------------------------------------------------
# Metric names

@pytest.mark.parametrize("name", ["wall_s", "gp.fit.rows", "a-b.c_d",
                                  "9lives", "x" * 64])
def test_valid_metric_names(name):
    assert analysis.valid_metric_name(name)


@pytest.mark.parametrize("name", ["", ".hidden", "_x", "has space",
                                  "per/sec", "ms%", "x" * 65, "é"])
def test_invalid_metric_names(name):
    assert not analysis.valid_metric_name(name)


def test_declared_metric_names_are_legal_and_unique():
    names = [m["name"] for m in BENCHMARK["end_to_end"]
             + BENCHMARK["per_layer"]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert all(analysis.valid_metric_name(n) for n in names)
    assert len(names) == len(set(names))


def test_per_layer_metrics_are_declared_exactly():
    op = run.Operation(seed=1, traced=True, wall_s=1.0, capture={
        "import_s": 0.1,
        "spans": [["import", 0.0, 0.1, -1], ["pipeline", 0.2, 0.9, -1]],
        "counters": {},
        "evalcache": {"lookups": 0, "hits": 0, "hit_rate": 0.0},
        "pool": {"retries": 0, "serial_fallbacks": 0},
        "runs": [{"scenario": "dense", "missions": 80.0,
                  "best_success": 0.8}],
        "phase2": [{"hv": 100.0}],
    })
    produced = set(run.layer_metrics(op)) | {"trace.overhead_s"}
    declared = [m["name"] for m in BENCHMARK["per_layer"]]
    assert produced == set(declared)
    mapped = [m for layer in run.SPEC["layers"] for m in layer["metrics"]]
    assert sorted(mapped) == sorted(declared)


def test_spec_covers_every_declared_workload_and_metric():
    workloads = {w["name"] for w in BENCHMARK["workloads"]}
    assert set(run.SPEC["workloads"]) == workloads
    assert set(run.SPEC["reference_digests"]) == workloads
    e2e = {m["name"] for m in BENCHMARK["end_to_end"]}
    assert e2e <= set(run.SPEC["end_to_end"])


# ----------------------------------------------------------------------
# Span accounting

SPANS = [
    ["import", 0.0, 1.0, -1],
    ["pipeline", 1.0, 5.0, -1],
    ["phase2", 1.5, 4.5, 1],
    ["bayesopt.run", 1.5, 4.5, 2],
    ["optim.evaluate", 1.5, 2.0, 3],
    ["optim.evaluate", 2.5, 3.0, 3],
    ["optim.evaluate", 4.0, 4.5, 3],
    ["gp.fit", 3.0, 3.5, 3],
]


def test_self_time_subtracts_children():
    own = analysis.self_times(SPANS)
    assert own[1] == pytest.approx(4.0 - 3.0)
    assert own[2] == pytest.approx(0.0)
    assert own[3] == pytest.approx(3.0 - 2.0)
    # Self times of all spans add up to the top-level spans' total.
    assert sum(own) == pytest.approx(analysis.top_level_seconds(SPANS))


def test_layer_table_counts_nested_same_name_once():
    spans = [["a", 0.0, 4.0, -1], ["a", 1.0, 2.0, 0]]
    table = analysis.layer_table(spans)
    assert table["a"]["calls"] == 2
    assert table["a"]["s"] == pytest.approx(4.0)
    assert table["a"]["self_s"] == pytest.approx(4.0)


def test_proposal_gaps_and_cell_strides():
    gaps = analysis.child_gaps(SPANS, "bayesopt.run", "optim.evaluate")
    assert gaps == pytest.approx([0.5, 1.0])
    strides = analysis.child_strides(SPANS, "bayesopt.run", "optim.evaluate")
    assert strides == pytest.approx([1.0, 1.5, 0.5])


# ----------------------------------------------------------------------
# Output checks

def _brute_hypervolume(points, reference):
    """Exact hypervolume over the grid of all point coordinates."""
    axes = [sorted({p[k] for p in points} | {reference[k]})
            for k in range(3)]
    total = 0.0
    for cell in itertools.product(*(range(len(a) - 1) for a in axes)):
        low = [axes[k][cell[k]] for k in range(3)]
        if any(all(p[k] <= low[k] for k in range(3)) for p in points):
            size = 1.0
            for k in range(3):
                size *= axes[k][cell[k] + 1] - axes[k][cell[k]]
            total += size
    return total


@pytest.mark.parametrize("seed", range(5))
def test_hypervolume_matches_brute_force(seed):
    rng = random.Random(seed)
    points = [[rng.random() for _ in range(3)] for _ in range(12)]
    reference = [1.1, 1.2, 1.3]
    assert analysis.hypervolume(points, reference) == pytest.approx(
        _brute_hypervolume(points, reference), rel=1e-12)


def _phase2():
    objectives = [[1.0, 3.0, 1.0], [2.0, 2.0, 1.0], [3.0, 1.0, 1.0],
                  [3.0, 3.0, 2.0]]
    pareto = objectives[:3]
    reference = [4.0, 4.0, 4.0]
    return {"budget": 4, "objectives": objectives,
            "keys": ["a", "b", "c", "d"], "pareto": pareto,
            "reference": reference,
            "hv": analysis.hypervolume(pareto, reference)}


def test_phase2_check_accepts_a_sound_run():
    assert analysis.check_phase2(_phase2()) == []


@pytest.mark.parametrize("corrupt, message", [
    (lambda r: r.update(budget=5), "budget"),
    (lambda r: r.update(keys=["a", "b", "b", "d"]), "repeats"),
    (lambda r: r["pareto"].append([3.0, 3.0, 2.0]), "dominated"),
    (lambda r: r.update(pareto=r["pareto"][:2]), "not covered"),
    (lambda r: r.update(hv=r["hv"] * (1 + 1e-6)), "hypervolume"),
])
def test_phase2_check_catches_each_broken_invariant(corrupt, message):
    record = _phase2()
    corrupt(record)
    problems = analysis.check_phase2(record)
    assert any(message in p for p in problems), problems


BENCH_REPORT = """Bench sweep: 2 cells
scenario  uav                 design  fps  SoC W  weight g  knee Hz  missions  success
--------  ------------------  ------  ---  -----  --------  -------  --------  -------
low       Big drone [mini]    d1      1.0  0.1    20.0      17.00    72.00     0.910
low       Small one [nano]    d1      1.0  0.1    20.0      47.00    94.09     0.910
"""


def test_bench_report_check():
    cells = [{"scenario": "low", "platform_class": "mini", "missions": 72.0},
             {"scenario": "low", "platform_class": "nano",
              "missions": 94.0912}]
    assert analysis.check_bench_report(BENCH_REPORT, cells, 2) == []
    assert analysis.check_bench_report(BENCH_REPORT, cells, 3)
    missing = cells + [{"scenario": "dense", "platform_class": "nano",
                        "missions": 1.0}]
    assert analysis.check_bench_report(BENCH_REPORT, missing, 3)
    wrong = [dict(cells[0], missions=71.0), cells[1]]
    assert analysis.check_bench_report(BENCH_REPORT, wrong, 2)


def test_hermetic_env_isolates_the_measured_program(tmp_path, monkeypatch):
    for name in ("REPRO_WORKERS", "REPRO_POOL", "REPRO_BACKEND",
                 "REPRO_BENCH_PARALLEL", "REPRO_FAULTS"):
        monkeypatch.setenv(name, "2")
    monkeypatch.setenv("PYTHONHASHSEED", "random")
    env = run.hermetic_env(tmp_path)
    assert sorted(k for k in env if k.startswith("REPRO_")) == [
        "REPRO_TUNE_DIR"]
    assert env["PYTHONHASHSEED"] == "0"
    for name in ("HOME", "REPRO_TUNE_DIR", "TMPDIR"):
        assert Path(env[name]).is_relative_to(tmp_path)
    assert env["PYTHONPATH"] == str(ROOT / "src")


# ----------------------------------------------------------------------
# End to end through real interpreters (a few seconds each)

def _small_design(monkeypatch, digest=None):
    spec = json.loads(json.dumps(run.SPEC))
    argv = spec["workloads"]["design-deep"]["argv"]
    argv[argv.index("--budget") + 1] = "20"
    spec["workloads"]["design-deep"]["seeds_per_run"] = 1
    if digest is not None:
        spec["reference_digests"]["design-deep"] = digest
    monkeypatch.setattr(run, "SPEC", spec)


def _printed(lines, name):
    """The value of a metric from the human-readable table."""
    for line in lines:
        fields = line.split()
        if fields and fields[0] == name:
            return float(fields[1])
    raise AssertionError(f"{name} not printed")


def test_wrappers_leave_the_report_unchanged(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONHASHSEED="0", HOME=str(tmp_path),
               REPRO_TUNE_DIR=str(tmp_path / "tune"))
    args = ["design", "--budget", "20", "--seed", "3", "--output"]
    reports = {}
    for mode in ("cli", "plain", "trace"):
        out = tmp_path / f"{mode}.md"
        if mode == "cli":
            cmd = [sys.executable, "-m", "repro.cli"] + args + [str(out)]
        else:
            cmd = [sys.executable, str(HERE / "child.py"), mode,
                   str(tmp_path / f"{mode}.json")] + args + [str(out)]
        subprocess.run(cmd, env=env, cwd=tmp_path, check=True,
                       stdout=subprocess.DEVNULL, timeout=120)
        reports[mode] = out.read_bytes()
    assert reports["plain"] == reports["cli"]
    assert reports["trace"] == reports["cli"]
    capture = json.loads((tmp_path / "trace.json").read_text()
                         .splitlines()[0])
    names = {span[0] for span in capture["spans"]}
    assert {"import", "pipeline", "phase2", "gp.fit",
            "hypervolume.contributions"} <= names


def test_failed_output_check_counts_in_error_rate(monkeypatch, capsys):
    _small_design(monkeypatch, digest="0" * 64)
    assert run.main(["--workload", "design-deep", "--seed",
                     str(run.SPEC["default_seed"]), "--seconds", "1",
                     "--trace", "0"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert result["correct"] is False
    assert result["attempted"] == 2
    assert result["failed"] == 2
    assert _printed(out, "error_rate") == 1.0


def test_sound_run_reports_every_metric(monkeypatch, capsys):
    _small_design(monkeypatch)
    assert run.main(["--workload", "design-deep", "--seed", "5",
                     "--seconds", "1", "--trace", "1"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"]
                                       for m in BENCHMARK["per_layer"]]
    assert _printed(out, "error_rate") == 0.0
    assert not (ROOT / ".perfbench-tmp").exists()


def test_all_runs_every_workload_in_turn(monkeypatch, capsys):
    _small_design(monkeypatch)
    spec = run.SPEC
    spec["workloads"] = {"design-deep": spec["workloads"]["design-deep"]}
    assert run.main(["--workload", "all", "--seed", "5", "--seconds", "1",
                     "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is True and result["attempted"] == 2
    assert list(result["metrics"]) == [f"design-deep.{m['name']}"
                                       for m in BENCHMARK["end_to_end"]]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "design-deep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
