"""End-to-end benchmark of the ``autopilot`` CLI.

Usage, from the repository root::

    python3 perfbench/run.py --workload design-deep --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36

Each measured operation is one fresh interpreter that runs the real CLI
(``child.py`` calls ``repro.cli.main``) on the workload's arguments, in
its own temporary ``HOME``, ``REPRO_TUNE_DIR``, working directory and
checkpoint directory, with ``PYTHONHASHSEED`` fixed and every other
``REPRO_*`` variable cleared so the caller's shell cannot change the
program being measured.  The BLAS thread setting is recorded, not
overridden.

A run derives ``seeds_per_run`` program seeds from ``--seed`` and runs
each of them once per round, for as many rounds as fit in ``--seconds``
(at least two, so every report is compared with a repeat of itself).
A time metric is the median over a seed's rounds, averaged over the
seeds; a quality metric is averaged over the seeds.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each
seed both plain and traced (order alternating) and prints the per-layer
metrics of the traced runs; ``trace.overhead_s`` is the difference of
the two medians.

Every operation's output is checked: exit status, byte-identical reports
across repeats of a seed and between traced and plain runs, reference
digests on the default seed, a Phase 2 that spent exactly its budget on
unique designs, a non-dominated and complete reported Pareto set whose
hypervolume matches an independent recomputation, and on ``bench`` a
report row for every suite cell.  A failed check or a non-zero exit
counts the operation as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import analysis

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((HERE / "spec.json").read_text())

#: A run starts no operation this long after it began.
DEADLINE_S = 150.0

_PROBE = r"""
import ctypes, json, platform
import numpy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
threads = None
for line in open("/proc/self/maps"):
    path = line.split()[-1]
    if "openblas" not in path.lower() or not path.startswith("/"):
        continue
    lib = ctypes.CDLL(path)
    for symbol in ("scipy_openblas_get_num_threads64_",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
        if hasattr(lib, symbol):
            threads = getattr(lib, symbol)()
            break
    if threads is not None:
        break
print(json.dumps({
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "blas": blas.get("name"),
    "blas_version": blas.get("version"),
    "blas_threads": threads,
}))
"""


@dataclass
class Operation:
    """One measured interpreter running one workload on one seed."""

    seed: int
    traced: bool
    problems: List[str] = field(default_factory=list)
    wall_s: float = 0.0
    cpu_s: float = 0.0
    setup_s: float = 0.0
    peak_rss_mb: float = 0.0
    digest: str = ""
    capture: Optional[dict] = None
    checkpoint_bytes: int = 0
    #: Interpreter start-up (spawn to ``import repro.cli``) and exit (end
    #: of the CLI call to process exit, the epilogue excluded).
    start_s: float = 0.0
    exit_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.problems


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _tree_bytes(path: Path) -> int:
    if not path.exists():
        return 0
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def hermetic_env(work: Path) -> Dict[str, str]:
    """The caller's environment without ``REPRO_*``, isolated per run."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    home = work / "home"
    home.mkdir(exist_ok=True)
    env.update(HOME=str(home), REPRO_TUNE_DIR=str(work / "tune"),
               TMPDIR=str(work), PYTHONHASHSEED="0",
               PYTHONPATH=str(ROOT / "src"))
    return env


class Bench:
    """Runs one workload for one ``--seed`` and derives its metrics."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool, tmp: Path):
        self.name = workload
        self.spec = SPEC["workloads"][workload]
        self.seeds = [seed + 1000 * i
                      for i in range(self.spec["seeds_per_run"])]
        self.seconds = seconds
        self.trace = trace
        self.tmp = tmp
        self.start = time.monotonic()
        self.deadline = self.start + DEADLINE_S
        self.operations: List[Operation] = []

    # ------------------------------------------------------------------
    def run(self) -> None:
        """Cycle through the seeds one operation at a time (a plain and a
        traced one, in alternating order, when tracing) until another
        would overrun ``--seconds``.

        Plain runs cover every seed once plus a repeat of the first, so
        each run compares a report with a repeat of itself; traced runs
        make at least two pairs.
        """
        count = len(self.seeds)
        minimum = 2 if self.trace else count + 1
        first = time.monotonic()
        done = 0
        while True:
            modes = [False, True] if self.trace else [False]
            if done % 2:
                modes.reverse()
            for traced in modes:
                self.operations.append(self.invoke(self.seeds[done % count],
                                                   traced))
            done += 1
            now = time.monotonic()
            step = (now - first) / done
            if now + step > self.deadline:
                break
            if done >= minimum and now - self.start + step > self.seconds:
                break
        self.cross_check()

    def invoke(self, seed: int, traced: bool) -> Operation:
        work = Path(tempfile.mkdtemp(dir=self.tmp))
        report = work / "report.md"
        capture_path = work / "capture.json"
        checkpoint = work / "checkpoint"
        cli = [arg.format(seed=seed, output=report, checkpoint=checkpoint)
               for arg in self.spec["argv"]]
        cmd = [sys.executable, str(HERE / "child.py"),
               "trace" if traced else "plain", str(capture_path)] + cli
        op = Operation(seed=seed, traced=traced)
        env = hermetic_env(work)
        with open(work / "stdout", "wb") as out, \
                open(work / "stderr", "wb") as err:
            start = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=work, env=env, stdout=out,
                                    stderr=err, start_new_session=True)
            # A run past its deadline is killed, so the benchmark always
            # exits inside three minutes.
            timer = threading.Timer(
                max(1.0, self.deadline + 15.0 - start), _kill_group,
                (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            end = time.monotonic()
            proc.returncode = os.waitstatus_to_exitcode(status)
        try:
            if proc.returncode != 0:
                tail = (work / "stderr").read_text(errors="replace")[-2000:]
                op.problems.append(f"exit code {proc.returncode}: {tail}")
                return op
            lines = capture_path.read_text().splitlines()
            capture, epilogue = json.loads(lines[0]), json.loads(lines[1])
            text = report.read_bytes()
            if capture["first_run"] is None:
                op.problems.append("the pipeline never ran")
                return op
            op.wall_s = end - start - epilogue["epilogue_s"]
            op.cpu_s = (usage.ru_utime + usage.ru_stime
                        - epilogue["epilogue_cpu_s"])
            op.setup_s = capture["first_run"] - start
            op.start_s = capture["import_start"] - start
            op.exit_s = end - capture["main_end"] - epilogue["epilogue_s"]
            op.peak_rss_mb = usage.ru_maxrss / 1024.0
            op.digest = hashlib.sha256(text).hexdigest()
            op.checkpoint_bytes = _tree_bytes(checkpoint)
            op.capture = capture
            op.problems.extend(self.check(op, text.decode()))
        except (OSError, ValueError, KeyError, IndexError) as exc:
            op.problems.append(f"unreadable output: {exc!r}")
        finally:
            shutil.rmtree(work, ignore_errors=True)
        return op

    def check(self, op: Operation, report: str) -> List[str]:
        cap = op.capture
        problems: List[str] = []
        for run in cap["phase2"]:
            problems.extend(analysis.check_phase2(run))
        if "expected_cells" in self.spec:
            problems.extend(analysis.check_bench_report(
                report, cap["cells"] or [], self.spec["expected_cells"]))
        else:
            run, phase2 = cap["runs"][0], cap["phase2"][0]
            for line in (f"- Designs evaluated: {phase2['budget']}",
                         f"- Pareto-optimal: {len(phase2['pareto'])}",
                         f"**Missions per charge: {run['missions']:.1f}**"):
                if line not in report:
                    problems.append(f"report lacks {line!r}")
        return problems

    def cross_check(self) -> None:
        """Reports of one seed are byte-identical, traced or not, and
        match the reference digest on the default seed."""
        first: Dict[int, str] = {}
        reference = SPEC["reference_digests"].get(self.name)
        for op in self.operations:
            if not op.digest:
                continue
            expected = first.setdefault(op.seed, op.digest)
            if op.digest != expected:
                op.problems.append(f"seed {op.seed}: report differs from "
                                   "an earlier run of the same seed")
            if op.seed == SPEC["default_seed"] and op.digest != reference:
                op.problems.append("report differs from the reference "
                                   "digest of the default seed")

    # ------------------------------------------------------------------
    def _by_seed(self, traced: bool) -> Dict[int, List[Operation]]:
        """Operations that ran to completion, by seed.  One whose output
        failed a check still counts its measurements; it is reported in
        ``failed``."""
        grouped: Dict[int, List[Operation]] = {}
        for op in self.operations:
            if op.capture is not None and op.traced == traced:
                grouped.setdefault(op.seed, []).append(op)
        return grouped

    def end_to_end(self) -> Dict[str, float]:
        """Timed metrics: median over a seed's operations, mean over the
        seeds.  The outcome metrics follow, as means over the seeds."""
        grouped = self._by_seed(traced=False)
        if not grouped:
            return {}
        metrics = {
            attr: _mean([analysis.median([getattr(op, attr) for op in ops])
                         for ops in grouped.values()])
            for attr in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")}
        per_seed = [outcomes(ops[0].capture) for ops in grouped.values()]
        for name in per_seed[0]:
            metrics[name] = _mean([row[name] for row in per_seed])
        return metrics

    def per_layer(self) -> Dict[str, float]:
        traced = [op for ops in self._by_seed(traced=True).values()
                  for op in ops]
        plain = [op for ops in self._by_seed(traced=False).values()
                 for op in ops]
        if not traced or not plain:
            return {}
        rows = [layer_metrics(op) for op in traced]
        metrics = {name: analysis.median([row[name] for row in rows])
                   for name in rows[0]}
        metrics["trace.overhead_s"] = (
            analysis.median([op.wall_s for op in traced])
            - analysis.median([op.wall_s for op in plain]))
        return metrics


def _mean(values: List[float]) -> float:
    return sum(values) / len(values)


def outcomes(cap: dict) -> Dict[str, float]:
    """What the run produced: missions per charge of the selected design
    (mean over cells), Phase 2 final hypervolume (mean over Phase 2 runs)
    and the best validated success rate (mean over scenarios)."""
    return {
        "missions": _mean([r["missions"] for r in cap["runs"]]),
        "front_hv": _mean([p["hv"] for p in cap["phase2"]]),
        "best_success": _mean(list({r["scenario"]: r["best_success"]
                                    for r in cap["runs"]}.values())),
    }


def layer_metrics(op: Operation) -> Dict[str, float]:
    """Per-layer metrics of one traced operation."""
    cap = op.capture
    spans = cap["spans"]
    table = analysis.layer_table(spans)
    counters = cap["counters"]

    def row(name: str) -> Dict[str, float]:
        return table.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})

    out: Dict[str, float] = {"import.s": cap["import_s"]}
    for name in ("space.sample_block", "space.encode_many", "gp.fit",
                 "gp.predict", "hypervolume.contributions",
                 "pareto.non_dominated_mask", "soc.evaluate",
                 "soc.evaluate_batch", "parallel.map",
                 "parallel.evaluate_batch", "airlearning.train",
                 "airlearning.validate", "checkpoint.journal_append",
                 "checkpoint.manifest_save"):
        out[f"{name}.calls"] = row(name)["calls"]
        out[f"{name}.s"] = row(name)["s"]
    for name in ("phase1", "phase2", "phase2.derive_reference", "phase3",
                 "autotune", "report.render"):
        out[f"{name}.s"] = row(name)["s"]
    out["pipeline.self_s"] = row("pipeline")["self_s"]
    produced = outcomes(cap)
    out["phase1.best_success"] = produced["best_success"]
    out["phase2.front_hv"] = produced["front_hv"]
    out["phase3.missions"] = produced["missions"]
    out["bayesopt.self_s"] = row("bayesopt.run")["self_s"]
    for counter in ("space.encode_many.rows", "gp.fit.rows",
                    "hypervolume.contributions.candidates",
                    "hypervolume.contributions.front_points",
                    "soc.evaluate_batch.designs", "parallel.map.items",
                    "parallel.evaluate_batch.designs",
                    "airlearning.env_steps"):
        out[counter] = counters.get(counter, 0)
    phase1_s = out["phase1.s"]
    out["airlearning.steps_per_s"] = (out["airlearning.env_steps"] / phase1_s
                                      if phase1_s > 0 else 0.0)

    gaps = [g * 1e3 for g in analysis.child_gaps(spans, "bayesopt.run",
                                                 "optim.evaluate")]
    _distribution(out, "bayesopt.proposal_ms", gaps)
    out["bayesopt.proposals"] = len(gaps)
    cells = [s * 1e3 for s in analysis.child_strides(spans, "bench.sweep",
                                                     "pipeline")]
    _distribution(out, "bench.cell_ms", cells)
    out["bench.cells"] = len(cells)

    cache = cap["evalcache"]
    out["evalcache.lookups"] = cache["lookups"]
    out["evalcache.hits"] = cache["hits"]
    out["evalcache.hit_rate"] = cache["hit_rate"]
    out["parallel.retries"] = cap["pool"]["retries"]
    out["parallel.serial_fallbacks"] = cap["pool"]["serial_fallbacks"]
    out["checkpoint.bytes"] = op.checkpoint_bytes
    out["trace.wall_s"] = op.wall_s
    out["interpreter.start_s"] = op.start_s
    out["interpreter.exit_s"] = op.exit_s
    out["trace.unattributed_s"] = (op.wall_s - op.start_s - op.exit_s
                                   - analysis.top_level_seconds(spans))
    out["trace.spans"] = len(spans)
    return out


def _distribution(out: Dict[str, float], name: str,
                  samples: List[float]) -> None:
    out[f"{name}.p50"] = analysis.median(samples) if samples else 0.0
    pct, value = analysis.tail_percentile(samples)
    out[f"{name}.tail"] = value
    out[f"{name}.tail_pct"] = pct


# ----------------------------------------------------------------------
def provenance() -> dict:
    """Where and on what the numbers were measured."""
    info: dict = {"git_sha": None}
    if (ROOT / ".git").exists() and shutil.which("git"):
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        info["git_sha"] = sha.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    info["src_sha256"] = digest.hexdigest()
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench-tmp") as work:
        probe = subprocess.run([sys.executable, "-c", _PROBE],
                               env=hermetic_env(Path(work)),
                               capture_output=True, text=True, timeout=60)
    if probe.returncode == 0:
        info.update(json.loads(probe.stdout))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        info[var] = os.environ.get(var)
    info["nproc"] = len(os.sched_getaffinity(0))
    info["machine"] = platform.machine()
    info["cpu"] = _cpu_model()
    return info


def _cpu_model() -> Optional[str]:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _declared(trace: bool) -> List[dict]:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return declared["per_layer" if trace else "end_to_end"]


def report(bench: Bench) -> Optional[dict]:
    """Print one workload's operations and metrics; return its result
    object, or None when no operation ran to completion."""
    ops = bench.operations
    for op in ops:
        state = "ok" if op.ok else "FAILED: " + "; ".join(op.problems)
        print(f"op seed={op.seed} traced={int(op.traced)} "
              f"wall_s={op.wall_s:.3f} cpu_s={op.cpu_s:.3f} "
              f"setup_s={op.setup_s:.3f} peak_rss_mb={op.peak_rss_mb:.1f} "
              f"report={op.digest[:12]} {state}")
    failed = sum(not op.ok for op in ops)
    end_to_end = bench.end_to_end()
    values = bench.per_layer() if bench.trace else end_to_end
    if not values:
        print(f"error: no {bench.name} operation ran to completion",
              file=sys.stderr)
        return None

    print(f"workload {bench.name}: {len(ops)} operations, seeds "
          f"{bench.seeds}")
    end_to_end["error_rate"] = failed / len(ops)
    for name, value in end_to_end.items():
        doc = SPEC["end_to_end"][name]
        print(f"  {name:<40} {value:>14.6g} {doc['unit']:<6} "
              f"({doc['better']} is better)")
    if bench.trace:
        traced = [op for op in ops if op.traced and op.capture]
        table = analysis.layer_table(traced[0].capture["spans"])
        print(f"  span table of seed {traced[0].seed}: "
              "name calls inclusive_s self_s")
        for name, row in sorted(table.items()):
            print(f"    {name:<38} {row['calls']:>7} {row['s']:>10.4f} "
                  f"{row['self_s']:>10.4f}")

    metrics = {}
    for metric in _declared(bench.trace):
        metrics[metric["name"]] = {"value": values[metric["name"]],
                                   "unit": metric["unit"]}
        if bench.trace:
            print(f"  {metric['name']:<40} {values[metric['name']]:>14.6g} "
                  f"{metric['unit']}")
    return {"correct": failed == 0, "attempted": len(ops),
            "failed": failed, "metrics": metrics}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(SPEC["workloads"]) + ["all"],
                        help="one workload, or all of them in turn (the "
                             "result then names metrics workload.metric)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    names = (list(SPEC["workloads"]) if args.workload == "all"
             else [args.workload])

    # Byte-compile once so no measured interpreter pays for it.
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    str(ROOT / "src")], check=True, stdout=subprocess.DEVNULL)
    scratch = ROOT / ".perfbench-tmp"
    scratch.mkdir(exist_ok=True)
    results = {}
    try:
        print("provenance " + json.dumps(provenance(), sort_keys=True))
        for name in names:
            tmp = Path(tempfile.mkdtemp(dir=scratch))
            try:
                bench = Bench(name, args.seed, args.seconds,
                              bool(args.trace), tmp)
                bench.run()
            finally:
                shutil.rmtree(tmp, ignore_errors=True)
            results[name] = report(bench)
    finally:
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run is using it
    if any(result is None for result in results.values()):
        return 1
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": value
                    for name, result in results.items()
                    for metric, value in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
