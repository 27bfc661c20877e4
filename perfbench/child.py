"""Run the ``autopilot`` CLI in this interpreter and record what the
benchmark measures about it.

Usage (from ``run.py``, never by hand)::

    python3 child.py {plain|trace} CAPTURE.json CLI-ARGS...

Both modes time ``import repro.cli`` and the first call into
``AutoPilot.run`` (the end of set-up), keep every pipeline result and
write a capture file when the CLI returns: the quality numbers, the raw
Phase 2 objectives the parent re-checks, cache and pool counters.

``trace`` additionally wraps each layer's public entry points at the
names their callers resolve -- class methods on the class, module
functions at every use-site module (a ``from x import f`` binding does
not see a patch on ``x``) -- and records one span per call: name,
start, end and the span that caused it, kept in memory and written out
with the capture.  Only coarse boundaries are wrapped; per-point helpers
called tens of thousands of times per run are left alone.

The work done after the CLI returns is timed and reported as
``epilogue_s`` / ``epilogue_cpu_s`` on the capture file's second line,
so the parent can take it out of the process's wall and CPU time.  The
absolute (``time.monotonic``, system-wide) start of the import and end of
the CLI call let the parent split off interpreter start-up and exit.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time


class Tracer:
    """In-memory span and counter recorder for the main thread."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent_index]
        self.counters = {}
        self.enabled = True
        self._stack = []
        self._main = threading.get_ident()

    def add_span(self, name, start, end):
        self.spans.append([name, start, end, -1])

    def count(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, owner, attr, name, counter=None):
        """Replace ``owner.attr`` with a recording wrapper.

        ``counter(tracer, arguments, result)`` runs after each recorded
        call with the call's arguments bound to their parameter names.
        """
        original = vars(owner)[attr]
        signature = inspect.signature(original)
        spans, stack, clock = self.spans, self._stack, time.monotonic

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not self.enabled or threading.get_ident() != self._main:
                return original(*args, **kwargs)
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if counter is not None:
                counter(self, signature.bind(*args, **kwargs).arguments,
                        result)
            return result

        setattr(owner, attr, wrapper)


def _rows(value):
    shape = getattr(value, "shape", None)
    if shape is not None:
        return int(shape[0]) if len(shape) > 1 else 1
    return len(value)


def _counting(name, parameter):
    """Counter adding the row count of argument ``parameter``."""
    def counter(tracer, arguments, result):
        tracer.count(name, _rows(arguments[parameter]))
    return counter


def install_trace(tracer):
    """Wrap every layer boundary the per-layer metrics are read from."""
    mod = importlib.import_module
    space = mod("repro.optim.space")
    gp = mod("repro.optim.gp")
    base = mod("repro.optim.base")
    bayesopt = mod("repro.optim.bayesopt")
    fidelity = mod("repro.optim.fidelity")
    dssoc = mod("repro.soc.dssoc")
    parallel = mod("repro.core.parallel")
    phase1 = mod("repro.core.phase1")
    phase2 = mod("repro.core.phase2")
    phase3 = mod("repro.core.phase3")
    pipeline = mod("repro.core.pipeline")
    checkpoint = mod("repro.core.checkpoint")
    trainer = mod("repro.airlearning.trainer")
    autotune = mod("repro.backend.autotune")
    runner = mod("repro.bench.runner")
    cli = mod("repro.cli")
    wrap = tracer.wrap

    wrap(space.DesignSpace, "sample_block", "space.sample_block")
    wrap(space.DesignSpace, "encode_many", "space.encode_many",
         _counting("space.encode_many.rows", "assignments"))
    wrap(gp.MultiObjectiveGP, "fit", "gp.fit",
         _counting("gp.fit.rows", "x"))
    wrap(gp.MultiObjectiveGP, "predict", "gp.predict")

    def contributions(tracer, arguments, result):
        tracer.count("hypervolume.contributions.front_points",
                     _rows(arguments["points"]))
        tracer.count("hypervolume.contributions.candidates",
                     _rows(arguments["candidates"]))
    for site in (bayesopt, fidelity):
        wrap(site, "hypervolume_contributions", "hypervolume.contributions",
             contributions)
    for site in (bayesopt, fidelity, base, phase2,
                 mod("repro.optim.hypervolume")):
        wrap(site, "non_dominated_mask", "pareto.non_dominated_mask")

    wrap(bayesopt.SmsEgoBayesOpt, "run", "bayesopt.run")
    # Proposal time is the gap between consecutive evaluator calls.
    for method in ("evaluate", "evaluate_batch"):
        wrap(base.CachingEvaluator, method, "optim.evaluate")
    wrap(fidelity.MultiFidelityEvaluator, "evaluate_screened",
         "optim.evaluate")

    wrap(dssoc.DssocEvaluator, "evaluate", "soc.evaluate")
    wrap(dssoc.DssocEvaluator, "evaluate_batch", "soc.evaluate_batch",
         _counting("soc.evaluate_batch.designs", "designs"))
    wrap(parallel.BatchDssocEvaluator, "evaluate_batch",
         "parallel.evaluate_batch",
         _counting("parallel.evaluate_batch.designs", "designs"))
    for site in (parallel, phase1):
        wrap(site, "parallel_map", "parallel.map",
             _counting("parallel.map.items", "items"))

    wrap(trainer.CemTrainer, "train", "airlearning.train")
    wrap(phase1, "validate_policy", "airlearning.validate")

    def env_steps(tracer, arguments, result):
        tracer.count("airlearning.env_steps", result.env_steps)
    wrap(phase1.FrontEnd, "run", "phase1", env_steps)
    wrap(phase2.MultiObjectiveDse, "run", "phase2")
    wrap(phase2.MultiObjectiveDse, "derive_reference",
         "phase2.derive_reference")
    wrap(phase3.BackEnd, "run", "phase3")
    wrap(pipeline.AutoPilot, "__init__", "pipeline.init")
    wrap(pipeline.AutoPilot, "run", "pipeline")

    wrap(checkpoint.EvaluationJournal, "append", "checkpoint.journal_append")
    wrap(checkpoint.RunManifest, "save", "checkpoint.manifest_save")
    wrap(runner.BenchManifest, "save", "checkpoint.manifest_save")
    wrap(autotune.Autotuner, "ingest_report", "autotune")
    wrap(autotune.Autotuner, "save", "autotune")
    wrap(runner.BenchRunner, "run", "bench.sweep")
    wrap(cli, "build_suite", "bench.suite")
    wrap(cli, "render_report", "report.render")
    wrap(cli, "render_bench_report", "report.render")


class Capture:
    """Keeps pipeline results and the suite; summarises them at the end."""

    def __init__(self):
        self.first_run = None
        self.runs = []           # (task, budget, result)
        self.cells = None

    def install(self):
        from repro.bench.runner import BenchRunner
        from repro.core.pipeline import AutoPilot
        capture = self
        run = AutoPilot.run
        bench_run = BenchRunner.run

        @functools.wraps(run)
        def pipeline_run(pilot, task, budget=120, *args, **kwargs):
            if capture.first_run is None:
                capture.first_run = time.monotonic()
            result = run(pilot, task, budget, *args, **kwargs)
            capture.runs.append((task, budget, result))
            return result

        @functools.wraps(bench_run)
        def bench(runner, suite):
            capture.cells = [(c.spec.id, c.platform_class)
                             for c in suite.cells()]
            return bench_run(runner, suite)

        AutoPilot.run = pipeline_run
        BenchRunner.run = bench

    def summary(self):
        from repro.core.evalcache import shared_report_cache
        from repro.core.parallel import pool_stats

        runs, phase2 = [], {}
        for task, budget, result in self.runs:
            runs.append({
                "scenario": task.scenario.value,
                "missions": float(result.num_missions),
                "best_success": float(result.phase1.best_success_rate(task)),
            })
            key = id(result.phase2)
            if key in phase2:
                continue
            p2 = result.phase2
            phase2[key] = {
                "budget": budget,
                "objectives": [[float(v) for v in e.objectives]
                               for e in p2.optimization.evaluations],
                "keys": [repr(sorted(e.assignment.items()))
                         for e in p2.optimization.evaluations],
                "pareto": [[float(v) for v in c.objectives]
                           for c in p2.pareto_candidates()],
                "reference": [float(v) for v in p2.reference],
                "hv": float(p2.optimization.final_hypervolume(p2.reference)),
            }
        cells = None
        if self.cells is not None:
            cells = [{"scenario": scenario, "platform_class": cls,
                      "missions": runs[i]["missions"] if i < len(runs)
                      else None}
                     for i, (scenario, cls) in enumerate(self.cells)]
        stats = shared_report_cache().stats
        pool = pool_stats()
        return {
            "first_run": self.first_run,
            "runs": runs,
            "phase2": list(phase2.values()),
            "cells": cells,
            "evalcache": {"lookups": stats.lookups, "hits": stats.hits,
                          "hit_rate": stats.hit_rate},
            "pool": {"retries": pool.chunk_retries,
                     "serial_fallbacks": pool.serial_fallback_chunks},
        }


def main(argv):
    mode, capture_path, cli_args = argv[0], argv[1], argv[2:]
    tracer = Tracer() if mode == "trace" else None
    start = time.monotonic()
    import repro.cli
    import_end = time.monotonic()
    capture = Capture()
    capture.install()
    if tracer is not None:
        tracer.add_span("import", start, import_end)
        install_trace(tracer)

    code = repro.cli.main(cli_args)

    end, end_cpu = time.monotonic(), time.process_time()
    if tracer is not None:
        tracer.enabled = False
    record = capture.summary()
    record["import_s"] = import_end - start
    record["import_start"] = start
    record["main_end"] = end
    if tracer is not None:
        record["spans"] = tracer.spans
        record["counters"] = tracer.counters
    text = json.dumps(record)
    epilogue = {"epilogue_cpu_s": time.process_time() - end_cpu,
                "epilogue_s": time.monotonic() - end}
    with open(capture_path, "w") as handle:
        handle.write(text + "\n" + json.dumps(epilogue) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
