"""Phase 2 q-point batched-acquisition smoke benchmark for CI.

Guards the batched SMS-EGO proposal path (``proposal_batch``/q):

* **q=1 is the serial optimiser** -- the batched code with q=1 must
  produce a bit-identical evaluation history to a frozen copy of the
  legacy one-point-per-fit proposal loop, run through the real Phase 2
  driver and evaluation stack.
* **q>1 saturates the evaluator** -- with ``Q`` candidates per GP fit
  the mean mid-run evaluation batch size (from the process-wide
  ``proposals`` counter set) must reach ``MIN_MID_RUN_BATCH``,
  and the run must improve hypervolume-per-wallclock over q=1 (it does
  ~1/q the GP fits for the same budget).

Wall times take the best of ``REPS`` repetitions per side on a cold
shared cache.  The numbers are merged into ``BENCH_phase2.json`` under
the ``qbatch`` key, preserving the other smoke benchmarks' sections.

Run directly (exit code 0/1) or via pytest::

    PYTHONPATH=src python benchmarks/smoke_phase2_qbatch.py
"""

from __future__ import annotations

import sys
import time

import numpy as np

from _results import PHASE2_RESULTS, merge_results
from repro.airlearning.scenarios import Scenario
from repro.core.evalcache import reset_shared_cache
from repro.core.phase1 import FrontEnd
from repro.core.phase2 import MultiObjectiveDse
from repro.core.spec import TaskSpec
from repro.optim.bayesopt import SmsEgoBayesOpt
from repro.optim.gp import MultiObjectiveGP
from repro.optim.pareto import non_dominated_mask
from repro.perf import counters
from repro.uav.platforms import NANO_ZHANG

BUDGET = 64
NUM_INITIAL = 12
POOL_SIZE = 128
Q = 8
SEED = 7
REPS = 3
MIN_MID_RUN_BATCH = 4.0


class _LegacySerialSmsEgo(SmsEgoBayesOpt):
    """The pre-batching proposal loop, frozen as a correctness oracle.

    One candidate per GP fit via the plain SMS-EGO argmax -- exactly
    the loop the optimiser ran before ``proposal_batch`` existed.  The
    batched implementation with q=1 must match it bit for bit.
    """

    def run(self, evaluator, rng):
        self._gp = None
        self._initial_sampling(evaluator, rng)
        while not evaluator.exhausted:
            pool_indices = self._candidate_pool(evaluator, rng)
            if not len(pool_indices):
                break
            pool = evaluator.space.from_indices(pool_indices)
            history = evaluator.result.evaluations
            x_train = evaluator.space.encode_many(
                [e.assignment for e in history])
            objectives = np.vstack([e.objectives for e in history])
            x_pool = evaluator.space.encode_many(pool)
            gp = self._gp
            if gp is None or gp.num_objectives not in (0,
                                                       objectives.shape[1]):
                gp = self._gp = MultiObjectiveGP(
                    refit_every=self.gp_refit_every)
            gp.fit(x_train, objectives)
            means, stds = gp.predict(x_pool)
            lcb = means - self.kappa * stds
            front = objectives[non_dominated_mask(objectives)]
            reference = self._reference_point(objectives)
            scores = self._sms_ego_scores(lcb, front, reference)
            evaluator.evaluate(pool[int(np.argmax(scores))])


def _run_phase2(database, task, reference, proposal_batch,
                optimizer_cls=SmsEgoBayesOpt):
    dse = MultiObjectiveDse(
        database=database, optimizer_cls=optimizer_cls, seed=SEED,
        optimizer_kwargs={"num_initial": NUM_INITIAL,
                          "pool_size": POOL_SIZE,
                          "proposal_batch": proposal_batch})
    return dse.run(task, budget=BUDGET, reference=reference)


def _histories_identical(a, b) -> bool:
    if len(a.evaluations) != len(b.evaluations):
        return False
    return (
        all(x.assignment == y.assignment
            for x, y in zip(a.evaluations, b.evaluations))
        and np.array_equal(a.objective_matrix, b.objective_matrix)
        and np.array_equal(np.asarray(a.hypervolume_trace),
                           np.asarray(b.hypervolume_trace)))


def _mean(total: float, count: int) -> float:
    return total / count if count else 0.0


def _timed_runs(database, task, reference, proposal_batch):
    """Best-of-REPS cold-cache wall time plus counter deltas and result."""
    wall_s = float("inf")
    result = None
    before = None
    for _ in range(REPS):
        reset_shared_cache()
        before = counters.snapshot()
        start = time.perf_counter()
        result = _run_phase2(database, task, reference, proposal_batch)
        wall_s = min(wall_s, time.perf_counter() - start)
    delta = counters.since(before)["proposals"]
    reset_shared_cache()
    final_hv = result.optimization.final_hypervolume(reference)
    return {
        "proposal_batch": proposal_batch,
        "budget": BUDGET,
        "reps": REPS,
        "wall_s": wall_s,
        "final_hypervolume": final_hv,
        "hypervolume_per_s": final_hv / wall_s,
        "proposal_groups": delta.proposal_groups,
        "proposed_points": delta.proposed_points,
        "proposals_per_s": delta.proposed_points / wall_s,
        "mean_proposal_group": _mean(delta.proposed_points,
                                     delta.proposal_groups),
        "mid_run_batches": delta.proposal_calls,
        "mid_run_mean_batch": _mean(delta.proposal_designs,
                                    delta.proposal_calls),
    }, result


def run_smoke() -> dict:
    task = TaskSpec(platform=NANO_ZHANG, scenario=Scenario.DENSE)
    database = FrontEnd(backend="surrogate", seed=0).run(task).database
    reset_shared_cache()
    reference = MultiObjectiveDse(database=database,
                                  seed=SEED).derive_reference()

    serial, q1, q8 = {}, {}, {}
    reset_shared_cache()
    oracle = _run_phase2(database, task, reference, proposal_batch=1,
                         optimizer_cls=_LegacySerialSmsEgo)
    q1, q1_result = _timed_runs(database, task, reference, proposal_batch=1)
    q8, _ = _timed_runs(database, task, reference, proposal_batch=Q)
    serial["q1_matches_legacy_serial"] = _histories_identical(
        oracle.optimization, q1_result.optimization)
    return {"q1": q1, f"q{Q}": q8, **serial}


def check(measurements: dict) -> list:
    """Return a list of failure messages (empty when healthy)."""
    failures = []
    if not measurements["q1_matches_legacy_serial"]:
        failures.append("q=1 history diverged from the legacy serial loop")
    q1, q8 = measurements["q1"], measurements[f"q{Q}"]
    if q8["mid_run_mean_batch"] < MIN_MID_RUN_BATCH:
        failures.append(
            f"q={Q} mean mid-run evaluation batch "
            f"{q8['mid_run_mean_batch']:.2f} < {MIN_MID_RUN_BATCH:.0f}")
    if q8["hypervolume_per_s"] <= q1["hypervolume_per_s"]:
        failures.append(
            f"q={Q} hypervolume/wallclock {q8['hypervolume_per_s']:.2f} "
            f"did not improve on q=1 {q1['hypervolume_per_s']:.2f}")
    return failures


def main() -> int:
    measurements = run_smoke()
    q1, q8 = measurements["q1"], measurements[f"q{Q}"]
    print("Phase 2 q-batch acquisition smoke benchmark")
    print(f"  q=1 (budget {BUDGET}, best of {REPS}): "
          f"{q1['wall_s']:.3f}s, {q1['proposal_groups']} groups, "
          f"{q1['proposals_per_s']:.1f} proposals/s, "
          f"hv/s {q1['hypervolume_per_s']:.2f} "
          f"(matches legacy serial="
          f"{measurements['q1_matches_legacy_serial']})")
    print(f"  q={Q} (budget {BUDGET}, best of {REPS}): "
          f"{q8['wall_s']:.3f}s, {q8['proposal_groups']} groups, "
          f"{q8['proposals_per_s']:.1f} proposals/s, "
          f"mid-run mean batch {q8['mid_run_mean_batch']:.2f}, "
          f"hv/s {q8['hypervolume_per_s']:.2f}")
    merge_results(PHASE2_RESULTS, measurements, section="qbatch")
    print(f"  wrote {PHASE2_RESULTS.name} (qbatch section)")
    failures = check(measurements)
    for failure in failures:
        print(f"  FAIL: {failure}")
    if not failures:
        print("  OK")
    return 1 if failures else 0


def test_smoke_phase2_qbatch():
    """Pytest entry point for the same checks."""
    assert check(run_smoke()) == []


if __name__ == "__main__":
    sys.exit(main())
