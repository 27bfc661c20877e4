"""Phase 2 multi-fidelity screening smoke benchmark for CI.

Guards the two-tier evaluation pipeline (``--fidelity on``):

* **off is the reference** -- a run with ``fidelity="off"`` must
  produce a bit-identical evaluation history to a run that never heard
  of fidelity tiers (the plain q-batched optimiser).
* **screening preserves the front** -- the multi-fidelity run, given a
  fraction of the tier-1 (exact simulator) budget, must reach at least
  ``MIN_HV_FRACTION`` of the single-fidelity final hypervolume.
* **screening pays for itself** -- hypervolume-per-wallclock of the
  multi-fidelity run must be at least ``MIN_HV_PER_WALL_SPEEDUP`` times
  the q=8 single-fidelity baseline (the ``qbatch`` section's
  configuration, re-measured in-process so both sides see the same
  machine).

Wall times take the best of ``REPS`` repetitions per side on a cold
shared cache.  The numbers are merged into ``BENCH_phase2.json`` under
the ``multifidelity`` key.

Run directly (exit code 0/1) or via pytest::

    PYTHONPATH=src python benchmarks/smoke_phase2_multifidelity.py
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
from repro.perf import counters
from repro.uav.platforms import NANO_ZHANG

#: Tier-1 budget of the single-fidelity baseline (the qbatch config).
BUDGET = 64
#: Tier-1 budget of the multi-fidelity run: the screen lets the
#: optimiser reach the saturated front on ~a third of the simulator
#: spend.
MF_BUDGET = 24
NUM_INITIAL = 12
POOL_SIZE = 128
Q = 8
SEED = 7
REPS = 3
PROMOTION_ETA = 0.5
MIN_HV_FRACTION = 0.98
MIN_HV_PER_WALL_SPEEDUP = 2.0


def _run_phase2(database, task, reference, *, budget, fidelity=None):
    kwargs = {}
    if fidelity is not None:
        kwargs = {"fidelity": fidelity, "promotion_eta": PROMOTION_ETA}
    dse = MultiObjectiveDse(
        database=database, seed=SEED,
        optimizer_kwargs={"num_initial": NUM_INITIAL,
                          "pool_size": POOL_SIZE,
                          "proposal_batch": Q},
        **kwargs)
    return dse.run(task, budget=budget, reference=reference)


def _histories_identical(a, b) -> bool:
    if len(a.evaluations) != len(b.evaluations):
        return False
    return (
        all(x.assignment == y.assignment
            for x, y in zip(a.evaluations, b.evaluations))
        and np.array_equal(a.objective_matrix, b.objective_matrix)
        and np.array_equal(np.asarray(a.hypervolume_trace),
                           np.asarray(b.hypervolume_trace)))


def _timed_runs(database, task, reference, *, budget, fidelity=None):
    """Best-of-REPS cold-cache wall time plus the run's measurements."""
    wall_s = float("inf")
    result = None
    before = None
    for _ in range(REPS):
        reset_shared_cache()
        before = counters.snapshot()
        start = time.perf_counter()
        result = _run_phase2(database, task, reference,
                             budget=budget, fidelity=fidelity)
        wall_s = min(wall_s, time.perf_counter() - start)
    delta = counters.since(before)["fidelity"]
    reset_shared_cache()
    final_hv = result.optimization.final_hypervolume(reference)
    return {
        "fidelity": fidelity or "off",
        "budget": budget,
        "proposal_batch": Q,
        "reps": REPS,
        "wall_s": wall_s,
        "tier1_evaluations": len(result.optimization.evaluations),
        "final_hypervolume": final_hv,
        "hypervolume_per_s": final_hv / wall_s,
        "screened": delta.screened,
        "promoted": delta.promoted,
        "pruned": delta.screened - delta.promoted,
        "rail_promotions": delta.rail_promotions,
        "promotion_rate": (delta.promoted / delta.screened
                           if delta.screened else 0.0),
    }, result


def run_smoke() -> dict:
    task = TaskSpec(platform=NANO_ZHANG, scenario=Scenario.DENSE)
    database = FrontEnd(backend="surrogate", seed=0).run(task).database
    reset_shared_cache()
    reference = MultiObjectiveDse(database=database,
                                  seed=SEED).derive_reference()

    sf, sf_result = _timed_runs(database, task, reference, budget=BUDGET)
    off, off_result = _timed_runs(database, task, reference, budget=BUDGET,
                                  fidelity="off")
    mf, _ = _timed_runs(database, task, reference, budget=MF_BUDGET,
                        fidelity="on")
    return {
        "single_fidelity": sf,
        "multi_fidelity": mf,
        "promotion_eta": PROMOTION_ETA,
        "off_matches_default": _histories_identical(
            sf_result.optimization, off_result.optimization),
        "hv_fraction": (mf["final_hypervolume"]
                        / sf["final_hypervolume"]),
        "hv_per_wall_speedup": (mf["hypervolume_per_s"]
                                / sf["hypervolume_per_s"]),
    }


def check(measurements: dict) -> list:
    """Return a list of failure messages (empty when healthy)."""
    failures = []
    if not measurements["off_matches_default"]:
        failures.append(
            "fidelity=off history diverged from the plain optimiser")
    if measurements["hv_fraction"] < MIN_HV_FRACTION:
        failures.append(
            f"multi-fidelity hypervolume fraction "
            f"{measurements['hv_fraction']:.4f} < {MIN_HV_FRACTION}")
    if measurements["hv_per_wall_speedup"] < MIN_HV_PER_WALL_SPEEDUP:
        failures.append(
            f"hypervolume/wallclock speedup "
            f"{measurements['hv_per_wall_speedup']:.2f}x < "
            f"{MIN_HV_PER_WALL_SPEEDUP:.0f}x over the q={Q} baseline")
    mf = measurements["multi_fidelity"]
    if mf["screened"] == 0 or mf["pruned"] == 0:
        failures.append(
            "multi-fidelity run never screened/pruned anything "
            f"(screened={mf['screened']}, pruned={mf['pruned']})")
    return failures


def main() -> int:
    measurements = run_smoke()
    sf = measurements["single_fidelity"]
    mf = measurements["multi_fidelity"]
    print("Phase 2 multi-fidelity screening smoke benchmark")
    print(f"  single-fidelity q={Q} (budget {BUDGET}, best of {REPS}): "
          f"{sf['wall_s']:.3f}s, hv {sf['final_hypervolume']:.3f}, "
          f"hv/s {sf['hypervolume_per_s']:.1f} "
          f"(fidelity=off bit-identical="
          f"{measurements['off_matches_default']})")
    print(f"  multi-fidelity q={Q} (tier-1 budget {MF_BUDGET}, "
          f"eta {measurements['promotion_eta']}, best of {REPS}): "
          f"{mf['wall_s']:.3f}s, hv {mf['final_hypervolume']:.3f}, "
          f"hv/s {mf['hypervolume_per_s']:.1f}")
    print(f"  screening: {mf['screened']} screened, {mf['promoted']} "
          f"promoted ({mf['promotion_rate']:.0%}, "
          f"{mf['rail_promotions']} via safety rail), "
          f"{mf['pruned']} simulator evals avoided")
    print(f"  hv fraction {measurements['hv_fraction']:.4f}, "
          f"hv/wallclock speedup "
          f"{measurements['hv_per_wall_speedup']:.2f}x")
    merge_results(PHASE2_RESULTS, measurements, section="multifidelity")
    print(f"  wrote {PHASE2_RESULTS.name} (multifidelity section)")
    failures = check(measurements)
    for failure in failures:
        print(f"  FAIL: {failure}")
    if not failures:
        print("  OK")
    return 1 if failures else 0


def test_smoke_phase2_multifidelity():
    """Pytest entry point for the same checks."""
    assert check(run_smoke()) == []


if __name__ == "__main__":
    sys.exit(main())
