"""Fixed-seed SMS-EGO trajectory goldens on the Table II design space.

Each configuration runs the optimiser against a cheap deterministic
three-objective stand-in for the Phase 2 evaluator and hashes the
sequence of evaluated assignments.  The digests were recorded before
the candidate pool moved to an index matrix and the hypervolume
contributions to one box decomposition per call; they pin that both
changes left every proposal -- argmax picks, q-group greedy picks and
the multi-fidelity promotion rank -- exactly where it was.  A digest
mismatch is a behaviour change (for example a flipped tie) to fix, not
a golden to refresh.

The stand-in objective has the ties the real one has: failure depends
only on the network dimensions, and swapping ``pe_rows``/``pe_cols``
leaves latency and power unchanged.
"""

import hashlib
import json
import math

import pytest

from repro.core.spec import build_design_space
from repro.optim.bayesopt import SmsEgoBayesOpt

SEED = 7
BUDGET = 96
REFERENCE = [1.0, 40.0, 40.0]


def objectives(point):
    layers, filters = point["num_layers"], point["num_filters"]
    pes = point["pe_rows"] * point["pe_cols"]
    sram = (point["ifmap_sram_kb"] + point["filter_sram_kb"]
            + point["ofmap_sram_kb"])
    failure = 1.0 / (1.0 + 0.04 * layers * math.log2(filters))
    macs = layers * filters ** 2
    buffer_kb = min(point["ifmap_sram_kb"], point["filter_sram_kb"])
    latency = macs / pes * (1.0 + 256.0 / buffer_kb) / 50.0
    power = 2e-4 * pes + 1e-3 * sram + 0.1 * layers
    return [failure, latency, power]


def lower_bounds(points):
    """A sound tier-0 screen: exact failure, loose latency and power."""
    return [[f, 0.5 * lat, 0.8 * pw]
            for f, lat, pw in map(objectives, points)]


CONFIGS = {
    "q1": ({}, {}),
    "proposal_batch_4": ({"proposal_batch": 4}, {}),
    "gp_refit_every_4": ({"gp_refit_every": 4}, {}),
    "multi_fidelity": ({"proposal_batch": 4},
                       {"screen_fn": lower_bounds, "promotion_eta": 0.5}),
}

GOLDEN_DIGESTS = {
    "q1":
        "5a615bcd3a465fdee929d6fc5e06caca1d956474789eeedc9e3f469f98d9ce1f",
    "proposal_batch_4":
        "9549b30559add79079f62b9f91db99727c5c2c58cbde3c1fae79d3cbbc150cc8",
    "gp_refit_every_4":
        "e033046c41e23a0ca0452f6078c9a668ed8c55633e0147d8f77ed29129af4ba8",
    "multi_fidelity":
        "b210ed4deea0a8038f2a086f23bc2bf08bf391b6b751eb972a81842f76ae781e",
}


def trajectory_digest(name):
    """sha256 of the evaluated assignment sequence of one configuration."""
    optimizer_kwargs, optimize_kwargs = CONFIGS[name]
    space = build_design_space()
    result = SmsEgoBayesOpt(space, seed=SEED, **optimizer_kwargs).optimize(
        objectives, budget=BUDGET, reference=REFERENCE, **optimize_kwargs)
    names = [dim.name for dim in space.dimensions]
    sequence = [[e.assignment[n] for n in names] for e in result.evaluations]
    return hashlib.sha256(json.dumps(sequence).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_trajectory_matches_golden(name):
    assert trajectory_digest(name) == GOLDEN_DIGESTS[name]
