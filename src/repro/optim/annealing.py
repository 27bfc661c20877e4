"""Multi-objective simulated annealing (pluggable Phase 2 optimiser).

An archive-based MOSA: a random walker proposes local moves over the
ordered-categorical space; a move is accepted if it increases the
archive's hypervolume, or with a Boltzmann probability on the
hypervolume loss otherwise.  Temperature follows a geometric schedule
across the evaluation budget.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ConfigError
from repro.optim.base import CachingEvaluator, Optimizer
from repro.optim.hypervolume import hypervolume
from repro.optim.pareto import non_dominated_mask

#: Normalised hypervolume losses at most this small count as no loss.
ACCEPT_TOLERANCE = 1e-12


class SimulatedAnnealing(Optimizer):
    """Archive-based multi-objective simulated annealing."""

    name = "annealing"

    def __init__(self, space, seed: int = 0, initial_temperature: float = 1.0,
                 final_temperature: float = 1e-3, restarts: int = 3):
        super().__init__(space, seed)
        if initial_temperature <= 0 or final_temperature <= 0:
            raise ConfigError("temperatures must be positive")
        if final_temperature > initial_temperature:
            raise ConfigError("final temperature must not exceed initial")
        if restarts < 1:
            raise ConfigError("restarts must be at least 1")
        self.initial_temperature = initial_temperature
        self.final_temperature = final_temperature
        self.restarts = restarts

    def run(self, evaluator: CachingEvaluator,
            rng: np.random.Generator) -> None:
        budget = evaluator.budget
        cooling_steps = max(1, budget - 1)
        ratio = self.final_temperature / self.initial_temperature
        cool = ratio ** (1.0 / cooling_steps)

        current = evaluator.space.sample(rng, 1)[0]
        current_obj = evaluator.evaluate(current)
        temperature = self.initial_temperature
        steps_since_accept = 0

        while not evaluator.exhausted:
            proposal = evaluator.space.neighbor(current, rng)
            if evaluator.seen(proposal):
                # Local moves revisit quickly in small spaces; hop randomly.
                proposal = evaluator.space.sample(rng, 1)[0]
                if evaluator.seen(proposal):
                    steps_since_accept += 1
                    if steps_since_accept > 20 * evaluator.space.size():
                        break
                    continue
            proposal_obj = evaluator.evaluate(proposal)
            if self._accept(evaluator, current_obj, proposal_obj,
                            temperature, rng):
                current, current_obj = proposal, proposal_obj
                steps_since_accept = 0
            temperature = max(self.final_temperature, temperature * cool)

    def _accept(self, evaluator: CachingEvaluator, current_obj: np.ndarray,
                proposal_obj: np.ndarray, temperature: float,
                rng: np.random.Generator) -> bool:
        objectives = evaluator.result.objective_matrix
        reference = objectives.max(axis=0) + 1e-9
        span = np.maximum(objectives.max(axis=0) - objectives.min(axis=0),
                          1e-9)

        front = objectives[non_dominated_mask(objectives)]
        hv_front = hypervolume(front, reference)
        without_proposal = np.vstack([current_obj[None, :], front])
        hv_with = hypervolume(without_proposal, reference)
        # Energy difference: normalised hypervolume gain of the proposal
        # relative to staying at the current point.
        scale = float(np.prod(span))
        delta = (hv_front - hv_with) / scale if scale > 0 else 0.0
        # A current point on the front gives delta == 0 exactly, but the
        # two hypervolume sweeps may round it to +-1e-16; treating that
        # noise as a loss would draw from the RNG and shift the whole
        # trajectory.
        if delta >= -ACCEPT_TOLERANCE:
            return True
        return rng.random() < math.exp(delta / max(temperature, 1e-12))
