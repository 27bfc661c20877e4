"""Wall-time, throughput and counter profiling primitives.

The profiler is deliberately dependency-free (stdlib only): phases are
timed with ``time.perf_counter`` context managers, named integers
(evaluations, simulations) accumulate in run-level counters, and every
layer's :class:`~repro.perf.counters.Counters` set is measured as a
delta across each phase, so activity outside the profiled window does
not pollute the numbers.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.perf import counters as counter_sets
from repro.perf.counters import Counters


@dataclass
class PhaseRecord:
    """Aggregated measurements for one named phase."""

    name: str
    wall_s: float = 0.0
    calls: int = 0
    evaluations: int = 0
    #: Simulator/environment steps executed within the phase (e.g.
    #: Phase 1 rollout transitions), for throughput reporting.
    steps: int = 0
    #: Every registered counter set's activity within the phase, keyed
    #: by set name (``cache``, ``pool``, ``gp``, ``proposals``, ...).
    counters: Dict[str, Counters] = field(default_factory=counter_sets.zeros)

    @property
    def evaluations_per_second(self) -> float:
        """Evaluation throughput within the phase (0 when untimed)."""
        if self.wall_s <= 0:
            return 0.0
        return self.evaluations / self.wall_s

    @property
    def steps_per_second(self) -> float:
        """Step throughput within the phase (0 when untimed)."""
        if self.wall_s <= 0:
            return 0.0
        return self.steps / self.wall_s


@dataclass
class ProfileReport:
    """Everything one profiled run measured."""

    phases: List[PhaseRecord]
    total_wall_s: float
    counters: Dict[str, int]
    #: Free-form run annotations (e.g. ``backend`` -> ``numpy [exact]``),
    #: rendered as ``key: value`` lines.  Defaulted last for backward
    #: compatibility with positional construction.
    labels: Dict[str, str] = field(default_factory=dict)

    @property
    def total_evaluations(self) -> int:
        """Design evaluations across all phases."""
        return sum(p.evaluations for p in self.phases)

    @property
    def total_steps(self) -> int:
        """Environment/simulator steps across all phases."""
        return sum(p.steps for p in self.phases)

    def total(self, name: str) -> Counters:
        """Counter set ``name`` summed over all phases."""
        total = Counters()
        for phase in self.phases:
            total.merge(phase.counters[name])
        return total


class Profiler:
    """Collects phase timings, counters and cache deltas for one run."""

    def __init__(self):
        self._phases: "Dict[str, PhaseRecord]" = {}
        self._order: List[str] = []
        self._counters: Dict[str, int] = {}
        self._labels: Dict[str, str] = {}
        self._started = time.perf_counter()

    @contextmanager
    def phase(self, name: str,
              evaluations: Optional[int] = None) -> Iterator[PhaseRecord]:
        """Time one phase; every counter set is measured as a delta.

        The yielded record can be annotated mid-phase (e.g. setting
        ``evaluations`` once the DSE budget is known).
        """
        record = self._record(name)
        before = counter_sets.snapshot()
        start = time.perf_counter()
        try:
            yield record
        finally:
            record.wall_s += time.perf_counter() - start
            record.calls += 1
            for set_name, delta in counter_sets.since(before).items():
                record.counters[set_name].merge(delta)
            if evaluations is not None:
                record.evaluations += evaluations

    def add_evaluations(self, phase_name: str, count: int) -> None:
        """Credit ``count`` design evaluations to a phase."""
        self._record(phase_name).evaluations += count

    def add_steps(self, phase_name: str, count: int) -> None:
        """Credit ``count`` environment/simulator steps to a phase."""
        self._record(phase_name).steps += count

    def _record(self, phase_name: str) -> PhaseRecord:
        record = self._phases.get(phase_name)
        if record is None:
            record = PhaseRecord(name=phase_name)
            self._phases[phase_name] = record
            self._order.append(phase_name)
        return record

    def count(self, name: str, increment: int = 1) -> None:
        """Bump a named counter."""
        self._counters[name] = self._counters.get(name, 0) + increment

    def annotate(self, key: str, value: str) -> None:
        """Attach a run-level ``key: value`` label to the report."""
        self._labels[key] = value

    def report(self) -> ProfileReport:
        """Snapshot the measurements collected so far."""
        return ProfileReport(
            phases=[self._phases[name] for name in self._order],
            total_wall_s=time.perf_counter() - self._started,
            counters=dict(self._counters),
            labels=dict(self._labels),
        )


def render_profile(report: ProfileReport) -> str:
    """Render a profile as a compact fixed-width table."""
    lines: List[str] = []
    lines.append("## Profile")
    for key in sorted(report.labels):
        lines.append(f"{key}: {report.labels[key]}")
    header = (f"{'phase':<18} {'wall s':>8} {'evals':>7} "
              f"{'evals/s':>9} {'steps':>9} {'steps/s':>9} {'hit rate':>9}")
    lines.append(header)
    lines.append("-" * len(header))
    for phase in report.phases:
        cache = phase.counters["cache"]
        hit_rate = f"{cache.hit_rate:.1%}" if cache.lookups else "-"
        evals_s = (f"{phase.evaluations_per_second:.1f}"
                   if phase.evaluations else "-")
        evals = str(phase.evaluations) if phase.evaluations else "-"
        steps = str(phase.steps) if phase.steps else "-"
        steps_s = (f"{phase.steps_per_second:.0f}"
                   if phase.steps else "-")
        lines.append(f"{phase.name:<18} {phase.wall_s:>8.3f} {evals:>7} "
                     f"{evals_s:>9} {steps:>9} {steps_s:>9} {hit_rate:>9}")
    overall = report.total("cache")
    lines.append("-" * len(header))
    lines.append(f"{'total':<18} {report.total_wall_s:>8.3f} "
                 f"{report.total_evaluations or '-':>7} "
                 f"{'':>9} "
                 f"{report.total_steps or '-':>9} "
                 f"{'':>9} "
                 f"{(f'{overall.hit_rate:.1%}' if overall.lookups else '-'):>9}")
    for phase in report.phases:
        gp = phase.counters["gp"]
        prop = phase.counters["proposals"]
        batch = phase.counters["batch"]
        fid = phase.counters["fidelity"]
        if gp.full_fits or gp.incremental_updates:
            lines.append(
                f"{phase.name} gp: {gp.full_fits} full fits "
                f"({gp.fit_wall_s:.3f} s), "
                f"{gp.incremental_updates} incremental updates "
                f"({gp.update_wall_s:.3f} s), "
                f"{gp.factorisations} factorisations")
        if prop.proposal_groups:
            lines.append(
                f"{phase.name} proposals: {prop.proposal_groups} "
                f"groups, {prop.proposed_points} points, mean group size "
                f"{prop.proposed_points / prop.proposal_groups:.1f}")
        if batch.batch_calls:
            line = (
                f"{phase.name} batches: {batch.batch_calls} calls, "
                f"mean batch size "
                f"{batch.batched_designs / batch.batch_calls:.1f}, "
                f"{batch.kernel_designs} kernel-simulated designs "
                f"({batch.kernel_wall_s:.3f} s in kernels)")
            if prop.proposal_calls:
                line += (
                    f", {prop.proposal_calls} proposal batches (mean "
                    f"{prop.proposal_designs / prop.proposal_calls:.1f})")
            lines.append(line)
        if fid.screen_calls:
            pruned = fid.screened - fid.promoted
            # Pruned points priced at the mean measured tier-1 evaluation.
            saved_s = (pruned * fid.tier1_wall_s / fid.tier1_points
                       if fid.tier1_points else 0.0)
            lines.append(
                f"{phase.name} fidelity: {fid.screened} screened in "
                f"{fid.screen_calls} groups ({fid.screen_wall_s:.3f} s), "
                f"{fid.promoted} promoted "
                f"({fid.promoted / fid.screened:.0%}, "
                f"{fid.rail_promotions} via safety rail), "
                f"{pruned} simulator evals avoided "
                f"(~{saved_s:.2f} s saved)")
    pool = report.total("pool")
    if pool.chunk_failures + pool.unpicklable_chunks:
        lines.append(
            f"pool faults: {pool.chunk_failures} chunk failures, "
            f"{pool.chunk_retries} retries, {pool.pool_respawns} respawns, "
            f"{pool.poisoned_chunks} poisoned, "
            f"{pool.unpicklable_chunks} unpicklable, "
            f"{pool.serial_fallback_chunks} serial-fallback chunks")
    for name in sorted(report.counters):
        lines.append(f"{name}: {report.counters[name]}")
    return "\n".join(lines)

