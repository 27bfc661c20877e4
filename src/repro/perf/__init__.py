"""Lightweight performance instrumentation for the AutoPilot pipeline.

Records per-phase wall time, evaluation throughput and per-layer
counters with near-zero overhead, so a ``--profile`` run answers the
questions that matter for DSE cost (the paper's 3-7 day Phase 2 loop):
where did the time go, how many designs per second were evaluated, and
how much work did the content-addressed cache absorb?

Every counter lives in one record type, :class:`Counters`, registered
per layer as a named set: ``cache`` (hits, misses, evictions), ``pool``
(chunk failures, retries, respawns, poisoned, unpicklable and
serial-fallback chunks), ``gp`` (full fits, incremental updates,
factorisations, fit seconds), ``proposals`` (SMS-EGO groups, points
and batched submissions), ``batch`` (batched calls and designs,
kernel-simulated designs, kernel seconds) and ``fidelity`` (screens,
promotions, safety-rail promotions, screen and tier-1 seconds).
:class:`Profiler` diffs every set once per phase; ratios are derived
where they are rendered.  This package imports no other ``repro``
package.
"""

from repro.perf.counters import Counters
from repro.perf.profiler import (
    PhaseRecord,
    Profiler,
    ProfileReport,
    render_profile,
)

__all__ = [
    "Counters",
    "Profiler",
    "PhaseRecord",
    "ProfileReport",
    "render_profile",
]
