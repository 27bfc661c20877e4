"""Profile-guided chunk autotuning for the process pool.

Chunk sizes are a machine property: the break-even point where shipping
a design batch to a pool worker beats evaluating it in-process depends
on core count, cache sizes and BLAS builds, not on the workload.  This
module learns them from *real timed calls* instead of guessing:

* the pooled batch evaluator records ``(chunk, items, wall_s)``
  observations per ``(backend, surface)`` as it runs;
* finished profiler reports contribute the mean proposal-group size
  (the ``proposals`` counter set), which caps the chunk size worth
  tuning for (chunks larger than a typical mid-run batch never fill);
* :meth:`Autotuner.best_chunk` answers with the highest-throughput
  chunk seen so far, or ``None`` until at least two *distinct* chunk
  sizes have been measured -- callers keep their static heuristic as
  the fallback, so an untuned machine behaves exactly as before.

With ``REPRO_TUNE_DIR`` set, observations persist per machine under
``$REPRO_TUNE_DIR/autotune.json`` (atomic temp + ``os.replace``, the
checkpoint idiom), so repeated sweeps start tuned.  Unset, the profile
lives in memory only and nothing is written -- a plain run leaves no
files behind.  Every filesystem touch is best-effort: a missing,
corrupt or read-only store degrades to in-memory tuning, never an error
on the hot path.

Tuning can only ever change *wall time*: every tuned surface is
row-independent (each design is evaluated on its own), so the chunk
size a caller picks cannot alter a single output bit.
"""

from __future__ import annotations

import json
import math
import os
import platform
import tempfile
import threading
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: Persist automatically after this many new observations.
SAVE_EVERY = 50
#: Keep at most this many observations per (backend, surface).
MAX_OBSERVATIONS = 512
#: ``best_chunk`` answers only after this many distinct chunk sizes.
MIN_DISTINCT_CHUNKS = 2

#: (chunk, items, wall_s) — one timed call at one chunk size.
Observation = Tuple[int, int, float]


def machine_key() -> str:
    """Stable identifier for the tuning profile of this machine."""
    return (f"{platform.system().lower()}-{platform.machine().lower()}"
            f"-cpu{os.cpu_count() or 1}")


def default_store_path() -> Optional[Path]:
    """``$REPRO_TUNE_DIR/autotune.json``, or ``None`` (in-memory only)."""
    root = os.environ.get("REPRO_TUNE_DIR", "").strip()
    if root:
        return Path(root) / "autotune.json"
    return None


class Autotuner:
    """Per-machine chunk-size observations and the best-known answers."""

    def __init__(self, path: Optional[Path] = None,
                 machine: Optional[str] = None):
        self.path = Path(path) if path is not None else default_store_path()
        self.machine = machine or machine_key()
        self._observations: Dict[str, List[Observation]] = {}
        self._hints: Dict[str, float] = {}
        self._dirty = 0
        self._loaded = False
        self._lock = threading.Lock()

    # -- persistence ---------------------------------------------------
    def _ensure_loaded(self) -> None:
        if self._loaded:
            return
        self._loaded = True
        if self.path is None:
            return
        try:
            payload = json.loads(self.path.read_text())
        except (OSError, json.JSONDecodeError, ValueError):
            return
        section = payload.get("machines", {}).get(self.machine, {})
        if not isinstance(section, dict):
            return
        observations = section.get("observations", {})
        if isinstance(observations, dict):
            for key, rows in observations.items():
                kept = [(int(c), int(i), float(w)) for c, i, w in rows
                        if c and i and w > 0]
                if kept:
                    self._observations[key] = kept[-MAX_OBSERVATIONS:]
        hints = section.get("hints", {})
        if isinstance(hints, dict):
            self._hints = {str(k): float(v) for k, v in hints.items()
                           if isinstance(v, (int, float))}

    def save(self) -> None:
        """Persist this machine's profile (best-effort, atomic)."""
        with self._lock:
            self._ensure_loaded()
            self._dirty = 0
            if self.path is None:
                return  # no store configured; tuning stays in-memory
            section = {
                "observations": {key: [list(row) for row in rows]
                                 for key, rows in self._observations.items()},
                "hints": dict(self._hints),
            }
        try:
            payload: Dict[str, object] = {}
            try:
                existing = json.loads(self.path.read_text())
                if isinstance(existing, dict):
                    payload = existing
            except (OSError, json.JSONDecodeError, ValueError):
                pass
            machines = payload.setdefault("machines", {})
            if not isinstance(machines, dict):
                machines = payload["machines"] = {}
            machines[self.machine] = section
            self.path.parent.mkdir(parents=True, exist_ok=True)
            handle, temp_name = tempfile.mkstemp(
                dir=str(self.path.parent), prefix=self.path.name,
                suffix=".tmp")
            try:
                with os.fdopen(handle, "w") as stream:
                    json.dump(payload, stream, indent=2)
                os.replace(temp_name, self.path)
            except BaseException:
                try:
                    os.unlink(temp_name)
                except OSError:
                    pass
                raise
        except OSError:
            pass  # read-only cache dir etc.; tuning stays in-memory

    # -- recording -----------------------------------------------------
    def observe(self, backend: str, surface: str, chunk: int, items: int,
                wall_s: float) -> None:
        """Record one timed call at one chunk size."""
        if chunk < 1 or items < 1 or wall_s <= 0:
            return
        key = f"{backend}/{surface}"
        with self._lock:
            self._ensure_loaded()
            rows = self._observations.setdefault(key, [])
            rows.append((int(chunk), int(items), float(wall_s)))
            if len(rows) > MAX_OBSERVATIONS:
                del rows[:len(rows) - MAX_OBSERVATIONS]
            self._dirty += 1
            should_save = self._dirty >= SAVE_EVERY
        if should_save:
            self.save()

    def hint(self, name: str, value: float) -> None:
        """Record a sizing hint (e.g. the mean mid-run proposal group)."""
        if value <= 0:
            return
        with self._lock:
            self._ensure_loaded()
            self._hints[name] = float(value)
            self._dirty += 1

    def ingest_report(self, report, backend_name: str) -> None:
        """Harvest the ``proposal_group`` cap hint from a profiler report.

        The mean SMS-EGO proposal-group size of each phase becomes the
        hint :meth:`best_chunk` caps its answer with.  ``backend_name``
        is accepted for call-site compatibility and not used.
        """
        for phase in report.phases:
            proposals = phase.counters["proposals"]
            if proposals.proposal_groups:
                self.hint("proposal_group", proposals.proposed_points
                          / proposals.proposal_groups)

    # -- answering -----------------------------------------------------
    def best_chunk(self, backend: str, surface: str,
                   items: Optional[int] = None) -> Optional[int]:
        """The highest-throughput chunk size observed, or ``None``.

        Returns ``None`` until :data:`MIN_DISTINCT_CHUNKS` distinct
        chunk sizes have been measured for ``(backend, surface)`` --
        callers must then fall back to their static heuristic.  The
        answer is capped by the ``proposal_group`` hint (when present)
        and by ``items`` (a chunk larger than the call never helps).
        """
        key = f"{backend}/{surface}"
        with self._lock:
            self._ensure_loaded()
            rows = list(self._observations.get(key, ()))
            cap_hint = self._hints.get("proposal_group")
        totals: Dict[int, List[float]] = {}
        for chunk, row_items, wall_s in rows:
            bucket = totals.setdefault(chunk, [0.0, 0.0])
            bucket[0] += row_items
            bucket[1] += wall_s
        measured = {chunk: total_items / wall
                    for chunk, (total_items, wall) in totals.items()
                    if wall > 0}
        if len(measured) < MIN_DISTINCT_CHUNKS:
            return None
        best = max(sorted(measured), key=lambda chunk: measured[chunk])
        if cap_hint and surface in ("simulate", "power", "pool"):
            best = min(best, max(1, int(math.ceil(cap_hint))))
        if items is not None:
            best = min(best, max(1, int(items)))
        return best

    def observation_count(self, backend: str, surface: str) -> int:
        """How many observations exist for ``(backend, surface)``."""
        with self._lock:
            self._ensure_loaded()
            return len(self._observations.get(f"{backend}/{surface}", ()))


_tuner: Optional[Autotuner] = None
_tuner_lock = threading.Lock()


def autotuner() -> Autotuner:
    """The process-wide autotuner (store path resolved on first use)."""
    global _tuner
    with _tuner_lock:
        if _tuner is None:
            _tuner = Autotuner()
        return _tuner


def reset_autotuner(path: Optional[Path] = None,
                    machine: Optional[str] = None) -> Autotuner:
    """Replace the process-wide autotuner (test hook / env re-read)."""
    global _tuner
    with _tuner_lock:
        _tuner = Autotuner(path=path, machine=machine)
        return _tuner
