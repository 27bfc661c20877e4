"""Pure functions behind the benchmark: statistics, span accounting and
the independent output checks.

Nothing here imports the ``repro`` package, so the checks recompute what
they verify (Pareto dominance, hypervolume) from the raw numbers a run
captured instead of trusting the code under test.
"""

from __future__ import annotations

import math
import re
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Legal metric names: letters, digits, ``_``, ``.``, ``-``,
#: starting with a letter or digit, at most 64 characters.
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: Percentiles tried, highest first, when reporting a tail.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples that must lie beyond a percentile for it to count as a tail.
TAIL_MIN_BEYOND = 10


def valid_metric_name(name: str) -> bool:
    """True when ``name`` is a legal metric name."""
    return METRIC_NAME.fullmatch(name) is not None


def percentile(values: Sequence[float], pct: float) -> float:
    """Linearly interpolated percentile (NumPy's default method)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def tail_percentile(values: Sequence[float]) -> Tuple[float, float]:
    """The highest ladder percentile with at least ten samples beyond it.

    Returns ``(pct, value)``.  With fewer than twenty samples no
    percentile qualifies and the result is ``(0.0, 0.0)``: the caller
    reports the sample count beside it, so an undefined tail reads as
    such rather than as a small one.
    """
    n = len(values)
    for pct in TAIL_LADDER:
        if math.floor(n * (1.0 - pct / 100.0) + 1e-9) >= TAIL_MIN_BEYOND:
            return pct, percentile(values, pct)
    return 0.0, 0.0


# ----------------------------------------------------------------------
# Spans: (name, start, end, parent_index) with parent_index -1 at the top.

Span = Tuple[str, float, float, int]


def _union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    total = 0.0
    cur_start: Optional[float] = None
    cur_end = 0.0
    for start, end in sorted(intervals):
        if cur_start is None or start > cur_end:
            if cur_start is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_start is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part its direct children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            p_start, p_end = spans[parent][1], spans[parent][2]
            children.setdefault(parent, []).append(
                (max(start, p_start), min(end, p_end)))
    return [(end - start) - _union_length(children.get(i, ()))
            for i, (name, start, end, parent) in enumerate(spans)]


def layer_table(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, inclusive seconds and self seconds.

    Inclusive time counts a name once where it nests inside itself.
    """
    own = self_times(spans)
    table: Dict[str, Dict[str, float]] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        row = table.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += own[i]
        if not _has_ancestor_named(spans, i, name):
            row["s"] += end - start
    return table


def _has_ancestor_named(spans: Sequence[Span], index: int, name: str) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def top_level_seconds(spans: Sequence[Span]) -> float:
    """Total duration of the spans no other span caused."""
    return sum(end - start for _, start, end, parent in spans if parent < 0)


def _children(spans: Sequence[Span], parent_name: str, child_name: str
              ) -> Dict[int, List[Tuple[float, float]]]:
    """Sorted (start, end) of the direct ``child_name`` spans of each
    ``parent_name`` span, by parent index."""
    parents = {i for i, span in enumerate(spans) if span[0] == parent_name}
    grouped: Dict[int, List[Tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if name == child_name and parent in parents:
            grouped.setdefault(parent, []).append((start, end))
    return {parent: sorted(kids) for parent, kids in grouped.items()}


def child_gaps(spans: Sequence[Span], parent_name: str,
               child_name: str) -> List[float]:
    """Idle gaps between consecutive direct ``child_name`` spans of each
    ``parent_name`` span: the time the parent spent between calls."""
    return [after[0] - before[1]
            for kids in _children(spans, parent_name, child_name).values()
            for before, after in zip(kids, kids[1:])]


def child_strides(spans: Sequence[Span], parent_name: str,
                  child_name: str) -> List[float]:
    """Start-to-next-start intervals of direct ``child_name`` spans of each
    ``parent_name`` span; the last runs to the parent's end."""
    strides: List[float] = []
    for parent, kids in _children(spans, parent_name, child_name).items():
        starts = [start for start, _ in kids]
        ends = starts[1:] + [spans[parent][2]]
        strides.extend(end - start for start, end in zip(starts, ends))
    return strides


# ----------------------------------------------------------------------
# Output checks (objectives are minimised).

def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    return (all(x <= y for x, y in zip(a, b))
            and any(x < y for x, y in zip(a, b)))


def hypervolume(points: Sequence[Sequence[float]],
                reference: Sequence[float]) -> float:
    """Exact 3-D hypervolume by slicing along the last objective."""
    pts = [tuple(min(p[k], reference[k]) for k in range(3)) for p in points]
    pts = [p for p in pts if all(p[k] < reference[k] for k in range(3))]
    if not pts:
        return 0.0
    levels = sorted({p[2] for p in pts})
    total = 0.0
    for i, z in enumerate(levels):
        top = levels[i + 1] if i + 1 < len(levels) else reference[2]
        slab = [(p[0], p[1]) for p in pts if p[2] <= z]
        total += _area_2d(slab, reference) * (top - z)
    return total


def _area_2d(points: Sequence[Tuple[float, float]],
             reference: Sequence[float]) -> float:
    area = 0.0
    best_y = reference[1]
    for x, y in sorted(points):
        if y < best_y:
            area += (reference[0] - x) * (best_y - y)
            best_y = y
    return area


def check_phase2(run: dict) -> List[str]:
    """Invariants of one captured Phase 2 run; returns failure messages."""
    problems: List[str] = []
    objectives = run["objectives"]
    if len(objectives) != run["budget"]:
        problems.append(f"spent {len(objectives)} evaluations, "
                        f"budget {run['budget']}")
    if len(set(run["keys"])) != len(run["keys"]):
        problems.append("an evaluated design repeats")
    front = run["pareto"]
    for i, a in enumerate(front):
        if any(dominates(b, a) for j, b in enumerate(front) if j != i):
            problems.append("reported Pareto set has a dominated point")
            break
    for point in objectives:
        if not any(all(x <= y for x, y in zip(p, point)) for p in front):
            problems.append("an evaluated point is not covered by the "
                            "reported Pareto set")
            break
    expected = hypervolume(front, run["reference"])
    if not math.isclose(run["hv"], expected, rel_tol=1e-9, abs_tol=1e-15):
        problems.append(f"final hypervolume {run['hv']!r} differs from "
                        f"the recomputed {expected!r}")
    return problems


def check_bench_report(report: str, cells: Sequence[dict],
                       expected_cells: int) -> List[str]:
    """Every suite cell has a row whose missions match the run's."""
    problems: List[str] = []
    if len(cells) != expected_cells:
        problems.append(f"suite has {len(cells)} cells, "
                        f"expected {expected_cells}")
    lines = report.splitlines()
    for cell in cells:
        tag = f"[{cell['platform_class']}]"
        rows = [line for line in lines
                if line.split(" ", 1)[0] == cell["scenario"] and tag in line]
        if len(rows) != 1:
            problems.append(f"cell {cell['scenario']} {tag}: "
                            f"{len(rows)} report rows")
        elif (cell["missions"] is None
              or rows[0].split()[-2] != f"{cell['missions']:.2f}"):
            problems.append(f"cell {cell['scenario']} {tag}: report says "
                            f"{rows[0].split()[-2]} missions, run "
                            f"{cell['missions']}")
    return problems
