"""Hypervolume computation (minimisation convention).

SMS-EGO scores candidates by the hypervolume enclosed between the Pareto
set and a fixed reference point that all points must dominate.  We
implement:

* an exact 2-D sweep (O(n log n));
* an exact 3-D sweep maintaining an incremental 2-D staircase -- the
  hot path for the (success, latency, power) objective space;
* an exact recursive slicing algorithm for d >= 4 (WFG-style without
  the advanced pruning -- fine for the Pareto-set sizes BO produces).

Exclusive contributions of a whole candidate pool (the SMS-EGO
acquisition and the multi-fidelity promotion rank) are scored in 3-D
from one box decomposition of the region the front does *not*
dominate: the same z-sweep and staircase as the 3-D hypervolume emit
O(m) disjoint boxes, and every candidate's contribution is then one
vectorised box intersection (Emmerich & Fonseca, EMO 2011; Lacour et
al., 2017).  Other dimensions use the per-candidate WFG identity.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Sequence, Tuple

import numpy as np

from repro.optim.pareto import non_dominated_mask

#: Upper bound on the elements of one ``(candidates x boxes x 3)``
#: temporary in :func:`hypervolume_contributions` (512 KiB of floats).
_CHUNK_ELEMENTS = 1 << 16


def _validate(points: np.ndarray, reference: np.ndarray) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    ref = np.asarray(reference, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be 2-D (n x d)")
    if ref.shape != (pts.shape[1],):
        raise ValueError(
            f"reference dim {ref.shape} does not match points dim {pts.shape[1]}")
    # Points at or beyond the reference contribute nothing; drop them.
    keep = np.all(pts < ref, axis=1)
    return pts[keep]


def hypervolume(points: np.ndarray, reference: Sequence[float]) -> float:
    """Exact hypervolume of ``points`` w.r.t. ``reference`` (minimisation).

    Points not strictly dominating the reference are ignored.  Dominated
    points are harmless (they add no volume) but are pruned for speed.
    """
    ref = np.asarray(reference, dtype=float)
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be 2-D (n x d)")
    if ref.shape != (pts.shape[1],):
        raise ValueError(
            f"reference dim {ref.shape} does not match points dim {pts.shape[1]}")
    if pts.shape[0] == 0:
        return 0.0
    d = pts.shape[1]
    if d == 3:
        # The staircase sweep skips dominated and out-of-reference
        # points as it goes; no filtering or pruning pass needed.
        return _hypervolume_3d(pts, ref)
    pts = _validate(pts, ref)
    if pts.shape[0] == 0:
        return 0.0
    if d == 1:
        return float(ref[0] - pts[:, 0].min())
    if d == 2:
        return _hypervolume_2d(pts, ref)
    # Pruning once at the top level keeps the recursion small; the 2-D
    # base case is robust to dominated points, so slabs need no pruning.
    pts = pts[non_dominated_mask(pts)]
    return _hypervolume_recursive(pts, ref)


def _hypervolume_2d(points: np.ndarray, reference: np.ndarray) -> float:
    """Sweep over the first objective; tolerates dominated points.

    Fully vectorised: after sorting by x, only strictly-decreasing
    running-minimum y values add area, and each adds a rectangle of
    width ``ref_x - x`` and height equal to the decrease.
    """
    order = np.argsort(points[:, 0], kind="stable")
    xs = points[order, 0]
    # Clamp at the reference so points at/beyond it contribute nothing.
    running_min = np.minimum.accumulate(
        np.minimum(points[order, 1], reference[1]))
    prev = np.concatenate(([reference[1]], running_min[:-1]))
    delta = prev - running_min
    mask = delta > 0
    return float(((reference[0] - xs[mask]) * delta[mask]).sum())


def _hypervolume_3d(points: np.ndarray, reference: np.ndarray) -> float:
    """Sweep along z, maintaining the dominated 2-D area incrementally.

    Points are visited in ascending z; between consecutive z values the
    swept volume is ``area * dz`` where ``area`` is the 2-D hypervolume
    of the (x, y) staircase accumulated so far.  Inserting a point into
    the staircase updates the area in O(removed + log n) scalar work,
    so the whole sweep is O(n log n) -- no per-slab 2-D recomputation.

    Dominated points and points at/beyond the reference are skipped as
    they are encountered, so callers need no filtering pass.
    """
    ref_x, ref_y, ref_z = (float(reference[0]), float(reference[1]),
                           float(reference[2]))
    rows = points.tolist()
    rows.sort(key=lambda row: row[2])
    xs: list = []   # staircase x, ascending
    ys: list = []   # matching y, strictly descending
    area = 0.0
    total = 0.0
    prev_z = None
    for x, y, z in rows:
        if x >= ref_x or y >= ref_y or z >= ref_z:
            continue
        if prev_z is None:
            prev_z = z
        elif z > prev_z:
            total += area * (z - prev_z)
            prev_z = z
        i, j, gained = _staircase_step(xs, ys, x, y, ref_x, ref_y)
        if gained <= 0.0:
            continue  # dominated or a degenerate tie; nothing new
        area += gained
        xs[i:j] = [x]
        ys[i:j] = [y]
    if prev_z is not None:
        total += area * (ref_z - prev_z)
    return float(total)


def _staircase_step(xs: list, ys: list, x: float, y: float,
                    ref_x: float, ref_y: float) -> Tuple[int, int, float]:
    """Where ``(x, y)`` enters a 2-D staircase, and the area it adds.

    ``xs`` ascend and ``ys`` strictly descend.  Returns ``(i, j,
    gained)``: the new point replaces ``xs[i:j]`` (the points it
    dominates) and covers ``gained`` more area.  ``gained <= 0`` means
    it covers nothing new -- it is weakly dominated in (x, y), and so
    in 3-D, or it is a degenerate tie.
    """
    i = bisect_left(xs, x)
    if i > 0 and ys[i - 1] <= y:
        return i, i, 0.0
    # Walk the points the new one dominates, summing the area it gains
    # over each staircase step.
    j = i
    gained = 0.0
    step_y = ys[i - 1] if i > 0 else ref_y
    left = x
    while j < len(xs) and ys[j] >= y:
        gained += (xs[j] - left) * (step_y - y)
        step_y = ys[j]
        left = xs[j]
        j += 1
    right = xs[j] if j < len(xs) else ref_x
    gained += (right - left) * (step_y - y)
    return i, j, gained


def _hypervolume_recursive(points: np.ndarray, reference: np.ndarray) -> float:
    """Slice along the last objective and integrate (d-1)-volumes."""
    last = points.shape[1] - 1
    order = np.argsort(points[:, last], kind="stable")
    pts = points[order]
    total = 0.0
    for i in range(pts.shape[0]):
        z_lo = pts[i, last]
        z_hi = pts[i + 1, last] if i + 1 < pts.shape[0] else reference[last]
        depth = z_hi - z_lo
        if depth <= 0:
            continue
        slab = pts[: i + 1, :last]
        if last == 2:
            slab_volume = _hypervolume_2d(slab, reference[:2])
        else:
            slab_volume = hypervolume(slab, reference[:last])
        total += depth * slab_volume
    return float(total)


def hypervolume_contribution(points: np.ndarray, candidate: Sequence[float],
                             reference: Sequence[float]) -> float:
    """Hypervolume gained by adding ``candidate`` to ``points``.

    This is the quantity SMS-EGO maximises; zero when the candidate is
    dominated by the current set or lies beyond the reference.
    """
    cand = np.asarray(candidate, dtype=float).ravel()
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        pts = np.zeros((0, cand.shape[0]))
    return float(hypervolume_contributions(pts, cand[None, :], reference)[0])


def hypervolume_contributions(points: np.ndarray, candidates: np.ndarray,
                              reference: Sequence[float]) -> np.ndarray:
    """Exclusive hypervolume contribution of each candidate w.r.t. ``points``.

    The contribution of ``c`` is the volume of its box ``[c, ref)`` that
    no existing point dominates.  Candidates weakly dominated by
    ``points`` (or at/beyond the reference) are screened out vectorised
    and contribute exactly zero.  For the live rest:

    * d = 3 (the Phase 2 objective space): the non-dominated part of
      the reference box is split once into disjoint boxes
      (:func:`nondominated_boxes_3d`), and each candidate scores
      ``sum_k prod_d max(0, hi_kd - max(c_d, lo_kd))`` -- one
      ``(candidates x boxes x 3)`` pass, chunked over candidates so the
      temporaries stay bounded.
    * other d: the WFG exclusive-volume identity per candidate,
      ``prod(ref - c) - HV({max(p, c) : p in points})``.
    """
    ref = np.asarray(reference, dtype=float)
    cands = np.atleast_2d(np.asarray(candidates, dtype=float))
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or cands.shape[1] != ref.shape[0]:
        raise ValueError("points must be 2-D and candidate dims must "
                         "match the reference")
    out = np.zeros(cands.shape[0])
    inside = np.all(cands < ref, axis=1)
    if pts.shape[0] == 0:
        out[inside] = np.prod(ref - cands[inside], axis=1)
        return out
    # Weak dominance screen: contribution is zero iff some existing
    # point is <= the candidate in every objective.
    dominated = np.any(
        np.all(pts[None, :, :] <= cands[:, None, :], axis=2), axis=1)
    live = np.flatnonzero(inside & ~dominated)
    if live.size == 0:
        return out
    if ref.shape[0] == 3:
        lo, hi = nondominated_boxes_3d(pts, ref)
        step = max(1, _CHUNK_ELEMENTS // (3 * lo.shape[0]))
        for start in range(0, live.size, step):
            rows = live[start:start + step]
            extent = hi[None, :, :] - np.maximum(cands[rows, None, :],
                                                 lo[None, :, :])
            np.maximum(extent, 0.0, out=extent)
            out[rows] = extent.prod(axis=2).sum(axis=1)
        return out
    boxes = np.prod(ref[None, :] - cands[live], axis=1)
    for box, i in zip(boxes, live):
        clipped = np.maximum(pts, cands[i])
        out[i] = max(0.0, float(box) - hypervolume(clipped, ref))
    return out


def nondominated_boxes_3d(points: np.ndarray, reference: np.ndarray
                          ) -> Tuple[np.ndarray, np.ndarray]:
    """Disjoint boxes covering the part of ``(-inf, reference)`` that
    ``points`` do not dominate (3-D, minimisation).

    Returns ``(lo, hi)``, two ``(k x 3)`` arrays of box corners; lower
    corners may be ``-inf``.  Built by the z-sweep of
    :func:`_hypervolume_3d`: between insertions, the slice of the
    non-dominated region is a row of staircase *columns* -- column ``c``
    spans x in ``[xs[c-1], xs[c])`` and y below ``ys[c-1]`` (with
    ``xs[-1] = -inf``, ``ys[-1] = ref_y`` and ``xs[len] = ref_x``).  An
    insertion closes every column it touches into a box ending at its
    z and opens two new ones, so ``m`` points yield at most ``2m + 1``
    boxes (zero-height ones are dropped).  Dominated points and points
    at/beyond the reference change nothing and are skipped.
    """
    ref_x, ref_y, ref_z = (float(reference[0]), float(reference[1]),
                           float(reference[2]))
    rows = points.tolist()
    rows.sort(key=lambda row: row[2])
    xs: list = []   # staircase x, ascending
    ys: list = []   # matching y, strictly descending
    starts = [-np.inf]  # z at which each column opened
    boxes: list = []

    def close(first: int, last: int, z: float) -> None:
        for c in range(first, last + 1):
            if starts[c] < z:
                boxes.append((xs[c - 1] if c > 0 else -np.inf,
                              -np.inf, starts[c],
                              xs[c] if c < len(xs) else ref_x,
                              ys[c - 1] if c > 0 else ref_y, z))

    for x, y, z in rows:
        if x >= ref_x or y >= ref_y or z >= ref_z:
            continue
        i, j, gained = _staircase_step(xs, ys, x, y, ref_x, ref_y)
        if gained <= 0.0:
            continue  # dominated or a degenerate tie; nothing new
        # Columns i..j see their right edge move (i) or their left
        # point dominated (i+1..j); two columns replace them.
        close(i, j, z)
        xs[i:j] = [x]
        ys[i:j] = [y]
        starts[i:j + 1] = [z, z]
    close(0, len(xs), ref_z)
    table = np.array(boxes, dtype=float).reshape(-1, 6)
    return table[:, :3], table[:, 3:]
