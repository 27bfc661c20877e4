"""Unit and property tests for hypervolume computation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.optim.hypervolume import (
    _hypervolume_3d,
    _hypervolume_recursive,
    hypervolume,
    hypervolume_contribution,
    hypervolume_contributions,
    nondominated_boxes_3d,
)
from repro.optim.pareto import non_dominated_mask

unit_points = hnp.arrays(
    dtype=float,
    shape=st.tuples(st.integers(1, 20), st.integers(2, 4)),
    elements=st.floats(0.0, 0.99, allow_nan=False),
)


class TestExactValues:
    def test_1d(self):
        assert hypervolume(np.array([[0.3], [0.7]]), [1.0]) == pytest.approx(0.7)

    def test_single_2d_point(self):
        assert hypervolume(np.array([[0.2, 0.4]]), [1.0, 1.0]) == \
            pytest.approx(0.8 * 0.6)

    def test_two_2d_points_union(self):
        points = np.array([[0.0, 0.5], [0.5, 0.0]])
        # Union of two rectangles minus the overlap: 0.5 + 0.5 - 0.25.
        assert hypervolume(points, [1.0, 1.0]) == pytest.approx(0.75)

    def test_3d_union(self):
        points = np.array([[0, 0, 0.5], [0.5, 0.5, 0]])
        assert hypervolume(points, [1, 1, 1]) == pytest.approx(0.625)

    def test_4d_single_point(self):
        point = np.array([[0.5, 0.5, 0.5, 0.5]])
        assert hypervolume(point, [1, 1, 1, 1]) == pytest.approx(0.5 ** 4)

    def test_point_at_reference_ignored(self):
        points = np.array([[1.0, 1.0], [0.5, 0.5]])
        assert hypervolume(points, [1.0, 1.0]) == pytest.approx(0.25)

    def test_empty_set_zero(self):
        assert hypervolume(np.zeros((0, 2)), [1.0, 1.0]) == 0.0

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            hypervolume(np.array([[0.5, 0.5]]), [1.0, 1.0, 1.0])


class TestInvariants:
    @settings(max_examples=60, deadline=None)
    @given(points=unit_points)
    def test_bounded_by_enclosing_box(self, points):
        d = points.shape[1]
        volume = hypervolume(points, [1.0] * d)
        assert 0.0 < volume <= 1.0 + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(points=unit_points)
    def test_adding_dominated_point_changes_nothing(self, points):
        d = points.shape[1]
        reference = [1.0] * d
        base = hypervolume(points, reference)
        dominated = np.minimum(points[0] + 0.005, 0.999)[None, :]
        extended = hypervolume(np.vstack([points, dominated]), reference)
        assert extended == pytest.approx(base, rel=1e-9, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(points=unit_points)
    def test_monotone_under_additional_points(self, points):
        d = points.shape[1]
        reference = [1.0] * d
        base = hypervolume(points[:-1], reference) if points.shape[0] > 1 \
            else 0.0
        extended = hypervolume(points, reference)
        assert extended >= base - 1e-12

    @settings(max_examples=40, deadline=None)
    @given(points=unit_points)
    def test_at_least_best_single_point(self, points):
        d = points.shape[1]
        reference = np.ones(d)
        volume = hypervolume(points, reference)
        best_single = max(float(np.prod(reference - p)) for p in points)
        assert volume >= best_single - 1e-12

    @settings(max_examples=40, deadline=None)
    @given(points=unit_points)
    def test_permutation_invariant(self, points):
        d = points.shape[1]
        reference = [1.0] * d
        shuffled = points[np.random.default_rng(0).permutation(
            points.shape[0])]
        assert hypervolume(points, reference) == pytest.approx(
            hypervolume(shuffled, reference))


class TestSweep3d:
    """The incremental-staircase 3-D sweep against the recursive slicer."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 40),
           scale=st.floats(0.5, 2.0))
    def test_matches_recursive_slicing(self, seed, n, scale):
        rng = np.random.default_rng(seed)
        points = rng.random((n, 3)) * scale
        reference = np.array([1.2, 1.2, 1.2])
        fast = _hypervolume_3d(points, reference)
        kept = points[np.all(points < reference, axis=1)]
        slow = 0.0
        if kept.shape[0]:
            slow = _hypervolume_recursive(kept[non_dominated_mask(kept)],
                                          reference)
        assert fast == pytest.approx(slow, rel=1e-12, abs=1e-12)

    def test_tolerates_duplicates_and_boundary_points(self):
        points = np.array([
            [0.5, 0.5, 0.5],
            [0.5, 0.5, 0.5],   # duplicate
            [1.0, 0.1, 0.1],   # at the reference in x
            [0.2, 0.8, 0.5],
        ])
        reference = np.array([1.0, 1.0, 1.0])
        expected = hypervolume(points, reference)
        assert _hypervolume_3d(points, reference) == pytest.approx(expected)

    def test_all_points_outside_reference(self):
        points = np.array([[2.0, 2.0, 2.0], [1.5, 0.1, 0.1]])
        assert _hypervolume_3d(points, np.array([1.0, 1.0, 1.0])) == 0.0


class TestContributions:
    """Batched exclusive contributions against the naive recompute."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(0, 15),
           m=st.integers(1, 15), d=st.integers(2, 3))
    def test_matches_naive_recompute(self, seed, n, m, d):
        rng = np.random.default_rng(seed)
        points = rng.random((n, d)) if n else np.zeros((0, d))
        candidates = rng.random((m, d)) * 1.3
        reference = np.full(d, 1.1)
        fast = hypervolume_contributions(points, candidates, reference)
        base = hypervolume(points, reference) if n else 0.0
        for i in range(m):
            extended = np.vstack([points, candidates[i][None, :]])
            naive = max(0.0, hypervolume(extended, reference) - base)
            assert fast[i] == pytest.approx(naive, rel=1e-10, abs=1e-12)

    def test_dominated_candidates_screened_to_zero(self):
        points = np.array([[0.1, 0.1, 0.1]])
        candidates = np.array([[0.5, 0.5, 0.5], [0.05, 0.05, 0.05]])
        out = hypervolume_contributions(points, candidates, [1.0, 1.0, 1.0])
        assert out[0] == 0.0
        assert out[1] > 0.0

    def test_empty_front_gives_box_volume(self):
        out = hypervolume_contributions(
            np.zeros((0, 2)), np.array([[0.5, 0.5]]), [1.0, 1.0])
        assert out[0] == pytest.approx(0.25)


class TestContribution:
    def test_dominating_point_contributes(self):
        front = np.array([[0.5, 0.5]])
        gain = hypervolume_contribution(front, [0.2, 0.2], [1.0, 1.0])
        assert gain == pytest.approx(0.8 * 0.8 - 0.25)

    def test_dominated_point_contributes_nothing(self):
        front = np.array([[0.2, 0.2]])
        assert hypervolume_contribution(front, [0.5, 0.5], [1.0, 1.0]) == 0.0

    def test_contribution_to_empty_front(self):
        gain = hypervolume_contribution(np.zeros((0, 2)), [0.5, 0.5],
                                        [1.0, 1.0])
        assert gain == pytest.approx(0.25)

    def test_incomparable_point_adds_volume(self):
        front = np.array([[0.1, 0.9]])
        gain = hypervolume_contribution(front, [0.9, 0.1], [1.0, 1.0])
        assert gain > 0.0


def wfg_contributions_3d(points, candidates, reference):
    """Reference oracle: the per-candidate WFG loop for 3-D contributions.

    ``contrib(c) = prod(ref - c) - HV({max(p, c) : p in points})``, one
    staircase sweep per candidate that survives the weak-dominance
    screen; screened candidates score exactly zero.
    """
    ref = np.asarray(reference, dtype=float)
    cands = np.atleast_2d(np.asarray(candidates, dtype=float))
    pts = np.asarray(points, dtype=float)
    out = np.zeros(cands.shape[0])
    inside = np.all(cands < ref, axis=1)
    if pts.shape[0] == 0:
        out[inside] = np.prod(ref - cands[inside], axis=1)
        return out, ~inside
    dominated = np.any(
        np.all(pts[None, :, :] <= cands[:, None, :], axis=2), axis=1)
    screened = ~inside | dominated
    for i in np.flatnonzero(~screened):
        box = float(np.prod(ref - cands[i]))
        clipped = np.maximum(pts, cands[i])
        out[i] = max(0.0, box - _hypervolume_3d(clipped, ref))
    return out, screened


#: Coordinates on a coarse grid, so fronts and candidates hit exact ties.
_grid = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])
_coordinate = st.one_of(_grid, st.floats(0.0, 1.2, allow_nan=False))


@st.composite
def fronts(draw, max_points=12):
    """Point sets with exact ties and duplicate rows (possibly empty)."""
    rows = draw(st.lists(st.tuples(_coordinate, _coordinate, _coordinate),
                         min_size=0, max_size=max_points))
    if rows and draw(st.booleans()):
        rows += draw(st.lists(st.sampled_from(rows), max_size=3))
    return np.array(rows, dtype=float).reshape(-1, 3)


@st.composite
def candidate_sets(draw, reference):
    """Candidates inside, beyond and exactly on the SMS-EGO clip."""
    rows = draw(st.lists(
        st.tuples(_coordinate, _coordinate, _coordinate),
        min_size=1, max_size=16))
    cands = np.array(rows, dtype=float)
    if draw(st.booleans()):
        cands = np.minimum(cands, reference - 1e-12)
    return cands


REFERENCE_3D = np.array([1.1, 1.1, 1.1])


class TestContributionsDifferential:
    """The box-decomposition contributions against the per-candidate
    WFG oracle, and the decomposition's own invariants."""

    @settings(max_examples=300, deadline=None)
    @given(points=fronts(), data=st.data())
    def test_matches_wfg_oracle(self, points, data):
        cands = data.draw(candidate_sets(REFERENCE_3D))
        fast = hypervolume_contributions(points, cands, REFERENCE_3D)
        slow, screened = wfg_contributions_3d(points, cands, REFERENCE_3D)
        assert np.all(fast[screened] == 0.0)
        # The oracle subtracts two volumes of the candidate box's size,
        # so 1e-12 relative is measured against that scale.
        scale = np.prod(np.maximum(REFERENCE_3D - cands, 0.0), axis=1)
        assert np.all(np.abs(fast - slow)
                      <= 1e-12 * np.maximum(np.abs(slow), scale))

    def test_single_point_front(self):
        front = np.array([[0.5, 0.5, 0.5]])
        cands = np.array([[0.25, 0.75, 0.5], [0.5, 0.5, 0.5],
                          [1.2, 0.1, 0.1], [0.1, 0.1, 1.1 - 1e-12]])
        fast = hypervolume_contributions(front, cands, REFERENCE_3D)
        slow, _ = wfg_contributions_3d(front, cands, REFERENCE_3D)
        np.testing.assert_allclose(fast, slow, rtol=1e-12, atol=0.0)
        assert fast[1] == 0.0 and fast[2] == 0.0

    def test_empty_front(self):
        cands = np.array([[0.5, 0.5, 0.5], [1.1, 0.0, 0.0]])
        out = hypervolume_contributions(np.zeros((0, 3)), cands,
                                        REFERENCE_3D)
        assert out[0] == pytest.approx(0.6 ** 3)
        assert out[1] == 0.0

    @settings(max_examples=200, deadline=None)
    @given(points=fronts(max_points=16))
    def test_decomposition_invariants(self, points):
        lo, hi = nondominated_boxes_3d(points, REFERENCE_3D)
        assert lo.shape == hi.shape and lo.shape[1] == 3
        assert lo.shape[0] <= 2 * points.shape[0] + 1
        assert np.all(hi > lo)
        # Pairwise disjoint interiors: every pair is separated on some
        # axis.
        separated = np.any((hi[:, None, :] <= lo[None, :, :])
                           | (hi[None, :, :] <= lo[:, None, :]), axis=2)
        np.fill_diagonal(separated, True)
        assert separated.all()
        # Boxes plus the dominated volume tile the bounding box.
        corner = np.minimum(points.min(axis=0, initial=0.0), 0.0) - 1.0
        boxes = np.prod(hi - np.maximum(lo, corner), axis=1).sum()
        bounding = float(np.prod(REFERENCE_3D - corner))
        covered = hypervolume(points, REFERENCE_3D) if points.size else 0.0
        assert boxes + covered == pytest.approx(bounding, rel=1e-12)
