"""Unit and property tests for Pareto utilities."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.optim.pareto import (
    IncrementalFront,
    crowding_distance,
    dominates,
    non_dominated_mask,
    non_dominated_sort,
    pareto_front,
    pareto_indices,
)

points_strategy = hnp.arrays(
    dtype=float,
    shape=st.tuples(st.integers(1, 30), st.integers(1, 4)),
    elements=st.floats(-100, 100, allow_nan=False),
)


class TestDominates:
    def test_strict_domination(self):
        assert dominates([0, 0], [1, 1])

    def test_partial_improvement_dominates(self):
        assert dominates([0, 1], [1, 1])

    def test_equal_does_not_dominate(self):
        assert not dominates([1, 1], [1, 1])

    def test_incomparable(self):
        assert not dominates([0, 2], [2, 0])
        assert not dominates([2, 0], [0, 2])

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            dominates([1, 2], [1, 2, 3])


class TestNonDominatedMask:
    def test_simple_front(self):
        points = np.array([[0, 2], [1, 1], [2, 0], [2, 2]])
        mask = non_dominated_mask(points)
        assert list(mask) == [True, True, True, False]

    def test_duplicates_all_kept(self):
        points = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]])
        mask = non_dominated_mask(points)
        assert list(mask) == [True, True, False]

    def test_single_point(self):
        assert non_dominated_mask(np.array([[1.0, 2.0]])).all()

    def test_empty(self):
        assert non_dominated_mask(np.zeros((0, 2))).shape == (0,)

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            non_dominated_mask(np.array([1.0, 2.0]))

    @settings(max_examples=60, deadline=None)
    @given(points=points_strategy)
    def test_front_points_mutually_nondominated(self, points):
        front = pareto_front(points)
        for i in range(front.shape[0]):
            for j in range(front.shape[0]):
                assert not dominates(front[i], front[j])

    @settings(max_examples=60, deadline=None)
    @given(points=points_strategy)
    def test_every_dominated_point_has_dominator_on_front(self, points):
        mask = non_dominated_mask(points)
        front = points[mask]
        for i in np.flatnonzero(~mask):
            assert any(dominates(f, points[i]) for f in front)

    @settings(max_examples=30, deadline=None)
    @given(points=points_strategy)
    def test_at_least_one_point_on_front(self, points):
        assert non_dominated_mask(points).any()


class TestParetoHelpers:
    def test_indices_in_input_order(self):
        points = np.array([[2, 0], [3, 3], [0, 2]])
        assert pareto_indices(points) == [0, 2]

    def test_front_preserves_order(self):
        points = np.array([[2, 0], [3, 3], [0, 2]])
        assert np.allclose(pareto_front(points), [[2, 0], [0, 2]])


class TestNonDominatedSort:
    def test_layered_fronts(self):
        points = np.array([[0, 0], [1, 1], [2, 2]])
        fronts = non_dominated_sort(points)
        assert fronts == [[0], [1], [2]]

    def test_fronts_partition_points(self):
        points = np.array([[0, 2], [2, 0], [1, 1], [3, 3], [2, 2]])
        fronts = non_dominated_sort(points)
        flat = sorted(i for front in fronts for i in front)
        assert flat == list(range(5))

    @settings(max_examples=30, deadline=None)
    @given(points=points_strategy)
    def test_first_front_matches_mask(self, points):
        fronts = non_dominated_sort(points)
        mask = non_dominated_mask(points)
        assert sorted(fronts[0]) == list(np.flatnonzero(mask))


class TestCrowdingDistance:
    def test_boundaries_infinite(self):
        points = np.array([[0.0, 3.0], [1.0, 2.0], [2.0, 1.0], [3.0, 0.0]])
        distance = crowding_distance(points)
        assert np.isinf(distance[0])
        assert np.isinf(distance[-1])
        assert np.isfinite(distance[1:3]).all()

    def test_empty(self):
        assert crowding_distance(np.zeros((0, 2))).shape == (0,)

    def test_uniform_spacing_equal_interior_distance(self):
        points = np.array([[0.0, 4.0], [1.0, 3.0], [2.0, 2.0],
                           [3.0, 1.0], [4.0, 0.0]])
        distance = crowding_distance(points)
        assert distance[1] == pytest.approx(distance[2])
        assert distance[2] == pytest.approx(distance[3])


class TestIncrementalFront:
    # Small integer grids make ties and exact duplicates common.
    @given(
        points=hnp.arrays(
            dtype=float,
            shape=st.tuples(st.integers(1, 40), st.integers(1, 4)),
            elements=st.integers(0, 3).map(float),
        ),
        cuts=st.lists(st.integers(0, 40), max_size=6),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_batch_mask_after_every_extend(self, points, cuts):
        archive = IncrementalFront()
        bounds = sorted({c for c in cuts if c < len(points)} | {len(points)})
        start = 0
        for stop in bounds:
            if stop == start:
                continue
            archive.extend(points[start:stop])
            start = stop
            seen = points[:stop]
            assert np.array_equal(archive.points, seen)
            assert np.array_equal(archive.front,
                                  seen[non_dominated_mask(seen)])

    def test_duplicates_of_front_rows_are_kept(self):
        archive = IncrementalFront()
        archive.extend(np.array([[1.0, 2.0], [2.0, 1.0]]))
        archive.extend(np.array([[1.0, 2.0]]))
        archive.extend(np.array([[3.0, 3.0], [0.5, 0.5]]))
        assert len(archive) == 5
        assert np.array_equal(archive.front, [[0.5, 0.5]])

    def test_single_row_is_its_own_front(self):
        archive = IncrementalFront()
        archive.extend(np.array([[1.0, 1.0]]))
        assert np.array_equal(archive.front, [[1.0, 1.0]])
