"""Unit tests for the design-space abstraction."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DesignSpaceError
from repro.optim.base import CachingEvaluator
from repro.optim.bayesopt import SmsEgoBayesOpt
from repro.optim.fidelity import MultiFidelityEvaluator
from repro.optim.space import DesignSpace, Dimension


@pytest.fixture
def space():
    return DesignSpace([
        Dimension("a", (1, 2, 4, 8)),
        Dimension("b", ("x", "y", "z")),
    ])


class TestDimension:
    def test_index_of(self):
        dim = Dimension("d", (10, 20, 30))
        assert dim.index_of(20) == 1

    def test_index_of_missing_raises(self):
        with pytest.raises(DesignSpaceError):
            Dimension("d", (10,)).index_of(99)

    def test_rejects_empty(self):
        with pytest.raises(DesignSpaceError):
            Dimension("d", ())

    def test_rejects_duplicates(self):
        with pytest.raises(DesignSpaceError):
            Dimension("d", (1, 1))


class TestDesignSpace:
    def test_size(self, space):
        assert space.size() == 12

    def test_rejects_duplicate_names(self):
        with pytest.raises(DesignSpaceError):
            DesignSpace([Dimension("a", (1,)), Dimension("a", (2,))])

    def test_rejects_empty_space(self):
        with pytest.raises(DesignSpaceError):
            DesignSpace([])

    def test_validate_complete_assignment(self, space):
        space.validate({"a": 4, "b": "y"})

    def test_validate_rejects_missing_key(self, space):
        with pytest.raises(DesignSpaceError):
            space.validate({"a": 4})

    def test_validate_rejects_unknown_value(self, space):
        with pytest.raises(DesignSpaceError):
            space.validate({"a": 3, "b": "y"})

    def test_encode_normalised(self, space):
        vec = space.encode({"a": 8, "b": "x"})
        assert vec[0] == pytest.approx(1.0)
        assert vec[1] == pytest.approx(0.0)

    def test_encode_decode_roundtrip(self, space):
        for point in space.all_points():
            assert space.decode(space.encode(point)) == point

    def test_decode_snaps_to_nearest(self, space):
        decoded = space.decode(np.array([0.34, 0.49]))
        assert decoded["a"] == 2  # index round(0.34*3) = 1
        assert decoded["b"] == "y"

    def test_decode_clips_out_of_range(self, space):
        decoded = space.decode(np.array([2.0, -1.0]))
        assert decoded == {"a": 8, "b": "x"}

    def test_decode_rejects_wrong_dim(self, space):
        with pytest.raises(DesignSpaceError):
            space.decode(np.array([0.5]))

    def test_sample_valid_points(self, space, rng):
        for point in space.sample(rng, 20):
            space.validate(point)

    def test_sample_covers_space(self, space, rng):
        keys = {space.key(p) for p in space.sample(rng, 200)}
        assert len(keys) == space.size()

    def test_neighbor_changes_exactly_one_dim(self, space, rng):
        start = {"a": 2, "b": "y"}
        for _ in range(20):
            neighbor = space.neighbor(start, rng)
            space.validate(neighbor)
            changed = [k for k in start if start[k] != neighbor[k]]
            assert len(changed) == 1

    def test_neighbor_moves_one_step(self, space, rng):
        start = {"a": 2, "b": "y"}
        for _ in range(20):
            neighbor = space.neighbor(start, rng)
            for dim in space.dimensions:
                delta = abs(dim.index_of(neighbor[dim.name])
                            - dim.index_of(start[dim.name]))
                assert delta <= 1

    def test_all_points_enumerates_everything(self, space):
        points = list(space.all_points())
        assert len(points) == 12
        assert len({space.key(p) for p in points}) == 12

    def test_key_is_hashable_identity(self, space):
        a = space.key({"a": 2, "b": "y"})
        b = space.key({"b": "y", "a": 2})
        assert a == b
        hash(a)


#: Spaces of 1-4 dimensions with 1-9 values each (a single-value
#: dimension exercises the ``max(1, len - 1)`` encoding denominator).
small_spaces = st.lists(st.integers(1, 9), min_size=1, max_size=4).map(
    lambda counts: DesignSpace([
        Dimension(f"d{i}", tuple(range(0, 3 * n, 3)))
        for i, n in enumerate(counts)]))


def _state(rng):
    return rng.bit_generator.state


class TestIndexApi:
    @settings(max_examples=50, deadline=None)
    @given(space=small_spaces, seed=st.integers(0, 2 ** 32 - 1),
           count=st.integers(0, 40))
    def test_index_draw_consumes_the_stream_like_sample_block(
            self, space, seed, count):
        rng_points, rng_indices = (np.random.default_rng(seed),
                                   np.random.default_rng(seed))
        points, keys = space.sample_block(rng_points, count)
        indices = space.sample_indices(rng_indices, count)
        assert indices.shape == (count, space.num_dimensions)
        assert space.from_indices(indices) == points
        assert space.index_keys(indices) == keys
        assert _state(rng_points) == _state(rng_indices)

    @settings(max_examples=50, deadline=None)
    @given(space=small_spaces, seed=st.integers(0, 2 ** 32 - 1))
    def test_index_encoding_is_bitwise_encode_many(self, space, seed):
        indices = space.sample_indices(np.random.default_rng(seed), 30)
        points = space.from_indices(indices)
        encoded = space.encode_indices(indices)
        reference = space.encode_many(points)
        assert encoded.dtype == reference.dtype
        assert encoded.shape == reference.shape
        assert encoded.tobytes() == reference.tobytes()

    def test_index_keys_are_space_keys(self, space, rng):
        indices = space.sample_indices(rng, 25)
        points = space.from_indices(indices)
        assert space.index_keys(indices) == [space.key(p) for p in points]
        for point in points:
            space.validate(point)

    def test_tuple_values_stay_whole(self, rng):
        space = DesignSpace([Dimension("shape", ((1, 2), (3, 4)))])
        indices = space.sample_indices(rng, 8)
        for point in space.from_indices(indices):
            assert point["shape"] in ((1, 2), (3, 4))


def _toy_objectives(point):
    a, b = point["a"], point["b"]
    return [a / 8.0, b / 3.0, (a * (b + 1)) / 32.0]


def _toy_space():
    return DesignSpace([Dimension("a", tuple(range(1, 9))),
                        Dimension("b", tuple(range(4)))])


def _legacy_pool(optimizer, evaluator, rng):
    """The dict-based pool draw the index matrix replaced."""
    pool, seen_keys, attempts = [], set(), 0
    attempt_limit = 20 * optimizer.pool_size
    while len(pool) < optimizer.pool_size and attempts < attempt_limit:
        block = min(optimizer.pool_size - len(pool),
                    attempt_limit - attempts)
        points, keys = evaluator.space.sample_block(rng, block)
        attempts += block
        for point, key in zip(points, keys):
            if key in seen_keys or evaluator.seen(point):
                continue
            seen_keys.add(key)
            pool.append(point)
    return pool


class TestCandidatePool:
    @pytest.mark.parametrize("pool_size", [4, 16, 64])
    @pytest.mark.parametrize("observed", [0, 10, 31])
    def test_matches_the_dict_pool_draw_for_draw(self, pool_size, observed):
        space = _toy_space()
        evaluator = CachingEvaluator(space, _toy_objectives, budget=32)
        for point in list(space.all_points())[:observed]:
            evaluator.evaluate(point)
        optimizer = SmsEgoBayesOpt(space, pool_size=pool_size)
        rng_new, rng_old = np.random.default_rng(5), np.random.default_rng(5)
        pool = optimizer._candidate_pool(evaluator, rng_new)
        assert space.from_indices(pool) == _legacy_pool(
            optimizer, evaluator, rng_old)
        assert _state(rng_new) == _state(rng_old)

    def test_never_returns_seen_or_duplicate_points(self):
        space = _toy_space()
        evaluator = CachingEvaluator(space, _toy_objectives, budget=32)
        for point in list(space.all_points())[::3]:
            evaluator.evaluate(point)
        pool = SmsEgoBayesOpt(space, pool_size=64)._candidate_pool(
            evaluator, np.random.default_rng(0))
        keys = space.index_keys(pool)
        assert len(set(keys)) == len(keys)
        assert not any(evaluator.seen_key(k) for k in keys)
        # The space is small enough that every unseen point is found.
        assert len(keys) == space.size() - evaluator.evaluations_used

    def test_never_returns_pruned_points(self):
        space = _toy_space()
        evaluator = MultiFidelityEvaluator(
            space, _toy_objectives, budget=32,
            screen_fn=lambda points: [_toy_objectives(p) for p in points],
            promotion_eta=0.25, reference=[2.0, 2.0, 2.0])
        points = list(space.all_points())
        evaluator.evaluate(points[0])
        results = evaluator.evaluate_screened(points[8:24])
        pruned = {space.key(p) for p, r in zip(points[8:24], results)
                  if r is None}
        assert pruned
        pool = SmsEgoBayesOpt(space, pool_size=64)._candidate_pool(
            evaluator, np.random.default_rng(0))
        keys = set(space.index_keys(pool))
        assert not keys & pruned
        assert not any(k in evaluator._cache for k in keys)
        assert len(keys) == space.size() - evaluator.evaluations_used \
            - len(pruned)
