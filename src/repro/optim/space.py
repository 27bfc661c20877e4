"""Categorical design-space abstraction shared by all optimisers.

AutoPilot's Phase 2 search space (Table II) is a product of ordered
categorical dimensions (layer counts, filter counts, PE dimensions, SRAM
sizes).  The space maps assignments to normalised vectors in [0, 1]^d
for the GP, supports uniform sampling, neighbourhood moves (for SA/GA)
and exhaustive enumeration (for the small sub-spaces used in tests).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro.errors import DesignSpaceError

Assignment = Dict[str, object]


@dataclass(frozen=True)
class Dimension:
    """One ordered-categorical dimension of the design space."""

    name: str
    values: Tuple[object, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise DesignSpaceError(f"dimension {self.name!r} has no values")
        if len(set(self.values)) != len(self.values):
            raise DesignSpaceError(f"dimension {self.name!r} has duplicates")
        # O(1) value -> index lookups; index_of sits on the hot path of
        # every encode/validate/key call in the DSE inner loop.
        try:
            index_map = {value: i for i, value in enumerate(self.values)}
        except TypeError:  # unhashable values: fall back to linear scans
            index_map = None
        object.__setattr__(self, "_index_map", index_map)

    def index_of(self, value: object) -> int:
        """Position of ``value`` within this dimension."""
        if self._index_map is not None:
            index = self._index_map.get(value)
            if index is None:
                raise DesignSpaceError(
                    f"{value!r} not in dimension {self.name!r}")
            return index
        try:
            return self.values.index(value)
        except ValueError as exc:
            raise DesignSpaceError(
                f"{value!r} not in dimension {self.name!r}") from exc


class DesignSpace:
    """A product of ordered categorical dimensions."""

    def __init__(self, dimensions: Sequence[Dimension]):
        if not dimensions:
            raise DesignSpaceError("design space needs at least one dimension")
        names = [d.name for d in dimensions]
        if len(set(names)) != len(names):
            raise DesignSpaceError("dimension names must be unique")
        self.dimensions: Tuple[Dimension, ...] = tuple(dimensions)
        self._by_name = {d.name: d for d in self.dimensions}
        self._names = tuple(d.name for d in self.dimensions)
        self._value_counts = np.array([len(d.values) for d in self.dimensions])
        # Index-level representation: encoding divides an index row by
        # these denominators, and keys gather values from per-dimension
        # object arrays (filled element-wise so tuple values stay whole).
        self._denoms = np.array([max(1, len(d.values) - 1)
                                 for d in self.dimensions], dtype=float)
        self._value_arrays = []
        for dim in self.dimensions:
            values = np.empty(len(dim.values), dtype=object)
            for i, value in enumerate(dim.values):
                values[i] = value
            self._value_arrays.append(values)

    @property
    def num_dimensions(self) -> int:
        """Number of dimensions."""
        return len(self.dimensions)

    def size(self) -> int:
        """Total number of points in the space."""
        total = 1
        for dim in self.dimensions:
            total *= len(dim.values)
        return total

    def validate(self, assignment: Assignment) -> None:
        """Raise if ``assignment`` is not a complete point in the space."""
        if set(assignment) != set(self._by_name):
            raise DesignSpaceError(
                f"assignment keys {sorted(assignment)} do not match "
                f"dimensions {sorted(self._by_name)}")
        for dim in self.dimensions:
            dim.index_of(assignment[dim.name])

    def encode(self, assignment: Assignment) -> np.ndarray:
        """Map an assignment to [0, 1]^d by normalised value index."""
        self.validate(assignment)
        vec = np.empty(self.num_dimensions)
        for i, dim in enumerate(self.dimensions):
            index = dim.index_of(assignment[dim.name])
            denom = max(1, len(dim.values) - 1)
            vec[i] = index / denom
        return vec

    def encode_many(self, assignments: Sequence[Assignment]) -> np.ndarray:
        """Encode a batch of assignments to an (n x d) matrix in [0, 1]."""
        out = np.empty((len(assignments), self.num_dimensions))
        for row, assignment in enumerate(assignments):
            self.validate(assignment)
            for i, dim in enumerate(self.dimensions):
                denom = max(1, len(dim.values) - 1)
                out[row, i] = dim.index_of(assignment[dim.name]) / denom
        return out

    def decode(self, vector: np.ndarray) -> Assignment:
        """Map a [0, 1]^d vector to the nearest assignment."""
        vec = np.asarray(vector, dtype=float).ravel()
        if vec.shape[0] != self.num_dimensions:
            raise DesignSpaceError("vector dimensionality mismatch")
        out: Assignment = {}
        for i, dim in enumerate(self.dimensions):
            denom = max(1, len(dim.values) - 1)
            index = int(round(np.clip(vec[i], 0.0, 1.0) * denom))
            out[dim.name] = dim.values[index]
        return out

    def sample(self, rng: np.random.Generator, count: int = 1) -> List[Assignment]:
        """Draw ``count`` uniform random points."""
        return self.sample_block(rng, count)[0]

    def sample_block(self, rng: np.random.Generator, count: int
                     ) -> Tuple[List[Assignment], List[Tuple[object, ...]]]:
        """Draw ``count`` uniform points in one vectorised block.

        Returns the assignments plus their dedup keys (:meth:`key`) so
        batched callers skip one validate-and-index pass per point.  A
        thin wrapper over :meth:`sample_indices`, so it consumes the
        generator stream exactly as the index draw does.
        """
        indices = self.sample_indices(rng, count)
        return self.from_indices(indices), self.index_keys(indices)

    # ------------------------------------------------------------------
    # Index-level API: a point is a row of per-dimension value indices.
    def sample_indices(self, rng: np.random.Generator, count: int
                       ) -> np.ndarray:
        """Draw ``count`` uniform points as a ``(count x d)`` index matrix.

        One bounded draw per dimension, point-major -- bit-identical to
        ``count`` sequential :meth:`sample` calls of the seed
        implementation, so optimiser trajectories are unchanged.
        """
        if count <= 0:
            return np.zeros((0, self.num_dimensions), dtype=np.int64)
        return rng.integers(self._value_counts,
                            size=(count, self.num_dimensions))

    def encode_indices(self, indices: np.ndarray) -> np.ndarray:
        """Encode an index matrix to [0, 1]^d, bitwise equal to
        :meth:`encode_many` on the same points."""
        return np.asarray(indices) / self._denoms

    def index_keys(self, indices: np.ndarray) -> List[Tuple[object, ...]]:
        """The :meth:`key` of every row of an index matrix."""
        indices = np.asarray(indices)
        columns = [values[indices[:, i]]
                   for i, values in enumerate(self._value_arrays)]
        return list(zip(*columns))

    def from_indices(self, indices: np.ndarray) -> List[Assignment]:
        """The assignment of every row of an index matrix."""
        return [dict(zip(self._names, key))
                for key in self.index_keys(indices)]

    def neighbor(self, assignment: Assignment,
                 rng: np.random.Generator) -> Assignment:
        """Move one random dimension by +-1 step (ordered local move)."""
        self.validate(assignment)
        out = dict(assignment)
        dim = self.dimensions[rng.integers(self.num_dimensions)]
        index = dim.index_of(assignment[dim.name])
        if len(dim.values) == 1:
            return out
        step = int(rng.choice((-1, 1)))
        new_index = int(np.clip(index + step, 0, len(dim.values) - 1))
        if new_index == index:
            new_index = index - step
        out[dim.name] = dim.values[new_index]
        return out

    def all_points(self) -> Iterator[Assignment]:
        """Exhaustively enumerate the space (use only on small spaces)."""
        names = [d.name for d in self.dimensions]
        for combo in itertools.product(*(d.values for d in self.dimensions)):
            yield dict(zip(names, combo))

    def key(self, assignment: Assignment) -> Tuple[object, ...]:
        """A hashable identity for deduplication."""
        self.validate(assignment)
        return tuple(assignment[d.name] for d in self.dimensions)
