"""The one counter record every instrumented layer writes.

Each layer declares its counter names once, as a :class:`Counters` set
it :func:`register`-s at import time under a short name, and bumps them
as plain attributes (``stats.hits += 1``).  The profiler takes one
:func:`snapshot` of every registered set when a phase starts and one
:func:`since` delta when it ends.  Stdlib only: the layers import this
module, never the reverse.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator


class Counters:
    """Named numeric counters, read and bumped as attributes.

    ``Counters("hits", "misses")`` declares two counters at 0; keyword
    arguments give starting values.
    """

    def __init__(self, *names: str, **values: float):
        self.__dict__.update(dict.fromkeys(names, 0))
        self.__dict__.update(values)

    @property
    def lookups(self) -> int:
        """``hits + misses`` of a cache's set."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of a cache's lookups that hit (0.0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def snapshot(self) -> "Counters":
        """A copy, for delta accounting across a profiling window."""
        return Counters(**vars(self))

    def since(self, baseline: "Counters") -> "Counters":
        """Counter deltas relative to an earlier :meth:`snapshot`."""
        return Counters(**{name: value - getattr(baseline, name)
                           for name, value in vars(self).items()})

    def merge(self, delta: "Counters") -> None:
        """Add ``delta`` into this record; counters new to it start at 0."""
        for name, value in vars(delta).items():
            setattr(self, name, getattr(self, name, 0) + value)

    def reset(self) -> None:
        """Set every counter back to 0, in place."""
        self.__dict__.update(dict.fromkeys(vars(self), 0))

    @contextmanager
    def timed(self, name: str) -> Iterator[None]:
        """Add the wall time of the ``with`` body (unless it raises)."""
        start = time.perf_counter()
        yield
        setattr(self, name,
                getattr(self, name) + time.perf_counter() - start)


_registry: Dict[str, Counters] = {}


def register(name: str, counters: Counters) -> Counters:
    """Make ``counters`` a set every profiled phase diffs (at import)."""
    _registry[name] = counters
    return counters


def snapshot() -> Dict[str, Counters]:
    """A copy of every registered set, keyed by set name."""
    return {name: counters.snapshot() for name, counters in _registry.items()}


def since(baseline: Dict[str, Counters]) -> Dict[str, Counters]:
    """Every registered set's deltas relative to a :func:`snapshot`."""
    return {name: counters.since(baseline[name])
            for name, counters in _registry.items()}


def zeros() -> Dict[str, Counters]:
    """Every registered set with all of its counters at 0."""
    return {name: Counters(*vars(counters))
            for name, counters in _registry.items()}
