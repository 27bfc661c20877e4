"""The one counter record: every registered set snapshots, diffs and merges
the same way, and the registry diffs all of them at once."""

import pytest

from repro.core.evalcache import EvalCache, shared_report_cache
from repro.perf import counters
from repro.perf.counters import Counters

SET_NAMES = sorted(counters.snapshot())


def test_every_instrumented_layer_registers_its_set():
    assert SET_NAMES == ["batch", "cache", "fidelity", "gp", "pool",
                         "proposals"]


@pytest.mark.parametrize("name", SET_NAMES)
def test_snapshot_since_merge_cover_every_field(name):
    fields = list(vars(counters.snapshot()[name]))
    assert fields
    assert vars(counters.zeros()[name]) == dict.fromkeys(fields, 0)
    stats = Counters(**{field: i + 1 for i, field in enumerate(fields)})
    snap = stats.snapshot()
    assert snap is not stats
    assert vars(snap) == vars(stats)
    for i, field in enumerate(fields):
        setattr(stats, field, getattr(stats, field) + 10 * (i + 1))
    # The snapshot is an independent copy.
    assert vars(snap) == {field: i + 1 for i, field in enumerate(fields)}
    delta = stats.since(snap)
    assert vars(delta) == {field: 10 * (i + 1)
                           for i, field in enumerate(fields)}
    total = Counters()
    total.merge(snap)
    total.merge(delta)
    assert vars(total) == vars(stats)


def test_registry_snapshot_is_a_copy_and_since_diffs_live_sets():
    cache = shared_report_cache()
    before = counters.snapshot()
    assert before["cache"] is not cache.stats
    cache.get(("counters-test-absent",))
    assert before["cache"].misses == cache.stats.misses - 1
    delta = counters.since(before)
    assert sorted(delta) == SET_NAMES
    assert delta["cache"].misses == 1
    assert delta["cache"].hits == 0
    assert all(value == 0 for value in vars(delta["gp"]).values())


def test_timed_adds_elapsed_seconds_and_nothing_on_error():
    stats = Counters("work_wall_s")
    with stats.timed("work_wall_s"):
        pass
    elapsed = stats.work_wall_s
    assert elapsed >= 0.0
    with pytest.raises(RuntimeError):
        with stats.timed("work_wall_s"):
            raise RuntimeError("boom")
    assert stats.work_wall_s == elapsed


def test_timed_rejects_an_undeclared_counter():
    with pytest.raises(AttributeError):
        with Counters("work_wall_s").timed("wrok_wall_s"):
            pass


def test_reset_zeroes_in_place():
    cache = EvalCache(capacity=4)
    stats = cache.stats
    cache.put(("a",), 1)
    cache.get(("a",))
    cache.get(("b",))
    cache.clear()
    assert cache.stats is stats
    assert vars(stats) == {"hits": 0, "misses": 0, "evictions": 0}
