"""The persistent worker pool behind every parallel call.

The load-bearing invariant: pooled runs are bit-identical to the serial
path -- the persistent executor is a pure dispatch detail.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.parallel import (
    BatchDssocEvaluator,
    RetryPolicy,
    parallel_map,
    shutdown_warm_pool,
    warm_pool,
)
from repro.core.evalcache import reset_shared_cache
from repro.errors import ConfigError
from repro.nn.template import FILTER_CHOICES, LAYER_CHOICES, PolicyHyperparams
from repro.perf import counters
from repro.scalesim.config import AcceleratorConfig, Dataflow
from repro.soc.dssoc import DssocDesign
from repro.testing import faults

FAST_RETRY = RetryPolicy(max_attempts=3, backoff_s=0.0)

ITEMS = list(range(23))
EXPECTED = [x * x for x in ITEMS]


def _square(x):
    return x * x


def _type_boom(x):
    raise TypeError(f"worker-raised TypeError on {x}")


def _attr_boom(x):
    raise AttributeError(f"worker-raised AttributeError on {x}")


@pytest.fixture(autouse=True)
def _clean_runtime():
    faults.uninstall_injector()
    shutdown_warm_pool()
    yield
    faults.uninstall_injector()
    shutdown_warm_pool()


def _designs(count, seed=0):
    rng = np.random.default_rng(seed)
    designs = []
    for _ in range(count):
        policy = PolicyHyperparams(
            num_layers=int(rng.choice(LAYER_CHOICES)),
            num_filters=int(rng.choice(FILTER_CHOICES)))
        config = AcceleratorConfig(
            pe_rows=int(rng.choice((8, 16, 32))),
            pe_cols=int(rng.choice((8, 16, 32))),
            ifmap_sram_kb=int(rng.choice((32, 64, 128))),
            filter_sram_kb=int(rng.choice((32, 64, 128))),
            ofmap_sram_kb=int(rng.choice((32, 64, 128))),
            dataflow=Dataflow(rng.choice([f.value for f in Dataflow])))
        designs.append(DssocDesign(policy=policy, accelerator=config))
    return designs


class TestWarmPool:
    def test_acquire_reuses_executor(self):
        pool = warm_pool()
        first = pool.acquire(2)
        second = pool.acquire(2)
        assert first.executor is second.executor
        assert first.generation == second.generation

    def test_acquire_grows_but_never_shrinks(self):
        pool = warm_pool()
        big = pool.acquire(3)
        small = pool.acquire(1)
        assert small.executor is big.executor
        assert small.generation == big.generation
        assert pool.workers == 3

    def test_refresh_is_idempotent_per_generation(self):
        pool = warm_pool()
        lease = pool.acquire(2)
        first = pool.refresh(lease.generation)
        # A second caller holding the same (stale) generation must not
        # trigger another respawn: it is handed the fresh executor.
        second = pool.refresh(lease.generation)
        assert first.generation == second.generation == lease.generation + 1
        assert first.executor is second.executor
        assert first.executor is not lease.executor

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ConfigError, match="positive"):
            warm_pool().acquire(0)


class TestWarmParallelMap:
    def test_bit_identical_to_serial(self):
        serial = parallel_map(_square, ITEMS, workers=1)
        pooled = parallel_map(_square, ITEMS, workers=2, chunksize=4)
        again = parallel_map(_square, ITEMS, workers=2, chunksize=4)
        assert serial == pooled == again == EXPECTED
        assert warm_pool().workers == 2

    def test_crash_recovery_under_warm_pool(self):
        before = counters.snapshot()
        with faults.active_faults("crash@pool-task:11"):
            result = parallel_map(_square, ITEMS, workers=2, chunksize=4,
                                  retry=FAST_RETRY)
        assert result == EXPECTED
        delta = counters.since(before)["pool"]
        assert delta.chunk_retries >= 1
        # The respawn went through the persistent pool, which survives.
        assert warm_pool().workers >= 2
        assert parallel_map(_square, ITEMS, workers=2,
                            chunksize=4) == EXPECTED


class TestUnpicklableNarrowing:
    """A worker-raised TypeError/AttributeError must surface as itself.

    Before the probe-pickle narrowing, any TypeError escaping a chunk
    was misclassified as an unpicklable payload and silently rerouted
    to the serial fallback -- which then raised the error without the
    retry machinery ever seeing it, and miscounted the failure mode.
    """

    @pytest.mark.parametrize("fn,exc", [(_type_boom, TypeError),
                                        (_attr_boom, AttributeError)])
    def test_worker_raised_error_is_not_misrouted(self, fn, exc):
        before = counters.snapshot()
        with pytest.raises(exc, match="worker-raised"):
            parallel_map(fn, ITEMS, workers=2, chunksize=4,
                         retry=FAST_RETRY)
        delta = counters.since(before)["pool"]
        # Classified as an application error: retried then poisoned,
        # never counted against the unpicklable path.
        assert delta.unpicklable_chunks == 0
        assert delta.chunk_failures >= 1

    def test_lambda_still_degrades_to_serial(self):
        before = counters.snapshot()
        result = parallel_map(lambda x: x * x, ITEMS, workers=2,
                              chunksize=4)
        assert result == EXPECTED
        delta = counters.since(before)["pool"]
        assert delta.unpicklable_chunks >= 1
        assert delta.chunk_retries == 0


class TestWarmBatchEvaluator:
    def test_batches_bit_identical_to_serial(self):
        designs = _designs(12, seed=5)
        reset_shared_cache()
        serial_reports = BatchDssocEvaluator(
            workers=1).evaluate_batch(designs)
        # Clear the shared cache so the pooled path actually simulates
        # (a populated cache would serve every design in the parent).
        reset_shared_cache()
        pooled_reports = BatchDssocEvaluator(
            workers=2).evaluate_batch(designs)
        assert pooled_reports == serial_reports
        # The misses really went through the pool.
        assert warm_pool().workers == 2
