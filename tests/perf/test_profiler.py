"""Tests for the performance profiling layer."""

import time

import pytest

from repro.core.evalcache import shared_report_cache
from repro.perf import Counters, Profiler, render_profile
from repro.perf.profiler import PhaseRecord, ProfileReport


class TestProfiler:
    def test_phase_records_wall_time(self):
        profiler = Profiler()
        with profiler.phase("work"):
            time.sleep(0.01)
        report = profiler.report()
        assert report.phases[0].name == "work"
        assert report.phases[0].wall_s >= 0.01
        assert report.total_wall_s >= report.phases[0].wall_s

    def test_repeated_phase_accumulates(self):
        profiler = Profiler()
        for _ in range(3):
            with profiler.phase("work"):
                pass
        report = profiler.report()
        assert len(report.phases) == 1
        assert report.phases[0].calls == 3

    def test_phase_order_preserved(self):
        profiler = Profiler()
        for name in ("phase1", "phase2", "phase3"):
            with profiler.phase(name):
                pass
        assert [p.name for p in profiler.report().phases] == \
            ["phase1", "phase2", "phase3"]

    def test_evaluations_credit_and_throughput(self):
        profiler = Profiler()
        with profiler.phase("dse"):
            time.sleep(0.005)
        profiler.add_evaluations("dse", 50)
        record = profiler.report().phases[0]
        assert record.evaluations == 50
        assert record.evaluations_per_second > 0

    def test_mid_phase_annotation(self):
        profiler = Profiler()
        with profiler.phase("dse") as record:
            record.evaluations += 7
        assert profiler.report().phases[0].evaluations == 7

    def test_cache_delta_accounting(self):
        profiler = Profiler()
        cache = shared_report_cache()
        cache.get(("profiler-test-outside",))  # miss outside any phase
        with profiler.phase("work"):
            cache.put(("profiler-test-key",), 1)
            cache.get(("profiler-test-key",))
            cache.get(("profiler-test-absent",))
        record = profiler.report().phases[0]
        assert record.counters["cache"].hits == 1
        assert record.counters["cache"].misses == 1

    def test_counters(self):
        profiler = Profiler()
        profiler.count("simulations", 3)
        profiler.count("simulations")
        assert profiler.report().counters["simulations"] == 4

    def test_exception_inside_phase_still_recorded(self):
        profiler = Profiler()
        with pytest.raises(RuntimeError):
            with profiler.phase("broken"):
                raise RuntimeError("boom")
        assert profiler.report().phases[0].calls == 1


class TestProfileReport:
    def test_total_evaluations_sums_phases(self):
        profiler = Profiler()
        profiler.add_evaluations("a", 3)
        profiler.add_evaluations("b", 4)
        assert profiler.report().total_evaluations == 7

    def test_overall_cache_sums_phases(self):
        profiler = Profiler()
        cache = shared_report_cache()
        with profiler.phase("a"):
            cache.put(("report-test-key",), 1)
            cache.get(("report-test-key",))
        with profiler.phase("b"):
            cache.get(("report-test-key",))
            cache.get(("report-test-absent",))
        overall = profiler.report().total("cache")
        assert overall.hits == 2
        assert overall.misses == 1

    def test_render_contains_phases_and_totals(self):
        profiler = Profiler()
        with profiler.phase("phase2"):
            pass
        profiler.add_evaluations("phase2", 12)
        profiler.count("corner_evals", 2)
        text = render_profile(profiler.report())
        assert "## Profile" in text
        assert "phase2" in text
        assert "12" in text
        assert "corner_evals: 2" in text


def _record(name: str, **sets: Counters) -> PhaseRecord:
    record = PhaseRecord(name=name)
    for set_name, delta in sets.items():
        record.counters[set_name].merge(delta)
    return record


class TestCounterLines:
    def test_pool_fault_line_sums_phases(self):
        report = ProfileReport(phases=[
            _record("a", pool=Counters(chunk_failures=2, poisoned_chunks=1)),
            _record("b", pool=Counters(chunk_failures=1,
                                       unpicklable_chunks=3)),
        ], total_wall_s=1.0, counters={})
        assert ("pool faults: 3 chunk failures, 0 retries, 0 respawns, "
                "1 poisoned, 3 unpicklable, 0 serial-fallback chunks"
                ) in render_profile(report).splitlines()

    def test_recoveries_without_faults_print_no_pool_line(self):
        report = ProfileReport(phases=[
            _record("a", pool=Counters(chunk_retries=2, pool_respawns=1,
                                       serial_fallback_chunks=1)),
        ], total_wall_s=1.0, counters={})
        assert "pool faults" not in render_profile(report)

    def test_mean_sizes_are_derived_from_counts(self):
        report = ProfileReport(phases=[_record(
            "phase2",
            proposals=Counters(proposal_groups=4, proposed_points=10,
                               proposal_calls=3, proposal_designs=9),
            batch=Counters(batch_calls=4, batched_designs=18,
                           kernel_designs=7))],
            total_wall_s=1.0, counters={})
        lines = render_profile(report).splitlines()
        assert ("phase2 proposals: 4 groups, 10 points, "
                "mean group size 2.5") in lines
        assert ("phase2 batches: 4 calls, mean batch size 4.5, "
                "7 kernel-simulated designs (0.000 s in kernels), "
                "3 proposal batches (mean 3.0)") in lines

    def test_untimed_phase_prints_no_counter_lines(self):
        profiler = Profiler()
        profiler.add_evaluations("dse", 3)
        lines = render_profile(profiler.report()).splitlines()
        assert lines[-1].startswith("total ")


class TestStepCounters:
    def test_add_steps_and_throughput(self):
        profiler = Profiler()
        with profiler.phase("phase1"):
            pass
        profiler.add_steps("phase1", 1000)
        record = profiler.report().phases[0]
        assert record.steps == 1000
        assert record.steps_per_second > 0
        assert profiler.report().total_steps == 1000

    def test_render_includes_steps_column(self):
        profiler = Profiler()
        with profiler.phase("phase1"):
            pass
        profiler.add_steps("phase1", 4321)
        text = render_profile(profiler.report())
        assert "steps/s" in text
        assert "4321" in text

    def test_untimed_phase_has_zero_step_rate(self):
        profiler = Profiler()
        profiler.add_steps("phase1", 10)
        assert profiler.report().phases[0].steps_per_second == 0.0
