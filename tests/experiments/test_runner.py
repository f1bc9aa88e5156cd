"""Tests for the parallel cohort runner and the experiment cache."""

import multiprocessing
import os

import numpy as np
import pytest

import repro.experiments.runner as runner_module
from repro.core.versions import DetectorVersion
from repro.experiments.cache import (
    EXPERIMENT_CACHE,
    ExperimentCache,
    cache_disabled,
    entry_cost,
    set_cache_budget,
)
from repro.experiments.pipeline import (
    ExperimentConfig,
    cohort_record_specs,
    make_dataset,
    run_subject,
)
from repro.experiments.runner import (
    CohortOutcome,
    CohortRunner,
    effective_workers,
)
from repro.signals.dataset import SyntheticFantasia


@pytest.fixture(scope="module")
def config():
    return ExperimentConfig.quick()


def _reports(outcomes):
    return [o.result.reference_report for o in outcomes]


class TestCohortRunnerSerial:
    def test_matches_direct_run_subject(self, config):
        """jobs=1 is the plain run_subject loop, result for result."""
        runner = CohortRunner(config=config, jobs=1, with_device=False)
        outcomes = runner.run_version("reduced")
        dataset = make_dataset(config)
        assert len(outcomes) == config.n_subjects
        for outcome, subject in zip(outcomes, dataset.subjects):
            assert outcome.ok
            assert outcome.subject_id == subject.subject_id
            direct = run_subject(
                dataset, subject, "reduced", config, with_device=False
            )
            assert outcome.result.reference_report == direct.reference_report
            assert outcome.result.n_test_windows == direct.n_test_windows

    def test_serial_keeps_runner_handle(self, config):
        runner = CohortRunner(config=config, jobs=1, with_device=True)
        outcomes = runner.run_version("reduced", subjects=[0])
        assert outcomes[0].ok
        assert outcomes[0].result.runner is not None
        assert outcomes[0].result.device_report is not None

    def test_subject_subset(self, config):
        runner = CohortRunner(config=config, jobs=1, with_device=False)
        outcomes = runner.run_version("reduced", subjects=[2, 0])
        dataset = make_dataset(config)
        assert [o.subject_id for o in outcomes] == [
            dataset.subjects[2].subject_id,
            dataset.subjects[0].subject_id,
        ]

    def test_run_multiple_versions_version_major(self, config):
        runner = CohortRunner(config=config, jobs=1, with_device=False)
        outcomes = runner.run(
            versions=("reduced", "simplified"), subjects=[0, 1]
        )
        assert [o.version for o in outcomes] == [
            DetectorVersion.REDUCED,
            DetectorVersion.REDUCED,
            DetectorVersion.SIMPLIFIED,
            DetectorVersion.SIMPLIFIED,
        ]

    def test_error_capture(self, config, monkeypatch):
        """One failing subject surfaces as an outcome, not an exception."""
        import repro.experiments.runner as runner_module

        real = runner_module.run_subject

        def failing(dataset, subject, version, cfg, with_device):
            if subject is dataset.subjects[1]:
                raise RuntimeError("synthetic failure")
            return real(dataset, subject, version, cfg, with_device=with_device)

        monkeypatch.setattr(runner_module, "run_subject", failing)
        runner = CohortRunner(config=config, jobs=1, with_device=False)
        outcomes = runner.run_version("reduced", subjects=[0, 1, 2])
        assert [o.ok for o in outcomes] == [True, False, True]
        assert outcomes[1].error == "RuntimeError: synthetic failure"
        assert outcomes[1].result is None

    def test_jobs_validation(self, config):
        with pytest.raises(ValueError):
            CohortRunner(config=config, jobs=0)


class TestCohortRunnerParallel:
    def test_parallel_matches_serial(self, config):
        """jobs=2 must reproduce the serial reports exactly."""
        serial = CohortRunner(config=config, jobs=1, with_device=False)
        serial_outcomes = serial.run_version("reduced", subjects=[0, 1, 2])
        with CohortRunner(config=config, jobs=2, with_device=False) as parallel:
            parallel_outcomes = parallel.run_version(
                "reduced", subjects=[0, 1, 2]
            )
        assert [o.subject_id for o in parallel_outcomes] == [
            o.subject_id for o in serial_outcomes
        ]
        assert _reports(parallel_outcomes) == _reports(serial_outcomes)
        # The live Amulet harness never crosses the process boundary.
        for outcome in parallel_outcomes:
            assert outcome.result.runner is None


def _synthesis_only_in(monkeypatch, pid):
    """Make record synthesis raise in every process but ``pid``; forked
    workers inherit the patch."""
    real = SyntheticFantasia.record

    def record(self, *args, **kwargs):
        if os.getpid() != pid:
            raise AssertionError(f"worker {os.getpid()} synthesized a record")
        return real(self, *args, **kwargs)

    monkeypatch.setattr(SyntheticFantasia, "record", record)


class TestForkInheritance:
    """The parent realizes a run's records before its pool forks, so the
    workers inherit them instead of synthesizing their own."""

    def test_forked_workers_synthesize_nothing(self, config, monkeypatch):
        EXPERIMENT_CACHE.clear()
        _synthesis_only_in(monkeypatch, os.getpid())
        with CohortRunner(config=config, jobs=2, with_device=False) as runner:
            fanned = runner.run_version("reduced", subjects=[0, 1])
        serial = CohortRunner(config=config, jobs=1, with_device=False)
        base = serial.run_version("reduced", subjects=[0, 1])
        assert [o.ok for o in fanned] == [True, True]
        assert _reports(fanned) == _reports(base)
        assert not multiprocessing.active_children()

    def test_existing_pool_serves_new_subjects(self, config):
        """A later run's new subjects are synthesized by the workers of
        the pool that already exists, with the same results: the parent
        realizes only what the pool was forked with."""
        EXPERIMENT_CACHE.clear()
        with CohortRunner(config=config, jobs=2, with_device=False) as runner:
            runner.run_version("reduced", subjects=[0, 1])
            pool = runner._pool
            fanned = runner.run_version("reduced", subjects=[2, 3])
            assert runner._pool is pool
            forked_with = cohort_record_specs(config, runner.dataset, [0, 1])
        assert EXPERIMENT_CACHE.stats()["misses"] == len(forked_with)
        serial = CohortRunner(config=config, jobs=1, with_device=False)
        assert _reports(fanned) == _reports(
            serial.run_version("reduced", subjects=[2, 3])
        )

    def test_worker_crash_faults_as_broken_pool_then_next_run_succeeds(
        self, config, monkeypatch, tmp_path
    ):
        sentinel = tmp_path / "crashed-once"
        real = runner_module.run_subject

        def crash_once(dataset, subject, version, cfg, with_device):
            if subject is dataset.subjects[1] and not sentinel.exists():
                sentinel.write_text("crashed")
                os._exit(17)
            return real(dataset, subject, version, cfg, with_device=with_device)

        monkeypatch.setattr(runner_module, "run_subject", crash_once)
        with CohortRunner(config=config, jobs=2, with_device=False) as runner:
            crashed = runner.run_version("reduced", subjects=[0, 1])
            again = runner.run_version("reduced", subjects=[0, 1])
        assert sentinel.exists()
        assert not crashed[1].ok
        assert crashed[1].fault.kind == "broken-pool"
        assert [o.ok for o in again] == [True, True]
        assert not multiprocessing.active_children()


class TestWorkerDatasetMemo:
    def test_varying_configs_do_not_accumulate(self):
        """Regression: the per-worker dataset memo used to keep one cohort
        per config ever seen, growing without bound over sweeps."""
        first = ExperimentConfig.quick()
        second = ExperimentConfig.quick(seed=first.seed + 1)
        runner_module._worker_dataset(first)
        runner_module._worker_dataset(second)
        assert list(runner_module._WORKER_DATASETS) == [
            (second.n_subjects, second.seed, second.sample_rate)
        ]

    def test_same_config_reuses_the_memoized_dataset(self):
        config = ExperimentConfig.quick()
        dataset = runner_module._worker_dataset(config)
        assert runner_module._worker_dataset(config) is dataset


class TestExperimentCache:
    def test_get_or_create_hits(self):
        cache = ExperimentCache()
        calls = []

        def factory():
            calls.append(1)
            return "value"

        assert cache.get_or_create("k", factory) == "value"
        assert cache.get_or_create("k", factory) == "value"
        assert len(calls) == 1
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_disabled_bypasses(self):
        cache = ExperimentCache(enabled=False)
        calls = []
        cache.get_or_create("k", lambda: calls.append(1))
        cache.get_or_create("k", lambda: calls.append(1))
        assert len(calls) == 2
        assert cache.stats()["size"] == 0

    def test_clear(self):
        cache = ExperimentCache()
        cache.get_or_create("k", lambda: 1)
        cache.clear()
        assert cache.stats()["size"] == 0

    def test_clear_resets_counters(self):
        """Regression: hit/miss counters used to survive clear()."""
        cache = ExperimentCache()
        cache.get_or_create("k", lambda: 1)
        cache.get_or_create("k", lambda: 1)
        assert cache.stats()["hits"] == 1
        cache.clear()
        stats = cache.stats()
        assert stats["hits"] == 0
        assert stats["misses"] == 0
        assert stats["evictions"] == 0
        assert stats["resident_bytes"] == 0

    def test_reset_stats_keeps_entries(self):
        cache = ExperimentCache()
        cache.get_or_create("k", lambda: 1)
        cache.reset_stats()
        assert cache.stats()["misses"] == 0
        assert cache.stats()["size"] == 1
        cache.get_or_create("k", lambda: 2)  # still a hit: value survived
        assert cache.stats()["hits"] == 1

    def test_cache_disabled_context(self):
        was_enabled = EXPERIMENT_CACHE.enabled
        with cache_disabled():
            assert not EXPERIMENT_CACHE.enabled
        assert EXPERIMENT_CACHE.enabled == was_enabled

    def test_cached_run_matches_uncached(self, config):
        """Caching is invisible: identical reports with and without it."""
        dataset = make_dataset(config)
        subject = dataset.subjects[0]
        cached = run_subject(dataset, subject, "reduced", config, with_device=False)
        with cache_disabled():
            uncached = run_subject(
                dataset, subject, "reduced", config, with_device=False
            )
        assert cached.reference_report == uncached.reference_report

    def test_detector_reused_across_calls(self, config):
        """Identical (config, subject, version) keys train once."""
        from repro.experiments.pipeline import train_detector

        dataset = make_dataset(config)
        subject = dataset.subjects[0]
        first = train_detector(dataset, subject, "reduced", config)
        second = train_detector(dataset, subject, "reduced", config)
        assert first is second
        with cache_disabled():
            fresh = train_detector(dataset, subject, "reduced", config)
        assert fresh is not first
        assert np.array_equal(fresh.svc.coef_, first.svc.coef_)
        assert fresh.svc.intercept_ == first.svc.intercept_


def _array_kb(fill: float) -> np.ndarray:
    """A float64 array costing exactly 1024 bytes."""
    return np.full(128, fill)


class TestCacheEviction:
    def test_lru_eviction_order(self):
        cache = ExperimentCache(max_bytes=2048)
        cache.get_or_create("a", lambda: _array_kb(1.0))
        cache.get_or_create("b", lambda: _array_kb(2.0))
        cache.get_or_create("c", lambda: _array_kb(3.0))  # evicts "a"
        stats = cache.stats()
        assert stats["size"] == 2
        assert stats["evictions"] == 1
        assert stats["resident_bytes"] == 2048
        rebuilt = []
        cache.get_or_create("a", lambda: rebuilt.append(1) or _array_kb(1.0))
        assert rebuilt == [1]  # "a" was gone; recreated deterministically

    def test_hit_refreshes_recency(self):
        cache = ExperimentCache(max_bytes=2048)
        cache.get_or_create("a", lambda: _array_kb(1.0))
        cache.get_or_create("b", lambda: _array_kb(2.0))
        cache.get_or_create("a", lambda: _array_kb(0.0))  # hit: "a" now MRU
        cache.get_or_create("c", lambda: _array_kb(3.0))  # evicts "b", not "a"
        hits_before = cache.stats()["hits"]
        cache.get_or_create("a", lambda: _array_kb(0.0))
        assert cache.stats()["hits"] == hits_before + 1

    def test_oversized_entry_returned_then_dropped(self):
        cache = ExperimentCache(max_bytes=100)
        value = cache.get_or_create("big", lambda: _array_kb(1.0))
        assert value.nbytes == 1024  # the caller still gets the value
        stats = cache.stats()
        assert stats["size"] == 0
        assert stats["evictions"] == 1
        assert stats["resident_bytes"] == 0

    def test_unbounded_budget_never_evicts(self):
        cache = ExperimentCache(max_bytes=None)
        for i in range(50):
            cache.get_or_create(i, lambda: _array_kb(0.0))
        stats = cache.stats()
        assert stats["size"] == 50
        assert stats["evictions"] == 0
        assert stats["max_bytes"] == -1

    def test_entry_cost_prefers_nbytes(self):
        assert entry_cost(np.zeros(10)) == 80
        assert entry_cost("text") >= 1
        assert entry_cost(0) >= 1  # never bills below one byte

    def test_entry_cost_recurses_into_containers(self):
        """Regression: a shallow getsizeof billed a dict of arrays at
        container overhead (~64 B) no matter how many megabytes its
        members pinned, so budget eviction never fired for composites."""
        member = np.zeros(1024 * 1024, dtype=np.uint8)  # 1 MiB
        assert entry_cost({"a": member}) >= member.nbytes
        assert entry_cost([member, np.zeros(10)]) >= member.nbytes + 80
        assert entry_cost((member,)) >= member.nbytes
        assert entry_cost({"nested": {"deep": [member]}}) >= member.nbytes

    def test_entry_cost_bills_shared_members_once(self):
        member = np.zeros(1000, dtype=np.float64)  # 8000 B
        shared = entry_cost([member, member])
        assert member.nbytes <= shared < 2 * member.nbytes

    def test_entry_cost_tolerates_reference_cycles(self):
        cycle: list = []
        cycle.append(cycle)
        assert entry_cost(cycle) >= 1

    def test_composite_entries_actually_evict(self):
        """The budget must see through containers: two 1 MiB dict values
        under a 1.5 MiB budget cannot both stay resident."""
        cache = ExperimentCache(max_bytes=int(1.5 * 1024 * 1024))
        for key in ("first", "second"):
            cache.get_or_create(
                key, lambda: {"payload": np.zeros(1024 * 1024, dtype=np.uint8)}
            )
        stats = cache.stats()
        assert stats["evictions"] >= 1
        assert stats["resident_bytes"] <= cache.max_bytes

    def test_set_cache_budget_roundtrip(self):
        original = EXPERIMENT_CACHE.max_bytes
        try:
            previous = set_cache_budget(42)
            assert previous == original
            assert EXPERIMENT_CACHE.max_bytes == 42
        finally:
            set_cache_budget(original)

    def test_shrinking_budget_evicts_immediately(self):
        original = EXPERIMENT_CACHE.max_bytes
        EXPERIMENT_CACHE.clear()
        try:
            set_cache_budget(None)
            EXPERIMENT_CACHE.get_or_create(
                ("eviction-test", 1), lambda: _array_kb(1.0)
            )
            set_cache_budget(100)
            assert EXPERIMENT_CACHE.stats()["size"] == 0
        finally:
            set_cache_budget(original)
            EXPERIMENT_CACHE.clear()

    def test_tiny_budget_run_bit_identical(self, config):
        """Acceptance: evictions change memory use, never results."""
        dataset = make_dataset(config)
        subject = dataset.subjects[0]
        baseline = run_subject(dataset, subject, "reduced", config, with_device=False)
        original = EXPERIMENT_CACHE.max_bytes
        EXPERIMENT_CACHE.clear()
        try:
            set_cache_budget(1)  # every record/detector is oversized
            starved = run_subject(
                dataset, subject, "reduced", config, with_device=False
            )
            assert EXPERIMENT_CACHE.stats()["evictions"] > 0
            assert EXPERIMENT_CACHE.stats()["size"] == 0
        finally:
            set_cache_budget(original)
            EXPERIMENT_CACHE.clear()
        assert starved.reference_report == baseline.reference_report


class TestNbytesCosting:
    """The duck-typed costs the cache budget is priced in."""

    def test_record_nbytes(self, config):
        dataset = make_dataset(config)
        record = dataset.record(dataset.subjects[0], 10.0, purpose="test")
        expected = (
            record.ecg.nbytes
            + record.abp.nbytes
            + record.r_peaks.nbytes
            + record.systolic_peaks.nbytes
        )
        assert record.nbytes == expected
        assert entry_cost(record) == expected

    def test_stream_nbytes_sums_windows(self, labeled_stream):
        assert labeled_stream.nbytes == sum(
            w.nbytes for w in labeled_stream.windows
        )
        assert labeled_stream.nbytes > 0

    def test_detector_nbytes(self, trained_detectors):
        for detector in trained_detectors.values():
            assert detector.nbytes > 0
            assert entry_cost(detector) == detector.nbytes


class TestTable2Jobs:
    def test_quick_table2_parallel_matches_serial(self, config):
        from repro.experiments.table2 import run_table2

        versions = (DetectorVersion.REDUCED,)
        serial = run_table2(config, versions=versions, jobs=1)
        parallel = run_table2(config, versions=versions, jobs=2)
        for s_row, p_row in zip(serial.rows, parallel.rows):
            assert s_row.report == p_row.report


def test_effective_workers_clamps_to_cpus():
    import os

    available = (
        len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else (os.cpu_count() or 1)
    )
    assert effective_workers(1) == 1
    assert effective_workers(10_000) == available
    assert 1 <= effective_workers(2) <= 2


def test_cohort_outcome_ok():
    outcome = CohortOutcome(
        subject_id="s", version=DetectorVersion.REDUCED, result=None, error="E: x"
    )
    assert not outcome.ok
