"""The zero-copy dataset plane: publish/attach, seeding, cleanup.

The cleanup tests grep ``/dev/shm`` (via :func:`leaked_segments`) after
normal completion, forced worker crashes and a simulated
``KeyboardInterrupt``: a leaked segment on any path is a bug, not an
inconvenience -- ``/dev/shm`` is RAM.

The worker-side proofs monkeypatch *before* the pool starts and clear
the parent's experiment cache right before forking, so workers cannot
coast on fork-inherited records: completing a cohort with synthesis
forbidden means the records really travelled through the plane.
"""

from __future__ import annotations

import gc
import os
import pickle
from multiprocessing import shared_memory

import numpy as np
import pytest

import repro.experiments.dataplane as dataplane_module
import repro.experiments.runner as runner_module
from repro.experiments import ExperimentConfig
from repro.experiments.cache import EXPERIMENT_CACHE, ExperimentCache
from repro.experiments.dataplane import (
    _ATTACHED,
    DatasetPlane,
    attach_records,
    attached_plane_tokens,
    leaked_segments,
    realize_cohort_records,
    seed_worker_cache,
)
from repro.experiments.pipeline import record_cache_key
from repro.experiments.runner import CohortRunner
from repro.signals.dataset import SyntheticFantasia


@pytest.fixture(scope="module")
def config(quick_config):
    return quick_config


@pytest.fixture(scope="module")
def cohort_records(config):
    return realize_cohort_records(config)


@pytest.fixture(autouse=True)
def _drop_attachments():
    """Each test starts and ends with no in-process attachments."""
    yield
    for plane in _ATTACHED.values():
        plane.records.clear()
        try:
            plane.shm.close()
        except BufferError:
            pass
    _ATTACHED.clear()


def _forbid_synthesis(monkeypatch):
    def forbidden(self, *args, **kwargs):
        raise AssertionError("record synthesized despite the dataset plane")

    monkeypatch.setattr(SyntheticFantasia, "record", forbidden)


class TestPublishAttach:
    def test_shm_roundtrip_is_bit_identical(self, cohort_records):
        with DatasetPlane.publish(cohort_records) as plane:
            attached = attach_records(plane.manifest)
            assert set(attached) == set(cohort_records)
            for key, record in cohort_records.items():
                for name in ("ecg", "abp", "r_peaks", "systolic_peaks"):
                    mine, theirs = getattr(record, name), getattr(attached[key], name)
                    assert mine.dtype == theirs.dtype
                    assert np.array_equal(mine, theirs)
                assert attached[key].subject_id == record.subject_id
                assert attached[key].sample_rate == record.sample_rate
            EXPERIMENT_CACHE.clear()  # release the views before unlink

    def test_unexpected_publish_error_propagates(self, config, monkeypatch):
        """Only PUBLISH_ERRORS degrade a run to per-worker synthesis; a
        genuine bug (e.g. a TypeError) must surface."""

        def broken(*args, **kwargs):
            raise TypeError("genuine bug")

        monkeypatch.setattr(shared_memory, "SharedMemory", broken)
        with CohortRunner(config=config, jobs=2, with_device=False) as runner:
            with pytest.raises(TypeError, match="genuine bug"):
                runner.run_version("reduced", subjects=[0, 1])
        assert leaked_segments() == []

    def test_failed_publish_raises_and_unlinks(
        self, cohort_records, monkeypatch
    ):
        """A publish that fails after creating its segment raises (there
        is no other transport to fall back to) and leaves nothing in
        ``/dev/shm``."""

        def refuse(*args, **kwargs):
            raise BufferError("segment buffer unavailable")

        monkeypatch.setattr(dataplane_module.np, "frombuffer", refuse)
        with pytest.raises(BufferError, match="segment buffer unavailable"):
            DatasetPlane.publish(cohort_records)
        assert leaked_segments() == []

    def test_manifest_pickles(self, cohort_records):
        with DatasetPlane.publish(cohort_records) as plane:
            clone = pickle.loads(pickle.dumps(plane.manifest))
            assert clone == plane.manifest

    def test_unlink_is_idempotent_and_tracked(self, cohort_records):
        plane = DatasetPlane.publish(cohort_records)
        assert plane.alive
        assert leaked_segments() == [plane.manifest.token]
        plane.unlink()
        plane.unlink()
        plane.close()
        assert not plane.alive
        assert leaked_segments() == []

    def test_garbage_collection_unlinks(self, cohort_records):
        plane = DatasetPlane.publish(cohort_records)
        token = plane.manifest.token
        del plane
        gc.collect()
        assert token not in leaked_segments()


class TestWorkerCacheSeeding:
    def test_seeding_lets_run_subject_complete_without_synthesis(
        self, config, cohort_records, monkeypatch
    ):
        from repro.experiments.pipeline import make_dataset, run_subject

        with DatasetPlane.publish(cohort_records) as plane:
            EXPERIMENT_CACHE.clear()
            seed_worker_cache(plane.manifest)
            _forbid_synthesis(monkeypatch)
            dataset = make_dataset(config)
            result = run_subject(
                dataset, dataset.subjects[0], "reduced", config, with_device=False
            )
            assert result.n_test_windows > 0
            EXPERIMENT_CACHE.clear()

    def test_seeded_keys_are_the_pipeline_record_keys(self, config, cohort_records):
        with DatasetPlane.publish(cohort_records) as plane:
            EXPERIMENT_CACHE.clear()
            seed_worker_cache(plane.manifest)
            subject = next(iter(cohort_records.values())).subject_id
            key = record_cache_key(
                config, subject, config.train_duration_s, "train"
            )
            assert key in cohort_records
            stats = EXPERIMENT_CACHE.stats()
            assert stats["size"] == len(cohort_records)
            # Shared views are billed one byte each, not their nbytes.
            assert stats["resident_bytes"] == len(cohort_records)
            EXPERIMENT_CACHE.clear()

    def test_attaching_a_new_plane_evicts_the_stale_one(self, cohort_records):
        with DatasetPlane.publish(cohort_records) as first:
            attach_records(first.manifest)
            assert attached_plane_tokens() == (first.manifest.token,)
            with DatasetPlane.publish(cohort_records) as second:
                attach_records(second.manifest)
                assert attached_plane_tokens() == (second.manifest.token,)


class TestExperimentCachePut:
    def test_put_uses_cost_override(self):
        cache = ExperimentCache(max_bytes=None)
        cache.put("k", np.zeros(1000), cost=1)
        assert cache.stats()["resident_bytes"] == 1

    def test_put_replaces_and_rebills(self):
        cache = ExperimentCache(max_bytes=None)
        cache.put("k", "a", cost=10)
        cache.put("k", "b", cost=3)
        assert cache.stats()["resident_bytes"] == 3
        assert cache.get_or_create("k", lambda: "nope") == "b"

    def test_put_refreshes_lru_recency(self):
        cache = ExperimentCache(max_bytes=20)
        cache.put("old", "x", cost=8)
        cache.put("new", "y", cost=8)
        cache.put("old", "x", cost=8)  # refresh: "new" is now the LRU entry
        cache.put("third", "z", cost=8)
        assert cache.get_or_create("old", lambda: "evicted") == "x"

    def test_disabled_cache_ignores_put(self):
        cache = ExperimentCache(enabled=False)
        cache.put("k", "v")
        assert cache.stats()["size"] == 0


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


class TestRunnerPlane:
    def test_parallel_run_feeds_workers_from_the_plane(
        self, config, monkeypatch
    ):
        """Workers complete with synthesis forbidden and their inherited
        cache emptied: the records can only have come through the plane."""
        realize_cohort_records(config)  # warm the parent for publishing
        real = CohortRunner._run_parallel

        def clear_then_run(self, tasks):
            # The plane is published by now; dropping the parent cache
            # here means forked workers inherit nothing useful.
            EXPERIMENT_CACHE.clear()
            return real(self, tasks)

        monkeypatch.setattr(CohortRunner, "_run_parallel", clear_then_run)
        _forbid_synthesis(monkeypatch)
        with CohortRunner(config=config, jobs=2, with_device=False) as runner:
            outcomes = runner.run_version("reduced", subjects=[0, 1])
        assert [o.ok for o in outcomes] == [True, True]
        assert leaked_segments() == []

    def test_parallel_results_match_serial(self, config):
        with CohortRunner(config=config, jobs=1, with_device=False) as serial:
            base = serial.run_version("reduced", subjects=[0, 1])
        with CohortRunner(config=config, jobs=2, with_device=False) as runner:
            fanned = runner.run_version("reduced", subjects=[0, 1])
        for a, b in zip(base, fanned):
            assert a.ok and b.ok
            assert a.result.reference_report == b.result.reference_report
        assert leaked_segments() == []

    def test_plane_is_reused_across_versions_and_extended_for_new_subjects(
        self, config
    ):
        with CohortRunner(config=config, jobs=2, with_device=False) as runner:
            runner.run_version("reduced", subjects=[0, 1])
            assert runner.plane is not None and runner.plane.alive
            token = runner.plane.manifest.token
            runner.run_version("simplified", subjects=[0, 1])
            assert runner.plane.manifest.token == token  # covered: reused
            runner.run_version("reduced", subjects=[2, 3])
            assert runner.plane.manifest.token != token  # extended: new segment
        assert runner.plane is None
        assert leaked_segments() == []

    def test_share_dataset_false_never_publishes(self, config):
        with CohortRunner(
            config=config, jobs=2, with_device=False, share_dataset=False
        ) as runner:
            outcomes = runner.run_version("reduced", subjects=[0, 1])
        assert all(o.ok for o in outcomes)
        assert runner.plane is None
        assert leaked_segments() == []

    def test_publish_failure_degrades_to_per_worker_synthesis(
        self, config, monkeypatch, caplog
    ):
        def refuse(records):
            raise OSError("plane refused")

        monkeypatch.setattr(
            runner_module.DatasetPlane, "publish", staticmethod(refuse)
        )
        with caplog.at_level("WARNING", logger="repro.experiments.runner"):
            with CohortRunner(config=config, jobs=2, with_device=False) as runner:
                outcomes = runner.run_version("reduced", subjects=[0, 1])
        assert all(o.ok for o in outcomes)
        assert runner.plane is None
        assert leaked_segments() == []
        # The degradation is no longer silent: the cause is logged.
        assert any(
            "OSError" in rec.message and "plane refused" in rec.message
            for rec in caplog.records
        )

    def test_shared_memory_failure_degrades_to_per_worker_synthesis(
        self, config, monkeypatch, caplog
    ):
        """The real publish, with no usable shared memory: the run still
        completes (each worker synthesizes its own records), leaks
        nothing and says why."""

        def refuse(*args, **kwargs):
            raise OSError("no shared memory here")

        monkeypatch.setattr(shared_memory, "SharedMemory", refuse)
        with caplog.at_level("WARNING", logger="repro.experiments.runner"):
            with CohortRunner(config=config, jobs=2, with_device=False) as runner:
                outcomes = runner.run_version("reduced", subjects=[0, 1])
        assert [o.ok for o in outcomes] == [True, True]
        assert runner.plane is None
        assert leaked_segments() == []
        assert any(
            "OSError" in rec.message and "no shared memory here" in rec.message
            for rec in caplog.records
        )

    def test_no_leak_after_forced_worker_crash(
        self, config, monkeypatch, tmp_path
    ):
        """A worker crash faults its run as broken-pool; the plane
        survives it, the next run on the same runner succeeds on the same
        segment (a fresh pool re-attaches it), and close unlinks it."""
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
            assert runner.plane is not None and runner.plane.alive
            token = runner.plane.manifest.token
            again = runner.run_version("reduced", subjects=[0, 1])
            assert runner.plane.manifest.token == token
        assert sentinel.exists()
        assert not crashed[1].ok
        assert crashed[1].fault.kind == "broken-pool"
        assert [o.ok for o in again] == [True, True]
        assert runner.plane is None
        assert leaked_segments() == []

    def test_no_leak_after_keyboard_interrupt(self, config, monkeypatch):
        published = {}

        def interrupt(self, tasks):
            assert self._plane is not None and self._plane.alive
            published["token"] = self._plane.manifest.token
            raise KeyboardInterrupt

        monkeypatch.setattr(CohortRunner, "_run_parallel", interrupt)
        runner = CohortRunner(config=config, jobs=2, with_device=False)
        with pytest.raises(KeyboardInterrupt):
            runner.run_version("reduced", subjects=[0, 1])
        assert published["token"].startswith("sift_plane_")
        assert runner.plane is None
        assert leaked_segments() == []
        runner.close()
