"""Checkpoint semantics of the experiment orchestrator.

The contract under test: every completed (study, config) unit survives a
kill; a re-run recomputes only units without a valid checkpoint; a
resumed run's reports are bit-identical to an uninterrupted run's; and
``reeval`` renders every report with zero recomputation.  Most tests
drive a synthetic registry (instant units, observable side effects); the
kill/resume test interrupts a real subprocess with SIGINT mid-matrix.
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.experiments.orchestrator import (
    CheckpointError,
    CheckpointStore,
    MissingCheckpointError,
    Orchestrator,
    StudyRun,
    UnitOutcome,
    config_hash,
)
from repro.experiments.studies import StudyDefinition, UnitSpec
from repro.experiments.trajectory import (
    MIN_P99_MS,
    MIN_WALL_S,
    build_trajectory,
    compare_trajectories,
    write_trajectory,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


def _counting_registry(calls: list[str], payload_of=None):
    """One synthetic study, three units, each run appended to ``calls``."""
    payload_of = payload_of or (lambda name: {"value": name.upper()})

    def build_units(ctx):
        def make(name):
            def run(ctx):
                calls.append(name)
                return payload_of(name)

            return UnitSpec(
                name=name,
                params={"study": "synthetic", "unit": name, "quick": ctx.quick},
                run=run,
                n_windows=lambda result: 10,
            )

        return [make("alpha"), make("beta"), make("gamma")]

    def render(ctx, payloads):
        lines = [f"{name}: {p['value']}" for name, p in payloads.items()]
        return {"synthetic": "\n".join(lines)}

    return {"synthetic": StudyDefinition("synthetic", build_units, render)}


def _orchestrator(tmp_path, registry, **kwargs):
    return Orchestrator(
        quick=True,
        checkpoint_dir=tmp_path / "checkpoints",
        results_dir=tmp_path / "results",
        registry=registry,
        **kwargs,
    )


class TestConfigHash:
    def test_stable_across_orderings(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})

    def test_any_knob_change_invalidates(self):
        base = {"seed": 2017, "window_s": 3.0}
        assert config_hash(base) != config_hash({**base, "seed": 2018})
        assert config_hash(base) != config_hash({**base, "window_s": 1.5})

    def test_tuples_and_lists_hash_identically(self):
        # JSON round-trips turn tuples into lists; hashing must agree.
        assert config_hash({"sweep": (1, 2)}) == config_hash({"sweep": [1, 2]})

    def test_rejects_unserializable_params(self):
        with pytest.raises(TypeError, match="unhashable unit parameter"):
            config_hash({"fn": lambda: None})


class TestCheckpointStore:
    def test_roundtrip_latest_wins(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.append("s", {"unit": "u", "config_hash": "old", "payload": 1})
        store.append("s", {"unit": "u", "config_hash": "new", "payload": 2})
        records = store.load("s")
        assert records["u"]["config_hash"] == "new"
        assert records["u"]["payload"] == 2

    def test_truncated_tail_line_is_skipped(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.append("s", {"unit": "done", "config_hash": "h", "payload": 1})
        # Simulate a kill mid-append: a half-written final line.
        with store.path("s").open("a") as handle:
            handle.write('{"unit": "torn", "config_hash": "h", "pay')
        records = store.load("s")
        assert set(records) == {"done"}

    def test_missing_file_loads_empty(self, tmp_path):
        assert CheckpointStore(tmp_path).load("never-ran") == {}

    def test_remove_is_idempotent(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.append("s", {"unit": "u", "config_hash": "h", "payload": 1})
        store.remove("s")
        store.remove("s")
        assert store.load("s") == {}


class TestResume:
    def test_second_run_recomputes_nothing(self, tmp_path):
        calls: list[str] = []
        registry = _counting_registry(calls)
        orch = _orchestrator(tmp_path, registry)
        orch.run(trajectory=False)
        assert calls == ["alpha", "beta", "gamma"]
        run2 = orch.run(trajectory=False)
        assert calls == ["alpha", "beta", "gamma"]  # nothing recomputed
        assert all(u.cached for s in run2.studies for u in s.units)

    def test_partial_checkpoints_resume_mid_matrix(self, tmp_path):
        calls: list[str] = []
        registry = _counting_registry(calls)
        orch = _orchestrator(tmp_path, registry)
        run1 = orch.run(trajectory=False)
        report1 = run1.studies[0].reports["synthetic"].read_text()
        # Drop beta's checkpoint: simulate dying before it was written.
        store = orch.store
        records = [
            r for r in store.load("synthetic").values() if r["unit"] != "beta"
        ]
        store.path("synthetic").write_text(
            "".join(json.dumps(r) + "\n" for r in records)
        )
        calls.clear()
        run2 = orch.run(trajectory=False)
        assert calls == ["beta"]  # only the missing unit recomputed
        cached = {u.name: u.cached for u in run2.studies[0].units}
        assert cached == {"alpha": True, "beta": False, "gamma": True}
        report2 = run2.studies[0].reports["synthetic"].read_text()
        assert report2 == report1  # resumed report is bit-identical

    def test_config_change_invalidates_units(self, tmp_path):
        calls: list[str] = []
        registry = _counting_registry(calls)
        _orchestrator(tmp_path, registry).run(trajectory=False)
        calls.clear()
        # quick=False changes every unit's params, hence every hash.
        other = Orchestrator(
            quick=False,
            checkpoint_dir=tmp_path / "checkpoints",
            results_dir=tmp_path / "results",
            registry=_counting_registry(calls),
        )
        other.run(trajectory=False)
        assert calls == ["alpha", "beta", "gamma"]

    def test_fresh_drops_checkpoints(self, tmp_path):
        calls: list[str] = []
        registry = _counting_registry(calls)
        orch = _orchestrator(tmp_path, registry)
        orch.run(trajectory=False)
        calls.clear()
        orch.run(fresh=True, trajectory=False)
        assert calls == ["alpha", "beta", "gamma"]

    def test_payloads_render_from_json_on_first_run(self, tmp_path):
        """First-run reports must come from JSON-round-tripped payloads
        (tuples already lists), or resumed reports could differ."""
        seen: list = []

        def build_units(ctx):
            return [
                UnitSpec(
                    name="u",
                    params={"study": "tuples"},
                    run=lambda ctx: {"pair": (1, 2)},
                )
            ]

        def render(ctx, payloads):
            seen.append(payloads["u"]["pair"])
            return {}

        registry = {"tuples": StudyDefinition("tuples", build_units, render)}
        orch = _orchestrator(tmp_path, registry)
        orch.run(trajectory=False)
        orch.run(trajectory=False)
        assert seen[0] == seen[1] == [1, 2]

    def test_unknown_study_rejected(self, tmp_path):
        orch = _orchestrator(tmp_path, _counting_registry([]))
        with pytest.raises(CheckpointError, match="unknown study"):
            orch.run(studies=["nonesuch"], trajectory=False)

    def test_every_name_checked_before_fresh_or_any_unit(self, tmp_path):
        calls: list[str] = []
        orch = _orchestrator(tmp_path, _counting_registry(calls))
        report = orch.run(trajectory=False).studies[0].reports["synthetic"]
        before = (orch.store.path("synthetic").read_bytes(), report.stat().st_mtime_ns)
        calls.clear()
        with pytest.raises(CheckpointError, match="unknown study 'nonesuch'"):
            orch.run(studies=["synthetic", "nonesuch"], fresh=True, trajectory=False)
        assert calls == []
        after = (orch.store.path("synthetic").read_bytes(), report.stat().st_mtime_ns)
        assert after == before


class TestReeval:
    def test_reeval_recomputes_nothing(self, tmp_path):
        calls: list[str] = []
        registry = _counting_registry(calls)
        orch = _orchestrator(tmp_path, registry)
        run1 = orch.run(trajectory=False)
        report1 = run1.studies[0].reports["synthetic"].read_text()
        calls.clear()
        run2 = orch.run(reeval=True)
        assert calls == []  # zero recomputation
        assert run2.trajectory is None  # no perf record for cached runs
        report2 = run2.studies[0].reports["synthetic"].read_text()
        assert report2 == report1

    def test_reeval_without_checkpoints_fails(self, tmp_path):
        orch = _orchestrator(tmp_path, _counting_registry([]))
        with pytest.raises(MissingCheckpointError, match="no checkpoint"):
            orch.run(reeval=True)

    def test_reeval_and_fresh_contradict(self, tmp_path):
        orch = _orchestrator(tmp_path, _counting_registry([]))
        with pytest.raises(CheckpointError, match="contradictory"):
            orch.run(reeval=True, fresh=True)


class TestFailedSubject:
    @pytest.mark.parametrize("study", ["table2", "ablations"])
    def test_failed_subject_fails_the_unit(self, tmp_path, monkeypatch, study):
        """A cohort unit with one failed subject raises, naming the
        subject and its fault, instead of checkpointing a mean over the
        survivors; no checkpoint line and no report are written."""
        import repro.experiments.runner as runner_module

        real = runner_module.run_subject

        def failing(dataset, subject, version, cfg, with_device):
            if subject is dataset.subjects[1]:
                raise RuntimeError("synthetic failure")
            return real(dataset, subject, version, cfg, with_device=with_device)

        monkeypatch.setattr(runner_module, "run_subject", failing)
        orch = Orchestrator(
            quick=True,
            checkpoint_dir=tmp_path / "checkpoints",
            results_dir=tmp_path / "results",
        )
        with pytest.raises(RuntimeError, match=r"subject \S+ \(\w+\) failed: "
                           r"\[exception\] RuntimeError: synthetic failure"):
            orch.run_study(study)
        checkpoint = orch.store.path(study)
        assert not checkpoint.exists() or checkpoint.read_text() == ""
        assert list((tmp_path / "results").glob("*.txt")) == []


_KILLABLE_SCRIPT = """
import sys, time
from pathlib import Path

from repro.experiments.orchestrator import Orchestrator
from repro.experiments.studies import StudyDefinition, UnitSpec

base = Path(sys.argv[1])
slow_unit = sys.argv[2] if len(sys.argv) > 2 else None

def build_units(ctx):
    def make(name):
        def run(ctx):
            if name == slow_unit:
                print(f"UNIT-STARTED {name}", flush=True)
                time.sleep(60.0)
            return {"value": name.upper()}
        return UnitSpec(name=name, params={"study": "killable", "unit": name}, run=run)
    return [make(n) for n in ("alpha", "beta", "gamma")]

def render(ctx, payloads):
    lines = [f"{name}: {p['value']}" for name, p in payloads.items()]
    return {"killable": chr(10).join(lines)}

registry = {"killable": StudyDefinition("killable", build_units, render)}
orch = Orchestrator(
    quick=True,
    checkpoint_dir=base / "checkpoints",
    results_dir=base / "results",
    registry=registry,
)
orch.run(trajectory=False)
print("RUN-COMPLETE", flush=True)
"""


class TestKillAndResume:
    def test_sigint_mid_matrix_then_resume_bit_identical(self, tmp_path):
        """The acceptance scenario: kill the driver inside unit two, re-run,
        and require (a) unit one is never recomputed, (b) the resumed
        reports match an uninterrupted run's byte for byte."""
        script = tmp_path / "driver.py"
        script.write_text(_KILLABLE_SCRIPT)
        interrupted = tmp_path / "interrupted"
        env_dir = str(REPO_ROOT / "src")

        proc = subprocess.Popen(
            [sys.executable, str(script), str(interrupted), "beta"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            cwd=str(tmp_path),
            env={"PYTHONPATH": env_dir, "PATH": "/usr/bin:/bin"},
        )
        try:
            # Wait for the slow unit to start, then interrupt it.
            deadline = time.monotonic() + 60.0
            for line in proc.stdout:
                if "UNIT-STARTED beta" in line:
                    break
                assert time.monotonic() < deadline, "driver never reached beta"
            proc.send_signal(signal.SIGINT)
            output = proc.communicate(timeout=30.0)[0]
        finally:
            if proc.poll() is None:
                proc.kill()
        assert proc.returncode != 0
        assert "RUN-COMPLETE" not in output

        # Alpha completed before the kill and must have a durable checkpoint.
        store = CheckpointStore(interrupted / "checkpoints")
        survived = store.load("killable")
        assert "alpha" in survived
        assert "beta" not in survived

        # Resume: no slow unit this time; must reuse alpha's checkpoint.
        resumed = subprocess.run(
            [sys.executable, str(script), str(interrupted)],
            capture_output=True,
            text=True,
            timeout=120.0,
            cwd=str(tmp_path),
            env={"PYTHONPATH": env_dir, "PATH": "/usr/bin:/bin"},
        )
        assert resumed.returncode == 0, resumed.stdout + resumed.stderr
        assert "RUN-COMPLETE" in resumed.stdout

        records = store.load("killable")
        assert set(records) == {"alpha", "beta", "gamma"}
        # Alpha's checkpoint is the original, not a recompute: its file
        # line order proves it (alpha precedes the kill, beta/gamma follow).
        order = [
            json.loads(line)["unit"]
            for line in store.path("killable").read_text().splitlines()
            if line.strip()
        ]
        assert order[0] == "alpha" and order.count("alpha") == 1

        # Bit-identical against a never-interrupted control run.
        control = subprocess.run(
            [sys.executable, str(script), str(tmp_path / "control")],
            capture_output=True,
            text=True,
            timeout=120.0,
            cwd=str(tmp_path),
            env={"PYTHONPATH": env_dir, "PATH": "/usr/bin:/bin"},
        )
        assert control.returncode == 0, control.stdout + control.stderr
        resumed_report = (interrupted / "results" / "killable.txt").read_bytes()
        control_report = (
            tmp_path / "control" / "results" / "killable.txt"
        ).read_bytes()
        assert resumed_report == control_report


class TestTrajectory:
    def test_run_emits_trajectory(self, tmp_path):
        registry = _counting_registry([])
        orch = _orchestrator(tmp_path, registry)
        run = orch.run()
        assert run.trajectory_path is not None and run.trajectory_path.exists()
        latest = tmp_path / "results" / "BENCH_latest.json"
        assert latest.exists()
        record = json.loads(latest.read_text())
        study = record["studies"]["synthetic"]
        assert study["recomputed_units"] == 3
        assert study["n_windows"] == 30
        assert {"hits", "misses", "evictions"} <= set(study["cache"])
        assert set(study["dataplane"]) == {"publishes", "publish_s"}

    def test_fully_cached_run_writes_no_trajectory(self, tmp_path):
        """A resume that recomputed nothing measured nothing: it must not
        clobber BENCH_latest.json (the gate's input) with a ~0s record."""
        registry = _counting_registry([])
        orch = _orchestrator(tmp_path, registry)
        first = orch.run()
        stamp = first.trajectory_path.read_bytes()
        second = orch.run()
        assert second.trajectory is None
        latest = tmp_path / "results" / "BENCH_latest.json"
        assert latest.read_bytes() == stamp

    def test_perf_samples_aggregate(self):
        runs = [
            StudyRun(
                "table2",
                (
                    UnitOutcome("original", 2.0, n_windows=100),
                    UnitOutcome("simplified", 2.0, n_windows=100),
                ),
            ),
            StudyRun("fig3", (UnitOutcome("profile", 0.5),)),
        ]
        record = build_trajectory(runs)
        table2 = record["studies"]["table2"]
        assert table2["wall_s"] == pytest.approx(4.0)
        assert table2["units"] == 2
        assert table2["n_windows"] == 200
        assert table2["windows_per_s"] == pytest.approx(50.0)
        assert record["studies"]["fig3"]["windows_per_s"] == 0.0
        assert record["studies"]["fig3"]["units_detail"] == [
            {"unit": "profile", "wall_s": 0.5, "cached": False}
        ]

    def test_write_trajectory_files(self, tmp_path):
        record = build_trajectory([StudyRun("s", (UnitOutcome("u", 1.0),))])
        path = write_trajectory(record, tmp_path, stamp="test")
        assert path == tmp_path / "BENCH_test.json"
        assert json.loads(path.read_text()) == json.loads(
            (tmp_path / "BENCH_latest.json").read_text()
        )


def _passes(*walls, wps=0.0, p99_ms=0.0):
    """One record per pass wall-clock, each holding study ``s``."""
    return [
        {"schema": 1, "studies": {"s": {
            "wall_s": wall, "windows_per_s": wps, "p99_ms": p99_ms,
        }}}
        for wall in walls
    ]


class TestRegressionGate:
    def test_within_threshold_passes(self):
        regressions, lines = compare_trajectories(
            _passes(10.0, 10.0, 10.0), _passes(11.0, 11.0, 11.0)
        )
        assert regressions == []
        assert any("s:" in line for line in lines)

    def test_slowdown_past_threshold_fails(self):
        regressions, _ = compare_trajectories(
            _passes(10.0, 10.0, 10.0), _passes(13.0, 13.0, 13.0)
        )
        assert len(regressions) == 1
        assert "wall-clock regressed" in regressions[0]

    def test_genuine_slowdown_inflates_both_ratios(self):
        # A uniform 1.5x slowdown moves the median and loses every pair.
        regressions, _ = compare_trajectories(
            _passes(10.0, 9.0, 11.0), _passes(15.0, 13.5, 16.5)
        )
        assert len(regressions) == 1
        assert "x1.50 worse, in 3/3 pairs" in regressions[0]

    def test_one_outlier_pair_passes(self):
        # 3x in one pair, equal in two: one noisy pass is not a regression.
        regressions, lines = compare_trajectories(
            _passes(10.0, 10.0, 10.0), _passes(30.0, 10.0, 10.0)
        )
        assert regressions == []
        assert any("in 1/3 pairs" in line for line in lines)

    def test_throughput_drop_fails(self):
        regressions, _ = compare_trajectories(
            _passes(10.0, 10.0, 10.0, wps=100.0),
            _passes(10.0, 10.0, 10.0, wps=50.0),
        )
        assert len(regressions) == 1
        assert "throughput regressed" in regressions[0]

    def test_noise_floor_skips_fast_studies(self):
        fast = MIN_WALL_S / 4
        regressions, lines = compare_trajectories(
            _passes(fast, fast, fast), _passes(3 * fast, 3 * fast, 3 * fast)
        )
        assert regressions == []
        assert any("noise floor" in line for line in lines)

    def test_missing_study_reported_not_gated(self):
        change = _passes(10.0, 10.0, 10.0)
        change[1]["studies"].clear()
        regressions, lines = compare_trajectories(_passes(10.0, 10.0, 10.0), change)
        assert regressions == []
        assert any("not in every pass" in line for line in lines)

    def test_p99_regression_past_threshold_fails(self):
        regressions, _ = compare_trajectories(
            _passes(10.0, 10.0, 10.0, p99_ms=MIN_P99_MS),
            _passes(10.0, 10.0, 10.0, p99_ms=1.3 * MIN_P99_MS),
        )
        assert len(regressions) == 1
        assert "p99 latency regressed" in regressions[0]
        assert "x1.30 worse" in regressions[0]

    def test_p99_below_noise_floor_skipped(self):
        regressions, lines = compare_trajectories(
            _passes(10.0, 10.0, 10.0, p99_ms=0.1 * MIN_P99_MS),
            _passes(10.0, 10.0, 10.0, p99_ms=0.9 * MIN_P99_MS),
        )
        assert regressions == []
        assert any("p99" in line and "noise floor" in line for line in lines)

    def test_serving_study_gates_on_p99_only(self):
        # A paced run's schedule fixes its wall-clock and windows/s:
        # three times the wall-clock at half the throughput, same p99.
        regressions, lines = compare_trajectories(
            _passes(0.3, 0.3, 0.3, wps=900.0, p99_ms=MIN_P99_MS),
            _passes(30.0, 30.0, 30.0, wps=450.0, p99_ms=MIN_P99_MS),
        )
        assert regressions == []
        assert [line.split()[1] for line in lines] == ["p99"]

    def test_unpaired_records_rejected(self):
        with pytest.raises(ValueError, match="one change record per parent"):
            compare_trajectories(_passes(1.0, 1.0), _passes(1.0))
