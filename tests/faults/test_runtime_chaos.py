"""Tests for the deterministic runtime chaos harness.

These are the harness's own contracts -- plan reproducibility, every
named schedule passing its invariant audit, the kill-and-restart
bit-identity run, and the snapshot truncation sweep.  The invariants
themselves (conservation, detection, bit-identity) are asserted inside
the runners; a passing runner *is* the assertion.
"""

import dataclasses

import pytest

from repro.faults.runtime import (
    RuntimeFaultPlan,
    run_chaos_schedule,
    run_restart_chaos,
    run_truncation_chaos,
    schedule_names,
)


class TestFaultPlan:
    def test_seeded_plans_replay(self):
        a = RuntimeFaultPlan.seeded(7, 40, crash_rate=0.1, poison_rate=0.1)
        b = RuntimeFaultPlan.seeded(7, 40, crash_rate=0.1, poison_rate=0.1)
        assert (a.crash, a.stall, a.slow, a.poison) == (
            b.crash,
            b.stall,
            b.slow,
            b.poison,
        )
        c = RuntimeFaultPlan.seeded(8, 40, crash_rate=0.1, poison_rate=0.1)
        assert (a.crash, a.poison) != (c.crash, c.poison)

    def test_requested_kind_always_fires_at_least_once(self):
        plan = RuntimeFaultPlan.seeded(0, 4, crash_rate=0.01, stall_rate=0.01)
        assert len(plan.crash) == 1
        assert len(plan.stall) == 1

    def test_one_action_per_ordinal(self):
        with pytest.raises(ValueError, match="multiple actions"):
            RuntimeFaultPlan(crash=frozenset({3}), poison=frozenset({3}))
        plan = RuntimeFaultPlan(
            crash=frozenset({1}), slow={2: 0.5}, poison=frozenset({4})
        )
        assert plan.action_for(1) == ("crash", 0.0)
        assert plan.action_for(2) == ("slow", 0.5)
        assert plan.action_for(3) is None
        assert plan.action_for(4) == ("poison", 0.0)

    def test_rates_past_capacity_rejected(self):
        with pytest.raises(ValueError, match="past 1.0"):
            RuntimeFaultPlan.seeded(0, 4, crash_rate=0.8, poison_rate=0.8)


class TestSchedules:
    @pytest.mark.parametrize("schedule", schedule_names())
    def test_schedule_passes_its_invariant_audit(self, schedule):
        report = run_chaos_schedule(schedule, seed=2017)
        assert report.ok
        assert report.planned_faults >= 1
        sup = report.report.supervisor
        assert sup.faults >= report.planned_faults
        # Conservation closed under fire.
        assert report.report.conservation_ok
        assert report.report.leaked_sessions == 0

    def test_unknown_schedule_rejected(self):
        with pytest.raises(ValueError, match="unknown schedule"):
            run_chaos_schedule("meteor-strike")

    def test_same_seed_same_outcome(self):
        a = run_chaos_schedule("poison", seed=11)
        b = run_chaos_schedule("poison", seed=11)
        assert a.report.stats == b.report.stats
        # Recovery time is wall-clock; every other counter must replay.
        assert dataclasses.replace(a.report.supervisor, recovery_s_total=0.0) == (
            dataclasses.replace(b.report.supervisor, recovery_s_total=0.0)
        )
        assert (a.planned_faults, a.violations) == (b.planned_faults, b.violations)


class TestRestartChaos:
    def test_killed_gateway_resumes_bit_identically(self, tmp_path):
        report = run_restart_chaos(tmp_path / "sessions.jsonl", seed=2017)
        assert report.ok
        assert report.bit_identical_outside_restart
        assert report.episodes_match
        # The restart window actually existed: some windows really were
        # verdicted twice, and the contract held anyway.
        assert report.restart_window_verdicts > 0
        assert report.snapshot_window < report.crash_window


class TestTruncationChaos:
    def test_every_torn_tail_recovers(self, tmp_path):
        report = run_truncation_chaos(tmp_path, seed=2017)
        assert report.ok
        assert report.points_checked >= 32
        # Both epochs were reachable across the sweep.
        assert max(report.recovered_epochs) == 2
        assert min(report.recovered_epochs) == 0
