"""Runtime-chaos bench: the supervised gateway under seeded faults.

Asserts on two orchestrated units: the ``gateway`` study's supervised
serving run with *zero* injected faults (its overhead over in-process
scoring is the price of crash isolation, reported beside it in
``gateway_serving.txt``), and the ``chaos`` study's mixed fault
schedule end to end (detection + restart + degraded scoring), with the
invariants the chaos harness enforces: conservation closes, every
planned fault kind is detected, and nothing leaks.
"""


def test_supervised_serving_overhead(orchestrate):
    """Zero-fault supervised serving: isolation overhead, conserved."""
    report = orchestrate("gateway").results["serving-supervised"]

    assert report.leaked_sessions == 0
    assert report.conservation_ok
    sup = report.supervisor
    assert sup is not None
    # A healthy child: everything scored in isolation, nothing degraded.
    assert sup.faults == 0
    assert sup.scored_isolated == report.stats.windows_scored
    assert sup.batches_degraded == 0
    assert sup.breaker_state == "closed"


def test_mixed_fault_schedule(orchestrate):
    """The mixed schedule: every fault kind injected and survived."""
    chaos = orchestrate("chaos").results["schedule-mixed"]

    # The schedule audited conservation, per-kind detection and session
    # leaks into ``ok``; pin the headline numbers so a silently weakened
    # schedule fails loudly.
    assert chaos.ok, chaos.violations
    assert chaos.planned_faults >= 4
    sup = chaos.report.supervisor
    assert sup.faults >= chaos.planned_faults
    assert sup.restarts >= 1
    assert chaos.report.conservation_ok
