"""Ingestion-gateway serving bench.

Asserts on the orchestrated ``gateway`` study: a fleet of >= 1k
concurrent simulated wearers through the async micro-batching gateway,
under the event-loop stall sanitizer.  The serving-side contract: every
sent window is accounted for (verdict, shed, or incomplete), no session
leaks past shutdown, and the run reports sustained windows/sec plus
p50/p99 verdict latency -- which the orchestrator's ``BENCH_<stamp>.json``
trajectory carries to ``repro bench-gate``.
"""


def test_gateway_fleet(orchestrate):
    report = orchestrate("gateway").results["serving"]

    stats = report.stats
    assert report.n_wearers >= 1000
    assert stats.sessions_started == report.n_wearers
    # Clean shutdown: every session finalized, none leaked.
    assert report.leaked_sessions == 0
    assert stats.sessions_active == 0
    # Conservation: every sent window got a disposition -- scored, shed,
    # assembled-incomplete, or vanished entirely in the channel (both
    # halves dropped; only the sender can count those).
    assert (
        stats.verdicts
        + stats.windows_shed
        + stats.incomplete_windows
        + report.windows_vanished
        == report.windows_sent
    )
    assert stats.verdicts > 0
    # The 2% channel loss must surface as incomplete windows, not vanish.
    assert report.packets_dropped > 0
    assert stats.incomplete_windows > 0
    # Latency percentiles are real measurements (perf_counter-based).
    assert 0.0 < report.p50_latency_s <= report.p99_latency_s
    # Micro-batching actually crosses sessions.
    assert stats.mean_batch_size > 1.0
    # The event loop never executed blocking work (stall sanitizer).
    assert report.loop_clean, report.summary()
