"""Async multi-wearer ingestion gateway (serving-side of the paper).

The detector studies evaluate one wearer at a time; a deployment serves
*fleets*.  This subpackage turns the batched scoring path into a live
service: per-wearer sessions (:mod:`~repro.gateway.session`) feed a
shared micro-batching scorer (:mod:`~repro.gateway.gateway`) whose
verdicts are bit-identical to each wearer's sequential
:class:`~repro.core.streaming.StreamingDetector` run, and a paced
fleet simulator (:mod:`~repro.gateway.loadgen`) offers it load at a
known rate for benchmarks and smoke tests.

The supervision layer (:mod:`~repro.gateway.supervisor`) isolates
scoring in a watched child process -- heartbeat watchdog, per-batch
timeout, restarts with exponential backoff, circuit breaker -- and
:mod:`~repro.gateway.snapshot` persists crash-consistent per-wearer
session state so a restarted gateway resumes every wearer without
duplicating or dropping verdicts outside the restart window.
"""

from repro.gateway.gateway import GatewayStats, IngestionGateway
from repro.gateway.loadgen import (
    LoadReport,
    PacedLoad,
    build_fleet,
    run_gateway_load,
    train_serving_detectors,
)
from repro.gateway.session import SessionVerdict, WearerSession, window_from_slot
from repro.gateway.snapshot import SessionSnapshotStore
from repro.gateway.supervisor import (
    InProcessBackend,
    ScoringBackend,
    ScoringUnavailable,
    SupervisedScoringBackend,
    SupervisorStats,
)

__all__ = [
    "GatewayStats",
    "IngestionGateway",
    "InProcessBackend",
    "LoadReport",
    "PacedLoad",
    "ScoringBackend",
    "ScoringUnavailable",
    "SessionSnapshotStore",
    "SessionVerdict",
    "SupervisedScoringBackend",
    "SupervisorStats",
    "WearerSession",
    "build_fleet",
    "run_gateway_load",
    "train_serving_detectors",
    "window_from_slot",
]
