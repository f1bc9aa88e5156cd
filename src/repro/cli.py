"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``demo``
    The quickstart flow: train one detector, attack the stream, report.
``orchestrate``
    The one driver for every study: ``--studies table2,table3,fig3``
    regenerates the paper's tables and figure, ``--studies fault-matrix``
    the fault x severity robustness grid, and no ``--studies`` runs the
    whole matrix (``--quick`` for a reduced cohort and trimmed sweeps).
    Every completed (study, config) unit is persisted as a JSONL
    checkpoint, re-runs skip completed units, interrupted sweeps resume
    mid-matrix, ``--reeval`` re-renders every report with zero
    recomputation, and a completed run emits a ``BENCH_<stamp>.json``
    perf trajectory.  A study unit that fails (say, one subject of a
    cohort) writes no checkpoint and the command exits non-zero.
``bench-gate``
    The CI perf-regression gate: compare two trajectory files and fail
    when a study's calibrated wall-clock or throughput (or, for the
    paced serving study, its p99) regressed past the threshold.
``gateway-bench``
    Drive a fleet of simulated wearers through the async ingestion
    gateway at real time and report the offered rate plus p50/p99
    verdict latency from each window's due time; SIGINT drains and
    finalizes every session before exit.
``chaos``
    Seeded runtime-fault schedules (scorer crash/stall/slow/poison,
    gateway kill-and-restart, snapshot truncation) against the
    supervised gateway; exits non-zero when any conservation or
    bit-identity invariant breaks.
``profile``
    Build one detector version, deploy it on the simulated Amulet and
    print the ARP-view pane.
``export``
    Train a detector and write its deployable artifacts: the JSON model
    and the generated C decision function (checked by the C-codegen
    contract linter before it is written).
``lint``
    Static analysis of the device contracts: the libm gate (DEV001),
    the fixed-point float ban (DEV002), determinism (DET001), the
    accumulator overflow proof (OVF001) and the C-codegen checker.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

__all__ = ["build_parser", "main"]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be a positive number")
    return value


def _unit_float(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError("must be in [0, 1]")
    return value


def _csv_list(text: str) -> list[str]:
    items = [item.strip() for item in text.split(",") if item.strip()]
    if not items:
        raise argparse.ArgumentTypeError("expected a comma-separated list")
    return items


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SIFT sensor-hijacking detection on a simulated Amulet "
        "(ICDCS 2017 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="train, attack, detect (quickstart)")
    demo.add_argument("--version", default="simplified",
                      choices=("original", "simplified", "reduced"))
    demo.add_argument("--seed", type=int, default=42)
    demo.add_argument("--platform", default="numpy",
                      choices=("numpy", "native"),
                      help="scoring path: 'numpy' (default) or 'native' "
                      "(generated-C hot path, bit-identical, falls back "
                      "to numpy with a warning if no C compiler)")

    orchestrate = sub.add_parser(
        "orchestrate",
        help="run the studies (the paper's tables and figure, ablations, "
        "fault matrix, ...) as checkpointed, resumable units; emits a "
        "BENCH_<stamp>.json perf trajectory",
    )
    orchestrate.add_argument("--quick", action="store_true",
                             help="reduced cohort, trimmed sweeps")
    orchestrate.add_argument("--jobs", type=_positive_int, default=1,
                             metavar="N",
                             help="worker processes for cohort-fanning units "
                             "(results are identical at any worker count)")
    orchestrate.add_argument("--studies", type=_csv_list, default=None,
                             metavar="A,B,...",
                             help="comma-separated study names, e.g. "
                             "table2,table3,fig3 or fault-matrix (default: "
                             "all; see repro.experiments.studies.study_names)")
    orchestrate.add_argument("--reeval", action="store_true",
                             help="regenerate reports from checkpoints alone "
                             "(zero recomputation; fails on any missing unit)")
    orchestrate.add_argument("--fresh", action="store_true",
                             help="drop the selected studies' checkpoints "
                             "first and recompute everything")
    orchestrate.add_argument("--checkpoint-dir", type=Path,
                             default=Path("benchmarks/results/checkpoints"),
                             metavar="DIR",
                             help="where unit checkpoints live")
    orchestrate.add_argument("--results-dir", type=Path, default=None,
                             metavar="DIR",
                             help="where reports and trajectories land "
                             "(default: benchmarks/results, or "
                             "benchmarks/results/quick with --quick)")
    orchestrate.add_argument("--no-trajectory", action="store_true",
                             help="skip the BENCH_<stamp>.json perf record")

    gate = sub.add_parser(
        "bench-gate",
        help="compare two BENCH_*.json trajectories; exit 1 on regression",
    )
    gate.add_argument("baseline", type=Path,
                      help="committed baseline trajectory (a BENCH_*.json "
                      "file, or a directory: its newest BENCH_*.json)")
    gate.add_argument("current", type=Path,
                      help="freshly produced trajectory to check (file or "
                      "directory, as with the baseline)")
    gate.add_argument("--threshold", type=_positive_float, default=0.2,
                      metavar="R",
                      help="allowed fractional slowdown (default: 0.2 = 20%%)")
    gate.add_argument("--min-wall-s", type=_positive_float, default=1.0,
                      metavar="S",
                      help="noise floor: studies faster than this on both "
                      "sides never gate (default: 1.0 s)")

    gateway = sub.add_parser(
        "gateway-bench",
        help="drive a fleet of simulated wearers through the async "
        "ingestion gateway at real time (one 3 s window per wearer every "
        "3 s) and report verdict latency from each window's due time "
        "(SIGINT triggers an orderly drain, not a mid-batch abort)",
    )
    gateway.add_argument("--wearers", type=_positive_int, default=256,
                         metavar="N",
                         help="concurrent wearer sessions (default: 256)")
    gateway.add_argument("--stream-s", type=_positive_float, default=30.0,
                         metavar="S",
                         help="seconds of recording each wearer streams, "
                         "sent in as much wall time (default: 30 = 10 "
                         "windows/wearer)")
    gateway.add_argument("--batch-size", type=_positive_int, default=256,
                         metavar="W",
                         help="micro-batch size (default: 256; verdicts are "
                         "bit-identical at any batch size)")
    gateway.add_argument("--loss", type=_unit_float, default=0.02,
                         metavar="P",
                         help="per-packet channel loss probability "
                         "(default: 0.02)")
    gateway.add_argument("--degradation", action="store_true",
                         help="give each session its own quality-driven "
                         "tier controller with simplified/reduced fallbacks")
    gateway.add_argument("--supervised", action="store_true",
                         help="score through the crash-isolated subprocess "
                         "backend (watchdog + breaker) instead of in-process")
    gateway.add_argument("--sanitize-loop", action="store_true",
                         help="time every asyncio callback and fail the run "
                         "if any holds the event loop past the stall "
                         "threshold (the dynamic check behind ASYNC001)")
    gateway.add_argument("--stall-threshold-s", type=_positive_float,
                         default=0.25, metavar="S",
                         help="event-loop stall threshold for "
                         "--sanitize-loop (default: 0.25)")
    gateway.add_argument("--platform", default="numpy",
                         choices=("numpy", "native"),
                         help="scoring path: 'numpy' (default) or 'native' "
                         "(generated-C hot path; verdicts are "
                         "bit-identical, only throughput changes)")
    gateway.add_argument("--seed", type=int, default=2017)

    chaos = sub.add_parser(
        "chaos",
        help="seeded runtime-fault schedules against the supervised "
        "gateway; non-zero exit on any invariant violation",
    )
    chaos.add_argument("--schedule", default="all",
                       help="fault schedule to run: one of the named "
                       "schedules (see repro.faults.schedule_names), "
                       "'restart', 'truncation', or 'all' (default)")
    chaos.add_argument("--wearers", type=_positive_int, default=8,
                       metavar="N",
                       help="fleet size for the scorer-fault schedules "
                       "(default: 8)")
    chaos.add_argument("--stream-s", type=_positive_float, default=12.0,
                       metavar="S",
                       help="seconds of recording per wearer (default: 12)")
    chaos.add_argument("--seed", type=int, default=2017)

    profile = sub.add_parser("profile", help="ARP-view pane for one build")
    profile.add_argument("--version", default="original",
                         choices=("original", "simplified", "reduced"))

    export = sub.add_parser("export", help="write deployable model artifacts")
    export.add_argument("--version", default="simplified",
                        choices=("simplified", "reduced"))
    export.add_argument("--out", type=Path, default=Path("sift_model"),
                        help="output path stem (.json and .c are appended)")
    export.add_argument("--skip-c-check", action="store_true",
                        help="write the generated C even if the codegen "
                        "contract checker rejects it")
    export.add_argument("--native-c", action="store_true",
                        help="also write the gateway-side generated-C hot "
                        "path (<out>.native.c, checked against the "
                        "'native' lint profile)")

    lint = sub.add_parser(
        "lint",
        help="static analysis of the device contracts (DEV/DET/OVF/CGEN)",
    )
    from repro.analysis.cli import add_lint_arguments

    add_lint_arguments(lint)
    return parser


def _print_cache_stats() -> None:
    """One stderr line of experiment-cache accounting after a run."""
    from repro.experiments import EXPERIMENT_CACHE

    stats = EXPERIMENT_CACHE.stats()
    if stats["max_bytes"] < 0:
        budget = "unbounded"
    else:
        budget = f"{stats['max_bytes'] / 2**20:.0f} MiB"
    print(
        f"experiment cache: {stats['hits']} hits, {stats['misses']} misses, "
        f"{stats['evictions']} evictions, "
        f"{stats['resident_bytes'] / 2**20:.1f} MiB resident "
        f"(budget {budget})",
        file=sys.stderr,
    )


def _train_demo_detector(version: str, platform: str = "numpy"):
    from repro.core import SIFTDetector
    from repro.signals import SyntheticFantasia

    data = SyntheticFantasia()
    victim = data.subjects[0]
    others = [s for s in data.subjects if s is not victim]
    detector = SIFTDetector(version=version, platform=platform)
    detector.fit(
        data.training_record(victim),
        [data.record(s, 120.0, "train") for s in others[:3]],
    )
    return data, victim, others, detector


def _cmd_demo(args) -> int:
    from repro.attacks import AttackScenario, ReplacementAttack

    data, victim, others, detector = _train_demo_detector(
        args.version, platform=args.platform
    )
    stream = AttackScenario(
        ReplacementAttack([data.record(s, 120.0, "test") for s in others[3:6]])
    ).build(data.test_record(victim), np.random.default_rng(args.seed))
    report = detector.evaluate(stream)
    fp, fn, acc, f1 = report.as_percent_row()
    scored_on = "native" if detector.native_active else "numpy"
    print(f"subject {victim.subject_id}, {args.version} build, "
          f"{len(stream)} windows ({stream.n_altered} altered), "
          f"scored on {scored_on}")
    print(f"FP {fp:.2f}%  FN {fn:.2f}%  accuracy {acc:.2f}%  F1 {f1:.2f}%")
    return 0


def _cmd_orchestrate(args) -> int:
    from repro.experiments.orchestrator import (
        CheckpointError,
        MissingCheckpointError,
        Orchestrator,
    )

    orchestrator = Orchestrator(
        quick=args.quick,
        jobs=args.jobs,
        checkpoint_dir=args.checkpoint_dir,
        results_dir=args.results_dir,
        echo=lambda message: print(message, file=sys.stderr),
    )
    try:
        run = orchestrator.run(
            studies=args.studies,
            reeval=args.reeval,
            fresh=args.fresh,
            trajectory=not args.no_trajectory,
        )
    except MissingCheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for study in run.studies:
        cached = len(study.units) - study.recomputed_units
        print(
            f"{study.name}: {study.recomputed_units} computed, "
            f"{cached} from checkpoints, {study.wall_s:.2f}s"
        )
        for name, path in sorted(study.reports.items()):
            print(f"  {name}: {path}")
    if run.trajectory_path is not None:
        print(f"trajectory: {run.trajectory_path}")
    _print_cache_stats()
    return 0


def _resolve_trajectory(path: Path) -> Path:
    """A trajectory file as given, or the newest ``BENCH_*.json`` inside
    a directory.  Bench sessions stamp one file per run, so gating jobs
    can point at the results directory instead of guessing the stamp."""
    if not path.is_dir():
        return path
    candidates = sorted(
        path.glob("BENCH_*.json"), key=lambda p: p.stat().st_mtime
    )
    if not candidates:
        raise FileNotFoundError(f"no BENCH_*.json trajectory in {path}")
    return candidates[-1]


def _cmd_bench_gate(args) -> int:
    from repro.experiments.trajectory import compare_trajectories, load_trajectory

    try:
        baseline = load_trajectory(_resolve_trajectory(args.baseline))
        current = load_trajectory(_resolve_trajectory(args.current))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    regressions, lines = compare_trajectories(
        baseline, current, threshold=args.threshold, min_wall_s=args.min_wall_s
    )
    for line in lines:
        print(line)
    if regressions:
        print(f"\nFAIL: {len(regressions)} perf regression(s):")
        for regression in regressions:
            print(f"  - {regression}")
        return 1
    print("\nOK: no perf regressions past the threshold")
    return 0


def _cmd_gateway_bench(args) -> int:
    from repro.gateway import run_gateway_load

    report = run_gateway_load(
        n_wearers=args.wearers,
        stream_s=args.stream_s,
        batch_size=args.batch_size,
        loss_probability=args.loss,
        with_degradation=args.degradation,
        supervised=args.supervised,
        seed=args.seed,
        install_sigint=True,
        sanitize_loop=args.sanitize_loop,
        stall_threshold_s=args.stall_threshold_s,
        platform=args.platform,
    )
    print(report.summary())
    failed = False
    if not report.on_schedule:
        print(
            f"error: load not offered -- a send ran "
            f"{report.max_lateness_s:.2f} s behind its due time",
            file=sys.stderr,
        )
        failed = True
    if not report.loop_clean:
        print(
            f"error: event loop stalled {report.loop_stalls} time(s), "
            f"worst {report.max_loop_stall_s * 1e3:.1f} ms past the "
            f"{args.stall_threshold_s * 1e3:.0f} ms threshold",
            file=sys.stderr,
        )
        failed = True
    if report.leaked_sessions:
        print(
            f"error: {report.leaked_sessions} session(s) leaked past "
            "shutdown",
            file=sys.stderr,
        )
        failed = True
    if not report.conservation_ok:
        stats = report.stats
        accounted = (
            stats.verdicts
            + stats.windows_shed
            + stats.incomplete_windows
            + report.windows_vanished
        )
        print(
            f"error: window conservation broken -- {accounted} accounted "
            f"!= {report.windows_sent} sent",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


def _cmd_chaos(args) -> int:
    import tempfile

    from repro.faults.runtime import (
        ChaosInvariantError,
        run_chaos_schedule,
        run_restart_chaos,
        run_truncation_chaos,
        schedule_names,
    )

    if args.schedule == "all":
        selected = [*schedule_names(), "restart", "truncation"]
    else:
        selected = [args.schedule]
    known = {*schedule_names(), "restart", "truncation"}
    unknown = [name for name in selected if name not in known]
    if unknown:
        print(
            f"error: unknown schedule(s) {', '.join(unknown)} "
            f"(known: {', '.join(sorted(known))}, all)",
            file=sys.stderr,
        )
        return 2

    failures = 0
    for name in selected:
        try:
            if name == "restart":
                with tempfile.TemporaryDirectory(prefix="chaos-") as tmp:
                    report = run_restart_chaos(
                        Path(tmp) / "sessions.jsonl", seed=args.seed
                    )
                detail = (
                    f"restart window verdicts={report.restart_window_verdicts} "
                    f"bit-identical outside={report.bit_identical_outside_restart}"
                )
            elif name == "truncation":
                with tempfile.TemporaryDirectory(prefix="chaos-") as tmp:
                    report = run_truncation_chaos(tmp, seed=args.seed)
                detail = (
                    f"{report.points_checked} truncation points, max epoch "
                    f"{max(report.recovered_epochs, default=0)} recovered"
                )
            else:
                report = run_chaos_schedule(
                    name,
                    seed=args.seed,
                    n_wearers=args.wearers,
                    stream_s=args.stream_s,
                )
                sup = report.report.supervisor
                detail = (
                    f"{report.planned_faults} fault(s) injected, "
                    f"{sup.faults} detected, {sup.restarts} restart(s), "
                    f"{sup.windows_degraded} window(s) degraded"
                )
        except ChaosInvariantError as error:
            print(f"chaos {name:<10s} FAIL  {error}")
            failures += 1
            continue
        print(f"chaos {name:<10s} ok    {detail}")
    if failures:
        print(
            f"error: {failures} schedule(s) violated invariants",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_profile(args) -> int:
    from repro.amulet import render_memory_map, render_profile
    from repro.attacks import AttackScenario, ReplacementAttack
    from repro.sift_app import AmuletSIFTRunner

    data, victim, others, detector = _train_demo_detector(args.version)
    runner = AmuletSIFTRunner(detector)
    stream = AttackScenario(
        ReplacementAttack([data.record(s, 120.0, "test") for s in others[3:6]])
    ).build(data.test_record(victim), np.random.default_rng(0))
    runner.run_stream(stream)
    print(render_memory_map(runner.image))
    print()
    print(render_profile(runner.profile(period_s=3.0)))
    return 0


def _cmd_export(args) -> int:
    from repro.analysis.c_checker import check_c_source
    from repro.core.serialization import save_detector

    _, victim, _, detector = _train_demo_detector(args.version)
    json_path = args.out.with_suffix(".json")
    c_path = args.out.with_suffix(".c")
    c_source = detector.deploy().to_c_source()
    findings = check_c_source(c_source, path=str(c_path))
    if findings and not args.skip_c_check:
        for finding in findings:
            print(finding.render(), file=sys.stderr)
        print(
            "error: generated C violates the device contract; artifacts "
            "not written (--skip-c-check to force)",
            file=sys.stderr,
        )
        return 1
    save_detector(detector, json_path)
    c_path.write_text(c_source)
    checked = "unchecked" if args.skip_c_check else "contract-checked"
    print(
        f"wrote {json_path} (model for {victim.subject_id}) and "
        f"{c_path} ({checked})"
    )
    if args.native_c:
        from repro.native import generate_hot_path_source

        native_path = args.out.with_suffix(".native.c")
        native_source = generate_hot_path_source(
            detector.version,
            detector.grid_n,
            detector.svc.coef_,
            float(detector.svc.intercept_),
            detector.scaler.mean_,
            detector.scaler.scale_,
        )
        native_findings = check_c_source(
            native_source, path=str(native_path), profile="native"
        )
        if native_findings and not args.skip_c_check:
            for finding in native_findings:
                print(finding.render(), file=sys.stderr)
            print(
                "error: generated native C violates the native profile; "
                f"{native_path} not written (--skip-c-check to force)",
                file=sys.stderr,
            )
            return 1
        native_path.write_text(native_source)
        print(f"wrote {native_path} (gateway-side hot path, {checked})")
    return 0


def _cmd_lint(args) -> int:
    from repro.analysis.cli import run_lint

    return run_lint(args)


_COMMANDS = {
    "demo": _cmd_demo,
    "orchestrate": _cmd_orchestrate,
    "bench-gate": _cmd_bench_gate,
    "gateway-bench": _cmd_gateway_bench,
    "chaos": _cmd_chaos,
    "profile": _cmd_profile,
    "export": _cmd_export,
    "lint": _cmd_lint,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
