"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload serve-artifacts --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --list

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics of a traced run (and its overhead against an untraced
run made in the same process).  The result holds every per-layer metric;
one whose layer the workload never calls reads 0 and is named on standard
error.  ``--list`` prints every metric by name with its unit, the layer
it belongs to, the workloads it applies to and what it should move.  Progress
goes to standard error; the result is the last line of standard output.
Temporary files (native caches, traced spans) go under
``.bench_build/perfbench`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve-artifacts", "table2-cohort")


def _load(name: str) -> dict:
    with open(name, encoding="utf-8") as handle:
        return json.load(handle)


def list_metrics() -> None:
    """Every metric by name and unit, with the workloads and layer mapping."""
    bench = _load(os.path.join(ROOT, "BENCHMARK.json"))
    notes = _load(os.path.join(HERE, "layers.json"))
    print("workloads:")
    for w in bench["workloads"]:
        info = notes["workloads"][w["name"]]
        print(f"  {w['name']:<16} {info['loop']}, {info['rate']}; seed: {info['seed']}")
        print(f"  {'':<16} {w['why']}")
    print("end-to-end metrics (--trace 0):")
    for m in bench["end_to_end"]:
        print(
            f"  {m['name']:<20} {m['unit']:<10} {m['better']:<6} bound {m['bound']}: "
            f"{notes['end_to_end'][m['name']]}"
        )
    print("per-layer metrics (--trace 1):")
    for m in bench["per_layer"]:
        note = notes["per_layer"][m["name"]]
        print(f"  {m['name']:<34} {m['unit']:<6} {note['layer']}")
        print(f"  {'':<34} {'':<6} on {', '.join(note['workloads'])}; moves {note['moves']}")


def stop_resource_tracker() -> None:
    """Stop, and wait for, the helper process shared memory starts.

    The dataset plane's segments start multiprocessing's resource
    tracker; it would otherwise exit only after this process does.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--list", action="store_true", help="print every metric")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.list:
        list_metrics()
        return 0
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no src/repro package in this checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

    from perfbench.common import PeakTreeRss, private_tmp

    def log(message: str) -> None:
        print(message, file=sys.stderr, flush=True)

    out = os.path.join(ROOT, ".bench_build", "perfbench")
    try:
        with PeakTreeRss() as rss, private_tmp(out) as tmp:
            if args.workload == "table2-cohort":
                from perfbench.cohort import run_cohort

                result = run_cohort(args.seed, args.seconds, bool(args.trace), tmp, log)
            else:
                from perfbench.serving import run_serve

                result = run_serve(args.seed, args.seconds, bool(args.trace), tmp, log)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        stop_resource_tracker()
    metrics = result["metrics"]
    bench = _load(os.path.join(ROOT, "BENCHMARK.json"))
    if args.trace:
        notes = _load(os.path.join(HERE, "layers.json"))["per_layer"]
        applies = {
            m["name"] for m in bench["per_layer"]
            if args.workload in notes[m["name"]]["workloads"]
        }
    else:
        metrics["peak_rss_mb"] = rss.mb
        applies = {m["name"] for m in bench["end_to_end"]}
    if set(metrics) != applies:
        log(
            f"perfbench: metrics {sorted(set(metrics) ^ applies)} do not match "
            "the declared ones"
        )
        return 1
    if args.trace:
        absent = [m["name"] for m in bench["per_layer"] if m["name"] not in applies]
        log(f"not applicable to {args.workload} (reported as 0): {', '.join(absent)}")
        metrics = {m["name"]: metrics.get(m["name"], 0.0) for m in bench["per_layer"]}
    units = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer") for m in bench[key]}
    for problem in result["problems"]:
        log(f"CHECK FAILED: {problem}")
    print(
        json.dumps(
            {
                "correct": not result["problems"],
                "attempted": int(result["attempted"]),
                "failed": len(result["problems"]),
                "metrics": {
                    name: {"value": float(value), "unit": units[name]}
                    for name, value in sorted(metrics.items())
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
