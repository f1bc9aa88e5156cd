"""Fig. 3: the ARP-view resource-consumption snapshot.

ARP-view "presents developers a graphical view of the resource profile and
sliders that allow them to see the battery-life impact when they adjust
application parameters".  This experiment reproduces both halves for the
SIFT app: the per-component average-current breakdown (CPU by operation
class, peripherals, static rails) and the battery-life-vs-detection-period
slider sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.amulet.profiler import ResourceProfile
from repro.core.versions import DetectorVersion
from repro.experiments.pipeline import (
    ExperimentConfig,
    build_stream,
    make_dataset,
    train_detector,
)
from repro.experiments.reporting import format_bar_chart, format_table
from repro.sift_app.harness import AmuletSIFTRunner

__all__ = [
    "Fig3Result",
    "format_fig3",
    "format_grid_resource_sweep",
    "run_fig3",
    "run_grid_resource_sweep",
]

#: The detection periods the slider sweep evaluates, in seconds.
DEFAULT_PERIOD_SWEEP = (1.5, 3.0, 6.0, 12.0, 30.0)


@dataclass(frozen=True)
class Fig3Result:
    """Breakdown plus slider sweep for one app build."""

    version: DetectorVersion
    profile: ResourceProfile
    period_sweep: dict[float, float]  # period_s -> lifetime_days

    @property
    def breakdown(self) -> dict[str, float]:
        return self.profile.current_breakdown

    def top_consumers(self, n: int = 8) -> list[tuple[str, float]]:
        """The n largest current contributors, descending."""
        ranked = sorted(
            self.breakdown.items(), key=lambda item: item[1], reverse=True
        )
        return ranked[:n]


def run_fig3(
    config: ExperimentConfig | None = None,
    version: DetectorVersion = DetectorVersion.ORIGINAL,
    periods: tuple[float, ...] = DEFAULT_PERIOD_SWEEP,
    jobs: int = 1,
    cache_bytes: int | None = None,
) -> Fig3Result:
    """Profile one build and sweep the detection-period slider.

    ``jobs`` is accepted for CLI symmetry with table2/table3: the figure
    profiles a single build (the period sweep is a closed-form rescale of
    one profile), so there is nothing to fan out.  The run still benefits
    from the experiment cache shared with other experiments;
    ``cache_bytes`` rebudgets that cache.
    """
    del jobs  # single-build experiment; see docstring
    config = config or ExperimentConfig()
    if cache_bytes is not None:
        from repro.experiments.cache import set_cache_budget

        set_cache_budget(cache_bytes)
    dataset = make_dataset(config)
    subject = dataset.subjects[0]
    detector = train_detector(dataset, subject, version, config)
    runner = AmuletSIFTRunner(detector, frac_bits=config.frac_bits)
    runner.run_stream(build_stream(dataset, subject, config))
    profile = runner.profile(period_s=config.window_s)
    sweep = {
        period: profile.with_period(period).lifetime_days for period in periods
    }
    return Fig3Result(version=version, profile=profile, period_sweep=sweep)


def _grid_sweep_task(
    config: ExperimentConfig,
    grid_n: int,
    version_name: str,
    cache_bytes: int | None = None,
) -> dict[str, float]:
    """Top-level (picklable) single-grid profiling task."""
    from repro.amulet.firmware import StaticCheckError

    if cache_bytes is not None:
        from repro.experiments.cache import set_cache_budget

        set_cache_budget(cache_bytes)
    dataset = make_dataset(config)
    subject = dataset.subjects[0]
    swept = replace(config, grid_n=int(grid_n))
    detector = train_detector(dataset, subject, version_name, swept)
    try:
        runner = AmuletSIFTRunner(detector, frac_bits=swept.frac_bits)
    except StaticCheckError:
        # The toolchain's Insight #1 array limit rejects big grids:
        # an n x n uint8 matrix beyond the cap simply cannot deploy.
        return {
            "grid_n": float(grid_n),
            "deployable": 0.0,
            "detector_fram_kb": float("nan"),
            "detector_sram_bytes": float("nan"),
            "mcycles_per_window": float("nan"),
            "lifetime_days": float("nan"),
        }
    runner.run_stream(build_stream(dataset, subject, swept))
    profile = runner.profile(period_s=swept.window_s)
    return {
        "grid_n": float(grid_n),
        "deployable": 1.0,
        "detector_fram_kb": profile.app_fram_kb,
        "detector_sram_bytes": float(profile.app_sram_bytes),
        "mcycles_per_window": profile.cycles_per_event / 1e6,
        "lifetime_days": profile.lifetime_days,
    }


def run_grid_resource_sweep(
    config: ExperimentConfig | None = None,
    grids: tuple[int, ...] = (10, 25, 50, 100),
    version: DetectorVersion = DetectorVersion.SIMPLIFIED,
    jobs: int = 1,
    cache_bytes: int | None = None,
) -> list[dict[str, float]]:
    """The other ARP-view slider: resource cost of the grid size n.

    The accuracy side of this trade-off is
    :func:`repro.experiments.ablations.grid_size_ablation`; this sweep
    supplies the resource side -- detector FRAM (the n x n matrix) and
    battery lifetime (the per-window passes over it) -- so the two
    together answer "what does n = 50 cost?".  ``jobs > 1`` profiles the
    grid sizes in parallel worker processes; rows keep ``grids`` order.
    """
    config = config or ExperimentConfig()
    if jobs > 1 and len(grids) > 1:
        from concurrent.futures import ProcessPoolExecutor

        from repro.experiments.runner import effective_workers

        workers = min(effective_workers(jobs), len(grids))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(
                    _grid_sweep_task,
                    config,
                    int(grid_n),
                    version.value,
                    cache_bytes,
                )
                for grid_n in grids
            ]
            return [future.result() for future in futures]
    return [
        _grid_sweep_task(config, int(grid_n), version.value, cache_bytes)
        for grid_n in grids
    ]


def format_fig3(result: Fig3Result) -> str:
    """Render the ARP-view snapshot as text."""
    chart = format_bar_chart(
        result.top_consumers(),
        unit=" mA",
        title=(
            f"Fig. 3: Resource Consumption of SIFT app "
            f"({result.version.value} version)"
        ),
    )
    slider = format_table(
        ["Detection period (s)", "Expected lifetime (days)"],
        [
            [f"{period:g}", f"{days:.1f}"]
            for period, days in sorted(result.period_sweep.items())
        ],
        title="ARP-view slider: battery life vs detection period",
    )
    summary = (
        f"average current: {result.profile.average_current_ma:.4f} mA | "
        f"lifetime at {result.profile.period_s:g} s period: "
        f"{result.profile.lifetime_days:.1f} days"
    )
    return "\n\n".join([chart, slider, summary])


def format_grid_resource_sweep(rows: list[dict[str, float]]) -> str:
    """Render :func:`run_grid_resource_sweep` rows as a table."""
    return format_table(
        ["grid_n", "deployable", "det FRAM KB", "Mcyc/win", "days"],
        [
            [
                f"{row['grid_n']:g}",
                "yes" if row["deployable"] else "NO (array limit)",
                f"{row['detector_fram_kb']:.2f}",
                f"{row['mcycles_per_window']:.2f}",
                f"{row['lifetime_days']:.1f}",
            ]
            for row in rows
        ],
    )
