"""Table III: resource usage of the three detector versions.

For each version the pipeline trains a detector (resource use is
independent of which subject's model is loaded -- the computation is
identical), deploys it on the simulated Amulet, streams the evaluation
windows through it and asks the Amulet Resource Profiler for the memory
layout and projected battery lifetime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.amulet.profiler import ResourceProfile
from repro.core.versions import DetectorVersion
from repro.experiments.pipeline import (
    ExperimentConfig,
    build_stream,
    make_dataset,
    train_detector,
)
from repro.experiments.reporting import format_table
from repro.sift_app.harness import AmuletSIFTRunner

__all__ = ["Table3Result", "format_table3", "run_table3"]

#: Paper values for side-by-side comparison: (system FRAM KB, detector
#: FRAM KB, system SRAM B, detector SRAM B, lifetime days).
PAPER_TABLE3: dict[str, tuple[float, float, int, int, int]] = {
    "original": (77.03, 4.79, 696, 259, 23),
    "simplified": (71.58, 4.02, 694, 259, 26),
    "reduced": (56.29, 2.56, 694, 69, 55),
}


@dataclass(frozen=True)
class Table3Result:
    """One resource profile per version."""

    profiles: dict[DetectorVersion, ResourceProfile]
    config: ExperimentConfig

    @classmethod
    def merge(cls, parts: Sequence[Table3Result]) -> Table3Result:
        """Combine per-version results run under one config."""
        return cls(
            profiles={v: p for part in parts for v, p in part.profiles.items()},
            config=parts[0].config,
        )

    def profile(self, version: DetectorVersion) -> ResourceProfile:
        """The resource profile of one version."""
        return self.profiles[version]

    def lifetime_ratio(
        self, heavy: DetectorVersion, light: DetectorVersion
    ) -> float:
        """How much longer ``light`` lasts than ``heavy``."""
        return (
            self.profiles[light].lifetime_days
            / self.profiles[heavy].lifetime_days
        )


def _profile_version_task(
    config: ExperimentConfig,
    version_name: str,
) -> tuple[str, ResourceProfile]:
    """Top-level (picklable) per-version profiling task."""
    dataset = make_dataset(config)
    subject = dataset.subjects[0]
    stream = build_stream(dataset, subject, config)
    detector = train_detector(dataset, subject, version_name, config)
    runner = AmuletSIFTRunner(detector, frac_bits=config.frac_bits)
    runner.run_stream(stream)
    return version_name, runner.profile(period_s=config.window_s)


def run_table3(
    config: ExperimentConfig | None = None,
    versions: tuple[DetectorVersion, ...] = tuple(DetectorVersion),
    jobs: int = 1,
) -> Table3Result:
    """Run the Table III protocol (one subject is enough).

    ``jobs > 1`` profiles the versions in parallel worker processes
    (there are only three, so more than three workers is never useful).
    """
    config = config or ExperimentConfig()
    profiles: dict[DetectorVersion, ResourceProfile] = {}
    if jobs > 1 and len(versions) > 1:
        from concurrent.futures import ProcessPoolExecutor

        from repro.experiments.runner import effective_workers

        workers = min(effective_workers(jobs), len(versions))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_profile_version_task, config, version.value)
                for version in versions
            ]
            for future in futures:
                name, profile = future.result()
                profiles[DetectorVersion.from_name(name)] = profile
    else:
        for version in versions:
            name, profile = _profile_version_task(config, version.value)
            profiles[DetectorVersion.from_name(name)] = profile
    return Table3Result(profiles=profiles, config=config)


def format_table3(result: Table3Result, include_paper: bool = True) -> str:
    """Render the result in the paper's Table III layout."""
    headers = ["Version", "Resource Type", "Measurements"]
    if include_paper:
        headers.append("(paper)")
    body = []
    for version, profile in result.profiles.items():
        paper = PAPER_TABLE3.get(version.value)
        rows = [
            (
                "Memory Use (FRAM)",
                f"{profile.system_fram_kb:.2f} KB_sys + {profile.app_fram_kb:.2f} KB_det",
                f"{paper[0]:.2f} + {paper[1]:.2f} KB" if paper else "-",
            ),
            (
                "Max Ram Use (SRAM)",
                f"{profile.system_sram_bytes} B_sys + {profile.app_sram_bytes} B_det",
                f"{paper[2]} + {paper[3]} B" if paper else "-",
            ),
            (
                "Expected Lifetime",
                f"{profile.lifetime_days:.0f} days",
                f"{paper[4]} days" if paper else "-",
            ),
        ]
        for i, (resource, measured, paper_text) in enumerate(rows):
            cells = [version.value.capitalize() if i == 0 else "", resource, measured]
            if include_paper:
                cells.append(paper_text)
            body.append(cells)
    return format_table(
        headers,
        body,
        title="TABLE III: Resource Usage of Three Versions of Detector",
    )
