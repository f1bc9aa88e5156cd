"""The prose docs name exactly what the code registers.

EXPERIMENTS.md gives every orchestrator study a ``(study `X`; ...)``
heading and counts them in its ``all N studies`` line; README's
``repro.cli`` block lists the CLI's subcommands.  Both drift silently
when a study or a command comes or goes, so they are parsed here and
compared with the registries.
"""

import argparse
import re
from pathlib import Path

from repro.cli import build_parser
from repro.experiments.studies import study_names

ROOT = Path(__file__).resolve().parents[1]


def documented_studies(text: str) -> set[str]:
    """Study names in the ``(study ...)``/``(studies ...)`` headings."""
    names: set[str] = set()
    for heading in re.findall(r"^## .*\(stud(?:y|ies) ([^;)]*)", text, re.M):
        names.update(re.findall(r"`([^`]+)`", heading))
    return names


def counted_studies(text: str) -> list[int]:
    """Every count in an ``all N studies`` phrase."""
    return [int(n) for n in re.findall(r"\ball (\d+) studies\b", text)]


def documented_commands(text: str) -> set[str]:
    """The subcommands of README's ``repro.cli  python -m repro {...}``."""
    match = re.search(r"^repro\.cli\s+python -m repro \{([^}]*)\}", text, re.M)
    assert match, "README has no repro.cli block"
    return {name.strip() for name in match.group(1).split(",")}


def registered_commands() -> set[str]:
    (sub,) = (
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return set(sub.choices)


def test_experiments_headings_name_every_study():
    text = (ROOT / "EXPERIMENTS.md").read_text()
    assert documented_studies(text) == set(study_names())
    assert counted_studies(text) == [len(study_names())]


def test_a_stale_study_name_fails_the_check():
    text = (ROOT / "EXPERIMENTS.md").read_text()
    planted = text + "\n## Retired (study `no-such-study`; beyond the paper)\n"
    assert documented_studies(planted) != set(study_names())
    recounted = text.replace(
        f"all {len(study_names())} studies", f"all {len(study_names()) + 1} studies"
    )
    assert counted_studies(recounted) != [len(study_names())]


def test_readme_cli_block_names_every_command():
    text = (ROOT / "README.md").read_text()
    assert documented_commands(text) == registered_commands()
