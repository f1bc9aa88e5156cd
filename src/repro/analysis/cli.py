"""Implementation of ``python -m repro lint``.

Kept separate from :mod:`repro.cli` so the argparse surface there stays a
thin dispatcher.  The exit code contract is what CI keys off: 0 when the
tree is clean, 1 when there are findings, 2 on usage or I/O errors
(unknown rule, missing path, unreadable file) -- a wrapper script can
therefore tell "the tree is dirty" from "the lint run itself is broken".
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence, TextIO

import repro
from repro.analysis.c_checker import C_CHECK_PROFILES, check_c_source
from repro.analysis.engine import Analyzer
from repro.analysis.findings import Finding
from repro.analysis.rules import all_rules, rules_for_codes

__all__ = ["add_lint_arguments", "default_lint_root", "run_lint"]


def default_lint_root() -> Path:
    """The installed ``repro`` package tree (what CI lints)."""
    return Path(repro.__file__).resolve().parent


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the ``lint`` flags to an (sub)parser."""
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to lint (default: the repro package)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (json emits one object with a findings array)",
    )
    parser.add_argument(
        "--rules",
        default=None,
        metavar="CODE,CODE",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--check-c",
        type=Path,
        default=None,
        metavar="FILE",
        help="also run the C-codegen checker over an emitted .c file",
    )
    parser.add_argument(
        "--c-profile",
        choices=sorted(C_CHECK_PROFILES),
        default="device",
        help="which deployment contract --check-c enforces: 'device' "
        "(MSP430 fixed-point, the default) or 'native' (the gateway-side "
        "double-precision hot path)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rules and exit",
    )


def _render_text(findings: Sequence[Finding], stream: TextIO) -> None:
    for finding in findings:
        print(finding.render(), file=stream)
        if finding.source_line:
            print(f"    {finding.source_line}", file=stream)


def _render_json(findings: Sequence[Finding], stream: TextIO) -> None:
    payload = {
        "version": 1,
        "tool": "repro-lint",
        "findings": [finding.as_dict() for finding in findings],
        "count": len(findings),
    }
    json.dump(payload, stream, indent=2)
    stream.write("\n")


def run_lint(args: argparse.Namespace, stream: TextIO | None = None) -> int:
    """Execute the lint command; returns the process exit code."""
    stream = stream if stream is not None else sys.stdout

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.code}: {rule.description}", file=stream)
        return 0

    if args.rules is not None:
        try:
            rules = rules_for_codes(
                code.strip() for code in args.rules.split(",") if code.strip()
            )
        except KeyError as error:
            print(f"error: {error.args[0]}", file=sys.stderr)
            return 2
    else:
        rules = all_rules()

    paths = [Path(p) for p in args.paths] if args.paths else [default_lint_root()]
    missing = [p for p in paths if not p.exists()]
    if missing:
        for path in missing:
            print(f"error: no such path: {path}", file=sys.stderr)
        return 2

    analyzer = Analyzer(rules)
    try:
        findings = analyzer.lint_paths(paths)
    except (OSError, UnicodeDecodeError) as error:
        print(f"error: cannot read source: {error}", file=sys.stderr)
        return 2

    if args.check_c is not None:
        if not args.check_c.exists():
            print(f"error: no such path: {args.check_c}", file=sys.stderr)
            return 2
        findings.extend(
            check_c_source(
                args.check_c.read_text(),
                path=str(args.check_c),
                profile=getattr(args, "c_profile", "device"),
            )
        )

    if args.format == "json":
        _render_json(findings, stream)
    else:
        _render_text(findings, stream)
        print(
            f"repro-lint: {len(findings)} finding(s) in {len(paths)} path(s)",
            file=stream,
        )
    return 1 if findings else 0
