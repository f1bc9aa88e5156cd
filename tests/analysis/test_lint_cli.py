"""The ``python -m repro lint`` surface: flags, formats, exit codes."""

import json
import textwrap

import pytest

from repro.cli import build_parser, main

CLEAN = "x = 1\n"

NOISY = textwrap.dedent(
    """
    import random

    JITTER = random.random()
    """
)


def write_fixture(tmp_path, source, name="fixture.py"):
    path = tmp_path / name
    path.write_text(source)
    return path


class TestParser:
    def test_lint_defaults(self):
        args = build_parser().parse_args(["lint"])
        assert args.paths == []
        assert args.format == "text"
        assert args.rules is None
        assert args.check_c is None

    def test_format_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["lint", "--format", "xml"])


class TestLintCommand:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        path = write_fixture(tmp_path, CLEAN)
        assert main(["lint", str(path)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_one_with_rendering(self, tmp_path, capsys):
        path = write_fixture(tmp_path, NOISY)
        assert main(["lint", str(path)]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out
        assert "random.random()" in out

    def test_json_format(self, tmp_path, capsys):
        path = write_fixture(tmp_path, NOISY)
        assert main(["lint", str(path), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["tool"] == "repro-lint"
        assert payload["count"] == 1
        assert payload["findings"][0]["code"] == "DET001"

    def test_rule_selection(self, tmp_path):
        path = write_fixture(tmp_path, NOISY)
        assert main(["lint", str(path), "--rules", "DEV001"]) == 0
        assert main(["lint", str(path), "--rules", "DET001"]) == 1

    def test_unknown_rule_is_usage_error(self, tmp_path, capsys):
        path = write_fixture(tmp_path, CLEAN)
        assert main(["lint", str(path), "--rules", "NOPE999"]) == 2
        assert "NOPE999" in capsys.readouterr().err

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "absent.py")]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_rule_family_prefix(self, tmp_path):
        racy = write_fixture(
            tmp_path,
            textwrap.dedent(
                """
                import time

                async def serve():
                    time.sleep(0.1)
                """
            ),
        )
        assert main(["lint", str(racy), "--rules", "ASYNC"]) == 1
        assert main(["lint", str(racy), "--rules", "PROC,SHM,RACE"]) == 0

    def test_unreadable_source_is_io_error(self, tmp_path, capsys):
        bad = tmp_path / "mojibake.py"
        bad.write_bytes(b"x = 1\n\xff\xfe broken\n")
        assert main(["lint", str(bad)]) == 2
        assert "cannot read source" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in (
            "DEV001", "DEV002", "DET001", "OVF001",
            "ASYNC001", "ASYNC002", "PROC001", "SHM001", "RACE001",
        ):
            assert code in out

    def test_default_target_is_package_and_clean(self, capsys):
        """The CI gate: no paths means lint the installed repro tree."""
        assert main(["lint", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 0


class TestCheckC:
    def test_clean_c_passes(self, tmp_path, capsys):
        clean_py = write_fixture(tmp_path, CLEAN)
        c_file = tmp_path / "gen.c"
        c_file.write_text("int32_t acc = 0;\n")
        assert main(["lint", str(clean_py), "--check-c", str(c_file)]) == 0

    def test_bad_c_fails(self, tmp_path, capsys):
        clean_py = write_fixture(tmp_path, CLEAN)
        c_file = tmp_path / "gen.c"
        c_file.write_text("double score = sqrt(2.0);\n")
        assert main(["lint", str(clean_py), "--check-c", str(c_file)]) == 1
        out = capsys.readouterr().out
        assert "CGEN001" in out
        assert "CGEN002" in out


class TestExportGate:
    def test_export_output_is_contract_checked(self, tmp_path, capsys):
        stem = tmp_path / "model"
        assert main(["export", "--version", "reduced", "--out", str(stem)]) == 0
        assert "contract-checked" in capsys.readouterr().out
        # The written artifact round-trips through the standalone checker.
        clean_py = write_fixture(tmp_path, CLEAN)
        assert main(
            ["lint", str(clean_py), "--check-c", str(tmp_path / "model.c")]
        ) == 0
