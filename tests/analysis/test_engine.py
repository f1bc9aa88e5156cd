"""Engine plumbing: registry, pragmas, module inference."""

import textwrap
from pathlib import Path

import pytest

from repro.analysis import Analyzer, all_rules
from repro.analysis.engine import module_name_for_path
from repro.analysis.findings import Finding, Severity
from repro.analysis.rules import LintContext, rules_for_codes

SRC_ROOT = Path(__file__).resolve().parents[2] / "src"


class TestRegistry:
    def test_all_rules_sorted_and_complete(self):
        codes = [rule.code for rule in all_rules()]
        assert codes == sorted(codes)
        assert {"DEV001", "DEV002", "DET001", "OVF001"} <= set(codes)

    def test_rules_for_codes_selects(self):
        rules = rules_for_codes(["DET001"])
        assert [rule.code for rule in rules] == ["DET001"]

    def test_family_prefix_expands(self):
        rules = rules_for_codes(["ASYNC"])
        assert [rule.code for rule in rules] == ["ASYNC001", "ASYNC002"]

    def test_prefix_and_member_deduplicate(self):
        rules = rules_for_codes(["ASYNC", "ASYNC001"])
        assert [rule.code for rule in rules] == ["ASYNC001", "ASYNC002"]

    def test_unknown_code_rejected(self):
        with pytest.raises(KeyError):
            rules_for_codes(["NOPE999"])

    def test_unknown_prefix_rejected(self):
        with pytest.raises(KeyError):
            rules_for_codes(["ASY"])  # not a full family name

    def test_every_rule_is_documented(self):
        """CI's doc gate: an undocumented rule code fails this test."""
        repo = SRC_ROOT.parent
        docs = (
            (repo / "docs" / "ARCHITECTURE.md").read_text()
            + (repo / "README.md").read_text()
        )
        undocumented = [
            rule.code for rule in all_rules() if rule.code not in docs
        ]
        assert undocumented == []


class TestModuleInference:
    def test_package_file(self):
        path = SRC_ROOT / "repro" / "ml" / "model_codegen.py"
        assert module_name_for_path(path) == "repro.ml.model_codegen"

    def test_package_init(self):
        path = SRC_ROOT / "repro" / "amulet" / "__init__.py"
        assert module_name_for_path(path) == "repro.amulet"

    def test_loose_file(self, tmp_path):
        loose = tmp_path / "scratch.py"
        loose.write_text("x = 1\n")
        assert module_name_for_path(loose) is None


class TestPragmas:
    def test_suppression_is_per_code(self):
        context = LintContext.from_source(
            "import math\n"
            "y = math.sqrt(2)  # lint: allow DET001 -- wrong code\n",
            path="<t>",
            module="repro.sift_app.fixture",
        )
        assert context.is_suppressed(2, "DET001")
        assert not context.is_suppressed(2, "DEV001")

    def test_multiple_codes(self):
        context = LintContext.from_source(
            "x = 1  # lint: allow DEV001, DET001 -- both\n", path="<t>"
        )
        assert context.is_suppressed(1, "DEV001")
        assert context.is_suppressed(1, "DET001")

    def test_pragma_covers_multiline_statement(self):
        context = LintContext.from_source(
            textwrap.dedent(
                """
                value = compute(  # lint: allow DET001 -- spans the call
                    1,
                    2,
                )
                after = 1
                """
            ),
            path="<t>",
        )
        for line in (2, 3, 4, 5):
            assert context.is_suppressed(line, "DET001")
        assert not context.is_suppressed(6, "DET001")

    def test_pragma_covers_decorated_async_def_header(self):
        context = LintContext.from_source(
            textwrap.dedent(
                """
                @decorator  # lint: allow ASYNC001 -- header pragma
                async def serve(
                    wearer,
                ):
                    body = 1
                """
            ),
            path="<t>",
        )
        # The decorator pragma blankets the whole header...
        for line in (2, 3, 4, 5):
            assert context.is_suppressed(line, "ASYNC001")
        # ...but never leaks into the body.
        assert not context.is_suppressed(6, "ASYNC001")


class TestLintFile:
    def test_syntax_error_becomes_finding(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        findings = Analyzer().lint_file(bad)
        assert [f.code for f in findings] == ["SYN000"]
        assert findings[0].severity is Severity.ERROR

    def test_lint_paths_recurses(self, tmp_path):
        package = tmp_path / "pkg"
        package.mkdir()
        (package / "clean.py").write_text("x = 1\n")
        (package / "noisy.py").write_text(
            "import random\nJITTER = random.random()\n"
        )
        findings = Analyzer().lint_paths([tmp_path])
        assert [f.code for f in findings] == ["DET001"]


class TestFinding:
    def test_render_format(self):
        finding = Finding(
            path="src/x.py", line=3, col=4, code="DEV001",
            message="no", severity=Severity.ERROR, source_line="math.sqrt(2)",
        )
        assert finding.render() == "src/x.py:3:5: DEV001 error: no"

    def test_ordering_by_location(self):
        a = Finding(path="a.py", line=1, col=0, code="DET001", message="m")
        b = Finding(path="a.py", line=2, col=0, code="DET001", message="m")
        assert a < b

    def test_as_dict_round_trips_fields(self):
        finding = Finding(
            path="p.py", line=1, col=0, code="OVF001",
            message="m", severity=Severity.WARNING,
        )
        data = finding.as_dict()
        assert data["code"] == "OVF001"
        assert data["severity"] == "warning"


class TestRepoIsClean:
    """The acceptance gate: the shipped tree lints clean with all rules."""

    def test_src_repro_has_no_findings(self):
        findings = Analyzer().lint_paths([SRC_ROOT / "repro"])
        assert findings == [], "\n".join(f.render() for f in findings)


class TestPlantedViolations:
    """End-to-end: one fixture tree with one violation per rule family."""

    def test_each_rule_fires_with_its_own_code(self, tmp_path):
        package = tmp_path / "repro" / "sift_app"
        package.mkdir(parents=True)
        (tmp_path / "repro" / "__init__.py").write_text("")
        (package / "__init__.py").write_text("")
        (package / "planted.py").write_text(
            textwrap.dedent(
                """
                import math
                import random

                from repro.ml.model_codegen import FixedPointLinearModel

                JITTER = random.random()

                def device_extract_simplified(m, window):
                    return math.sqrt(window[0])

                MODEL = FixedPointLinearModel(
                    weights_q=[2000000000, 2000000000], bias_q=100, frac_bits=2
                )
                """
            )
        )
        findings = Analyzer().lint_paths([tmp_path])
        assert sorted(f.code for f in findings) == ["DET001", "DEV001", "OVF001"]
