"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fly"])

    def test_demo_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.version == "simplified"
        assert args.seed == 42

    def test_version_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["demo", "--version", "huge"])

    def test_export_rejects_original(self):
        """Original deploys a float model, not fixed-point C."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["export", "--version", "original"])


class TestCommands:
    def test_demo_runs(self, capsys):
        assert main(["demo", "--version", "reduced"]) == 0
        out = capsys.readouterr().out
        assert "accuracy" in out
        assert "FP" in out

    def test_profile_runs(self, capsys):
        assert main(["profile", "--version", "reduced"]) == 0
        out = capsys.readouterr().out
        assert "FRAM layout" in out
        assert "battery-life slider" in out

    def test_export_writes_artifacts(self, tmp_path, capsys):
        stem = tmp_path / "model"
        assert main(["export", "--version", "reduced", "--out", str(stem)]) == 0
        json_text = (tmp_path / "model.json").read_text()
        c_text = (tmp_path / "model.c").read_text()
        assert '"version": "reduced"' in json_text
        assert "sift_classify" in c_text

    def test_exported_model_loads(self, tmp_path):
        from repro.core.serialization import load_detector

        stem = tmp_path / "model"
        main(["export", "--version", "simplified", "--out", str(stem)])
        detector = load_detector(tmp_path / "model.json")
        assert detector.version.value == "simplified"


class TestNativeFlags:
    def test_demo_platform_choices(self):
        args = build_parser().parse_args(["demo", "--platform", "native"])
        assert args.platform == "native"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["demo", "--platform", "cuda"])

    def test_gateway_bench_platform_flag(self):
        args = build_parser().parse_args(["gateway-bench", "--platform", "native"])
        assert args.platform == "native"

    def test_demo_native_runs(self, capsys):
        """Scores natively where possible, falls back (with a warning)
        elsewhere -- either way the command succeeds and reports the path."""
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(["demo", "--version", "reduced", "--platform", "native"]) == 0
        out = capsys.readouterr().out
        assert "scored on" in out


class TestBenchGate:
    def _fake_passes(self, monkeypatch, fail_at=None):
        """Stand-in export and passes; returns the recorded pass calls."""
        from repro.experiments import trajectory

        def export(rev, repo, dest):
            (dest / "src").mkdir(parents=True)
            return dest / "src"

        calls = []

        def orchestrate(src, work, env):
            side = "parent" if src.parent.name == "parent" else "change"
            calls.append((side, work, dict(env)))
            if len(calls) == fail_at:
                return 1
            (work / "results").mkdir()
            (work / "results" / "BENCH_latest.json").write_text(json.dumps(
                {"schema": 1, "studies": {"s": {"wall_s": 1.0}}}
            ))
            return 0

        monkeypatch.setattr(trajectory, "_export_src", export)
        monkeypatch.setattr(trajectory, "_orchestrate", orchestrate)
        return calls

    def test_alternating_pairs_with_per_side_caches(self, monkeypatch, capsys):
        calls = self._fake_passes(monkeypatch)
        assert main(["bench-gate", "HEAD^1"]) == 0
        assert "no perf regressions" in capsys.readouterr().out
        assert [side for side, _, _ in calls] == [
            "parent", "change", "change", "parent", "parent", "change",
        ]
        envs = {side: env for side, _, env in calls}
        for side, _, env in calls:
            assert env == envs[side]
        for key in ("PYTHONPYCACHEPREFIX", "REPRO_NATIVE_CACHE"):
            assert envs["parent"][key] != envs["change"][key]
        assert len({work for _, work, _ in calls}) == 6
        assert not calls[0][1].parent.exists()

    def test_failed_pass_is_an_error_and_cleans_up(self, monkeypatch, capsys):
        calls = self._fake_passes(monkeypatch, fail_at=3)
        assert main(["bench-gate", "HEAD^1"]) == 2
        assert "failed" in capsys.readouterr().err
        assert len(calls) == 3
        assert not calls[0][1].parent.exists()

    def test_unknown_revision_is_an_error(self, capsys):
        assert main(["bench-gate", "no-such-revision"]) == 2
        assert "cannot export" in capsys.readouterr().err


class TestOrchestrateOutputs:
    def test_quick_run_never_touches_committed_reports(
        self, tmp_path, monkeypatch, capsys
    ):
        """Quick reports and trajectory default to results/quick/."""
        monkeypatch.chdir(tmp_path)
        results = tmp_path / "benchmarks" / "results"
        results.mkdir(parents=True)
        committed = results / "table3.txt"
        committed.write_text("full-protocol table\n")
        assert main(["orchestrate", "--quick", "--studies", "table3"]) == 0
        assert committed.read_text() == "full-protocol table\n"
        assert (results / "quick" / "table3.txt").exists()
        assert (results / "quick" / "BENCH_latest.json").exists()
        assert not (results / "BENCH_latest.json").exists()

    def test_unknown_study_rejected_before_fresh_touches_anything(
        self, tmp_path, capsys
    ):
        dirs = [
            "--checkpoint-dir", str(tmp_path / "checkpoints"),
            "--results-dir", str(tmp_path / "results"),
        ]
        assert main(["orchestrate", "--quick", "--studies", "table3", *dirs]) == 0
        checkpoint = tmp_path / "checkpoints" / "table3.jsonl"
        report = tmp_path / "results" / "table3.txt"
        before = (checkpoint.read_bytes(), report.stat().st_mtime_ns)
        assert main([
            "orchestrate", "--quick", "--fresh", "--studies", "table3,nosuch", *dirs,
        ]) == 2
        assert "unknown study 'nosuch'" in capsys.readouterr().err
        assert (checkpoint.read_bytes(), report.stat().st_mtime_ns) == before
