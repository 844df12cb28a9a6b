"""The ``repro analyze`` driver and CLI subcommand."""

from __future__ import annotations

import json

import pytest

from repro.analysis.driver import analyze
from repro.cli import main


class TestAnalyzeDriver:
    def test_report_structure_and_ok(self):
        report = analyze(8, 8, thread_counts=(1, 3))
        assert report["ok"] is True
        assert report["lattice"]["shapes"] == 64
        assert report["lattice"]["ok"] is True
        # 64 shapes x 2 thread counts x 2 algorithms x 3 schedule kinds
        # (thread, and one banded per default band count (2, 3))
        assert report["racecheck"]["schedules"] == 768
        assert report["racecheck"]["ok"] is True
        assert report["racecheck"]["band_counts"] == [2, 3]
        assert report["lint"]["ok"] is True
        assert "sanitizer" in report
        assert report["seconds"] > 0

    def test_band_counts_are_configurable(self):
        report = analyze(4, 4, thread_counts=(2,), band_counts=(2,),
                         run_lint=False)
        # 16 shapes x 1 thread count x 2 algorithms x 2 schedule kinds
        # (thread, banded)
        assert report["racecheck"]["schedules"] == 64
        assert report["racecheck"]["band_counts"] == [2]

    def test_native_section_via_kernelcheck(self):
        report = analyze(
            0, 0, run_lint=False, native=True,
            native_configs=[(6, 4, "C", 4)],
        )
        assert report["lattice"]["shapes"] == 0
        assert report["racecheck"]["schedules"] == 0
        kc = report["kernelcheck"]
        assert kc["ok"] is True
        assert kc["kernels"] == 2  # c2r and r2c
        assert report["ok"] is True

    def test_mutation_section(self):
        report = analyze(
            0, 0, run_lint=False, native=True,
            native_configs=[(6, 4, "C", 4)], mutation=True,
        )
        mu = report["mutation"]
        assert mu["ok"] is True
        assert mu["killed"] == mu["applied"]
        assert len(mu["classes_applied"]) >= mu["min_classes"]
        assert report["ok"] is True

    def test_report_is_json_serializable(self):
        report = analyze(4, 4, thread_counts=(2,), run_lint=False)
        parsed = json.loads(json.dumps(report))
        assert parsed["ok"] is True
        assert "lint" not in parsed

    def test_lint_failure_flips_ok(self, tmp_path):
        bad = tmp_path / "parallel"
        bad.mkdir()
        (bad / "cpu.py").write_text("x = a % b\n", encoding="utf-8")
        report = analyze(2, 2, thread_counts=(1,), lint_root=tmp_path)
        assert report["lint"]["ok"] is False
        assert report["ok"] is False


class TestAnalyzeCommand:
    def test_cli_writes_report_and_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            ["analyze", "--m-max", "6", "--n-max", "6", "--threads", "1,2",
             "--output", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["ok"] is True
        assert report["lattice"]["shapes"] == 36
        text = capsys.readouterr().out
        assert "ok" in text and "wrote" in text

    def test_cli_no_lint_flag(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(
            ["analyze", "--m-max", "3", "--n-max", "3", "--threads", "1",
             "--no-lint", "--output", str(out)]
        ) == 0
        assert "lint" not in json.loads(out.read_text())

    def test_cli_rejects_bad_thread_list(self, capsys):
        assert main(["analyze", "--threads", "two"]) == 1
        assert "error" in capsys.readouterr().out

    def test_cli_native_shapes_runs_kernelcheck(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            ["analyze", "--m-max", "0", "--n-max", "0", "--no-lint",
             "--native-shapes", "6x4:C:4", "--output", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["kernelcheck"]["ok"] is True
        assert report["kernelcheck"]["kernels"] == 2
        text = capsys.readouterr().out
        assert "kernelcheck: 2 kernels" in text

    @pytest.mark.parametrize(
        "token", ["6by4", "6x4:Z", "6x4:C:wide", "x", "6x4x2"]
    )
    def test_cli_rejects_bad_native_shape_tokens(self, token, capsys):
        assert main(["analyze", "--native-shapes", token]) == 1
        assert "error" in capsys.readouterr().out

    def test_cli_prints_kernelcheck_failures(self, tmp_path, capsys,
                                             monkeypatch):
        from repro.analysis import kernelcheck as kc
        from repro.analysis.algebra import Check
        from repro.analysis.kernelcheck import KernelReport, NativeReport

        def fake_verify(configs, progress=None):
            rep = KernelReport(m=6, n=4, order="C", algorithm="c2r",
                               itemsize=4)
            rep.checks.append(Check("plan-constants", False, "B != 2"))
            return NativeReport(kernels=[rep])

        monkeypatch.setattr(kc, "verify_native", fake_verify)
        code = main(
            ["analyze", "--m-max", "0", "--n-max", "0", "--no-lint",
             "--native-shapes", "6x4:C:4"]
        )
        assert code == 1
        text = capsys.readouterr().out
        assert "1 failed" in text
        assert "6x4 C c2r: plan-constants: B != 2" in text
