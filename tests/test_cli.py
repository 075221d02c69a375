"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main

FAST = ["--data-mib", "2", "--chunk-kib", "512"]


class TestCli:
    def test_apps_lists_all_seven(self, capsys):
        assert main(["apps"]) == 0
        out = capsys.readouterr().out
        for name in ("kmeans", "wordcount", "netflix", "opinion", "dna",
                     "mastercard", "mastercard_indexed"):
            assert name in out

    def test_hw_prints_testbed(self, capsys):
        assert main(["hw"]) == 0
        out = capsys.readouterr().out
        assert "GTX 680" in out and "PCIe" in out

    def test_run_all_engines(self, capsys):
        assert main(["run", "kmeans", *FAST]) == 0
        out = capsys.readouterr().out
        assert "bigkernel" in out and "cpu_serial" in out

    def test_run_single_engine(self, capsys):
        assert main(["run", "netflix", "--engine", "bigkernel", *FAST]) == 0
        out = capsys.readouterr().out
        assert "bigkernel" in out

    def test_run_unknown_engine_fails(self, capsys):
        assert main(["run", "kmeans", "--engine", "warpdrive", *FAST]) == 2

    def test_table1_command(self, capsys):
        assert main(["table1", *FAST]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_fig4b_command(self, capsys):
        assert main(["fig4b", *FAST]) == 0
        assert "Fig. 4(b)" in capsys.readouterr().out

    def test_trace_dumps_valid_json(self, tmp_path, capsys):
        out_file = tmp_path / "trace.json"
        assert main(["trace", "kmeans", "--out", str(out_file), *FAST]) == 0
        events = json.loads(out_file.read_text())["traceEvents"]
        assert any(e.get("name") == "compute" for e in events)
        assert any(e.get("name") == "data_transfer" for e in events)
        # complete events carry microsecond timestamps
        xs = [e for e in events if e.get("ph") == "X"]
        assert xs and all(e["dur"] >= 0 for e in xs)

    def test_verify_quick_passes(self, capsys):
        assert main(["verify", "--quick", "--fuzz-iters", "2",
                     "--data-mib", "1"]) == 0
        out = capsys.readouterr().out
        assert "verify: PASS" in out
        assert "differential vs cpu_serial" in out

    def test_verify_exits_nonzero_on_violation(self, capsys, monkeypatch):
        from repro.verify import runner
        from repro.verify.report import Cell, PillarReport

        def broken(**kwargs):
            summary = runner.VerifySummary()
            summary.reports["invariants"] = PillarReport(
                "invariants",
                [Cell("bigkernel/kmeans", ok=False, detail="ran ahead")],
            )
            return summary

        monkeypatch.setattr(runner, "run_verify", broken)
        monkeypatch.setattr("repro.verify.run_verify", broken)
        assert main(["verify", "--quick"]) == 1
        assert "verify: FAIL" in capsys.readouterr().out

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])
