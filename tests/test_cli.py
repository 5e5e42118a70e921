"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


class TestCli:
    def test_experiments_lists_every_bench(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out
        assert "figure5" in out
        assert "ablation-db" in out
        assert "pytest benchmarks/" in out

    def test_demo_paris_succeeds(self, capsys):
        assert main(["demo", "paris", "--hours", "2"]) == 0
        out = capsys.readouterr().out
        assert "friends seen in Paris: ['C']" in out

    def test_demo_sensor_map_produces_markers(self, capsys):
        assert main(["demo", "sensor-map", "--users", "2",
                     "--minutes", "45"]) == 0
        out = capsys.readouterr().out
        assert "markers:" in out
        assert "geojson features:" in out

    def test_obs_prints_report_and_writes_exports(self, capsys, tmp_path):
        jsonl = tmp_path / "spans.jsonl"
        prom = tmp_path / "metrics.prom"
        assert main(["obs", "--ticks", "300",
                     "--jsonl", str(jsonl), "--prom", str(prom)]) == 0
        out = capsys.readouterr().out
        assert "observability report" in out
        assert "stage latencies" in out
        import json
        lines = jsonl.read_text().splitlines()
        assert lines and all(json.loads(line) for line in lines)
        assert prom.read_text().strip()

    def test_chaos_obs_flag_attaches_the_section(self, capsys):
        assert main(["chaos", "--plan", "broker-restart",
                     "--minutes", "5", "--obs"]) == 0
        out = capsys.readouterr().out
        assert "observability:" in out
        assert "chain completeness" in out

    def test_scenario_accounts_for_every_record(self, capsys):
        assert main(["scenario", "city-day", "--devices", "300"]) == 0
        out = capsys.readouterr().out
        assert "1,759 emitted = 1,759 delivered" in out
        assert "verify   ok" in out

    def test_scenario_chaos_episode_flushes_on_reconnect(self, capsys):
        assert main(["scenario", "flash-crowd", "--chaos",
                     "--devices", "300", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "1,511 emitted = 1,505 delivered + 6 carried" in out
        assert "(33 reconnect flushes)" in out

    def test_scenario_output_writes_the_report(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        assert main(["scenario", "city-day", "--devices", "300",
                     "--output", str(target)]) == 0
        report = json.loads(target.read_text())
        assert report["verify_problems"] == []
        assert (report["scenario"], report["devices"]) == ("city-day", 300)

    def test_population_runs_have_one_entry(self):
        for argv in (["perf", "--scenario", "city-day"],
                     ["chaos", "--scenario", "flash-crowd"]):
            with pytest.raises(SystemExit):
                main(argv)

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_errors(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
