"""Tests for the two CLIs: repro.bench and repro.experiments."""

import pytest

from repro.bench.__main__ import main as bench_main
from repro.experiments.__main__ import main as experiments_main


class TestBenchCli:
    def test_lan_paxos_run(self, capsys):
        code = bench_main(
            ["--protocol", "paxos", "--clients", "4", "--duration", "0.2", "--check"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "throughput:" in out
        assert "linearizable: True" in out
        assert "consensus:    True" in out

    def test_wan_deployment(self, capsys):
        code = bench_main(
            [
                "--protocol", "wpaxos",
                "--wan", "VA", "OH",
                "--clients", "2",
                "--duration", "0.3",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "WAN VA/OH" in out
        assert "VA:" in out and "OH:" in out

    def test_conflicts_accepts_percent_or_fraction(self, capsys):
        for value in ("40", "0.4"):
            code = bench_main(
                [
                    "--protocol", "paxos",
                    "--clients", "2",
                    "--duration", "0.1",
                    "--conflicts", value,
                    "--keys", "10",
                ]
            )
            assert code == 0

    def test_unknown_protocol_rejected(self):
        with pytest.raises(SystemExit):
            bench_main(["--protocol", "zab"])

    @pytest.mark.parametrize("spelling", ["paxos", "Paxos", "pAxOs"])
    def test_protocol_name_is_case_insensitive(self, spelling, capsys):
        args = ["--protocol", spelling, "--clients", "2", "--duration", "0.1", "--keys", "20"]
        assert bench_main(args) == 0
        assert "protocol:    Paxos on 9 nodes" in capsys.readouterr().out

    def test_every_registered_protocol_runs(self, capsys):
        from repro.protocols import PROTOCOLS

        for name in PROTOCOLS:
            assert (
                bench_main(
                    ["--protocol", name, "--clients", "2", "--duration", "0.1", "--keys", "20"]
                )
                == 0
            ), name


class TestExperimentsCli:
    def test_plot_flag(self, capsys):
        assert experiments_main(["table1", "--fast", "--plot"]) == 0
        out = capsys.readouterr().out
        assert "M/D/1" in out
        assert "+---" in out  # the chart's x axis

    def test_csv_flag(self, tmp_path, capsys):
        assert experiments_main(["table4", "--csv", str(tmp_path)]) == 0
        assert (tmp_path / "table4.csv").exists()

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            experiments_main(["fig99"])
