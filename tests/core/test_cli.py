"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_plan_arguments(self):
        args = build_parser().parse_args(["plan", "--accuracy-loss", "0.05", "--clients", "123"])
        assert args.command == "plan"
        assert args.accuracy_loss == 0.05
        assert args.clients == 123

    def test_privacy_requires_parameters(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["privacy", "-p", "0.5"])


class TestCommands:
    def test_plan(self, capsys):
        assert main(["plan", "--accuracy-loss", "0.05", "--epsilon", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "sampling fraction" in out
        assert "zero-knowledge privacy level" in out

    def test_privacy(self, capsys):
        assert main(["privacy", "-s", "0.6", "-p", "0.6", "-q", "0.6"]) == 0
        out = capsys.readouterr().out
        assert "epsilon_dp" in out and "epsilon_zk" in out

    def test_simulate_small(self, capsys):
        code = main(
            [
                "simulate",
                "--clients", "60",
                "--epochs", "1",
                "--buckets", "4",
                "-s", "1.0",
                "-p", "1.0",
                "-q", "0.5",
                "--seed", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "accuracy loss" in out
        assert "bucket" in out

    def test_simulate_multi_query(self, capsys):
        """--queries N serves every query from one shared answering pass."""
        code = main(
            [
                "simulate",
                "--clients", "60",
                "--epochs", "1",
                "--buckets", "4",
                "--queries", "3",
                "-s", "1.0",
                "-p", "1.0",
                "-q", "0.5",
                "--seed", "3",
                "--executor", "pipelined-overlap/in-process",
                "--workers", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("accuracy loss") == 3
        assert "query 3/3" in out

    def test_simulate_rejects_zero_queries(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--clients", "10", "--queries", "0"])

    def test_taxi_small(self, capsys):
        assert main(["taxi", "--clients", "80", "-s", "1.0", "-p", "1.0", "-q", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "accuracy loss" in out

    def test_electricity_small(self, capsys):
        assert (
            main(["electricity", "--clients", "80", "-s", "1.0", "-p", "1.0", "-q", "0.5"]) == 0
        )
        out = capsys.readouterr().out
        assert "epsilon_zk" in out

    def test_crypto_table(self, capsys):
        assert main(["crypto-table"]) == 0
        out = capsys.readouterr().out
        assert "PrivApprox (XOR)" in out
        assert "Paillier" in out
