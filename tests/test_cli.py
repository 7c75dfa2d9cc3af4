"""Tests for the ``python -m repro`` CLI."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "GunPoint"])
        assert args.method == "IPS"
        assert args.k == 5

    def test_unknown_method_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "GunPoint", "--method", "COTE"])

    def test_serve_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    def test_serve_save_defaults(self):
        args = build_parser().parse_args(
            ["serve", "save", "GunPoint", "--out", "artifacts/gp"]
        )
        assert args.out == "artifacts/gp"
        assert args.validation == "repair"

    def test_serve_run_flags(self):
        args = build_parser().parse_args(
            [
                "serve", "run", "--artifact", "artifacts/gp",
                "--deadline-ms", "100", "--queue-depth", "8",
                "--validation", "strict",
            ]
        )
        assert args.artifact == "artifacts/gp"
        assert args.deadline_ms == 100.0
        assert args.queue_depth == 8
        assert args.validation == "strict"

    def test_campaign_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign"])

    def test_campaign_run_flags(self):
        args = build_parser().parse_args(
            [
                "campaign", "run", "--out", "camp", "--datasets", "CBF,GunPoint",
                "--methods", "1NN-ED,BOP", "--scenarios", "clean,missing",
                "--retries", "4", "--max-cell-seconds", "30",
                "--fault-rate", "0.2", "--max-cells", "5",
            ]
        )
        assert args.out == "camp"
        assert args.datasets == "CBF,GunPoint"
        assert args.retries == 4
        assert args.max_cell_seconds == 30.0
        assert args.fault_rate == 0.2
        assert args.max_cells == 5

    def test_campaign_report_flags(self):
        args = build_parser().parse_args(
            ["campaign", "report", "--dir", "camp", "--cd-method", "nemenyi"]
        )
        assert args.dir == "camp"
        assert args.cd_method == "nemenyi"


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "ArrowHead" in out
        assert "ItalyPowerDemand" in out
        assert "47 registered datasets" in out

    def test_run_ips(self, capsys):
        code = main(
            [
                "run", "ItalyPowerDemand", "--method", "IPS",
                "--max-train", "16", "--max-test", "20", "--k", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "IPS on ItalyPowerDemand" in out
        assert "accuracy" in out

    def test_compare_subset(self, capsys):
        code = main(
            [
                "compare", "ItalyPowerDemand", "--methods", "1NN-ED,BASE",
                "--max-train", "16", "--max-test", "20", "--k", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "1NN-ED" in out
        assert "BASE" in out

    def test_shapelets(self, capsys):
        code = main(
            [
                "shapelets", "ItalyPowerDemand",
                "--max-train", "16", "--max-test", "10", "--k", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "shapelets" in out
        assert "utility" in out

    def test_unknown_dataset_errors(self):
        with pytest.raises(KeyError):
            main(["run", "NotADataset", "--max-train", "8"])

    def test_campaign_run_resume_status_report(self, tmp_path, capsys):
        out_dir = str(tmp_path / "camp")
        base = [
            "campaign", "run", "--out", out_dir,
            "--datasets", "CBF,ItalyPowerDemand", "--methods", "1NN-ED,BOP",
            "--max-train", "8", "--max-test", "12", "--max-length", "60",
        ]
        assert main(base + ["--max-cells", "2"]) == 0
        assert "2 pending" in capsys.readouterr().out
        assert main(["campaign", "resume", "--dir", out_dir]) == 0
        assert "0 pending" in capsys.readouterr().out
        assert main(["campaign", "status", "--dir", out_dir]) == 0
        assert "4 ok" in capsys.readouterr().out
        assert main(["campaign", "report", "--dir", out_dir]) == 0
        out = capsys.readouterr().out
        assert "Critical-difference" in out
        assert "report bundle written" in out
        assert (tmp_path / "camp" / "report" / "frame.json").exists()

    def test_campaign_status_on_missing_dir_fails_cleanly(self, tmp_path, capsys):
        assert main(["campaign", "status", "--dir", str(tmp_path / "no")]) == 1
        assert "no campaign manifest" in capsys.readouterr().err
