"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_parses_flags(self):
        args = build_parser().parse_args(
            ["run", "E6", "--json", "--out", "x.json"]
        )
        assert args.experiment_id == "E6"
        assert args.json
        assert args.out == "x.json"

    def test_certify_alpha(self):
        args = build_parser().parse_args(["certify", "--alpha", "0.62"])
        assert args.alpha == 0.62

    def test_workers_flag_on_run_run_all_and_demo(self):
        parser = build_parser()
        assert parser.parse_args(["run", "E9", "--workers", "4"]).workers == 4
        assert parser.parse_args(["run", "E9"]).workers == 1
        assert parser.parse_args(["run-all", "--workers", "2"]).workers == 2
        assert parser.parse_args(["demo", "--workers", "3"]).workers == 3

    def test_backend_flag_on_run_run_all_and_demo(self):
        parser = build_parser()
        assert parser.parse_args(["run", "E9"]).backend is None
        for command in (["run", "E9"], ["run-all"], ["demo"]):
            for backend in ("serial", "process"):
                args = parser.parse_args(command + ["--backend", backend])
                assert args.backend == backend

    def test_unknown_backend_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "E9", "--backend", "gpu"])
        assert "invalid choice" in capsys.readouterr().err

    def test_removed_thread_backend_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "E9", "--backend", "thread"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'thread'" in capsys.readouterr().err

    def test_removed_shard_backend_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "run", "E9",
                    "--shards", "2",
                    "--shard-placement", "socket",
                    "--backend", "shard",
                ]
            )
        assert excinfo.value.code == 2
        assert "invalid choice: 'shard'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "backend_flags",
        [[], ["--backend", "serial"]],
        ids=["default", "serial"],
    )
    def test_workers_without_process_backend_rejected(
        self, backend_flags, capsys
    ):
        argv = ["run", "E9", "--workers", "2"] + backend_flags
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--workers 2 sizes a process pool" in err
        assert "add --backend process" in err

    def test_nonpositive_workers_rejected(self, capsys):
        for bad in ("0", "-2", "zero"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["run", "E9", "--workers", bad])
        assert "workers must be >= 1" in capsys.readouterr().err

    def test_process_backend_with_single_worker_rejected(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["run", "E9", "--backend", "process"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--backend process needs --workers >= 2" in err

    def test_process_backend_with_enough_workers_parses(self):
        args = build_parser().parse_args(
            ["run", "E9", "--backend", "process", "--workers", "2"]
        )
        assert args.backend == "process"
        assert args.workers == 2

    def test_shards_flag_on_run_run_all_and_demo(self):
        parser = build_parser()
        assert parser.parse_args(["run", "E9"]).shards is None
        assert parser.parse_args(["run", "E9", "--shards", "4"]).shards == 4
        assert parser.parse_args(["run-all", "--shards", "2"]).shards == 2
        assert parser.parse_args(["demo", "--shards", "3"]).shards == 3

    def test_nonpositive_shards_rejected(self, capsys):
        for bad in ("0", "-1", "two"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["run", "E9", "--shards", bad])
        capsys.readouterr()

    def test_shard_placement_flag_on_run_run_all_and_demo(self):
        parser = build_parser()
        assert parser.parse_args(["run", "E9"]).shard_placement is None
        for command in (["run", "E9"], ["run-all"], ["demo"]):
            for placement in ("local", "socket"):
                args = parser.parse_args(
                    command
                    + ["--shards", "2", "--shard-placement", placement]
                )
                assert args.shard_placement == placement

    def test_unknown_shard_placement_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "E9", "--shards", "2", "--shard-placement", "cloud"]
            )
        assert "invalid choice" in capsys.readouterr().err

    def test_shard_placement_without_shards_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "E9", "--shard-placement", "socket"])
        assert excinfo.value.code == 2
        assert "--shard-placement needs --shards" in capsys.readouterr().err

    def test_removed_process_placement_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "E9", "--shards", "2", "--shard-placement", "process"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'process'" in capsys.readouterr().err

    def test_removed_max_resident_shards_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "E9", "--shards", "2", "--max-resident-shards", "2"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --max-resident-shards" in (
            capsys.readouterr().err
        )

    def test_valid_shard_flag_combination_parses(self):
        args = build_parser().parse_args(
            [
                "run", "E9",
                "--shards", "4",
                "--shard-placement", "socket",
            ]
        )
        assert args.shards == 4
        assert args.shard_placement == "socket"

    def test_shards_exceeding_population_is_a_clean_error(self, capsys):
        # Validated by the experiment runner (the CLI cannot know n):
        # a clear message and exit code 2, not a deep-stack traceback
        # or a silent clamp.
        assert main(["run", "E9", "--shards", "999"]) == 2
        err = capsys.readouterr().err
        assert "exceeds" in err and "population" in err

    def test_game_flag_on_run_run_all_demo_and_serve(self):
        parser = build_parser()
        assert parser.parse_args(["run", "E9"]).game == "unilateral"
        for command in (
            ["run", "E9"],
            ["run-all"],
            ["demo"],
            ["serve", "--listen", "127.0.0.1:0"],
        ):
            args = parser.parse_args(command + ["--game", "congestion"])
            assert args.game == "congestion"
            assert args.beta is None

    def test_unknown_game_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "E9", "--game", "frictional"])
        assert "invalid choice" in capsys.readouterr().err

    def test_beta_without_congestion_is_a_clean_exit_2(self, capsys):
        for command in (
            ["run", "E9"],
            ["run-all"],
            ["demo"],
            ["serve", "--listen", "127.0.0.1:0"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(command + ["--beta", "0.5"])
            assert excinfo.value.code == 2
            assert "--beta needs --game congestion" in (
                capsys.readouterr().err
            )
        # An explicit unilateral game does not make --beta meaningful.
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "E9", "--game", "unilateral", "--beta", "0.5"])
        assert excinfo.value.code == 2

    def test_negative_beta_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "E9", "--game", "congestion", "--beta", "-1"])
        assert excinfo.value.code == 2
        assert "--beta must be >= 0" in capsys.readouterr().err

    def test_congestion_game_with_beta_parses(self):
        args = build_parser().parse_args(
            ["run", "E13", "--game", "congestion", "--beta", "2.5"]
        )
        assert args.game == "congestion"
        assert args.beta == 2.5

    def test_cost_model_factory_contract(self):
        from repro.cli import _make_cost_model
        from repro.core.cost_model import CongestionModel

        assert _make_cost_model("unilateral", None, 1.5) is None
        assert _make_cost_model(None, None, 1.5) is None
        model = _make_cost_model("congestion", None, 1.5)
        assert model == CongestionModel(1.5, 1.0)  # default beta
        assert _make_cost_model("congestion", 0.25, 2.0) == CongestionModel(
            2.0, 0.25
        )

    def test_run_help_range_derived_from_registry(self, capsys):
        from repro.experiments import EXPERIMENTS

        ids = list(EXPERIMENTS)
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--help"])
        out = capsys.readouterr().out
        assert f"{ids[0]}..{ids[-1]}" in out


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for experiment_id in ("E1", "E5", "E11"):
            assert experiment_id in out

    def test_run_table(self, capsys):
        assert main(["run", "E6"]) == 0
        out = capsys.readouterr().out
        assert "SUPPORTED" in out
        assert "case" in out

    def test_run_json(self, capsys):
        assert main(["run", "E6", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment_id"] == "E6"
        assert payload["verdict"] == "SUPPORTED"
        assert len(payload["rows"]) == 7

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "E99"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_run_writes_out_file(self, tmp_path, capsys):
        out_file = tmp_path / "e6.txt"
        assert main(["run", "E6", "--out", str(out_file)]) == 0
        capsys.readouterr()
        assert "SUPPORTED" in out_file.read_text()

    def test_certify_witness(self, capsys):
        assert main(["certify"]) == 0
        out = capsys.readouterr().out
        assert "1,048,576" in out
        assert "certified" in out

    def test_certify_off_window_alpha_reports_equilibria(self, capsys):
        assert main(["certify", "--alpha", "0.8"]) == 1
        assert "equilibria exist" in capsys.readouterr().out

    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "cycled" in out
        assert "converged" in out
        assert "game=unilateral" in out

    def test_demo_threads_congestion_game(self, capsys):
        assert main(["demo", "--game", "congestion", "--beta", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "game=congestion" in out
        assert "converged" in out

    def test_run_with_game_flag_threads_through(self, capsys):
        # E6 does not accept game_family/beta; the harness drops them
        # silently instead of failing the run.
        assert main(["run", "E6", "--game", "congestion"]) == 0
        assert "SUPPORTED" in capsys.readouterr().out
