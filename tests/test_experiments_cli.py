"""Experiment CLI (python -m repro.experiments)."""

import pytest

from repro.experiments.__main__ import build_parser, list_experiments, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.experiment is None
        assert args.seed is None

    def test_experiment_and_options(self):
        args = build_parser().parse_args(
            ["fig5", "--seed", "7", "--days", "3"])
        assert args.experiment == "fig5"
        assert args.seed == 7
        assert args.days == 3


class TestListing:
    def test_lists_every_experiment(self):
        listing = list_experiments()
        for experiment_id in ("fig5", "fig6_v", "fig6_t", "fig7",
                              "fig8", "fig9", "fig10", "ablations"):
            assert experiment_id in listing


class TestMain:
    def test_no_args_lists(self, capsys):
        assert main([]) == 0
        assert "available experiments" in capsys.readouterr().out

    def test_unknown_experiment_errors(self, capsys):
        assert main(["fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["fig6_t", "--days", "4"], "fig6_t: horizon of 96 hours is not "
                                    "divisible into coarse slots"),
        (["fig10", "--days", "0"], "fig10: K must be >= 1, got 0"),
    ])
    def test_bad_input_logs_one_line_and_exits_2(self, capsys, argv,
                                                 message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert len(captured.err.strip().splitlines()) == 1
        assert "Traceback" not in captured.err + captured.out

    def test_runs_fig5_short(self, capsys):
        assert main(["fig5", "--days", "2", "--seed", "4"]) == 0
        captured = capsys.readouterr()
        assert "Fig 5" in captured.out
        # Progress/diagnostics log to stderr; tables stay on stdout.
        assert "finished in" in captured.err
