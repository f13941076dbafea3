"""Tests for the command-line interfaces: ``python -m repro`` and the
artifact commands of ``benchmarks/paper.py``, which shares its argument
types (``paper`` below)."""

import io

import pytest

from repro.cli import build_parser, main, parse_stopping
from repro.stopping import AbsoluteAccuracy, RelativeAccuracy, SamplesTaken
from tests.support import paper_harness

paper = paper_harness()

#: paper.py's table/figure commands and the title their output starts with.
_TITLES = {
    "table6": "Table 6", "fig6": "Figure 6",
    "fig7a": "Figure 7(a)", "fig7b": "Figure 7(b)",
}


class TestParseStopping:
    def test_relative(self):
        stopping = parse_stopping("rel:0.5")
        assert isinstance(stopping, RelativeAccuracy)
        assert stopping.epsilon == 0.5

    def test_absolute(self):
        stopping = parse_stopping("abs:2.0")
        assert isinstance(stopping, AbsoluteAccuracy)
        assert stopping.epsilon == 2.0

    def test_samples(self):
        stopping = parse_stopping("samples:10000")
        assert isinstance(stopping, SamplesTaken)
        assert stopping.m == 10_000
        assert type(parse_stopping("samples:1e4").m) is int

    @pytest.mark.parametrize("spec", ["rel", "nope:1", "rel:abc", ""])
    def test_rejected(self, spec):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_stopping(spec)


def _parser_for(argv):
    """paper.py's parser for its commands, the package CLI's otherwise."""
    if argv[0] in ("table5", "table6", "fig6"):
        return paper.build_parser()
    return build_parser()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table5_defaults(self):
        args = paper.build_parser().parse_args(["table5"])
        assert args.rows == 500_000 and args.reps == 3

    def test_query_requires_sql(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query"])

    def test_unknown_bounder_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query", "SELECT 1", "--bounder", "nope"])

    @pytest.mark.parametrize("argv", [
        ["table5", "--reps", "0"],
        ["table6", "--reps", "-1"],
        ["fig6", "--rows", "0"],
        ["query", "SELECT 1", "--rows", "ten"],
        ["dashboard", "SELECT 1", "--parallelism", "0"],
        ["dashboard", "SELECT 1", "--cache-bytes", "-5"],
    ], ids=["table5-reps", "table6-reps", "fig6-rows", "query-rows",
            "dashboard-parallelism", "dashboard-cache-bytes"])
    def test_counts_must_be_positive(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            _parser_for(argv).parse_args(argv)
        assert exc.value.code == 2
        assert "expected a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (["table5", "--delta", "0"], "in (0, 1)"),
        (["query", "SELECT 1", "--delta", "2"], "in (0, 1)"),
        (["dashboard", "SELECT 1", "--delta", "nan"], "in (0, 1)"),
        (["fig6", "--delta", "inf"], "in (0, 1)"),
        (["query", "SELECT 1", "--seed", "-1"], "non-negative integer"),
    ], ids=["table5-delta-0", "query-delta-2", "dashboard-delta-nan",
            "fig6-delta-inf", "query-seed"])
    def test_bad_delta_or_seed_is_a_usage_error(self, argv, message, capsys):
        """Exit 2 with argparse's usage line, not a traceback and exit 1,
        which means a paper claim failed."""
        with pytest.raises(SystemExit) as exc:
            _parser_for(argv).parse_args(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["query", "dashboard"])
    @pytest.mark.parametrize("spec", [
        "samples:inf", "samples:1.5", "samples:nan", "samples:0",
        "rel:nan", "abs:nan", "abs:-1",
    ])
    def test_bad_stopping_value_is_a_usage_error(self, command, spec, capsys):
        """A count that is not a positive integer or a NaN ε exits 2 at
        parse time — not an OverflowError traceback, a truncated
        ``SamplesTaken(m=1)`` or a query that stops at its first round."""
        argv = [command, "SELECT 1", "--stopping", spec]
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert f"bad stopping value in {spec!r}" in capsys.readouterr().err


class TestCommands:
    def test_list(self):
        out = io.StringIO()
        assert main(["list"], out=out) == 0
        text = out.getvalue()
        assert "bernstein+rt" in text and "activepeek" in text
        assert "table5" not in text and "F-q1" not in text
        assert "coverage" not in text and "clt" not in text

    def test_coverage_command_is_gone(self, capsys):
        """5.0 removed ``repro coverage`` with the asymptotic bounders;
        the §1 undercoverage claim is a tier-1 test case now."""
        with pytest.raises(SystemExit) as exc:
            main(["coverage"], out=io.StringIO())
        assert exc.value.code == 2
        assert "invalid choice: 'coverage'" in capsys.readouterr().err

    def test_artifact_commands_are_gone(self, capsys):
        """Tables 5-6 and Figures 6-8 left the package for
        ``benchmarks/paper.py``."""
        with pytest.raises(SystemExit) as exc:
            main(["table5"], out=io.StringIO())
        assert exc.value.code == 2
        assert "invalid choice: 'table5'" in capsys.readouterr().err

    def test_query_scalar(self):
        out = io.StringIO()
        code = main(
            [
                "query",
                "SELECT AVG(DepDelay) FROM flights WHERE Origin = 'ORD'",
                "--rows", "30000",
                "--stopping", "rel:0.5",
                "--delta", "1e-6",
            ],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "CI=[" in text and "rows read" in text

    def test_query_group_by_having(self):
        out = io.StringIO()
        code = main(
            [
                "query",
                "SELECT Airline FROM flights GROUP BY Airline "
                "HAVING AVG(DepDelay) > 0",
                "--rows", "30000",
                "--delta", "1e-6",
                "--strategy", "activepeek",
            ],
            out=out,
        )
        assert code == 0
        assert out.getvalue().count("CI=[") >= 2

    def test_query_misspelt_column_is_a_usage_error(self, capsys):
        out = io.StringIO()
        code = main(
            [
                "query",
                "SELECT AVG(DepDelayy) FROM flights",
                "--rows", "20000",
                "--stopping", "rel:0.5",
            ],
            out=out,
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: column 'DepDelayy' is not in the catalog")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert out.getvalue() == ""

    def test_dashboard_without_stopping_condition_is_a_usage_error(self, capsys):
        code = main(
            ["dashboard", "SELECT AVG(DepDelay) FROM flights", "--rows", "20000"],
            out=io.StringIO(),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: no stopping condition is implied")
        assert err.count("\n") == 1

    def test_fig8_small(self):
        out = io.StringIO()
        code = paper.main(
            ["fig8", "--rows", "20000", "--delta", "1e-6"],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "Figure 8" in text and "bernstein+rt" in text

    def test_table5_single_query(self):
        out = io.StringIO()
        code = paper.main(
            [
                "table5",
                "--rows", "30000",
                "--queries", "F-q1",
                "--reps", "1",
                "--delta", "1e-6",
            ],
            out=out,
        )
        assert code == 0
        assert "Table 5" in out.getvalue() and "F-q1" in out.getvalue()

    def test_unknown_query_name_is_a_usage_error(self, capsys):
        code = paper.main(
            ["table5", "--rows", "20000", "--queries", "nope"], out=io.StringIO()
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: unknown query 'nope'")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("command", list(_TITLES))
    def test_artifact_command_end_to_end(self, command, capsys):
        """The artifact commands not run above (table5: test_table5_single_query,
        fig8: test_fig8_small) exit 0 with their table on stdout only."""
        reps = ["--reps", "1"] if command.startswith("table") else []
        out = io.StringIO()
        assert paper.main([command, "--rows", "30000", *reps], out=out) == 0
        assert out.getvalue().startswith(_TITLES[command])
        assert capsys.readouterr().err == ""


class TestClaimChecks:
    """An artifact command whose paper claim fails prints one
    ``repro: claim failed: …`` line to stderr and exits 1."""

    @staticmethod
    def _assert_claim_failed(code, capsys, cell):
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("repro: claim failed: ") and err.count("\n") == 1
        assert cell in err, err

    @pytest.mark.parametrize("argv", [
        pytest.param(["table5", "--queries", "F-q1"], id="table5"),
        pytest.param(["table6"], id="table6"),
    ])
    def test_wrong_answer(self, argv, monkeypatch, capsys):
        monkeypatch.setattr(paper, "check_correctness", lambda *a, **k: False)
        code = paper.main(
            [*argv, "--rows", "10000", "--reps", "1", "--delta", "1e-6"],
            out=io.StringIO(),
        )
        self._assert_claim_failed(code, capsys, "F-q")

    def test_fig7a_error_above_requested(self, monkeypatch, capsys):
        sweep = paper.SweepResult(
            "Figure 7(a)", "eps", "error", [1.0, 0.1],
            [paper.SweepSeries("hoeffding", [0.5, 0.2]),
             paper.SweepSeries("bernstein", [0.5, 0])],
        )
        monkeypatch.setattr(paper, "sweep_fig7a_relative_error", lambda *a, **k: sweep)
        code = paper.main(["fig7a", "--rows", "20000"], out=io.StringIO())
        self._assert_claim_failed(code, capsys, "hoeffding@eps=0.1")
