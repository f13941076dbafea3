"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import build_parser, main, parse_stopping
from repro.stopping import AbsoluteAccuracy, RelativeAccuracy, SamplesTaken


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

    @pytest.mark.parametrize("spec", ["rel", "nope:1", "rel:abc", ""])
    def test_rejected(self, spec):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_stopping(spec)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table5_defaults(self):
        args = build_parser().parse_args(["table5"])
        assert args.rows == 500_000 and args.reps == 3

    def test_query_requires_sql(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query"])

    def test_unknown_bounder_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query", "SELECT 1", "--bounder", "nope"])


class TestCommands:
    def test_list(self):
        out = io.StringIO()
        assert main(["list"], out=out) == 0
        text = out.getvalue()
        assert "F-q1" in text and "bernstein+rt" in text and "table5" in text

    def test_coverage_small(self):
        out = io.StringIO()
        assert main(["coverage", "--trials", "30"], out=out) == 0
        text = out.getvalue()
        assert "CLT" in text and "miss rate" in text

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
        code = main(
            ["fig8", "--rows", "20000", "--delta", "1e-6"],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "Figure 8" in text and "bernstein+rt" in text

    def test_table5_single_query(self):
        out = io.StringIO()
        code = main(
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
