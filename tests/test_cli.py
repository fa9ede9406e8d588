"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.workloads.trace_io import read_trace


@pytest.fixture
def trace_path(tmp_path):
    path = tmp_path / "trace.tsv"
    assert main(["generate", "--tuples", "400", "--links", "2",
                 "--out", str(path)]) == 0
    return str(path)


class TestGenerate:
    def test_writes_requested_tuples(self, trace_path):
        assert len(list(read_trace(trace_path))) == 400

    def test_seed_determinism(self, tmp_path):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        main(["generate", "--tuples", "50", "--seed", "9", "--out", str(a)])
        main(["generate", "--tuples", "50", "--seed", "9", "--out", str(b)])
        assert a.read_text() == b.read_text()


class TestRun:
    def test_run_distinct_query(self, trace_path, capsys):
        code = main([
            "run", "SELECT DISTINCT src_ip FROM link0 [RANGE 50]",
            "--trace", trace_path, "--links", "2", "--top", "3",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "processed 400 events" in out
        assert "live result tuple(s)" in out

    def test_run_with_explain(self, trace_path, capsys):
        main([
            "run", "SELECT DISTINCT src_ip FROM link0 [RANGE 50]",
            "--trace", trace_path, "--links", "2", "--explain",
        ])
        out = capsys.readouterr().out
        assert "DupElim" in out and "WKS" in out

    @pytest.mark.parametrize("mode", ["nt", "direct", "upa"])
    def test_all_modes(self, trace_path, mode, capsys):
        code = main([
            "run", "SELECT src_ip FROM link0 [RANGE 50]",
            "--trace", trace_path, "--links", "2", "--mode", mode,
        ])
        assert code == 0

    def test_custom_stream_schema(self, tmp_path, capsys):
        trace = tmp_path / "custom.tsv"
        # Reuse the traffic format but register the stream explicitly.
        main(["generate", "--tuples", "60", "--links", "1",
              "--out", str(trace)])
        code = main([
            "run", "SELECT COUNT(*) FROM link0 [RANGE 20]",
            "--trace", str(trace),
            "--streams", "link0:duration,protocol,bytes,src_ip,dst_ip",
        ])
        assert code == 0
        assert "processed 60 events" in capsys.readouterr().out

    def test_malformed_stream_spec(self, trace_path):
        with pytest.raises(SystemExit):
            main(["run", "SELECT * FROM x", "--trace", trace_path,
                  "--streams", "nocolon"])

    @pytest.mark.parametrize("command", ["run", "run-group"])
    def test_checked_is_not_an_option(self, trace_path, command):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "SELECT * FROM link0 [RANGE 50]",
                  "--trace", trace_path, "--checked"])
        assert exit_info.value.code == 2


    def test_cli_has_no_str_storage_option(self, capsys):
        """UPA stores STR results one way, so the option is gone from every
        subcommand: argparse rejects it with exit status 2."""
        for command in (["run", "SELECT * FROM link0 [RANGE 5]",
                         "--trace", "t.tsv"],
                        ["run-group", "SELECT * FROM link0 [RANGE 5]",
                         "--trace", "t.tsv"],
                        ["explain", "SELECT * FROM link0 [RANGE 5]"]):
            with pytest.raises(SystemExit) as exit_info:
                main(command + ["--str-storage", "negative"])
            assert exit_info.value.code == 2
            assert "--str-storage" in capsys.readouterr().err


class TestUserErrors:
    """A user error prints one ``repro: error:`` line on stderr, no
    traceback, and exits with argparse's usage-error status."""

    @pytest.mark.parametrize("argv, message", [
        (["SELECT * FROM nosuch [RANGE 5]"], "unknown stream 'nosuch'"),
        (["SELECT * FROM link0 [RANGE 5]", "--batch", "0"],
         "batch must be >= 1"),
        (["SELECT * FROM link0 [RANGE 5]", "--shards", "0"],
         "shards must be >= 1"),
        (["SELECT * FROM link0 [RANGE 5] MINUS link1 [RANGE 5] ON src_ip",
          "--mode", "direct"], "negation-free"),
    ], ids=["unknown-stream", "batch-0", "shards-0", "negation-direct"])
    def test_one_line_and_status_2(self, trace_path, capsys, argv, message):
        code = main(["run", *argv[:1], "--trace", trace_path, *argv[1:]])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("repro: error: ") and message in line

    def test_lint_is_not_a_command(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["lint", "SELECT * FROM link0 [RANGE 5]"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'lint'" in capsys.readouterr().err


class TestRunGroup:
    DISTINCT = "SELECT DISTINCT src_ip FROM link0 [RANGE 50]"

    def test_shared_group_fuses_identical_queries(self, trace_path, capsys):
        code = main([
            "run-group", self.DISTINCT, self.DISTINCT,
            "--trace", trace_path, "--links", "2", "--explain", "--top", "2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "shared×2" in out
        assert "shared state:" in out
        assert "-- q1:" in out and "-- q2:" in out

    def test_independent_is_not_an_option(self, trace_path):
        with pytest.raises(SystemExit) as exit_info:
            main(["run-group", self.DISTINCT, self.DISTINCT,
                  "--trace", trace_path, "--independent"])
        assert exit_info.value.code == 2

    def test_shared_and_independent_answers_agree(self, trace_path, capsys):
        """A group's answers are each query's answer run alone."""
        queries = [self.DISTINCT, self.DISTINCT,
                   "SELECT COUNT(*) FROM link1 [RANGE 50]"]
        main(["run-group", *queries, "--trace", trace_path, "--links", "2",
              "--top", "0", "--batch", "32"])
        shared_out = capsys.readouterr().out
        assert "across 1 shared subplan(s)" in shared_out
        alone = []
        for query in queries:
            main(["run", query, "--trace", trace_path, "--links", "2",
                  "--top", "0"])
            alone.append(capsys.readouterr().out)

        def extract(text):
            # Result tuples plus the live/distinct summaries (state touch
            # attribution legitimately differs between the two).
            return [line.split(": ")[-1].split(" distinct")[0]
                    for line in text.splitlines()
                    if line.startswith("  (") or "live result" in line]

        assert extract(shared_out) == [line for text in alone
                                       for line in extract(text)]


class TestExplain:
    def test_explain_prints_annotated_plan(self, capsys):
        code = main([
            "explain",
            "SELECT src_ip FROM link0 [RANGE 10] MINUS link1 [RANGE 10] "
            "ON src_ip",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "Negation" in out and "STR" in out

    def test_explain_prints_the_certificate_below_the_footers(self, capsys):
        code = main(["explain",
                     "SELECT DISTINCT src_ip FROM link0 [RANGE 100]"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert not any(line.startswith("-- lint:") for line in lines)
        footers = [i for i, line in enumerate(lines)
                   if line.startswith("-- ")]
        title = lines.index("state certificate (time domain, horizon=100)")
        assert lines[footers[-1]].startswith("-- program:")
        assert title == footers[-1] + 1
        assert "bound=O(distinct keys)" in lines[title + 1]
