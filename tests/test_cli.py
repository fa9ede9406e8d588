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

    def test_independent_flag_disables_fusion(self, trace_path, capsys):
        code = main([
            "run-group", self.DISTINCT, self.DISTINCT,
            "--trace", trace_path, "--links", "2", "--independent",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "independent queries" in out
        assert "shared state:" not in out

    def test_shared_and_independent_answers_agree(self, trace_path, capsys):
        queries = [self.DISTINCT,
                   "SELECT COUNT(*) FROM link1 [RANGE 50]"]
        main(["run-group", *queries, "--trace", trace_path, "--links", "2",
              "--top", "0", "--batch", "32"])
        shared_out = capsys.readouterr().out
        main(["run-group", *queries, "--trace", trace_path, "--links", "2",
              "--top", "0", "--independent"])
        independent_out = capsys.readouterr().out
        def extract(text):
            # Result tuples plus per-query live/distinct summaries (state
            # touch attribution legitimately differs between the regimes).
            lines = [line for line in text.splitlines()
                     if line.startswith("  (")]
            lines += [line.split(" distinct")[0] for line in text.splitlines()
                      if line.startswith("-- q")]
            return lines

        assert extract(shared_out) == extract(independent_out)


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
