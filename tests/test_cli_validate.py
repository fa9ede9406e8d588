"""Tests for the CLI validate subcommand and the experiments' entry point."""

import os
import subprocess
import sys

import pytest

from repro.cli import main


@pytest.fixture
def trace_path(tmp_path):
    path = tmp_path / "trace.tsv"
    main(["generate", "--tuples", "500", "--links", "2", "--out", str(path)])
    return str(path)


class TestValidate:
    def test_ok_for_sound_query(self, trace_path, capsys):
        code = main([
            "validate",
            "SELECT DISTINCT src_ip FROM link0 [RANGE 40]",
            "--trace", trace_path, "--links", "2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "OK: 500 per-event comparisons" in out

    def test_validates_negation_exactly(self, trace_path, capsys):
        code = main([
            "validate",
            "SELECT src_ip FROM link0 [RANGE 40] MINUS link1 [RANGE 40] "
            "ON src_ip",
            "--trace", trace_path, "--links", "2", "--mode", "nt",
        ])
        assert code == 0

    @pytest.mark.parametrize("mode", ["nt", "direct", "upa"])
    def test_all_modes(self, trace_path, mode):
        code = main([
            "validate", "SELECT src_ip FROM link0 [RANGE 40]",
            "--trace", trace_path, "--links", "2", "--mode", mode,
        ])
        assert code == 0


class TestHarnessSmoke:
    """``python -m benchmarks.experiments`` runs end to end in quick mode."""

    def test_single_experiment_via_subprocess(self):
        env = dict(os.environ)
        result = subprocess.run(
            [sys.executable, "-m", "benchmarks.experiments", "e1", "--quick"],
            capture_output=True, text=True, env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        assert result.returncode == 0, result.stderr
        assert "E1" in result.stdout
        rows = [line.split() for line in result.stdout.splitlines()]
        # Three strategies at each of the three quick windows.
        assert sorted(row[4] for row in rows if row[:1] == ["Q1-ftp"]) \
            == ["DIRECT"] * 3 + ["NT"] * 3 + ["UPA"] * 3

    def test_unknown_experiment_rejected(self):
        result = subprocess.run(
            [sys.executable, "-m", "benchmarks.experiments", "e99"],
            capture_output=True, text=True,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        assert result.returncode != 0
        assert "unknown experiments" in result.stderr
