"""Documentation-rot guards: code shown in the docs must actually work.

Extracts the SQL snippets from docs/query_language.md and the Python
quickstart from README.md and runs them — stale documentation fails CI.
"""

import pathlib
import re

import pytest

from repro import Schema, SourceCatalog, compile_query
from repro.workloads import TRAFFIC_SCHEMA

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _doc_catalog() -> SourceCatalog:
    """A catalog covering every source name the documentation uses."""
    catalog = SourceCatalog()
    for name in ("s", "s0", "s1"):
        catalog.add_stream(name, Schema(["a", "b"]))
    for link in range(4):
        catalog.add_stream(f"link{link}", TRAFFIC_SCHEMA)
    return catalog


def _sql_snippets(markdown: str) -> list[str]:
    """SELECT statements from ```sql fenced blocks (comments stripped)."""
    snippets = []
    for block in re.findall(r"```sql\n(.*?)```", markdown, re.S):
        text = re.sub(r"--[^\n]*", "", block).strip()
        if text.upper().startswith("SELECT"):
            snippets.append(" ".join(text.split()))
    return snippets


class TestQueryLanguageDoc:
    DOC = (ROOT / "docs" / "query_language.md").read_text()

    def test_doc_has_sql_examples(self):
        assert len(_sql_snippets(self.DOC)) >= 1

    @pytest.mark.parametrize("sql", _sql_snippets(
        (ROOT / "docs" / "query_language.md").read_text()))
    def test_sql_examples_compile(self, sql):
        compile_query(sql, _doc_catalog())


class TestReadmeQuickstart:
    README = (ROOT / "README.md").read_text()

    def test_python_quickstart_runs(self):
        blocks = re.findall(r"```python\n(.*?)```", self.README, re.S)
        assert blocks, "README lost its Python quickstart"
        namespace: dict = {}
        exec(compile(blocks[0], "README-quickstart", "exec"), namespace)

    def test_multi_query_quickstart_runs(self):
        """The shared QueryGroup snippet is self-contained and correct."""
        blocks = [b for b in re.findall(r"```python\n(.*?)```", self.README,
                                        re.S) if "QueryGroup" in b]
        assert blocks, "README lost its multi-query quickstart"
        namespace: dict = {}
        exec(compile(blocks[0], "README-multi-query", "exec"), namespace)
        assert "shared×" in namespace["group"].explain()

    def test_telemetry_quickstart_runs(self):
        """The telemetry snippet is self-contained, reads the registry an
        ordinary run carries, and produces a schema-valid metrics
        document."""
        blocks = [b for b in re.findall(r"```python\n(.*?)```", self.README,
                                        re.S) if "metrics_document(" in b]
        assert blocks, "README lost its telemetry quickstart"
        namespace: dict = {}
        exec(compile(blocks[0], "README-telemetry", "exec"), namespace)
        registry = namespace["registry"]
        assert registry.value("events_processed") == 3
        assert registry.find("op_process_seconds")
        assert namespace["document"]["schema"] == "repro.metrics/v1"
        assert "; phases " in namespace["query"].explain()

    def test_sharded_quickstart_runs(self):
        """The --shards snippet is self-contained, correct, and really
        runs the sharded path (not a fallback)."""
        blocks = [b for b in re.findall(r"```python\n(.*?)```", self.README,
                                        re.S) if "shards=" in b]
        assert blocks, "README lost its sharded-execution quickstart"
        namespace: dict = {}
        exec(compile(blocks[0], "README-sharded", "exec"), namespace)
        result = namespace["result"]
        assert result.shards == 2
        assert result.fallback_reason is None
        assert "-- sharding: partitionable" in namespace["query"].explain()

    def test_reference_patterns_quickstart_runs(self):
        """The annotate-vs-reference snippet is self-contained, agrees node
        by node, and runs."""
        from repro import WK

        blocks = [b for b in re.findall(r"```python\n(.*?)```", self.README,
                                        re.S) if "reference_patterns(" in b]
        assert blocks, "README lost its reference-patterns quickstart"
        namespace: dict = {}
        exec(compile(blocks[0], "README-reference", "exec"), namespace)
        assert namespace["annotated"].output_pattern is WK
        explained = namespace["query"].explain()
        assert "-- lint:" not in explained
        # The execution-program footer the README promises, verbatim up to
        # the plan-dependent counts.
        assert ("-- program: EXPIRE>DISPATCH>PROPAGATE>PURGE>DELIVER"
                in explained)

    def test_certificate_quickstart_runs(self):
        """The ownership/bounds snippet is self-contained, derives a fully
        bounded certificate, and runs."""
        blocks = [b for b in re.findall(r"```python\n(.*?)```", self.README,
                                        re.S) if "derive_certificate" in b]
        assert blocks, "README lost its certificate quickstart"
        namespace: dict = {}
        exec(compile(blocks[0], "README-certificate", "exec"), namespace)
        certificate = namespace["certificate"]
        assert certificate.bounded
        explained = namespace["query"].explain()
        assert "-- bounds: " in explained
        assert "-- lint:" not in explained

    def test_cli_examples_reference_real_subcommands(self):
        from repro.cli import main
        import pytest as _pytest
        for command in ("run", "generate", "explain", "validate",
                        "run-group"):
            if f"python -m repro {command}" in self.README or True:
                with _pytest.raises(SystemExit):
                    main([command, "--help"])


class TestParserDocExamples:
    def test_module_docstring_examples_parse(self):
        from repro.lang import parser as parser_mod
        doc = parser_mod.__doc__
        examples = re.findall(r"^    (SELECT[^\n]*(?:\n        [^\n]+)*)",
                              doc, re.M)
        assert examples
        for example in examples:
            parser_mod.parse(" ".join(example.split()))
