"""Source catalog for the query-language compiler.

Queries reference streams, relations and NRRs by name; the catalog supplies
their schemas and objects.  Stream *windows* come from the query text (the
``[RANGE n]`` clause), so the catalog registers schemas and rate estimates
only.
"""

from __future__ import annotations

from ..core.tuples import Schema
from ..errors import PlanError
from ..streams.relation import NRR, Relation


class SourceCatalog:
    """Name → source registry used when compiling query text."""

    def __init__(self) -> None:
        self._streams: dict[str, tuple[Schema, float]] = {}
        self._relations: dict[str, Relation] = {}

    # -- registration ----------------------------------------------------------

    def add_stream(self, name: str, schema: Schema,
                   rate: float = 1.0) -> "SourceCatalog":
        """Register a stream schema (and rate estimate); returns self."""
        self._check_free(name)
        self._streams[name] = (schema, rate)
        return self

    def add_relation(self, relation: Relation) -> "SourceCatalog":
        """Registers a Relation or an NRR under its own name."""
        self._check_free(relation.name)
        self._relations[relation.name] = relation
        return self

    def _check_free(self, name: str) -> None:
        if name in self._streams or name in self._relations:
            raise PlanError(f"source name {name!r} already registered")

    # -- lookup ------------------------------------------------------------------

    def is_relation(self, name: str) -> bool:
        return name in self._relations

    def stream(self, name: str) -> tuple[Schema, float]:
        try:
            return self._streams[name]
        except KeyError:
            raise PlanError(
                f"unknown stream {name!r}; registered: "
                f"{sorted(self._streams) + sorted(self._relations)}"
            ) from None

    def relation(self, name: str) -> Relation:
        try:
            return self._relations[name]
        except KeyError:
            raise PlanError(
                f"unknown relation {name!r}; registered: "
                f"{sorted(self._relations)}"
            ) from None

    def is_nrr(self, name: str) -> bool:
        return isinstance(self._relations.get(name), NRR)

    def __contains__(self, name: str) -> bool:
        return name in self._streams or name in self._relations

    def __repr__(self) -> str:
        return (f"SourceCatalog(streams={sorted(self._streams)}, "
                f"relations={sorted(self._relations)})")
