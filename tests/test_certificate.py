"""State ownership and the state certificate.

Every compiled pipeline owns its mutable state (buffers, counter sink,
metrics registry, view): the members of a shared group and the replicas
of a sharded run share none of it.  Every driver attaches the pipeline's
state certificate (:mod:`repro.analysis.bounds`) when it is built, and
the paper's queries certify fully bounded.
"""

from __future__ import annotations

import pytest
from conftest import PAPER_QUERIES

from repro.analysis.bounds import attach_certificate, derive_certificate
from repro.core.metrics import Counters, NullCounters
from repro.engine.query import ContinuousQuery
from repro.engine.strategies import ExecutionConfig, Mode, compile_plan
from repro.errors import PlanError
from repro.workloads import queries
from repro.workloads.traffic import TrafficTraceGenerator

WINDOW = 50.0
_GEN = TrafficTraceGenerator()


def _mutable_state(compiled) -> dict[int, str]:
    """``id -> slot`` of every state buffer, counter sink, metrics
    registry and view one compiled pipeline writes to; the
    write-discarding null sink is shared by design and left out."""
    found = {}
    for op in compiled.ops.values():
        for label, buffer in op.state_buffers():
            if buffer is not None:
                found[id(buffer)] = f"{type(op).__name__}.{label}"
    for attr in ("counters", "metrics", "view"):
        obj = getattr(compiled, attr)
        if obj is not None and not isinstance(obj, NullCounters):
            found[id(obj)] = attr
    return found


def _assert_isolated(pipelines) -> None:
    """No two compiled pipelines share a mutable state object."""
    owner: dict[int, str] = {}
    for scope, compiled in pipelines:
        for obj_id, slot in _mutable_state(compiled).items():
            assert obj_id not in owner, (
                f"{scope}'s {slot} is also {owner[obj_id]}'s")
            owner[obj_id] = scope


class TestOwnershipAndBounds:
    @pytest.mark.parametrize("name", sorted(PAPER_QUERIES))
    @pytest.mark.parametrize("mode", [Mode.NT, Mode.DIRECT, Mode.UPA])
    def test_attached_certificate(self, name, mode):
        """A pipeline built with its driver, as a query builds it, carries
        its certificate for every paper query under every mode, with an
        entry for every state buffer the pipeline owns."""
        plan = PAPER_QUERIES[name]()
        config = ExecutionConfig(mode=mode)
        try:
            query = ContinuousQuery(plan, config)
        except PlanError:
            assert mode is Mode.DIRECT  # strict plans reject DIRECT
            return
        certificate = query.compiled.certificate
        assert certificate is attach_certificate(query.compiled)
        buffers = {id(b) for op in query.compiled.ops.values()
                   for _label, b in op.state_buffers() if b is not None}
        assert buffers <= {id(e.buffer) for e in certificate.entries}

    @pytest.mark.parametrize("root", ["group-by", "δ"])
    def test_state_view_roots_keep_one_owner_per_buffer(self, root):
        """A group-by or δ root answers from its operator's state.  The
        view holds the operator, not the buffer: every buffer has one
        slot, the certificate lists the operator's slots once
        and no ``result-view`` entry, and the run's metrics report no
        stored result."""
        from repro.lang.builder import agg_sum, count, from_window

        if root == "δ":
            plan, slots = PAPER_QUERIES["query2"](), ["output"]
        else:
            plan = (from_window(_GEN.stream_def(0, WINDOW))
                    .group_by(["src_ip"], [count("flows"),
                                           agg_sum("bytes", "bytes")])
                    .build())
            slots = ["input", "groups"]
        query = ContinuousQuery(plan, ExecutionConfig(mode=Mode.UPA))
        assert query.compiled.certificate is not None
        buffers = [id(b) for op in query.compiled.ops.values()
                   for _label, b in op.state_buffers() if b is not None]
        assert len(buffers) == len(set(buffers))
        entries = attach_certificate(query.compiled).entries
        assert [e.label for e in entries if e.path == "$"] == slots
        result = query.run(_GEN.events(600), batch=64)
        assert sum(result.answer().values()) > 0
        assert len(query.compiled.view) == 0
        assert result.metrics.value("view_results_peak") == 0

    def test_shared_group_members_isolated(self):
        """Fused shared-group member pipelines share no mutable state with
        each other (the null counter sink aside)."""
        from repro.engine.multi import QueryGroup

        gen = TrafficTraceGenerator()
        group = QueryGroup()
        group.add("a", queries.query1(gen, WINDOW),
                  ExecutionConfig(mode=Mode.UPA))
        group.add("b", queries.query2(gen, WINDOW),
                  ExecutionConfig(mode=Mode.UPA))
        pipelines = []
        for name in group.names():
            pipelines.append((name, group[name].compiled))
        _assert_isolated(pipelines)

    def test_shard_replicas_isolated(self):
        """Shard replica pipelines (compiled exactly the way workers do)
        own disjoint mutable state."""
        from repro.engine.shard import _compile_replica

        members = [("q", PAPER_QUERIES["query1"](),
                    ExecutionConfig(mode=Mode.UPA))]
        drivers = [_compile_replica(members)[0] for _ in range(3)]
        pipelines = []
        for i, driver in enumerate(drivers):
            pipelines.append((f"shard{i}", driver.compiled))
        _assert_isolated(pipelines)

    @pytest.mark.parametrize("name", sorted(PAPER_QUERIES))
    def test_paper_certificate_bounded(self, name):
        """Every paper query's certificate is fully bounded (no entry is
        ``unbounded``) and prices under the cost model."""
        plan = PAPER_QUERIES[name]()
        compiled = compile_plan(plan, ExecutionConfig(mode=Mode.UPA),
                                Counters())
        cert = derive_certificate(compiled)
        assert cert.bounded, cert.render()
        assert cert.cost is not None and cert.cost.total > 0
        assert "cost=" in cert.summary()
        assert "state certificate" in cert.render()
