"""Property test: the state certificate upper-bounds observed occupancy.

For every paper query, under every strategy × batch size × driver kind,
a checked run's armed monitors must observe a peak unexpired occupancy no
larger than the certificate's empirical sliding-window bound, and no
tuple may outlive the certified horizon — i.e. :func:`validate_certificate`
passes, and its component inequalities hold entry by entry.  This is the
runtime half of the CST8xx contract: the symbolic bound derived from the
annotated plan really does dominate what the sanitizer sees.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.bounds import BOUND_UNBOUNDED, validate_certificate
from repro.engine.query import ContinuousQuery
from repro.engine.strategies import ExecutionConfig, Mode
from repro.errors import PlanError
from repro.workloads import queries
from repro.workloads.traffic import TrafficConfig, TrafficTraceGenerator

WINDOW = 40.0

QUERY_FACTORIES = {
    "query1": lambda gen: queries.query1(gen, WINDOW),
    "query2": lambda gen: queries.query2(gen, WINDOW),
    "query3": lambda gen: queries.query3(gen, WINDOW),
    "query4": lambda gen: queries.query4(gen, WINDOW),
    "query5_pullup": lambda gen: queries.query5_pullup(gen, WINDOW),
}

SETTINGS = settings(max_examples=25, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


class TestCertificateBoundsObservedState:
    @SETTINGS
    @given(
        name=st.sampled_from(sorted(QUERY_FACTORIES)),
        mode=st.sampled_from([Mode.NT, Mode.DIRECT, Mode.UPA]),
        batch=st.sampled_from([None, 4, 32]),
        seed=st.integers(0, 2**16),
        n_events=st.integers(50, 400),
    )
    def test_sliding_bound_dominates_peak(self, name, mode, batch,
                                          seed, n_events):
        gen = TrafficTraceGenerator(TrafficConfig(seed=seed))
        plan = QUERY_FACTORIES[name](gen)
        config = ExecutionConfig(mode=mode, checked=True)
        try:
            query = ContinuousQuery(plan, config)
        except PlanError:
            # The direct approach rejects strict plans by design.
            assert mode is Mode.DIRECT
            return
        result = query.run(gen.events(n_events), batch=batch)

        cert = result.certificate
        assert cert is not None
        # The drain-time hook inside run() already validated once; the
        # explicit call returns how many armed monitors it covered.
        checked = validate_certificate(query.compiled)
        armed = [e for e in cert.entries
                 if e.monitor is not None
                 and getattr(e.monitor, "cert_armed", False)]
        assert checked == len(armed)
        for entry in armed:
            monitor = entry.monitor
            assert entry.bound != BOUND_UNBOUNDED
            assert monitor.cert_lifetime_violations == 0, entry.render()
            assert monitor.cert_peak_unexpired <= monitor.cert_sliding_peak, (
                f"{entry.render()}: peak {monitor.cert_peak_unexpired} > "
                f"sliding bound {monitor.cert_sliding_peak}")
            # NOTE: live buffer length at drain is *not* bounded by the
            # peak-unexpired count — lazily purged buffers legitimately
            # retain expired tuples until the next purge pass.

    @pytest.mark.parametrize("name", sorted(QUERY_FACTORIES))
    def test_certificate_coverage_is_nonempty_under_upa(self, name):
        """Under checked UPA every paper query arms at least one monitor —
        the property above is never vacuous."""
        gen = TrafficTraceGenerator(TrafficConfig(seed=3))
        query = ContinuousQuery(QUERY_FACTORIES[name](gen),
                                ExecutionConfig(mode=Mode.UPA, checked=True))
        query.run(gen.events(120))
        assert validate_certificate(query.compiled) > 0
