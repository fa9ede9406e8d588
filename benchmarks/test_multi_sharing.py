"""Multi-query scaling: a sharing QueryGroup against precompiled members.

An overlapping query mix scaled to N ∈ {1, 4, 16} members runs as a
``QueryGroup`` that plans sharing and, for the baseline, as a group of
precompiled members (the group did not compile them, so it shares
nothing).  The smoke tests assert the design goal on deterministic state
touches — they grow *sublinearly* in N because common subplans are
maintained once, not once per query — and that sharing never costs work
or state.  ``benchmarks/sharing.py`` times the same groups.
"""

from __future__ import annotations

import pytest

from repro import ContinuousQuery, ExecutionConfig, Mode, QueryGroup
from repro.core.plan import attr_equals
from repro.lang.builder import from_window
from repro.workloads import query1, query2, query4

from .experiments import make_generator, trace_for

WINDOW = 100
GROUP_SIZES = (1, 4, 16)

#: Overlapping mix: repeated whole plans (fused outright at N >= 5) plus
#: distinct queries that still share window scans over link0/link1.
MIX = (
    lambda gen, w: query1(gen, w, "ftp"),
    lambda gen, w: query1(gen, w, "telnet"),
    lambda gen, w: query2(gen, w),
    lambda gen, w: query4(gen, w),
)

#: The fan-out shape: σ(l_protocol = pᵢ)(link0 ⋈ link1), one protocol per
#: member — N residual selections over one shared join.
PROTOCOLS = ("telnet", "http", "smtp", "nntp", "other", "ftp")
FANOUT = tuple(
    lambda gen, w, protocol=protocol: (
        from_window(gen.stream_def(0, w))
        .join(from_window(gen.stream_def(1, w)), on="src_ip")
        .where(attr_equals("l_protocol", protocol)).build())
    for protocol in PROTOCOLS)


def build_group(n: int, shared: bool, window: float = WINDOW,
                mix=MIX, mode: Mode = Mode.UPA) -> QueryGroup:
    """``n`` members cycling through ``mix``: registered with the group
    (``shared``), else precompiled."""
    gen = make_generator()
    config = ExecutionConfig(mode=mode)
    plans = {f"q{index}": mix[index % len(mix)](gen, window)
             for index in range(n)}
    if not shared:
        return QueryGroup({name: ContinuousQuery(plan, config)
                           for name, plan in plans.items()})
    group = QueryGroup()
    for name, plan in plans.items():
        group.add(name, plan, config)
    return group


def run_group(n: int, shared: bool, window: float = WINDOW,
              mode: Mode = Mode.UPA, batch: int | None = 64):
    group = build_group(n, shared, window, mode=mode)
    result = group.run(iter(trace_for(window)), batch=batch)
    return group, result


@pytest.mark.parametrize("window", [WINDOW, 400])
def test_sharing_is_sublinear_smoke(window):
    """Deterministic acceptance check, independent of wall-clock noise."""
    totals = {}
    for n in GROUP_SIZES:
        shared_group, shared_result = run_group(n, True, window)
        independent_group, independent_result = run_group(n, False, window)
        totals[n] = (shared_result.total_touches(),
                     independent_result.total_touches())
        # Transparency first: both regimes answer identically ...
        assert shared_group.answers() == independent_group.answers()
        # ... and sharing never costs work or state.
        assert totals[n][0] <= totals[n][1], n
        assert shared_group.total_state_size() \
            <= independent_group.total_state_size(), n
    # At N=16 the fused runtime must touch strictly less state than
    # independent execution...
    assert totals[16][0] < totals[16][1]
    # ... and grow sublinearly: quadrupling 4 -> 16 members costs the
    # shared regime less than 4x (independent execution is exactly linear
    # in the membership by construction) ...
    assert totals[16][0] < 4 * totals[4][0]
    # ... so the shared/independent work ratio improves as the group grows.
    assert (totals[16][0] / totals[16][1]
            < totals[4][0] / totals[4][1])


@pytest.mark.parametrize("batch", [None, 64])
@pytest.mark.parametrize("mode", [Mode.DIRECT, Mode.NT])
def test_sharing_never_costs_work_in_other_modes(mode, batch):
    """The smoke test's "never costs work or state" under the paper's two
    other strategies, per tuple and batched: a producer runs the chunk in
    its own batch loop, so it amortizes expiration as its members do."""
    for n in GROUP_SIZES[1:]:
        shared_group, shared_result = run_group(n, True, WINDOW, mode, batch)
        independent_group, independent_result = run_group(
            n, False, WINDOW, mode, batch)
        assert shared_group.answers() == independent_group.answers()
        assert shared_result.total_touches() \
            <= independent_result.total_touches(), n
        assert shared_group.total_state_size() \
            <= independent_group.total_state_size(), n
