"""The five experimental queries of Section 6.1 (Figures 6 and 8).

All queries run over the traffic trace of :mod:`repro.workloads.traffic`,
whose links are bounded by equal time windows:

* **Query 1** — join of two outgoing links on source IP, with
  ``protocol = ftp`` (selective) or ``protocol = telnet`` (≈10× the output).
  Tests the partitioned data structure for the materialized join result.
* **Query 2** — distinct source IPs (or distinct source-destination pairs)
  on one link.  Tests δ and the partitioned structure.
* **Query 3** — negation of two links on source IP.  Tests the STR
  result view (partitioned by ``exp``; a premature deletion scans one
  partition) and the negation operator's premature expirations.
* **Query 4** — distinct source IPs on two links, joined on source IP.
  Tests δ feeding a join with partitioned state.
* **Query 5** — composition of Queries 1 and 3: negation of links 0 and 1
  on source IP, joined with link 2 restricted to ftp.  Provided as both
  plans of Figure 6: negation pulled up (the join below never sees
  negatives) and negation pushed down (the join must process them).  They
  are two queries, not two rewritings of one: under Equation 1's bag
  semantics they agree only where no source IP repeats on the ftp side
  (DESIGN.md, "Negation moves only across key-unique inputs").
"""

from __future__ import annotations

from ..core.plan import LogicalNode, attr_equals
from ..lang.builder import from_window
from .traffic import DEFAULT_PROTOCOL_MIX, TrafficTraceGenerator


def _links(gen: TrafficTraceGenerator, window_size: float, *indexes: int):
    return [from_window(gen.stream_def(i, window_size)) for i in indexes]


def _protocol_predicate(protocol: str):
    return attr_equals("protocol", protocol,
                       selectivity=DEFAULT_PROTOCOL_MIX.get(protocol, 0.1))


def query1(gen: TrafficTraceGenerator, window_size: float,
           protocol: str = "ftp") -> LogicalNode:
    """σ(protocol) link0 ⋈_src_ip σ(protocol) link1."""
    link0, link1 = _links(gen, window_size, 0, 1)
    pred = _protocol_predicate(protocol)
    return link0.where(pred).join(link1.where(pred), on="src_ip").build()


def query2(gen: TrafficTraceGenerator, window_size: float,
           pairs: bool = False) -> LogicalNode:
    """DISTINCT src_ip (or DISTINCT (src_ip, dst_ip)) on link0."""
    (link0,) = _links(gen, window_size, 0)
    attrs = ("src_ip", "dst_ip") if pairs else ("src_ip",)
    return link0.project(*attrs).distinct().build()


def query3(gen: TrafficTraceGenerator, window_size: float) -> LogicalNode:
    """link0 − link1 on src_ip (Equation 1 bag semantics)."""
    link0, link1 = _links(gen, window_size, 0, 1)
    return link0.minus(link1, on="src_ip").build()


def query4(gen: TrafficTraceGenerator, window_size: float) -> LogicalNode:
    """δ(π_src link0) ⋈_src δ(π_src link1)."""
    link0, link1 = _links(gen, window_size, 0, 1)
    return (link0.project("src_ip").distinct()
            .join(link1.project("src_ip").distinct(), on="src_ip").build())


def query5_pullup(gen: TrafficTraceGenerator,
                  window_size: float) -> LogicalNode:
    """Figure 6, left: negation pulled above the join.

    (link0 ⋈_src σ(ftp) link2) − link1 on src_ip.  The join below the
    negation never processes negative tuples; only the final result does.
    """
    link0, link1, link2 = _links(gen, window_size, 0, 1, 2)
    joined = link0.join(link2.where(_protocol_predicate("ftp")), on="src_ip")
    return joined.minus(link1, on="l_src_ip", right_on="src_ip").build()


def query5_pushdown(gen: TrafficTraceGenerator,
                    window_size: float) -> LogicalNode:
    """Figure 6, right: negation below the join.

    (link0 − link1 on src_ip) ⋈_src σ(ftp) link2.  The join sits above the
    negation and must process every negative tuple it emits.
    """
    link0, link1, link2 = _links(gen, window_size, 0, 1, 2)
    negated = link0.minus(link1, on="src_ip")
    return negated.join(link2.where(_protocol_predicate("ftp")),
                        on="src_ip").build()
