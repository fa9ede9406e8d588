"""Seeded LBL-style traffic trace, owned by the benchmark.

The paper's Section 6.1 replays a wide-area TCP trace split into outgoing
links.  This generator produces the statistically equivalent input every
workload replays: 4 links at one tuple per link per time unit, 150
source IPs drawn Zipf(1.1) from one pool shared by all links, 8 destinations per link, and the protocol mix below (telnet
ten times as frequent as ftp, which is what separates ``q1_ftp`` from
``q1_telnet``).

It deliberately does not import ``repro.workloads.traffic``: the program
under test receives only the generated ``Arrival`` events, so a change to
the repository's own generator cannot move the benchmark's inputs.

Every column is drawn in bulk from its own ``random.Random`` stream, so
``generate(seed, n)`` is a prefix of ``generate(seed, m)`` for ``n <= m``
and every workload replays a prefix of the same trace.

The draws are stratified.  Protocol and source IP are drawn jointly, per
link, by *systematic sampling*: every run of ``BLOCK`` tuples of a link
holds each (protocol, source) cell either the floor or the ceiling of its
expected count, in seeded random order.  Likewise every run of ``BLOCK``
arrivals holds ``BLOCK / 4`` per link, at ``BLOCK`` uniform instants of
its ``BLOCK / 4`` time units (a Poisson process conditioned on its
count).  The marginals are exactly the mix, the Zipf law and the rate,
and every value still depends on the seed, but a window's join fan-out no
longer swings with the luck of the heaviest addresses.  With independent
draws it does: the top address is 24 % of the traffic, its per-window
count varies by 12 %, the join output by its square, and the fifteen
windows of ``q1_telnet`` do not average that out: ten seeds spread that
workload's call count by 8 % and its time by 20 % (measured), which no
bound could sit above.

``python -m benchmarks.e2e.gen --seed 42`` prints the SHA-256 of the full
trace, so two commits can prove they were fed identical inputs.
"""

from __future__ import annotations

import argparse
import hashlib
import random
import sys
from bisect import bisect_right
from itertools import accumulate

from repro import Arrival

N_LINKS = 4
N_SRC_IPS = 150
N_DST_PER_LINK = 8
ZIPF_S = 1.1
WINDOW = 800
FULL_TRACE = 400_000
#: Tuples of one link per systematic-sampling block (an eighth of a window).
BLOCK = 100
PROTOCOL_MIX = {
    "telnet": 0.35,
    "http": 0.30,
    "smtp": 0.15,
    "nntp": 0.10,
    "other": 0.065,
    "ftp": 0.035,
}
#: Attribute order of every link's tuples (timestamps ride on the event).
FIELDS = ("duration", "protocol", "bytes", "src_ip", "dst_ip")
STREAMS = tuple(f"link{i}" for i in range(N_LINKS))


def _systematic(rng: random.Random, weights: list, n: int) -> list:
    """``n`` cell indices; each run of ``BLOCK`` holds cell *i* floor or
    ceiling of ``BLOCK * weights[i] / sum(weights)`` times, shuffled."""
    scale = BLOCK / sum(weights)
    edges = list(accumulate(weight * scale for weight in weights))
    last = len(weights) - 1
    out: list = []
    while len(out) < n:
        offset = rng.random()
        block = [min(bisect_right(edges, offset + k), last)
                 for k in range(BLOCK)]
        rng.shuffle(block)
        out += block
    return out[:n]


def generate(seed: int, n: int = FULL_TRACE) -> list:
    """The first ``n`` arrivals of the trace for ``seed``, in timestamp
    order across all four links."""

    def column(name: str) -> random.Random:
        return random.Random(f"{seed}/{name}")

    # Arrival times: each run of BLOCK arrivals is BLOCK uniform draws
    # over its BLOCK / N_LINKS time units, i.e. a Poisson process
    # conditioned on its count; links: BLOCK / N_LINKS arrivals each.
    span = BLOCK / N_LINKS
    uniform = column("ts").random
    ts = [span * (block + u) for block in range(-(-n // BLOCK))
          for u in sorted(uniform() for _ in range(BLOCK))][:n]
    link = _systematic(column("link"), [1.0] * N_LINKS, n)
    sources = [f"10.0.{i >> 8}.{i & 255}" for i in range(N_SRC_IPS)]
    zipf = [1.0 / rank ** ZIPF_S for rank in range(1, N_SRC_IPS + 1)]
    # Cells are protocol-major, so each protocol's share of a block is
    # itself within one tuple of the mix.
    cells = [(name, source) for name in PROTOCOL_MIX for source in sources]
    weights = [share * popularity for share in PROTOCOL_MIX.values()
               for popularity in zipf]
    per_link = [iter(_systematic(column(f"cell{k}"), weights, link.count(k)))
                for k in range(N_LINKS)]
    protocol, src = zip(*(cells[next(per_link[k])] for k in link))
    dst = column("dst").choices(range(N_DST_PER_LINK), k=n)
    lognormal = column("duration").lognormvariate
    duration = [round(lognormal(1.0, 1.2), 3) for _ in range(n)]
    lognormal = column("bytes").lognormvariate
    payload = [int(lognormal(6.0, 1.5)) + 40 for _ in range(n)]
    destinations = [[f"172.16.{k}.{d}" for d in range(N_DST_PER_LINK)]
                    for k in range(N_LINKS)]
    return [
        Arrival(ts[i], STREAMS[link[i]],
                (duration[i], protocol[i], payload[i], src[i],
                 destinations[link[i]][dst[i]]))
        for i in range(n)
    ]


def digest(trace: list) -> str:
    """SHA-256 over every arrival's timestamp, stream and values."""
    sha = hashlib.sha256()
    update = sha.update
    for event in trace:
        update(repr((event.ts, event.stream, event.values)).encode())
    return sha.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args(argv)
    trace = generate(args.seed)
    print(f"seed {args.seed}: {len(trace)} arrivals, last ts "
          f"{trace[-1].ts:.3f}, sha256 {digest(trace)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
