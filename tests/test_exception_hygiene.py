"""Exception-hygiene lock: broad handlers stay confined to the IPC edge.

A broad ``except Exception`` anywhere in the engine swallows the very
defects the checked mode and the lint catalogue exist to surface
(PatternViolation, PlanError, counter-conservation failures).  The only
legitimate broad handler is the shard-worker IPC boundary in
``shard.py``: a worker process must serialize *any* failure — including
MemoryError and injected test faults — into an ``("err", ...)`` reply,
because an exception escaping the worker loop would deadlock the parent
on a read that never comes.  It carries a pragma documenting that the
re-raise is exercised from the parent side.

This test greps the source tree so a new broad handler (or a bare
``except:``) cannot land silently: widening the whitelist requires
editing this file and justifying the new boundary in review.
"""

from __future__ import annotations

import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Files allowed to contain broad handlers, with the exact count each may
#: carry.  shard.py: the one worker reply loop (queries and groups share it).
ALLOWED_BROAD = {"engine/shard.py": 1}


def _py_sources():
    return sorted(SRC.rglob("*.py"))


class TestBroadExceptLock:
    def test_broad_excepts_only_at_the_worker_ipc_boundary(self):
        pattern = re.compile(r"except\s+(Exception|BaseException)\b")
        found: dict[str, int] = {}
        for path in _py_sources():
            hits = pattern.findall(path.read_text())
            if hits:
                found[str(path.relative_to(SRC))] = len(hits)
        assert found == ALLOWED_BROAD, (
            f"broad exception handlers moved: {found}; the whitelist is "
            f"{ALLOWED_BROAD} — narrow the new handler or justify widening "
            "the whitelist here")

    def test_every_allowed_broad_handler_is_justified(self):
        """Each whitelisted handler must carry an inline justification."""
        for rel, count in ALLOWED_BROAD.items():
            text = (SRC / rel).read_text()
            justified = re.findall(
                r"except\s+Exception[^\n]*#\s*pragma[^\n]*", text)
            assert len(justified) == count, (
                f"{rel}: every broad handler needs an inline pragma "
                "comment explaining the boundary")

    def test_no_bare_except_anywhere(self):
        pattern = re.compile(r"^\s*except\s*:", re.MULTILINE)
        offenders = [str(p.relative_to(SRC)) for p in _py_sources()
                     if pattern.search(p.read_text())]
        assert offenders == []
