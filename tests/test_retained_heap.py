"""Bounded agent memory across framework lifetimes.

The paper bounds agent memory with a fixed-size Params Buffer; the
process must not undo that bound behind the agent's back.  A module
level memo on the ingest path may hold only immutable values derived
from pattern content, so once one framework over a stream has been
built, finalized and dropped, running the same stream again through
fresh frameworks retains nothing more: the memos are already full of
that stream's patterns, and every per-span object dies with its
framework.
"""

from __future__ import annotations

import gc
import tracemalloc

from repro.framework import MintFramework
from repro.sim.experiment import drive, generate_stream
from repro.workloads import build_onlineboutique

# Slack for allocator and interpreter noise (free lists, interned
# strings); a per-span leak grows by hundreds of KiB per framework.
SLACK_BYTES = 64 * 1024


def test_dropped_frameworks_leave_nothing_behind():
    stream = generate_stream(
        build_onlineboutique(), 200, abnormal_rate=0.05,
        requests_per_minute=6000.0, seed=17,
    )[0]
    retained: list[int] = []
    try:
        for i in range(3):
            framework = MintFramework()
            drive(framework, stream)
            framework.close()
            del framework
            gc.collect()
            if i == 0:
                # Tracing starts once the first framework is gone, so the
                # traced live bytes are what later frameworks retain (and
                # the first, untraced, run keeps the test fast).
                tracemalloc.start()
            retained.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert retained[2] <= retained[0] + SLACK_BYTES, retained
