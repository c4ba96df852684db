"""Concurrent ingest: shard-parallel workers over the transport seam.

The package splits the single-threaded ingest loop into *lanes* — each
lane owns the agent/collector fleet of one host partition and runs the
parse/sample hot path off the main thread (or, behind the deployment
flag, in its own process).  The parent keeps the single-writer role:
every report crosses the real transport seam in the exact sequential
arrival order at deterministic epoch barriers, so byte tables, query
results and stored state are bit-identical to the one-thread run at
any worker count.

Layout:

* :mod:`repro.concurrent.worker` — lane-side state + report recorder;
* :mod:`repro.concurrent.lanes` — bounded thread/process channels;
* :mod:`repro.concurrent.plane` — the :class:`ParallelIngestPlane`
  single-writer orchestrator and its collector proxies.

Worker-count invariance is checked against the system-wide identity
oracle, :mod:`repro.verify`, which this package does not own.
"""

from repro.concurrent.lanes import LaneError, ProcessLane, ThreadLane, make_lane
from repro.concurrent.plane import LaneCollectorProxy, ParallelIngestPlane
from repro.concurrent.worker import AgentWorkerState, ReportRecorder

__all__ = [
    "AgentWorkerState",
    "LaneCollectorProxy",
    "LaneError",
    "ParallelIngestPlane",
    "ProcessLane",
    "ReportRecorder",
    "ThreadLane",
    "make_lane",
]
