"""repro: a full reproduction of Mint (ASPLOS 2025).

Mint is a cost-efficient distributed tracing framework that replaces
'1 or 0' trace sampling with a 'commonality + variability' paradigm:
traces are parsed into shared patterns (kept for *all* requests at very
low cost) and variable parameters (uploaded only for sampled requests),
so every trace remains at least approximately queryable.

Quick start::

    from repro import MintFramework
    from repro.workloads import build_onlineboutique, WorkloadDriver

    mint = MintFramework()
    driver = WorkloadDriver(build_onlineboutique(), seed=1)
    for now, trace in driver.traces(1000):
        mint.process_trace(trace, now)
    mint.finalize(0.0)
    result = mint.query(trace.trace_id)        # exact or approximate
    for hit in mint.execute(QuerySpec.where(
            candidates=[t.trace_id for t in traces], error_only=True)):
        ...                                    # streaming predicate query

Package map: :mod:`repro.model` (trace data model),
:mod:`repro.parsing` (the two-level commonality/variability parsers),
:mod:`repro.bloom` (Bloom filters), :mod:`repro.agent` /
:mod:`repro.backend` (the Mint runtime), :mod:`repro.framework` (the
deployable Mint framework), :mod:`repro.query` (the unified query
plane: specs, planner, cursors, the one result model),
:mod:`repro.baselines` (OT-Full/Head/Tail, Hindsight, Sieve),
:mod:`repro.compression`
(LogZip/LogReducer/CLP and Mint's lossless compressor),
:mod:`repro.rca` (MicroRank, TraceRCA, TraceAnomaly),
:mod:`repro.workloads` (OnlineBoutique, TrainTicket, Alibaba datasets),
:mod:`repro.sim` (meters, experiment and load-test harnesses),
:mod:`repro.transport` (the deployment plane), :mod:`repro.net` (the
simulated network plane: batching, chaos, reliable delivery),
:mod:`repro.verify` (the identity oracle every bit-identity gate diffs).
"""

from repro.agent.config import MintConfig
from repro.baselines.hindsight import Hindsight
from repro.baselines.otel import OTFull, OTHead, OTTail
from repro.baselines.sieve import Sieve
from repro.framework import MintFramework
from repro.model.span import Span, SpanKind, SpanStatus
from repro.model.trace import SubTrace, Trace
from repro.query import QueryCursor, QueryResult, QuerySpec, QueryStatus
from repro.transport import Deployment

__version__ = "1.0.0"

__all__ = [
    "MintConfig",
    "MintFramework",
    "Deployment",
    "OTFull",
    "OTHead",
    "OTTail",
    "Hindsight",
    "Sieve",
    "QueryCursor",
    "QueryResult",
    "QuerySpec",
    "QueryStatus",
    "Span",
    "SpanKind",
    "SpanStatus",
    "Trace",
    "SubTrace",
    "__version__",
]
