"""Query suite: the query plane's bit-identity and batch amortisation.

One cell = one (workload, deployment) pair: the deterministic stream is
ingested once, then a Fig. 12-style query stream (biased-but-
unpredictable draws from the day's request log) is answered three ways
and cross-checked:

* **reference** — the pre-redesign path: the backend's live
  :class:`~repro.backend.querier.Querier` (the merged-view querier on
  sharded deployments), called id by id;
* **point** — the new API's point lookups
  (``QueryEngine.query``), which must be *bit-identical* to the
  reference: same status, same reconstructed spans, same approximate
  segments, for every id, on every deployment topology;
* **batch** — one ``query_many`` cursor over the whole stream, which
  must yield the identical result sequence through the same
  pre-screened lookup, serving repeated ids from its plan memo (the
  throughput gate: batch >= looped point lookups, with the Bloom
  pre-screen verifiably pruning shard probes on sharded runs).

Byte tables (fig02/fig11) are read after the query sweeps and checked
identical across deployments — querying must never move a meter.

``--check`` gates:

* **bit-identity** — new-API point lookups differ from the reference
  querier's answers (status, reconstructed spans, approximate
  segments) on any deployment, or ``query_many`` differs from the
  looped lookups, or the fig02/fig11 byte tables differ across
  deployments;
* **batch throughput** — ``query_many`` is slower than looped
  point lookups (``--min-batch-speedup``);
* **pre-screen pushdown** — a sharded run's batch plan pruned zero
  stored-filter probes (the OR'd Bloom pre-screen must demonstrably
  fire);
* **predicate contract** — the declarative incident query yields a
  non-hit or an out-of-window candidate.

The report keeps what is deterministic (identity cells, hit breakdown,
plan counters, byte tables, predicate smoke) apart from the wall-clock
``timing`` section (:data:`WALL_CLOCK`), which ``run.py`` leaves out of
the committed ``BENCH_query.json`` — q/s and speedups live in the CI
artifact and ``benchmarks/results/bench_trajectory.md``.
"""

from __future__ import annotations

import time
from typing import Any

from common import per_second

from repro.analysis.metrics import hit_breakdown
from repro.framework import MintFramework
from repro.model.trace import Trace
from repro.net.transport import NetworkDescriptor
from repro.query.result import QueryResult
from repro.sim.experiment import drive, generate_stream
from repro.transport import Deployment
from repro.verify import byte_tables
from repro.workloads import WORKLOAD_BUILDERS
from repro.workloads.queries import QueryWorkload, TraceRecord, incident_window_spec

# The gate's topology sweep: single, sharded 1/2/4, lossless net.
DEPLOYMENTS: dict[str, Deployment] = {
    "single": Deployment.single(),
    "sharded-1": Deployment.sharded(1),
    "sharded-2": Deployment.sharded(2),
    "sharded-4": Deployment.sharded(4),
    "net-lossless": Deployment.single(network=NetworkDescriptor.lossless()),
}
DEFAULTS = {
    "traces": 400,
    "warmup_traces": 100,
    "workloads": ["onlineboutique", "trainticket"],
    "repeats": 3,
}
# Report sections that hold wall-clock numbers (not committed).
WALL_CLOCK = ("timing",)
FLAGS = {
    "--deployments": dict(
        nargs="+", default=list(DEPLOYMENTS), choices=list(DEPLOYMENTS),
        help="deployment topologies to sweep",
    ),
    "--min-batch-speedup": dict(
        type=float, default=1.0, help="gate: query_many speedup over looped point lookups"
    ),
}


def build_query_stream(
    workload_name: str, num_traces: int, seed: int = 17
) -> tuple[list[tuple[float, Trace]], list[str]]:
    """One deterministic stream plus its Fig. 12-style query id draw."""
    workload = WORKLOAD_BUILDERS[workload_name]()
    stream, targets = generate_stream(
        workload, num_traces, abnormal_rate=0.02, seed=seed
    )
    records = [
        TraceRecord(
            trace_id=trace.trace_id,
            timestamp=now,
            is_abnormal=trace.trace_id in targets,
        )
        for now, trace in stream
    ]
    queries = QueryWorkload(abnormal_bias=0.6, seed=seed ^ 0x5A).sample_queries(
        records, len(records)
    )
    return stream, queries


def result_signature(result: QueryResult) -> tuple:
    """Everything the bit-identity gate compares, per answer.

    Statuses, reconstructed spans (dataclass equality — every field,
    attributes included) and approximate segments (pattern ids,
    reporting nodes, rendered span views, entry/exit ops).
    """
    return (result.trace_id, result.status, result.trace, result.approximate)


def measure_deployment(
    workload_name: str,
    deployment_name: str,
    stream: list[tuple[float, Trace]],
    queries: list[str],
    warmup_traces: int,
    repeats: int,
) -> tuple[dict[str, Any], dict[str, Any], MintFramework]:
    """Ingest once, then run the three-way query sweep and the timing.

    Returns one (workload, deployment) cell of BENCH_query.json (the
    deterministic half), its wall-clock ``timing`` row, and the driven
    framework (for byte tables and the predicate smoke).
    """
    framework = MintFramework(
        deployment=DEPLOYMENTS[deployment_name], auto_warmup_traces=warmup_traces
    )
    drive(framework, stream)
    violations: list[str] = []

    # --- bit-identity: new point lookups vs the reference querier ---
    reference = [framework.backend.querier.query(tid) for tid in queries]
    point = [framework.query(tid) for tid in queries]
    for ref, new in zip(reference, point):
        if result_signature(ref) != result_signature(new):
            violations.append(
                f"point lookup diverges from reference querier for "
                f"trace {ref.trace_id}"
            )
            break

    # --- bit-identity: one batch cursor vs the looped lookups ---
    cursor = framework.query_many(queries)
    batch = cursor.all()
    if len(batch) != len(point):
        violations.append(
            f"query_many yielded {len(batch)} results for {len(point)} ids"
        )
    else:
        for one, many in zip(point, batch):
            if result_signature(one) != result_signature(many):
                violations.append(
                    f"query_many diverges from point lookups for "
                    f"trace {one.trace_id}"
                )
                break

    # --- throughput: looped point lookups vs one amortised batch ---
    point_elapsed = min(
        _timed(lambda: [framework.query(tid) for tid in queries])
        for _ in range(repeats)
    )
    batch_elapsed = min(
        _timed(lambda: framework.query_many(queries).all())
        for _ in range(repeats)
    )

    count = len(queries)
    cell = {
        "workload": workload_name,
        "deployment": deployment_name,
        "queries": count,
        "hits": hit_breakdown(result.status for result in batch),
        # Batch plan counters: the pre-screen pruning gate reads these.
        "plan": cursor.stats.as_dict(),
        "identical": not violations,
        "violations": violations,
    }
    timing = {
        "point_elapsed_seconds": round(point_elapsed, 6),
        "batch_elapsed_seconds": round(batch_elapsed, 6),
        "point_qps": round(per_second(count, point_elapsed), 1),
        "batch_qps": round(per_second(count, batch_elapsed), 1),
        "batch_speedup": round(point_elapsed / batch_elapsed if batch_elapsed > 0 else 0.0, 3),
    }
    return cell, timing, framework


def _timed(thunk) -> float:
    started = time.perf_counter()
    thunk()
    return time.perf_counter() - started


def predicate_smoke(
    framework: MintFramework,
    stream: list[tuple[float, Trace]],
) -> dict[str, Any]:
    """Declarative incident queries over the stream's middle window.

    Exercises the predicate path end to end (candidate pushdown, span
    predicates, streaming) and checks the contract *non-vacuously*:
    the service query targets the stream's most common service, so it
    must match something — a regression that rejects every predicate
    cannot hide behind an empty-but-"all-passing" result list.  The
    error query's match count is recorded alongside (it may be small
    on reduced streams).
    """
    records = [
        TraceRecord(trace_id=t.trace_id, timestamp=now, is_abnormal=False)
        for now, t in stream
    ]
    lo = stream[len(stream) // 4][0]
    hi = stream[(3 * len(stream)) // 4][0]
    service_counts: dict[str, int] = {}
    for _, trace in stream:
        for service in trace.services:
            service_counts[service] = service_counts.get(service, 0) + 1
    top_service = max(sorted(service_counts), key=service_counts.get)

    service_spec = incident_window_spec(records, lo, hi, service=top_service)
    service_hits = framework.execute(service_spec).all()
    service_candidates = set(service_spec.trace_ids)
    service_ok = bool(service_hits) and all(
        r.is_hit and r.trace_id in service_candidates for r in service_hits
    )

    error_spec = incident_window_spec(records, lo, hi, error_only=True)
    error_hits = framework.execute(error_spec).all()
    error_candidates = set(error_spec.trace_ids)
    error_ok = all(
        r.is_hit and r.trace_id in error_candidates for r in error_hits
    )
    return {
        "service_spec": service_spec.describe(),
        "service": top_service,
        "candidates": len(service_spec.trace_ids),
        "service_matched": len(service_hits),
        "error_matched": len(error_hits),
        "contract_ok": service_ok and error_ok,
    }


def measure(args) -> dict:
    """Every (workload, deployment) cell."""
    report: dict = {
        "units": {
            "point_qps": "new-API point lookups per second (looped)",
            "batch_qps": "queries per second through one query_many cursor",
            "batch_speedup": "point elapsed / batch elapsed over the same "
            "ids (>= 1.0 means batching amortises)",
            "plan": "batch plan counters: stored-filter probes made vs "
            "pruned by the Bloom pre-screen pushdown",
        },
        "workloads": {},
        "timing": {},
        "byte_tables": {},
        "predicate": {},
    }
    for name in args.workloads:
        stream, queries = build_query_stream(name, args.traces)
        cells = report["workloads"][name] = {}
        tables = report["byte_tables"][name] = {}
        timings = report["timing"][name] = {}
        for depl_name in args.deployments:
            cell, timing, framework = measure_deployment(
                name, depl_name, stream, queries, args.warmup_traces, args.repeats
            )
            cells[depl_name] = cell
            timings[depl_name] = timing
            tables[depl_name] = byte_tables(framework)
            if depl_name == args.deployments[0]:
                report["predicate"][name] = predicate_smoke(framework, stream)
            print(
                f"{name:16s} {depl_name:12s} "
                f"point: {timing['point_qps']:>8.0f} q/s  "
                f"batch: {timing['batch_qps']:>8.0f} q/s "
                f"({timing['batch_speedup']:.2f}x)  "
                f"pruned: {cell['plan']['filters_pruned']}"
                + ("" if cell["identical"] else "  IDENTITY-VIOLATION")
            )
    return report


def check(report: dict, args) -> list[str]:
    failures: list[str] = []
    for workload, cells in report["workloads"].items():
        reference_tables = None
        for depl_name, cell in cells.items():
            label = f"{workload} {depl_name}"
            if not cell["identical"]:
                failures.append(f"{label}: {'; '.join(cell['violations'])}")
            # Absent from the committed report; every fresh run has it.
            timing = report.get("timing", {}).get(workload, {}).get(depl_name)
            if timing and timing["batch_speedup"] < args.min_batch_speedup:
                failures.append(
                    f"{label}: batch speedup {timing['batch_speedup']:.2f}x < "
                    f"required {args.min_batch_speedup:.2f}x"
                )
            if depl_name.startswith("sharded") and cell["plan"]["filters_pruned"] <= 0:
                failures.append(
                    f"{label}: Bloom pre-screen pruned no shard probes "
                    "(pushdown did not fire)"
                )
            tables = report["byte_tables"][workload][depl_name]
            if reference_tables is None:
                reference_tables = tables
            elif tables != reference_tables:
                failures.append(
                    f"{label}: byte tables diverge across deployments "
                    f"({tables} != {reference_tables})"
                )
    for workload, smoke in report["predicate"].items():
        if not smoke["contract_ok"]:
            failures.append(f"{workload}: predicate query contract violated")
    return failures
