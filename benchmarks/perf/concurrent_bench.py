"""Concurrent suite: worker-count invariance and the scaling curve.

One measurement = one workload's deterministic stream pushed through a
parallel deployment (worker lanes + single-writer apply barrier) at a
given (topology, lane mode, worker count), wall-clocked end to end.
The same topology at ``workers=0`` — the classic single-threaded loop —
is the reference: spans/sec ratios give the scaling curve, and the
reference's fingerprint (byte tables, meter series, shard ledgers,
query signature, stored-trace set; see
:mod:`repro.concurrent.verify`) is the oracle every parallel run must
match bit for bit.

``--check`` gates: no parallel run diverges from its sequential
reference; the single-worker thread lane costs at most
``--max-overhead`` wall-clock vs sequential; and — **only when the
machine can physically show it** (``cpu_count >= --min-cores``) —
process lanes at >= 4 workers reach ``--min-speedup`` over one worker.
Scaling context matters and is recorded rather than assumed: thread
lanes only scale on free-threaded builds (the GIL serialises parsing
otherwise), process lanes scale with physical cores, and a 2-vCPU
shared runner cannot exhibit 4-way parallelism — a gate that ignored
that would only test the scheduler.  The report's ``config`` always
records ``cpu_count`` so every archived number carries its context.
"""

from __future__ import annotations

from common import best_of, build_stream, per_second, span_count

from repro.concurrent.verify import compare_fingerprints, fingerprint
from repro.framework import MintFramework
from repro.transport import Deployment

DEFAULTS = {
    "traces": 400,
    "warmup_traces": 100,
    "workloads": ["trainticket"],
    "repeats": 3,
}
FLAGS = {
    "--workers": dict(
        type=int, nargs="+", default=[1, 2, 4, 8], help="worker counts to sweep"
    ),
    "--modes": dict(
        nargs="+", default=["thread", "process"], choices=["thread", "process"],
        help="lane modes to sweep",
    ),
    "--shards": dict(
        type=int, default=4,
        help="shard count of the sharded topology (0 = single backend only)",
    ),
    "--ingest-epoch": dict(type=int, default=32),
    "--max-overhead": dict(
        type=float, default=1.8, help="gate: one thread lane / sequential wall-clock bound"
    ),
    "--min-speedup": dict(
        type=float, default=2.0,
        help="gate: process-lane speedup floor at >= 4 workers (when armed)",
    ),
    "--min-cores": dict(
        type=int, default=4, help="usable cores below which the speedup gate is report-only"
    ),
}


def _deployment(num_shards: int, workers: int, mode: str, epoch: int) -> Deployment:
    if num_shards > 0:
        return Deployment.sharded(
            num_shards, workers=workers, worker_mode=mode, ingest_epoch=epoch
        )
    return Deployment.single(workers=workers, worker_mode=mode, ingest_epoch=epoch)


def measure_concurrent(
    workload_name: str,
    stream,
    topologies: tuple[int, ...],
    worker_counts,
    modes,
    warmup_traces: int,
    ingest_epoch: int,
    repeats: int,
) -> tuple[list[dict], list[dict]]:
    """Sweep every (topology, mode, workers) cell over one stream.

    ``topologies`` lists shard counts (0 = the single backend).  Each
    topology contributes its own sequential reference (``workers=0``),
    so verdicts isolate exactly what the concurrent plane changes.
    Returns the BENCH_concurrent cells and their invariance verdicts.
    """
    spans = span_count(stream)
    cells: list[dict] = []
    verdicts: list[dict] = []
    for num_shards in topologies:
        topology = "single" if num_shards == 0 else f"sharded{num_shards}"

        def timed(mode: str, workers: int, num_shards=num_shards):
            elapsed, framework = best_of(
                lambda: MintFramework(
                    auto_warmup_traces=warmup_traces,
                    deployment=_deployment(num_shards, workers, mode, ingest_epoch),
                ),
                stream,
                repeats,
            )
            run_print = fingerprint(framework, stream)
            framework.close()
            return elapsed, run_print

        def cell(mode: str, workers: int, elapsed: float, speedup: float) -> dict:
            return {
                "workload": workload_name,
                "topology": topology,
                "mode": mode,
                "workers": workers,
                "traces": len(stream),
                "spans": spans,
                "elapsed_seconds": round(elapsed, 6),
                "spans_per_sec": round(per_second(spans, elapsed), 1),
                # vs the same topology's sequential reference
                "speedup": round(speedup, 3),
            }

        ref_elapsed, ref_print = timed("thread", 0)
        cells.append(cell("sequential", 0, ref_elapsed, 1.0))
        for mode in modes:
            for workers in worker_counts:
                elapsed, run_print = timed(mode, workers)
                violations = compare_fingerprints(
                    ref_print, run_print, label=f"{topology}/{mode}/workers={workers}"
                )
                speedup = ref_elapsed / elapsed if elapsed > 0 else 0.0
                cells.append(cell(mode, workers, elapsed, speedup))
                verdicts.append(
                    {
                        "topology": topology,
                        "mode": mode,
                        "workers": workers,
                        "identical": not violations,
                        "violations": violations,
                    }
                )
    return cells, verdicts


def measure(args) -> dict:
    """Every cell of every workload."""
    report: dict = {
        "units": {
            "spans_per_sec": "spans through the full pipeline per wall-clock "
            "second (warm-up + ingest + finalize, parallel lanes included)",
            "speedup": "same-topology sequential elapsed / parallel elapsed "
            "(1.0 = parity; > 1 = the lanes helped)",
        },
        "workloads": {},
        "invariance": {},
    }
    topologies = (0, args.shards) if args.shards > 0 else (0,)
    for name in args.workloads:
        cells, verdicts = measure_concurrent(
            name,
            build_stream(name, args.traces),
            topologies,
            args.workers,
            args.modes,
            args.warmup_traces,
            args.ingest_epoch,
            args.repeats,
        )
        report["workloads"][name] = cells
        report["invariance"][name] = verdicts
        for c in cells:
            lanes = "sequential:" if c["workers"] == 0 else f"{c['mode']:7s} x{c['workers']}:"
            line = f"{name:14s} {c['topology']:9s} {lanes} {c['spans_per_sec']:>9.0f} spans/s"
            print(line if c["workers"] == 0 else f"{line} ({c['speedup']:.2f}x)")
    return report


def check(report: dict, args) -> list[str]:
    failures: list[str] = []
    for name, verdicts in report["invariance"].items():
        for verdict in verdicts:
            if not verdict["identical"]:
                failures.append(
                    f"{name} {verdict['topology']}/{verdict['mode']}"
                    f"/x{verdict['workers']}: " + "; ".join(verdict["violations"])
                )
    cores = report["config"]["cpu_count"]
    gate_speedup = cores >= args.min_cores
    for name, cells in report["workloads"].items():
        for cell in cells:
            if cell["mode"] == "thread" and cell["workers"] == 1:
                if cell["speedup"] < 1.0 / args.max_overhead:
                    failures.append(
                        f"{name} {cell['topology']}: one thread lane runs "
                        f"{1.0 / cell['speedup']:.2f}x slower than sequential "
                        f"(allowed {args.max_overhead:.2f}x)"
                    )
            if (
                gate_speedup
                and cell["mode"] == "process"
                and cell["workers"] >= 4
                and cell["speedup"] < args.min_speedup
            ):
                failures.append(
                    f"{name} {cell['topology']}: process lanes x"
                    f"{cell['workers']} reached only {cell['speedup']:.2f}x "
                    f"(need {args.min_speedup:.2f}x on {cores} cores)"
                )
    if not gate_speedup:
        print(
            f"note: {cores} usable core(s) < {args.min_cores}; scaling "
            "recorded but not gated (invariance is always gated)"
        )
    return failures
