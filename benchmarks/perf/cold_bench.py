"""Cold suite: seal transparency and the storage-ratio table.

One cell = one (workload, deployment) pair.  The deterministic stream
is ingested twice — once into a never-sealed reference, once into a
twin that compacts mid-stream and again after finalize (so its store
holds sealed segments from both halves plus a hot tail) — and the
Fig. 12-style query stream is answered by both:

* **transparency** — every point lookup and one ``query_many`` cursor
  over the sealed twin must be *bit-identical* to the reference:
  same status, same reconstructed spans, same approximate segments;
  and the logical byte tables (fig02/fig11) must not move by a byte.
  Compression is confined to the physical side of the storage split.
* **ratio** — after a final full-seal pass, the end-to-end storage
  ratio ``corpus raw bytes / physical storage bytes`` is tabled
  against the log-compressor baselines (CLP, LogZip, LogReducer) over
  the same corpus, alongside the trained-dictionary vs plain-codec
  sealed sizes.

Compaction and baseline wall seconds and the compaction throughput are
machine-bound, so they live in the ``timing`` section
(:data:`WALL_CLOCK`), which ``run.py`` leaves out of the committed
``BENCH_cold.json``; no gate reads them.

``--check`` gates:

* **transparency** — any point lookup or ``query_many`` answer over
  the sealed store differs from the never-sealed reference, or a
  logical byte table moves by a byte (compression must stay confined
  to the physical side of the storage split), or the logical tables
  diverge across deployments;
* **compression** — sealing saved no physical bytes, or the trained
  dictionary does not beat the same codec without a dictionary on the
  sealed params blocks;
* **ratio** — the end-to-end storage ratio (corpus raw bytes over
  physical storage bytes) falls below the best of CLP, LogZip and
  LogReducer on any workload.
"""

from __future__ import annotations

import time
from typing import Any

from query_bench import DEPLOYMENTS, build_query_stream, result_signature

from repro.cold import ColdPolicy, CompactionStats
from repro.cold.blocks import PARAMS_KIND, encode_params_payload
from repro.compression import (
    CLPCompressor,
    LogReducerCompressor,
    LogZipCompressor,
    corpus_raw_bytes,
)
from repro.framework import MintFramework
from repro.model.trace import Trace
from repro.sim.experiment import drive
from repro.verify import byte_tables
from repro.workloads import WORKLOAD_BUILDERS

DEFAULTS = {"traces": 400, "warmup_traces": 100, "workloads": list(WORKLOAD_BUILDERS)}
FLAGS = {
    "--deployments": dict(
        nargs="+", default=["single", "sharded-4"], choices=["single", "sharded-2", "sharded-4"],
        help="deployment topologies to sweep",
    ),
}
WALL_CLOCK = ("timing",)
#: Hot tail kept through the query sweep so lookups straddle segments.
KEEP_HOT = 8


def drive_sealed(
    framework: MintFramework, stream: list[tuple[float, Trace]]
) -> list[CompactionStats]:
    """Ingest with a mid-stream compaction plus a straddling tail seal."""
    parts: list[CompactionStats] = []
    midpoint = len(stream) // 2
    last_now = 0.0
    for index, (now, trace) in enumerate(stream):
        if index == midpoint:
            parts.extend(framework.compact(ColdPolicy()))
        framework.process_trace(trace, now)
        last_now = now
    framework.finalize(last_now)
    parts.extend(
        framework.compact(
            ColdPolicy(keep_hot_traces=KEEP_HOT, keep_hot_blooms=KEEP_HOT)
        )
    )
    return parts


def measure_deployment(
    workload_name: str,
    deployment_name: str,
    stream: list[tuple[float, Trace]],
    queries: list[str],
    warmup_traces: int,
) -> tuple[dict[str, Any], dict[str, float], MintFramework, dict[str, int]]:
    """One transparency + ratio cell.

    Returns one (workload, deployment) cell of BENCH_cold.json, its
    wall-clock ``timing`` row, the (fully sealed) framework, and the
    sealed twin's logical byte tables.
    """
    def fresh() -> MintFramework:
        return MintFramework(
            deployment=DEPLOYMENTS[deployment_name], auto_warmup_traces=warmup_traces
        )

    violations: list[str] = []
    reference, sealed = fresh(), fresh()
    drive(reference, stream)
    parts = drive_sealed(sealed, stream)

    # --- transparency: point lookups across seal boundaries ---
    for trace_id in queries:
        want = result_signature(reference.query(trace_id))
        got = result_signature(sealed.query(trace_id))
        if got != want:
            violations.append(
                f"point lookup diverges across a seal boundary for "
                f"trace {trace_id}"
            )
            break

    # --- transparency: one batch cursor over the whole stream ---
    want_batch = [result_signature(r) for r in reference.query_many(queries).all()]
    got_batch = [result_signature(r) for r in sealed.query_many(queries).all()]
    if got_batch != want_batch:
        violations.append("query_many diverges across seal boundaries")

    # --- transparency: the logical rulers must not move ---
    reference_tables = byte_tables(reference)
    sealed_tables = byte_tables(sealed)
    if sealed_tables != reference_tables:
        violations.append(
            f"logical byte tables moved under sealing "
            f"({sealed_tables} != {reference_tables})"
        )

    # --- ratio: final full seal, then the storage split ---
    parts.extend(sealed.compact(ColdPolicy()))
    merged = CompactionStats.merge([p for p in parts if p.blocks])
    logical = sealed.storage_bytes
    physical = sealed.physical_storage_bytes
    raw = corpus_raw_bytes([trace for _, trace in stream])
    compaction = merged.as_dict()
    timing = {
        "elapsed_seconds": compaction.pop("elapsed_seconds"),
        "throughput_mb_s": compaction.pop("throughput_mb_s"),
    }
    cell = {
        "workload": workload_name,
        "deployment": deployment_name,
        "queries": len(queries),
        "identical": not violations,
        "logical_bytes": logical,
        "physical_bytes": physical,
        "savings_bytes": logical - physical,
        "end_to_end_ratio": round(raw / physical if physical else 0.0, 3),
        "sealed_ratio": round(merged.ratio, 3),
        "compaction": compaction,
        "cold": sealed.cold_stats(),
        "violations": violations,
    }
    return cell, timing, sealed, sealed_tables


def trained_vs_plain(framework: MintFramework) -> dict[str, Any]:
    """Sealed params bytes with the trained dictionary vs without.

    Decodes every sealed params block, recompresses its canonical
    payload with the same codec but no dictionary, and compares totals
    (the trained side carries the dictionary itself, for honesty).
    """
    trained = plain = dict_bytes = 0
    for engine in framework.backend.storage_engines():
        tier = engine.cold
        ids = tier.block_ids(PARAMS_KIND)
        if not ids:
            continue
        dict_bytes += tier.dict_bytes
        for block_id in ids:
            block = tier.block(block_id)
            raw = encode_params_payload(tier.decode(block_id))
            trained += len(block.payload)
            plain += len(tier.codec.compress(raw))
    return {
        "trained_bytes": trained + dict_bytes,
        "plain_bytes": plain,
        "dict_bytes": dict_bytes,
        "improvement": round(plain / (trained + dict_bytes), 3)
        if trained + dict_bytes
        else 0.0,
    }


def baseline_ratios(
    stream: list[tuple[float, Trace]],
) -> tuple[dict[str, Any], dict[str, float]]:
    """CLP/LogZip/LogReducer over the same corpus (Table 4 style), and
    each compressor's wall seconds."""
    traces = [trace for _, trace in stream]
    out: dict[str, Any] = {"raw_bytes": corpus_raw_bytes(traces)}
    elapsed: dict[str, float] = {}
    for compressor in (CLPCompressor(), LogZipCompressor(), LogReducerCompressor()):
        started = time.perf_counter()
        result = compressor.compress(traces)
        elapsed[compressor.name] = round(time.perf_counter() - started, 6)
        out[compressor.name] = {
            "compressed_bytes": result.compressed_bytes,
            "ratio": round(result.ratio, 3),
        }
    return out, elapsed


def measure(args) -> dict:
    """Every (workload, deployment) cell plus the baselines' table."""
    report: dict = {
        "units": {
            "end_to_end_ratio": "corpus raw bytes / physical storage bytes "
            "after a full seal (higher is better; the baselines' ratio "
            "divides the same numerator by their compressed bytes)",
            "sealed_ratio": "logical store-time charges / compressed block "
            "bytes over the sealed segments alone",
            "throughput_mb_s": "logical MB sealed per second of compaction "
            "wall clock",
            "trained_vs_plain": "sealed params bytes with the trained "
            "dictionary (dictionary included) vs the same codec without "
            "one; improvement > 1.0 means the dictionary pays for itself",
        },
        "workloads": {},
        "byte_tables": {},
        "baselines": {},
        "trained_vs_plain": {},
        "timing": {},
    }
    for name in args.workloads:
        stream, queries = build_query_stream(name, args.traces)
        report["baselines"][name], baseline_seconds = baseline_ratios(stream)
        timings = report["timing"][name] = {
            "baseline_seconds": baseline_seconds,
            "compaction": {},
        }
        cells = report["workloads"][name] = {}
        tables = report["byte_tables"][name] = {}
        for depl_name in args.deployments:
            cell, timing, framework, sealed_tables = measure_deployment(
                name, depl_name, stream, queries, args.warmup_traces
            )
            cells[depl_name] = cell
            timings["compaction"][depl_name] = timing
            tables[depl_name] = sealed_tables
            if depl_name == args.deployments[0]:
                report["trained_vs_plain"][name] = trained_vs_plain(framework)
            print(
                f"{name:16s} {depl_name:12s} "
                f"ratio: {cell['end_to_end_ratio']:>7.2f}x  "
                f"sealed: {cell['sealed_ratio']:>5.2f}x  "
                f"compaction: {timing['throughput_mb_s']:>6.2f} MB/s"
                + ("" if cell["identical"] else "  IDENTITY-VIOLATION")
            )
    return report


def check(report: dict, args) -> list[str]:
    failures: list[str] = []
    for workload, cells in report["workloads"].items():
        best_baseline = max(
            entry["ratio"]
            for entry in report["baselines"][workload].values()
            if isinstance(entry, dict)
        )
        reference_tables = None
        for depl_name, cell in cells.items():
            label = f"{workload} {depl_name}"
            if not cell["identical"]:
                failures.append(f"{label}: {'; '.join(cell['violations'])}")
            if cell["savings_bytes"] <= 0:
                failures.append(
                    f"{label}: sealing saved no physical bytes "
                    f"({cell['physical_bytes']} physical vs "
                    f"{cell['logical_bytes']} logical)"
                )
            if cell["end_to_end_ratio"] < best_baseline:
                failures.append(
                    f"{label}: end-to-end ratio {cell['end_to_end_ratio']:.2f}x "
                    f"below the best log-compressor baseline "
                    f"({best_baseline:.2f}x)"
                )
            tables = report["byte_tables"][workload][depl_name]
            if reference_tables is None:
                reference_tables = tables
            elif tables != reference_tables:
                failures.append(
                    f"{label}: logical byte tables diverge across "
                    f"deployments ({tables} != {reference_tables})"
                )
        trained = report["trained_vs_plain"][workload]
        if trained["trained_bytes"] >= trained["plain_bytes"]:
            failures.append(
                f"{workload}: trained dictionary did not beat the plain "
                f"codec ({trained['trained_bytes']} vs "
                f"{trained['plain_bytes']} bytes)"
            )
    return failures
