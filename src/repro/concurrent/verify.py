"""The identity oracle.

The one place that defines what "bit-identical to the reference run"
means operationally, shared by every benchmark gate
(``benchmarks/perf/run.py <suite> --check``), the test suite and the
sim harnesses: fingerprint a driven framework, then diff two
fingerprints into a human-readable violation list.  A fingerprint
covers everything the paper's figures read —

* the fig02/fig11 byte tables (network/storage totals plus the
  pattern/Bloom/params storage split) — logical figures, the same on
  every topology;
* the merge layer's replicated pattern bytes (physical, zero unless
  sharded);
* the per-minute meter series behind the MB/min panels (totals can
  collide by accident; the time series cannot);
* per-shard ledger totals (charge *attribution*, not just sums);
* the full query signature — status per trace, plus exact span counts
  and partial segment shapes, so reconstruction equivalence is pinned
  span-for-span;
* the stored trace-id set.

Event counts are deliberately *not* fingerprinted: meters are
time-keyed byte sums, and the number of ``record`` calls that built a
bucket is an implementation detail the contract does not promise.

Not every pairing promises all of it: a sharded run's ledgers differ
from the single backend's by construction, and separated traffic may
shift a chaotic run's minute buckets.  Such callers pass
``compare_fingerprints`` the sections their contract covers instead of
building an oracle of their own.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable

from repro.query.result import QueryStatus

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.framework import MintFramework

#: The sections of a fingerprint, in the order violations are reported.
FINGERPRINT_KEYS = (
    "byte_tables",
    "replicated_pattern_bytes",
    "meter_series",
    "shard_ledgers",
    "query_signature",
    "stored_trace_ids",
)


def byte_tables(framework: "MintFramework") -> dict[str, int]:
    """The fig02/fig11 byte-table row for one driven framework."""
    storage = framework.backend.storage
    return {
        "network_bytes": framework.network_bytes,
        "storage_bytes": framework.storage_bytes,
        "pattern_bytes": storage.pattern_bytes,
        "bloom_bytes": storage.bloom_bytes,
        "params_bytes": storage.params_bytes,
    }


def meter_series(framework: "MintFramework") -> dict[str, list[tuple[int, int]]]:
    """Per-minute (minute, bytes) series for the MB/min panels."""
    return {
        "network": framework.ledger.network.per_minute_series(),
        "storage": framework.ledger.storage.per_minute_series(),
    }


def shard_ledger_totals(framework: "MintFramework") -> list[tuple[int, int]]:
    """(network, storage) totals per shard ledger — charge attribution."""
    return [
        (ledger.network.total_bytes, ledger.storage.total_bytes)
        for ledger in framework.shard_ledgers
    ]


def query_signature(
    framework: "MintFramework", trace_ids: Iterable[str]
) -> list[tuple[str, str]]:
    """(trace id, status detail) per trace.

    Statuses alone understate equivalence, so exact hits fold in the
    reconstructed span count and partial hits the segment shapes.
    """
    signature: list[tuple[str, str]] = []
    for result in framework.query_many(trace_ids):
        detail = str(result.status)
        if result.status is QueryStatus.EXACT and result.trace is not None:
            detail += f":{len(result.trace.spans)}"
        elif result.status is QueryStatus.PARTIAL and result.approximate is not None:
            detail += ":" + ",".join(
                f"{seg.topo_pattern_id}/{seg.span_count}"
                for seg in result.approximate.segments
            )
        signature.append((result.trace_id, detail))
    return signature


def fingerprint(framework: "MintFramework", stream: list) -> dict[str, Any]:
    """Everything the invariance contract promises, in one dict.

    ``stream`` is the driven (timestamp, trace) list — the query sweep
    covers every trace in it.  Run after ``finalize``; the sweep itself
    is read-only (no retroactive pull), so fingerprinting does not
    perturb what it measures.
    """
    merged = getattr(framework.backend, "merged", None)
    return {
        "byte_tables": byte_tables(framework),
        "replicated_pattern_bytes": merged.replicated_pattern_bytes() if merged else 0,
        "meter_series": meter_series(framework),
        "shard_ledgers": shard_ledger_totals(framework),
        "query_signature": query_signature(
            framework, [trace.trace_id for _, trace in stream]
        ),
        "stored_trace_ids": sorted(framework.stored_trace_ids()),
    }


def compare_fingerprints(
    reference: dict[str, Any],
    candidate: dict[str, Any],
    label: str = "candidate",
    keys: Iterable[str] = FINGERPRINT_KEYS,
) -> list[str]:
    """Diff two fingerprints into violation strings (empty == identical).

    ``keys`` restricts the diff to the named sections.
    """
    keys = set(keys)
    unknown = keys - set(FINGERPRINT_KEYS)
    if unknown:
        raise ValueError(f"unknown fingerprint sections {sorted(unknown)}")
    violations: list[str] = []
    if "byte_tables" in keys:
        for key, ref_value in reference["byte_tables"].items():
            got = candidate["byte_tables"].get(key)
            if got != ref_value:
                violations.append(f"{label}: {key} {got} != reference {ref_value}")
    if "replicated_pattern_bytes" in keys:
        got, want = candidate["replicated_pattern_bytes"], reference["replicated_pattern_bytes"]
        if got != want:
            violations.append(f"{label}: replicated_pattern_bytes {got} != reference {want}")
    if "meter_series" in keys:
        for meter, ref_series in reference["meter_series"].items():
            if candidate["meter_series"].get(meter) != ref_series:
                violations.append(f"{label}: {meter} per-minute series diverges")
    if "shard_ledgers" in keys and candidate["shard_ledgers"] != reference["shard_ledgers"]:
        violations.append(f"{label}: per-shard ledger totals diverge")
    if "query_signature" in keys and candidate["query_signature"] != reference["query_signature"]:
        diverged = sum(
            1
            for ours, theirs in zip(
                candidate["query_signature"], reference["query_signature"]
            )
            if ours != theirs
        )
        violations.append(
            f"{label}: query signature diverges on {diverged} trace(s)"
        )
    if "stored_trace_ids" in keys and (
        candidate["stored_trace_ids"] != reference["stored_trace_ids"]
    ):
        violations.append(f"{label}: stored trace-id set diverges")
    return violations
