"""Obs suite: observation identity, registry overhead, detection panel.

Three claims the obs PR makes, each measured end to end:

* **identity** — observation changes nothing it observes.  The same
  deterministic stream is driven through obs-on and obs-off builds of
  each topology; the logical byte tables, the per-minute meter series
  and the full query signature must match bit for bit.  The
  instrumentation reads clocks and counts events — it never pumps the
  event scheduler — so any divergence is a seam violation, not noise.
* **overhead** — the full metrics registry is cheap enough to leave on.
  Best-of-N wall-clock repeats of the identical stream, obs-on over
  obs-off, on the single-backend build (the configuration with the
  least non-instrumentation work to hide behind).
* **detection panel** — the plane answers the question it exists for:
  how long from fault injection to the RCA suite naming the faulty
  service, per topology x chaos profile (the fig15-style panel, via
  :mod:`repro.sim.incident`).

Two obs-on runs of the same seeded stream must also produce identical
*deterministic* reports (wall durations stripped, counts kept) — the
replayability contract the test suite pins per component and this
bench pins end to end.

``--check`` gates:

* **identity** — any logical byte table, per-minute meter series or
  query signature differs between the obs-on and obs-off run of any
  topology (single, sharded, behind a lossless wire), or two identical
  obs-on runs disagree on the deterministic report;
* **overhead** — the full registry costs more than ``--max-overhead``
  over the obs-off build, best-of-``--repeats``;
* **panel** — the detection-latency panel covers fewer than two
  topologies or two chaos profiles, or any cell fails to detect the
  injected fault.  The panel runs twice — ``panel`` is the polling
  probe loop, ``panel_push`` the live plane's standing-subscription
  pager — and both flavours must detect in every cell.
"""

from __future__ import annotations

from typing import Any

from common import best_of, build_stream, only_workload, span_count

from repro.framework import MintFramework
from repro.net.transport import CHAOS_WIRE
from repro.obs import deterministic_report
from repro.sim.experiment import drive
from repro.sim.incident import (
    DEFAULT_PROFILES,
    DEFAULT_TOPOLOGIES,
    detection_latency_panel,
)
from repro.transport import Deployment
from repro.verify import compare_fingerprints, fingerprint

# Deployment factories for the identity sweep, parameterised on the
# observability switch: plain single, sharded, and single behind a
# batching wire (lossless — the wire whose obs-on/off equivalence must
# be exact; lossy wires are covered by the panel).
TOPOLOGIES = {
    "single": lambda obs: Deployment.single(observability=obs),
    "sharded-2": lambda obs: Deployment.sharded(2, observability=obs),
    "net-lossless": lambda obs: Deployment.single(network=CHAOS_WIRE, observability=obs),
}
DEFAULTS = {"traces": 400, "workloads": ["onlineboutique"], "repeats": 3, "seed": 11}
FLAGS = {
    "--topologies": dict(
        nargs="+", default=list(TOPOLOGIES), choices=list(TOPOLOGIES),
        help="identity-sweep topologies",
    ),
    "--panel-topologies": dict(
        nargs="+", default=list(DEFAULT_TOPOLOGIES),
        help="detection-panel topologies (single, sharded-N)",
    ),
    "--panel-profiles": dict(
        nargs="+", default=list(DEFAULT_PROFILES), help="detection-panel chaos profiles"
    ),
    "--panel-traces": dict(type=int, default=240),
    "--max-overhead": dict(
        type=float, default=1.05, help="gate: maximum obs-on/obs-off wall-clock ratio"
    ),
}
# What observation must not move: the figures, their series, the answers.
IDENTITY_KEYS = ("byte_tables", "meter_series", "query_signature")


def identity_cell(name: str, stream) -> dict[str, Any]:
    """Drive obs-on, obs-off and an obs-on replay; compare everything.

    The obs-on/off comparison is the no-perturbation gate; the obs-on
    replay pins the deterministic report (two identical seeded runs,
    bit-identical sim-domain snapshots).
    """
    on, off, replay = (
        MintFramework(deployment=TOPOLOGIES[name](obs)) for obs in (True, False, True)
    )
    for framework in (on, off, replay):
        drive(framework, stream)
    # Snapshot the replay pair *before* the fingerprint sweep below runs
    # queries against ``on`` — queries are themselves observed (query
    # counters, plan totals), so a post-sweep snapshot of ``on`` would
    # compare a queried run against an unqueried one.
    deterministic_replay = deterministic_report(on) == deterministic_report(replay)

    on_print = fingerprint(on, stream)
    violations = compare_fingerprints(
        fingerprint(off, stream), on_print, label="obs-on", keys=IDENTITY_KEYS
    )
    if not deterministic_replay:
        violations.append(
            "two identical obs-on runs produced different deterministic reports"
        )
    cell = {
        "topology": name,
        "identical": not violations,
        "deterministic_replay": deterministic_replay,
        "violations": violations,
        "byte_tables": on_print["byte_tables"],
        "counters": dict(on.observer.snapshot(deterministic=True)["counters"]),
    }
    for framework in (on, off, replay):
        framework.close()
    return cell


def measure_overhead(stream, repeats: int) -> dict[str, Any]:
    """Wall-clock cost of leaving the full registry on.

    Best-of-``repeats`` with a fresh framework per repeat, obs-off
    first.  Measured on the plain single-backend build: no wire, no
    shards — the configuration where instrumentation is the largest
    fraction of the work, so the ratio is the conservative one.
    """
    spans = span_count(stream)
    off_elapsed, _ = best_of(
        lambda: MintFramework(deployment=Deployment.single(observability=False)),
        stream,
        repeats,
    )
    on_elapsed, on_framework = best_of(
        lambda: MintFramework(deployment=Deployment.single(observability=True)),
        stream,
        repeats,
    )
    instruments = (
        len(list(on_framework.observer.registry.instruments()))
        if on_framework.observer.registry is not None
        else 0
    )
    return {
        "traces": len(stream),
        "spans": spans,
        "repeats": repeats,
        "obs_off_seconds": round(off_elapsed, 6),
        "obs_on_seconds": round(on_elapsed, 6),
        "overhead_ratio": round(on_elapsed / off_elapsed, 4) if off_elapsed else 0.0,
        "obs_on_spans_per_sec": round(spans / on_elapsed, 1) if on_elapsed else 0.0,
        "live_instruments": instruments,
    }


def measure(args) -> dict:
    """Identity sweep, overhead, and both detection-panel flavours."""
    workload = only_workload(args)
    report: dict = {
        "units": {
            "overhead_ratio": "obs-on wall seconds / obs-off wall seconds "
            "over the identical stream (best-of-repeats, fresh framework "
            "per repeat); 1.0 means observation is free",
            "detection_latency_s": "simulated seconds from the first "
            "faulty trace entering the system to the first probe whose "
            "RCA top-1 names the target service",
        },
        "identity": {},
    }
    # The same generator as the sharded suite, so obs numbers are
    # comparable to that suite's.
    stream = build_stream(workload, args.traces)
    for name in args.topologies:
        cell = report["identity"][name] = identity_cell(name, stream)
        print(
            f"identity {name:12s} "
            + ("bit-identical" if cell["identical"] else "VIOLATION: "
               + "; ".join(cell["violations"]))
        )

    overhead = report["overhead"] = measure_overhead(stream, args.repeats)
    print(
        f"overhead {overhead['overhead_ratio']:.4f}x "
        f"({overhead['obs_on_seconds']:.3f}s on / "
        f"{overhead['obs_off_seconds']:.3f}s off, "
        f"{overhead['live_instruments']} live instruments)"
    )

    # Both pager flavours over the identical grid: the polling loop and
    # the live plane's push subscription, so BENCH_obs records
    # detection latency side by side per cell.
    for key, probe_mode in (("panel", "poll"), ("panel_push", "push")):
        report[key] = [
            cell.as_dict()
            for cell in detection_latency_panel(
                workload_name=workload,
                topologies=tuple(args.panel_topologies),
                profiles=tuple(args.panel_profiles),
                num_traces=args.panel_traces,
                seed=args.seed,
                probe_mode=probe_mode,
            )
        ]
        for cell in report[key]:
            latency = cell["detection_latency_s"]
            print(
                f"panel[{probe_mode}] {cell['topology']:>10s} {cell['profile']:>9s} "
                f"target={cell['target_service']:<24s} "
                + (f"detected in {latency:.3f}s" if cell["detected"]
                   else "NOT DETECTED")
            )
    return report


def check(report: dict, args) -> list[str]:
    failures: list[str] = []
    for name, cell in report["identity"].items():
        if not cell["identical"]:
            failures.append(f"identity {name}: {'; '.join(cell['violations'])}")
    if len(report["identity"]) < 3:
        failures.append(
            f"identity sweep covers {len(report['identity'])} topologies, "
            "expected single + sharded + lossless-net"
        )
    ratio = report["overhead"].get("overhead_ratio", float("inf"))
    if ratio > args.max_overhead:
        failures.append(
            f"overhead: obs-on costs {ratio:.4f}x obs-off "
            f"(bound {args.max_overhead:.2f}x)"
        )
    for key in ("panel", "panel_push"):
        panel = report.get(key, [])
        topologies = {cell["topology"] for cell in panel}
        profiles = {cell["profile"] for cell in panel}
        if len(topologies) < 2 or len(profiles) < 2:
            failures.append(
                f"{key} covers {len(topologies)} topologies x {len(profiles)} "
                "profiles, expected at least 2 x 2"
            )
        for cell in panel:
            if not cell["detected"]:
                failures.append(
                    f"{key} {cell['topology']}/{cell['profile']}: fault on "
                    f"{cell['target_service']} never detected"
                )
    return failures
