"""Live suite: subscription identity, meter separation, analyst storms.

Three claims the live analyst plane makes, each measured end to end:

* **identity** — a standing query accumulates, over the stream,
  exactly the hit set its spec yields as a post-hoc batch query.  A
  panel of subscriptions (error predicate, service predicate, explicit
  batch ids, a time window) rides the identical deterministic stream
  on every topology — single, sharded, and behind a lossy wire — and
  each accumulated hit set (ids *and* delivered statuses) must match
  the batch answer bit for bit.
* **separation** — push traffic is confined to the ``push`` meter.
  The same stream is driven with and without subscriptions; the
  fig02/fig11 byte tables, the per-minute network series and the full
  query signature must be bit-identical between the two runs, while
  the subscribed run's push meter is the only thing that moved.
* **storm** — the plane holds up under analyst load: the
  :mod:`repro.sim.storm` harness fires a seeded ≥1000-QPS query storm
  mid-ingest (wire latency included in every reported percentile) and
  must leave the run's fingerprint bit-identical to a quiet control.

``--check`` gates:

* **identity** — any subscription's accumulated hit set (ids or
  delivered statuses) differs from its spec's post-hoc batch answer on
  any topology (single, sharded, behind a *lossy* wire), or no
  topology streamed a push mid-ingest (everything settling at finalize
  would make the plane a batch query in disguise);
* **separation** — any fig02/fig11 byte table, per-minute meter
  series or query signature moved between the subscribed run and its
  subscription-free control, or push traffic failed to land on (and
  only on) the ``push`` meter;
* **storm** — the storm harness fell short of the target analyst QPS
  in simulated time, the host could not have executed the queries at
  that rate (wall capacity), the reported percentiles exclude the
  wire, or the storm run's fingerprint diverged from the quiet
  control's.

The storm's executed-query percentiles, total execution seconds and
wall capacity are machine-bound, so they live in the ``timing``
section (:data:`WALL_CLOCK`), which ``run.py`` leaves out of the
committed ``BENCH_live.json``; the wire percentiles, simulated QPS,
statuses and identity cells stay.
"""

from __future__ import annotations

from collections import Counter
from typing import Any

from common import build_stream, only_workload

from repro.framework import MintFramework
from repro.net.chaos import CHAOS_PROFILES
from repro.net.transport import CHAOS_WIRE
from repro.query.spec import QuerySpec
from repro.sim.experiment import drive
from repro.sim.storm import CONVERGENCE_KEYS, run_storm
from repro.transport import Deployment
from repro.verify import compare_fingerprints, fingerprint

# Deployment factories for the identity sweep — the acceptance gate's
# three: single in-process, sharded, and single behind a *lossy* wire
# (drop chaos), so the reliable push links are on the measured path.
TOPOLOGIES = {
    "single": lambda: Deployment.single(),
    "sharded-2": lambda: Deployment.sharded(2),
    "net-lossy": lambda: Deployment.single(
        network=CHAOS_WIRE.with_chaos(CHAOS_PROFILES["drop"])
    ),
}
# Report sections that hold wall-clock numbers (not committed).
WALL_CLOCK = ("timing",)
# The storm's wall-clock fields, moved from its cell into ``timing``.
STORM_TIMING = ("exec_total_s", "p50_ms", "p99_ms", "wall_capacity_qps")
DEFAULTS = {"traces": 400, "workloads": ["onlineboutique"], "seed": 23}
FLAGS = {
    "--topologies": dict(
        nargs="+", default=list(TOPOLOGIES), choices=list(TOPOLOGIES),
        help="identity-sweep topologies",
    ),
    "--storm-traces": dict(type=int, default=600),
    "--storm-qps": dict(
        type=float, default=1000.0,
        help="target analyst QPS for the storm (also the gate's floor)",
    ),
}


def subscription_specs(stream) -> dict[str, QuerySpec]:
    """The standing-query panel, derived from the stream itself.

    Four spec shapes cover the registration grammar: a pure predicate
    over the whole sampled population (``error``), a predicate that
    actually filters (``service`` — the stream's most common service),
    an explicit id subscription (``batch`` — every third trace), and a
    windowed predicate over explicit candidates (``window`` — the
    stream's first half, the shape whose eager evaluation the plane
    must defer on asynchronous topologies).
    """
    ids = [trace.trace_id for _, trace in stream]
    services: Counter[str] = Counter()
    for _, trace in stream:
        services.update(trace.services)
    top_service = max(sorted(services), key=lambda svc: services[svc])
    half_time = stream[len(stream) // 2][0] if stream else 0.0
    return {
        "error": QuerySpec.where(error_only=True),
        "service": QuerySpec.where(service=top_service),
        "batch": QuerySpec.batch(ids[::3]),
        "window": QuerySpec.where(candidates=ids, time_range=(0.0, half_time)),
    }


def identity_cell(name: str, stream) -> dict[str, Any]:
    """Drive one topology with and without the subscription panel.

    The subscribed run yields the accumulated hit sets (compared, ids
    and statuses both, against the same specs run post hoc); the bare
    run is the separation control — everything the paper's figures read
    must be identical between the two.
    """
    specs = subscription_specs(stream)
    subscribed = MintFramework(deployment=TOPOLOGIES[name]())
    subs = [subscribed.subscribe(spec) for spec in specs.values()]
    bare = MintFramework(deployment=TOPOLOGIES[name]())
    drive(subscribed, stream)
    drive(bare, stream)

    violations: list[str] = []
    rows: list[dict[str, Any]] = []
    for (label, spec), sub in zip(specs.items(), subs):
        posthoc = {
            result.trace_id: str(result.status)
            for result in subscribed.execute(spec)
            if result.is_hit
        }
        accumulated = sub.hit_statuses
        if accumulated != posthoc:
            extra = sorted(set(accumulated) - set(posthoc))
            missing = sorted(set(posthoc) - set(accumulated))
            violations.append(
                f"{label}: accumulated {len(accumulated)} hits != batch "
                f"{len(posthoc)} (extra {extra[:3]}, missing {missing[:3]})"
            )
        rows.append(
            {
                "label": label,
                "spec": spec.describe(),
                "hits": len(accumulated),
                "batch_hits": len(posthoc),
                "identical": accumulated == posthoc,
            }
        )

    violations.extend(
        compare_fingerprints(
            fingerprint(bare, stream),
            fingerprint(subscribed, stream),
            label="subscribed",
            # The storm's contract with its quiet control, verbatim:
            # push traffic has its own meter, the figures do not move.
            keys=CONVERGENCE_KEYS,
        )
    )
    if subscribed.push_bytes <= 0:
        violations.append("push meter never charged despite delivered pushes")
    if bare.push_bytes != 0:
        violations.append(f"bare run charged {bare.push_bytes} push bytes")

    stats = subscribed.live_stats()
    cell = {
        "topology": name,
        "identical": not violations,
        "violations": violations,
        "subscriptions": rows,
        "push_bytes": subscribed.push_bytes,
        "pushes_streamed": stats["pushes_streamed"],
        "pushes_settled": stats["pushes_settled"],
        "duplicates": stats["duplicates"],
        "dropped": stats["dropped"],
    }
    subscribed.close()
    bare.close()
    return cell


def run_storm_pair(
    workload_name: str, num_traces: int, storm_qps: float, seed: int
) -> tuple[dict[str, Any], dict[str, float]]:
    """One storm run plus its quiet control; convergence folded in.

    Returns the storm's cell and its wall-clock ``timing`` row."""
    storm = run_storm(
        workload_name=workload_name,
        num_traces=num_traces,
        storm_qps=storm_qps,
        seed=seed,
    )
    quiet = run_storm(
        workload_name=workload_name,
        num_traces=num_traces,
        storm_qps=0.0,
        seed=seed,
        subscribe_errors=False,
    )
    report = storm.as_dict()
    report["converged"] = not compare_fingerprints(
        quiet.fingerprint, storm.fingerprint, keys=CONVERGENCE_KEYS
    )
    return report, {key: report.pop(key) for key in STORM_TIMING}


def measure(args) -> dict:
    """The identity/separation sweep and the storm pair."""
    workload = only_workload(args)
    report: dict = {
        "units": {
            "push_bytes": "bytes charged on the transport's push meter "
            "(subscription notifications only — never the network meter)",
            "p99_ms": "99th-percentile analyst query latency in "
            "milliseconds, modeled wire round trip included",
        },
        "identity": {},
    }
    # The same generator as the sharded/obs suites, so live numbers are
    # comparable to theirs.
    stream = build_stream(workload, args.traces)
    for name in args.topologies:
        cell = report["identity"][name] = identity_cell(name, stream)
        print(
            f"identity {name:12s} "
            + (
                f"bit-identical ({cell['pushes_streamed']} streamed, "
                f"{cell['pushes_settled']} settled, {cell['push_bytes']} push bytes)"
                if cell["identical"]
                else "VIOLATION: " + "; ".join(cell["violations"])
            )
        )

    storm, timing = run_storm_pair(workload, args.storm_traces, args.storm_qps, args.seed)
    report["storm"] = storm
    report["timing"] = {"storm": timing}
    print(
        f"storm {storm['issued']} queries @ {storm['sim_qps']:.0f} QPS sim "
        f"(capacity {timing['wall_capacity_qps']:.0f} QPS), "
        f"p99 {timing['p99_ms']:.3f}ms (wire p99 {storm['wire_p99_ms']:.3f}ms), "
        + ("converged with quiet control" if storm["converged"]
           else "DIVERGED from quiet control")
    )
    return report


def check(report: dict, args) -> list[str]:
    failures: list[str] = []
    identity = report["identity"]
    for name, cell in identity.items():
        if not cell["identical"]:
            failures.append(f"identity {name}: {'; '.join(cell['violations'])}")
    if len(identity) < 3:
        failures.append(
            f"identity sweep covers {len(identity)} topologies, "
            "expected single + sharded + lossy-net"
        )
    if not any(cell["pushes_streamed"] > 0 for cell in identity.values()):
        failures.append(
            "no topology streamed a push mid-ingest — the plane degenerated "
            "into a finalize-time batch query"
        )
    storm = report["storm"]
    # A hair under the target is floating-point rounding on the
    # schedule's duration quotient, not a sustained-rate miss.
    if storm["sim_qps"] < args.storm_qps * 0.995:
        failures.append(
            f"storm sustained {storm['sim_qps']:.1f} QPS in simulated time, "
            f"target {args.storm_qps:.0f}"
        )
    # Absent from the committed report; every fresh run has it.
    timing = report.get("timing", {}).get("storm")
    if timing and timing["wall_capacity_qps"] < args.storm_qps:
        failures.append(
            f"storm wall-clock capacity {timing['wall_capacity_qps']:.1f} QPS "
            f"below target {args.storm_qps:.0f} — the host cannot execute "
            "queries at the claimed rate"
        )
    if storm["wire_p99_ms"] <= 0.0:
        failures.append(
            "storm wire p99 is zero — reported latency excludes the wire"
        )
    if not storm["converged"]:
        failures.append(
            "storm fingerprint diverged from the quiet control — analyst "
            "load perturbed the figures"
        )
    sub = storm.get("subscription")
    if sub is None or sub["hits"] <= 0:
        failures.append(
            "the storm's standing error subscription accumulated no hits — "
            "the push plane was not exercised under load"
        )
    return failures
