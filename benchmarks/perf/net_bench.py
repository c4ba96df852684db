"""Net suite: the simulated network plane's equivalence and convergence.

Two measurements back the two ``--check`` gates:

* **(a) lossless equivalence** — for each topology (single backend and
  shard counts 1/2/4), the identical stream is driven over the
  in-process ``LocalTransport`` and over the default (instantaneous,
  lossless) ``NetTransport``.  The two runs must be *bit-identical*:
  byte tables, per-minute network/storage meter series, per-shard
  ledger totals, and full query signatures.  Wall-clock ratios are
  recorded so the event-driven plane's overhead stays visible, and
  gated by ``--max-overhead`` (the event scheduler must stay cheap);
  they live in the ``timing`` section (:data:`WALL_CLOCK`), which
  ``run.py`` leaves out of the committed ``BENCH_net.json``.

* **(b) chaos convergence** — for each seeded chaos profile
  (drop/duplicate/delay/partition), the stream is driven over a
  batching wire with the profile injected and retries enabled.  The
  run must converge to the lossless reference (same query signature,
  same network/storage byte tables), with overhead confined to the
  retransmit meter — and the chaos must demonstrably have fired
  (drops/duplicates/jitter observed), so a silently disabled fault
  injector cannot greenwash the gate.
"""

from __future__ import annotations

from common import best_of, build_stream, per_second, span_count

from repro.concurrent.verify import compare_fingerprints, fingerprint
from repro.framework import MintFramework
from repro.net.chaos import CHAOS_PROFILES, ChaosProfile, fit_partitions
from repro.net.transport import CHAOS_WIRE, NetworkDescriptor
from repro.transport import Deployment
from repro.workloads import WORKLOAD_BUILDERS

DEFAULTS = {
    "traces": 400,
    "warmup_traces": 100,
    "workloads": list(WORKLOAD_BUILDERS),
    "repeats": 2,
    "seed": 7,
}
# Report sections that hold wall-clock numbers (not committed).
WALL_CLOCK = ("timing",)
FLAGS = {
    "--topologies": dict(
        type=int, nargs="+", default=[0, 1, 2, 4], help="0 = single backend, N >= 1 = shard count"
    ),
    "--profiles": dict(
        nargs="+", default=sorted(CHAOS_PROFILES), choices=sorted(CHAOS_PROFILES)
    ),
    "--max-overhead": dict(
        type=float, default=1.75, help="gate: lossless NetTransport / LocalTransport wall clock"
    ),
}
# Same topology on both sides, so attribution is promised too.
EQUIVALENCE_KEYS = ("byte_tables", "meter_series", "shard_ledgers", "query_signature")
# A chaotic wire commits late: minute buckets may shift, figures may not.
CONVERGENCE_KEYS = ("byte_tables", "query_signature")


def measure_equivalence(
    workload: str, stream, topologies, warmup_traces: int, repeats: int
) -> tuple[dict[str, dict], dict[str, dict], dict | None]:
    """Gate (a): default NetTransport == LocalTransport, bit for bit.

    Returns the identity cells, their wall-clock ``timing`` rows, and
    the single-backend LocalTransport fingerprint (when topology 0 was
    measured) so the convergence gate can reuse it as its lossless
    reference instead of re-ingesting the stream.
    """
    spans = span_count(stream)
    cells: dict[str, dict] = {}
    timings: dict[str, dict] = {}
    single_local_print = None
    for topology in topologies:
        def factory(network, topology=topology):
            return MintFramework(
                deployment=Deployment(num_shards=topology, network=network),
                auto_warmup_traces=warmup_traces,
            )

        local_elapsed, local = best_of(lambda: factory(None), stream, repeats)
        net_elapsed, net = best_of(
            lambda: factory(NetworkDescriptor.lossless()), stream, repeats
        )
        local_print = fingerprint(local, stream)
        if topology == 0:
            single_local_print = local_print
        violations = compare_fingerprints(
            local_print, fingerprint(net, stream), label="net", keys=EQUIVALENCE_KEYS
        )
        if net.retransmit_bytes != 0:
            violations.append(
                f"lossless wire charged retransmit bytes: {net.retransmit_bytes}"
            )
        label = "single" if topology == 0 else f"x{topology}"
        cells[label] = {
            "workload": workload,
            "topology": label,
            "identical": not violations,
            "violations": violations,
        }
        timings[label] = {
            "local_spans_per_sec": round(per_second(spans, local_elapsed), 1),
            "net_spans_per_sec": round(per_second(spans, net_elapsed), 1),
            "net_overhead": round(net_elapsed / local_elapsed, 3) if local_elapsed else 0.0,
        }
    return cells, timings, single_local_print


def _chaos_evidence(profile: ChaosProfile, totals: dict) -> list[str]:
    """What the profile must visibly have done, or the gate is vacuous."""
    missing: list[str] = []
    if (profile.drop_rate > 0 or profile.partitions) and not totals["dropped"]:
        missing.append("no transmissions dropped")
    if (profile.drop_rate > 0 or profile.partitions) and not totals["retransmits"]:
        missing.append("no retransmissions")
    if profile.duplicate_rate > 0 and not totals["duplicated"]:
        missing.append("no duplicates injected")
    if (
        profile.delay_jitter_s > 0
        and totals["latency_p99_s"] <= CHAOS_WIRE.latency_s
    ):
        missing.append("no delay jitter observed")
    return missing


def measure_convergence(
    workload: str, stream, profiles, warmup_traces: int, seed: int, reference_print: dict | None
) -> dict[str, dict]:
    """Gate (b): every chaos profile converges to the lossless answer."""
    if reference_print is None:
        _, reference = best_of(
            lambda: MintFramework(auto_warmup_traces=warmup_traces), stream, 1
        )
        reference_print = fingerprint(reference, stream)
    duration_s = stream[-1][0] if stream else 0.0

    cells: dict[str, dict] = {}
    for name in profiles:
        profile = fit_partitions(CHAOS_PROFILES[name], duration_s)
        wire = CHAOS_WIRE.with_chaos(profile, seed=seed)
        _, framework = best_of(
            lambda wire=wire: MintFramework(
                deployment=Deployment.single(network=wire),
                auto_warmup_traces=warmup_traces,
            ),
            stream,
            1,
        )
        violations = compare_fingerprints(
            reference_print, fingerprint(framework, stream), label="chaos", keys=CONVERGENCE_KEYS
        )
        totals = (framework.net_stats() or {}).get("totals", {})
        evidence_gaps = _chaos_evidence(profile, totals)
        cells[name] = {
            "workload": workload,
            "profile": name,
            "converged": not violations,
            "chaos_fired": not evidence_gaps,
            "violations": violations + evidence_gaps,
            "retransmit_bytes": framework.retransmit_bytes,
            "delivery": totals,
        }
    return cells


def measure(args) -> dict:
    """Every equivalence and convergence cell."""
    report: dict = {
        "units": {
            "net_overhead": "lossless NetTransport elapsed / LocalTransport "
            "elapsed over the identical stream (1.0 = free plane)",
            "retransmit_bytes": "redundant wire bytes (retransmissions + chaos "
            "duplicates), charged on the separate retransmit meter only",
        },
        "equivalence": {},
        "timing": {},
        "convergence": {},
        "gates": {},
    }
    for name in args.workloads:
        stream = build_stream(name, args.traces)
        equivalence, timings, local_print = measure_equivalence(
            name, stream, args.topologies, args.warmup_traces, args.repeats
        )
        report["equivalence"][name] = equivalence
        report["timing"][name] = timings
        line = f"{name:16s} equivalence:"
        for label, cell in equivalence.items():
            verdict = "ok" if cell["identical"] else "FAIL"
            line += f"  {label}={verdict} ({timings[label]['net_overhead']:.2f}x)"
        print(line)

        convergence = measure_convergence(
            name, stream, args.profiles, args.warmup_traces, args.seed, local_print
        )
        report["convergence"][name] = convergence
        line = f"{name:16s} convergence:"
        for cell in convergence.values():
            verdict = "ok" if cell["converged"] and cell["chaos_fired"] else "FAIL"
            line += f"  {cell['profile']}={verdict} (retx {cell['retransmit_bytes']}B)"
        print(line)

    report["gates"]["lossless_equivalence"] = all(
        cell["identical"]
        for by_topology in report["equivalence"].values()
        for cell in by_topology.values()
    )
    report["gates"]["chaos_convergence"] = all(
        cell["converged"] and cell["chaos_fired"]
        for by_profile in report["convergence"].values()
        for cell in by_profile.values()
    )
    return report


def check(report: dict, args) -> list[str]:
    failures: list[str] = []
    for name, by_topology in report["equivalence"].items():
        for topology, cell in by_topology.items():
            # Absent from the committed report; every fresh run has it.
            timing = report.get("timing", {}).get(name, {}).get(topology)
            if not cell["identical"]:
                failures.append(f"{name} {topology}: {'; '.join(cell['violations'])}")
            elif timing and timing["net_overhead"] > args.max_overhead:
                failures.append(
                    f"{name} {topology}: net overhead {timing['net_overhead']:.2f}x > "
                    f"allowed {args.max_overhead:.2f}x"
                )
    for name, by_profile in report["convergence"].items():
        for profile, cell in by_profile.items():
            if not (cell["converged"] and cell["chaos_fired"]):
                failures.append(f"{name} chaos-{profile}: {'; '.join(cell['violations'])}")
    return failures
