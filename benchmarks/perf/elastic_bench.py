"""Elastic suite: reshard identity, failover convergence, autoscale.

Three measurements back the three ``--check`` gates (a cell that looks
green while the chaos evidence — parked reports, timeouts, the
mid-outage probe — shows the fault injector never fired still fails):

* **Reshard bit-identity** — a live ``from_n -> to_n`` migration (one
  host per ingested trace, ingest never pausing) must leave the
  deployment bit-identical to a fresh ``Deployment.sharded(to_n)`` run
  over the same stream: byte tables, full query signatures,
  stored-trace sets and host placement — with every migrated byte
  confined to the separate ``migration`` meter.  Measured for a grow, a
  shrink, and a grow over the lossy simulated network wire.

* **Failover convergence** — under every shard-chaos profile, queries
  fired in the middle of the outage degrade (never raise, never answer
  better than healthy), and the chaos demonstrably fired (timeouts
  observed, reports parked).  Recoverable profiles (crash-restart,
  slow-shard) must replay their parked queues and reconverge to the
  no-chaos answers; the permanent crash must stay degraded while
  keeping its undeliverable reports parked rather than losing them.

* **Autoscale-under-chaos** — a Fig. 14 load shape with a mid-run
  shard outage: the parked-queue depth must trigger the queue-depth
  autoscaler, the resulting live reshard must complete, and the run
  must still converge to the no-chaos baseline's answers.
"""

from __future__ import annotations

from repro.elastic.chaos import SHARD_CHAOS_PROFILES
from repro.net.chaos import CHAOS_PROFILES
from repro.net.transport import CHAOS_WIRE, NetworkDescriptor
from repro.sim.elastic import (
    run_elastic_load_test,
    run_failover_experiment,
    run_reshard_experiment,
)
from repro.sim.loadtest import FIG14_LOAD_TESTS
from repro.workloads import WORKLOAD_BUILDERS

DEFAULTS = {
    "traces": 300,
    "warmup_traces": 50,
    "workloads": list(WORKLOAD_BUILDERS),
    "seed": 17,
}
# Every cell is simulated time, counts and bytes: no wall-clock section,
# and run.py keeps the environment block out of the committed report.
WALL_CLOCK = ()
FLAGS = {
    "--profiles": dict(
        nargs="+", default=sorted(SHARD_CHAOS_PROFILES), choices=sorted(SHARD_CHAOS_PROFILES)
    ),
    "--autoscale-scale": dict(
        type=float, default=0.05,
        help="fraction of the Fig. 14 load shape's full trace volume to drive",
    ),
}

# (label, from_shards, to_shards, wire): the standard reshard cells —
# a grow, a shrink, and a grow over the lossy batched wire.
RESHARD_CELLS: tuple[tuple[str, int, int, NetworkDescriptor | None], ...] = (
    ("grow-2to4", 2, 4, None),
    ("shrink-4to2", 4, 2, None),
    ("grow-2to4-drop-wire", 2, 4, CHAOS_WIRE.with_chaos(CHAOS_PROFILES["drop"], seed=5)),
)


def measure_reshard(workload_name: str, num_traces: int, warmup_traces: int, seed: int) -> dict:
    """Gate (a): live resharding is bit-identical to a fresh deployment."""
    workload = WORKLOAD_BUILDERS[workload_name]()
    cells: dict[str, dict] = {}
    for label, from_shards, to_shards, network in RESHARD_CELLS:
        outcome = run_reshard_experiment(
            workload,
            from_shards=from_shards,
            to_shards=to_shards,
            num_traces=num_traces,
            seed=seed,
            auto_warmup_traces=warmup_traces,
            network=network,
        )
        cells[label] = {
            "workload": workload_name,
            "label": label,
            "from_shards": from_shards,
            "to_shards": to_shards,
            "identical": outcome.identical,
            "violations": outcome.violations,
            "hosts_moved": int(outcome.migration.get("hosts_moved", 0)),
            "migration_bytes": outcome.migration_bytes,
        }
    return cells


def _chaos_evidence(cell: dict) -> list[str]:
    """Why a green-looking failover cell cannot be trusted (if at all).

    Mirrors the net suite's evidence check: a disabled fault injector
    must fail the gate, not greenwash it."""
    missing: list[str] = []
    stats = cell["supervisor"]
    if not stats or stats.get("parked", 0) == 0:
        missing.append("no report was ever parked")
    if "crash" in cell["profile"] and stats.get("timeouts", 0) == 0:
        missing.append("no delivery ever timed out against the dead shard")
    if "crash" in cell["profile"] and not cell["probed_mid_outage"]:
        missing.append("the mid-outage query probe never ran")
    if cell["recoverable"] and stats.get("replayed", 0) == 0:
        missing.append("nothing was replayed after recovery")
    if not cell["recoverable"] and not cell["permanently_degraded"]:
        missing.append("a permanent crash left answers unchanged")
    return missing


def measure_failover(
    workload_name: str, num_traces: int, warmup_traces: int, seed: int, profiles
) -> dict:
    """Gate (b): every chaos profile degrades gracefully and converges."""
    workload = WORKLOAD_BUILDERS[workload_name]()
    cells: dict[str, dict] = {}
    for profile_name in profiles:
        profile = SHARD_CHAOS_PROFILES[profile_name]
        outcome = run_failover_experiment(
            workload,
            profile=profile,
            num_shards=2,
            num_traces=num_traces,
            seed=seed,
            auto_warmup_traces=warmup_traces,
        )
        cell = {
            "workload": workload_name,
            "profile": profile_name,
            "recoverable": all(not o.is_permanent for o in profile.outages),
            "converged": outcome.converged,
            "violations": outcome.violations,
            "probed_mid_outage": outcome.probed_mid_outage,
            "degraded_mid_outage": outcome.degraded_mid_outage,
            "permanently_degraded": outcome.permanently_degraded,
            "supervisor": outcome.supervisor,
        }
        evidence = _chaos_evidence(cell)
        cell["chaos_fired"] = not evidence
        cell["violations"] = cell["violations"] + [
            f"chaos evidence missing: {reason}" for reason in evidence
        ]
        cells[profile_name] = cell
    return cells


def measure_autoscale(workload_name: str, scale: float, seed: int) -> dict:
    """Gate (c): queue-depth pressure triggers a converging reshard."""
    spec = FIG14_LOAD_TESTS[4]  # T5: the 1000-qps shape
    outcome = run_elastic_load_test(
        spec,
        WORKLOAD_BUILDERS[workload_name](),
        profile="crash_restart",
        start_shards=2,
        scale=scale,
        seed=seed,
    )
    return {
        "workload": workload_name,
        "test": spec.name,
        "profile": outcome.profile,
        "converged": outcome.converged,
        "scaled": bool(outcome.scale_events),
        "violations": outcome.violations,
        "start_shards": outcome.start_shards,
        "final_shards": outcome.final_shards,
        "peak_depth": outcome.peak_depth,
        "scale_events": outcome.scale_events,
        "supervisor": outcome.supervisor,
        "migration_bytes": outcome.migration_bytes,
    }


def measure(args) -> dict:
    """Every reshard, failover and autoscale cell."""
    report: dict = {
        "units": {
            "migration_bytes": "reshard traffic charged on the separate "
            "migration meter only (never the network meter or shard ledgers)",
            "peak_depth": "maximum per-shard pending-report depth the "
            "autoscaler observed (send queues + supervisor parked queues)",
        },
        "reshard": {},
        "failover": {},
        "autoscale": {},
        "gates": {},
    }
    for name in args.workloads:
        reshard = report["reshard"][name] = measure_reshard(
            name, args.traces, args.warmup_traces, args.seed
        )
        line = f"{name:16s} reshard:"
        for cell in reshard.values():
            verdict = "ok" if cell["identical"] else "FAIL"
            line += f"  {cell['label']}={verdict} ({cell['migration_bytes']}B moved)"
        print(line)

        failover = report["failover"][name] = measure_failover(
            name, args.traces, args.warmup_traces, args.seed, args.profiles
        )
        line = f"{name:16s} failover:"
        for cell in failover.values():
            verdict = "ok" if cell["converged"] and cell["chaos_fired"] else "FAIL"
            line += f"  {cell['profile']}={verdict} (parked {cell['supervisor'].get('parked', 0)})"
        print(line)

        autoscale = report["autoscale"][name] = measure_autoscale(
            name, args.autoscale_scale, args.seed + 4
        )
        verdict = "ok" if autoscale["converged"] and autoscale["scaled"] else "FAIL"
        print(
            f"{name:16s} autoscale:  {autoscale['test']}={verdict} "
            f"({autoscale['start_shards']}->{autoscale['final_shards']} shards, "
            f"peak depth {autoscale['peak_depth']})"
        )

    report["gates"]["reshard_identity"] = all(
        cell["identical"]
        for by_label in report["reshard"].values()
        for cell in by_label.values()
    )
    report["gates"]["failover_convergence"] = all(
        cell["converged"] and cell["chaos_fired"]
        for by_profile in report["failover"].values()
        for cell in by_profile.values()
    )
    report["gates"]["autoscale_fired"] = all(
        cell["converged"] and cell["scaled"]
        for cell in report["autoscale"].values()
    )
    return report


def check(report: dict, args) -> list[str]:
    failures: list[str] = []
    for name, by_label in report["reshard"].items():
        for label, cell in by_label.items():
            if not cell["identical"]:
                failures.append(f"{name} reshard-{label}: {'; '.join(cell['violations'])}")
    for name, by_profile in report["failover"].items():
        for profile, cell in by_profile.items():
            if not (cell["converged"] and cell["chaos_fired"]):
                failures.append(f"{name} failover-{profile}: {'; '.join(cell['violations'])}")
    for name, cell in report["autoscale"].items():
        if not (cell["converged"] and cell["scaled"]):
            failures.append(f"{name} autoscale: {'; '.join(cell['violations'])}")
    return failures
