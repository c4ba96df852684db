"""The whole-path benchmark: warm_up -> process_trace -> finalize -> query.

Two ways to run it, from the repository root:

``run.py --workload W --seed N --seconds S --trace 0|1``
    One workload.  Repeats the workload's script for about ``S``
    seconds (one forked child per repeat), estimates every metric from
    per-operation minima, and prints one JSON object as the last line:
    the end-to-end metrics with ``--trace 0``, the per-layer metrics of
    the traced repeats with ``--trace 1``.

``run.py --seed N [--out F] [--spans-out F] [--selfcheck]``
    Every workload declared in ``BENCHMARK.json``, untraced then traced,
    one child at a time; ``--compare A.json B.json`` tabulates two saved
    ``--out`` files.  Exits non-zero on any correctness violation.

Load model: closed loop, one client, one thread — the agent is an
in-process library whose caller waits for ``process_trace``, so the
honest figure is work per second at the workload's stated size.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
DECLARATION = ROOT / "BENCHMARK.json"

LOWER, HIGHER = "lower", "higher"

# (name, unit, better) — BENCHMARK.json declares the same and adds the
# bounds; the smoke test pins that the two agree.
END_TO_END = [
    ("setup_s", "s", LOWER),
    ("whole_path_s", "s", LOWER),
    ("ingest_spans_per_s", "spans/s", HIGHER),
    ("ingest_p50_ms", "ms", LOWER),
    ("ingest_p99_ms", "ms", LOWER),
    ("point_query_p50_ms", "ms", LOWER),
    ("point_query_p99_ms", "ms", LOWER),
    ("batch_query_ids_per_s", "ids/s", HIGHER),
    ("network_ratio", "ratio", LOWER),
    ("storage_ratio", "ratio", LOWER),
    ("peak_rss_mb", "MB", LOWER),
]

# Bit-identical between two runs of the same code and seed.
EXACT = ("network_ratio", "storage_ratio")

# Traced layer boundaries reported as self seconds (and, where the
# count is the layer's work, as calls).
_SELF_S = [
    "parsing.warm_up", "parsing.lcs", "parsing.cluster_strings",
    "parsing.span_parse", "parsing.sub_trace_parse", "parsing.template_from_text",
    "agent.ingest", "agent.collector_process", "agent.collector_flush",
    "agent.mark_sampled", "bloom.add", "bloom.contains", "model.encoded_size",
    "model.sub_traces", "transport.deliver", "transport.notify",
    "transport.sync_storage", "transport.drain", "net.scheduler",
    "backend.receive", "backend.store", "backend.notify_sampled",
    "backend.execute", "backend.reconstruct", "query.plan", "query.results",
    "cold.compact", "cold.decode", "live.on_sampled", "live.settle",
    "framework.init", "framework.warm_up", "framework.subscribe",
    "framework.process_trace", "framework.finalize", "framework.query",
    "framework.compact",
]  # fmt: skip
_CALLS = [
    "parsing.lcs", "parsing.span_parse", "parsing.template_from_text",
    "agent.request_params", "bloom.add", "bloom.contains", "model.encoded_size",
    "transport.deliver", "transport.notify", "transport.sync_storage",
    "backend.receive", "backend.notify_sampled", "backend.reconstruct",
    "query.plan", "cold.compact", "live.on_sampled",
]  # fmt: skip
_COUNTS = [  # (name, unit, better): exact counts and ratios of counts
    ("parsing.lcs.cells", "count", LOWER),
    ("agent.sampled_share", "ratio", LOWER),
    ("agent.reports", "count", LOWER),
    ("net.events", "count", LOWER),
    ("net.batches", "count", LOWER),
    ("net.retransmit_ratio", "ratio", LOWER),
    ("net.retransmit_bytes", "bytes", LOWER),
    ("net.queue_depth_max", "count", LOWER),
    ("backend.replicated_pattern_bytes", "bytes", LOWER),
    ("query.filters_probed", "count", LOWER),
    ("query.filters_pruned", "count", HIGHER),
    ("query.prune_ratio", "ratio", HIGHER),
    ("query.cache_hits", "count", HIGHER),
    ("query.params_pulled", "count", HIGHER),
    ("cold.sealed_blocks", "count", HIGHER),
    ("cold.blocks_decoded", "count", LOWER),
    ("cold.blocks_promoted", "count", LOWER),
    ("cold.decodes_per_query", "ratio", LOWER),
    ("cold.physical_ratio", "ratio", LOWER),
    ("live.evaluations", "count", LOWER),
    ("live.pushes", "count", HIGHER),
    ("harness.trace_overhead_ratio", "ratio", LOWER),
    ("harness.unattributed_share", "ratio", LOWER),
    ("harness.attributed_share", "ratio", HIGHER),
    ("harness.repeat_wall_spread", "ratio", LOWER),
    ("harness.machine_slowdown", "ratio", LOWER),
    ("harness.traced_wall_s", "s", LOWER),
    ("harness.repeats", "count", HIGHER),
]
PER_LAYER = (
    [(f"{name}.self_s", "s", LOWER) for name in _SELF_S]
    + [(f"{name}.calls", "count", LOWER) for name in _CALLS]
    + _COUNTS
)

# The speed probe's duration on the machine the reported seconds refer
# to: this sandbox at about its median speed while the benchmark was
# built.  It only fixes the unit — two commits measured by the same
# benchmark share it.
NOMINAL_PROBE_NS = 350_000


# ----------------------------------------------------------------------
# The estimator
# ----------------------------------------------------------------------
def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted sample."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def reference_ns(repeat: dict[str, Any]) -> list[float]:
    """Each operation's time at the reference speed.

    The repeat ran a speed probe (a fixed interpreter kernel) every
    ~40 ms of operation time; an operation's wall time is scaled by
    how much slower than ``NOMINAL_PROBE_NS`` the probes around it
    ran.  Same work on a momentarily slower machine reads the same."""
    op_ns = repeat["op_ns"]
    scaled = [0.0] * len(op_ns)
    probes = repeat["probes"]
    for (lo, before), (hi, after) in zip(probes, probes[1:]):
        scale = NOMINAL_PROBE_NS / ((before + after) / 2)
        for i in range(lo, hi):
            scaled[i] = op_ns[i] * scale
    return scaled


def typical_ns(repeats: list[dict[str, Any]]) -> list[float]:
    """Per-operation estimate: the same seed makes operation *i* do
    identical work in every repeat, so its time is the median over the
    repeats of its reference-speed times; phase totals are sums of
    those medians and percentiles are taken over them."""
    return [statistics.median(times) for times in zip(*map(reference_ns, repeats))]


def end_to_end(inputs, repeats: list[dict[str, Any]]) -> dict[str, tuple[float, int]]:
    """Metrics (and the sample count behind each) from untraced repeats."""
    from workloads import BATCH, FINALIZE, INGEST, POINT, SETUP_KINDS

    typical = typical_ns(repeats)
    by_kind: dict[str, list[float]] = {}
    for op, ns in zip(inputs.script, typical):
        by_kind.setdefault(op.kind, []).append(ns)
    setup_ns = sum(sum(by_kind.get(kind, ())) for kind in SETUP_KINDS)
    ingest = sorted(by_kind[INGEST])
    point = sorted(by_kind[POINT])
    batch_ids = sum(len(op.arg) for op in inputs.script if op.kind == BATCH)
    stats = repeats[0]["stats"]
    n = len(repeats)
    # name -> (value, samples behind it)
    return {
        "setup_s": (setup_ns / 1e9, n),
        "whole_path_s": (sum(typical) / 1e9, n),
        "ingest_spans_per_s": (
            inputs.online_spans / ((sum(ingest) + sum(by_kind[FINALIZE])) / 1e9),
            len(ingest),
        ),
        "ingest_p50_ms": (percentile(ingest, 0.50) / 1e6, len(ingest)),
        "ingest_p99_ms": (percentile(ingest, 0.99) / 1e6, len(ingest)),
        "point_query_p50_ms": (percentile(point, 0.50) / 1e6, len(point)),
        "point_query_p99_ms": (percentile(point, 0.99) / 1e6, len(point)),
        "batch_query_ids_per_s": (batch_ids / (sum(by_kind[BATCH]) / 1e9), batch_ids),
        "network_ratio": (stats["network_bytes"] / inputs.raw_bytes, 1),
        "storage_ratio": (stats["storage_bytes"] / inputs.raw_bytes, 1),
        "peak_rss_mb": (statistics.median(r["rss_kb"] for r in repeats) / 1024, n),
    }


def fastest_traced(repeats: list[dict[str, Any]]) -> dict[str, Any]:
    return min(
        (r for r in repeats if r["traced"]), key=lambda r: sum(reference_ns(r))
    )


def per_layer(repeats: list[dict[str, Any]]) -> dict[str, float]:
    """Per-layer metrics from the fastest traced repeat (one consistent
    set, so self times still sum to that repeat's wall), brought to the
    reference speed by that repeat's own wall ratio; the untraced
    repeats of the same run give the tracing overhead."""
    traced = fastest_traced(repeats)
    self_ns, calls, counters = traced["self_ns"], traced["calls"], traced["counters"]
    stats = traced["stats"]
    wall_ns = sum(reference_ns(traced))
    scale = wall_ns / sum(traced["op_ns"])
    values: dict[str, float] = {}
    for name in _SELF_S:
        values[f"{name}.self_s"] = self_ns.get(name, 0) * scale / 1e9
    for name in _CALLS:
        values[f"{name}.calls"] = calls.get(name, 0)
    for name, _, _ in _COUNTS:
        if name in stats:
            values[name] = stats[name]
    untraced_walls = [sum(reference_ns(r)) for r in repeats if not r["traced"]]
    probes = [ns for r in repeats for _, ns in r["probes"]]
    values.update(
        {
            "parsing.lcs.cells": counters.get("parsing.lcs.cells", 0),
            "agent.sampled_share": _ratio(
                counters.get("agent.sampled_sub_traces", 0),
                calls.get("agent.collector_process", 0),
            ),
            "agent.reports": calls.get("transport.deliver", 0),
            "net.events": counters.get("net.events", 0),
            "net.retransmit_ratio": _ratio(
                stats["net.retransmits"], stats["net.transmissions"]
            ),
            "query.prune_ratio": _ratio(
                stats["query.filters_pruned"],
                stats["query.filters_pruned"] + stats["query.filters_probed"],
            ),
            "cold.decodes_per_query": _ratio(
                stats["cold.blocks_decoded"], stats["query.candidates"]
            ),
            "cold.physical_ratio": _ratio(
                stats["cold.physical_bytes"], stats["cold.logical_bytes"]
            ),
            "harness.trace_overhead_ratio": wall_ns / min(untraced_walls),
            "harness.unattributed_share": sum(
                ns for name, ns in self_ns.items() if name.startswith("framework.")
            )
            * scale
            / wall_ns,
            "harness.attributed_share": sum(self_ns.values()) * scale / wall_ns,
            "harness.repeat_wall_spread": (max(untraced_walls) - min(untraced_walls))
            / statistics.median(untraced_walls),
            "harness.machine_slowdown": statistics.median(probes) / NOMINAL_PROBE_NS,
            "harness.traced_wall_s": wall_ns / 1e9,
            "harness.repeats": len(repeats),
        }
    )
    return values


# ----------------------------------------------------------------------
# One workload (the driver's contract)
# ----------------------------------------------------------------------
def run_workload(args: argparse.Namespace) -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Set iteration order must not depend on the interpreter's
        # per-process hash salt: same seed, same inputs, same bytes.
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    if not (ROOT / "src" / "repro").is_dir():
        # The benchmark measures the checkout it sits in, never an
        # installed copy of the program.
        sys.exit(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    sys.path.insert(0, str(ROOT / "src"))
    import repeat
    import workloads

    if args.workload not in workloads.BUILDERS:
        sys.exit(f"unknown workload {args.workload!r}; one of {list(workloads.BUILDERS)}")
    started = time.perf_counter()
    inputs = workloads.build(args.workload, args.seed, smoke=args.smoke)
    # Inputs leave the collector's sight: children never traverse (and
    # so never copy) them, and their collections stay the program's own.
    gc.collect()
    gc.freeze()

    trace = bool(args.trace)
    # A traced run needs both kinds of repeat; a full-size run needs
    # enough of them for a median.
    if args.smoke:
        floor = 2 if trace else 1
    else:
        floor = 4 if trace else 3
    repeats: list[dict[str, Any]] = []
    while True:
        # Traced runs alternate untraced and traced repeats: the gap
        # between the two is the tracing overhead.
        traced = trace and len(repeats) % 2 == 1
        keep_spans = traced and args.spans_out is not None
        repeats.append(
            repeat.in_child(lambda: repeat.run_repeat(inputs, traced, keep_spans))
        )
        elapsed = time.perf_counter() - started
        if len(repeats) >= floor and (
            args.smoke or elapsed + elapsed / len(repeats) > args.seconds
        ):
            break

    attempted = sum(r["attempted"] for r in repeats)
    failed = sum(r["failed"] for r in repeats)
    for r in repeats:
        for message in r["errors"]:
            print(f"FAILED: {message}", file=sys.stderr)
    if len({r["digest"] for r in repeats}) != 1:
        # Same inputs must give the same bytes and the same answers in
        # every repeat; if they do not, no operation can be trusted.
        print("FAILED: byte tables or answers differ between repeats", file=sys.stderr)
        failed = attempted

    print(
        f"workload {args.workload}  seed {args.seed}  repeats {len(repeats)}  "
        f"ops/repeat {repeats[0]['attempted']}  failed {failed}"
    )
    if trace:
        values = {name: (value, None) for name, value in per_layer(repeats).items()}
        declared = PER_LAYER
        if args.spans_out is not None:
            with open(args.spans_out, "w") as out:
                for row in fastest_traced(repeats)["spans"]:
                    out.write(json.dumps(row) + "\n")
    else:
        values = end_to_end(inputs, repeats)
        declared = END_TO_END
    metrics = {}
    for name, unit, _ in declared:
        value, samples = values[name]
        metrics[name] = {"value": value, "unit": unit}
        count = "" if samples is None else f"  (n={samples})"
        print(f"  {name:<40} {value:>16.6g} {unit}{count}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if failed == 0 else 1


# ----------------------------------------------------------------------
# Every workload, saved results, self-check, comparison
# ----------------------------------------------------------------------
def declaration() -> dict[str, Any]:
    return json.loads(DECLARATION.read_text())


def run_suite(args: argparse.Namespace, label: str = "") -> dict[str, Any]:
    """Run every declared workload untraced, then traced, one child at
    a time; returns the ``--out`` document."""
    declared = declaration()
    seconds = args.seconds if args.seconds is not None else declared["run_seconds"]
    env = dict(os.environ, PYTHONHASHSEED="0")
    result: dict[str, Any] = {
        "seed": args.seed,
        "seconds": seconds,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "workloads": {},
    }
    for workload in (w["name"] for w in declared["workloads"]):
        row: dict[str, Any] = {"attempted": 0, "failed": 0, "correct": True}
        for trace in ("0", "1"):
            if trace == "1" and args.no_trace:
                continue
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(seconds), "--trace", trace,
            ]  # fmt: skip
            if args.smoke:
                command.append("--smoke")
            if trace == "1" and args.spans_out is not None:
                command += ["--spans-out", f"{args.spans_out}.{workload}.jsonl"]
            done = subprocess.run(
                command, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True
            )
            lines = done.stdout.strip().splitlines()
            if not lines or not lines[-1].startswith("{"):
                print(done.stdout, end="")
                raise SystemExit(f"{workload} --trace {trace}: no result line")
            print("\n".join([label + lines[0], *lines[1:-1]]))
            line = json.loads(lines[-1])
            row["end_to_end" if trace == "0" else "per_layer"] = line["metrics"]
            row["attempted"] += line["attempted"]
            row["failed"] += line["failed"]
            row["correct"] = row["correct"] and line["correct"] and done.returncode == 0
        print(
            f"  ops_attempted {row['attempted']}  ops_failed {row['failed']}  "
            f"correct {row['correct']}\n"
        )
        result["workloads"][workload] = row
    return result


def worsenings(a: dict[str, Any], b: dict[str, Any]) -> list[tuple]:
    """(workload, metric, A, B, worsening, bound) per workload and
    bounded metric; the worsening is positive when B is worse than A
    and is a share of A."""
    rows = []
    declared = declaration()["end_to_end"]
    for workload, row_a in a["workloads"].items():
        row_b = b["workloads"].get(workload)
        if row_b is None:
            continue
        for metric in declared:
            name = metric["name"]
            va = row_a["end_to_end"][name]["value"]
            vb = row_b["end_to_end"][name]["value"]
            worse = (vb - va) / va if metric["better"] == LOWER else (va - vb) / va
            rows.append((workload, name, va, vb, worse, metric["bound"]))
    return rows


def print_comparison(rows: list[tuple]) -> None:
    """Each workload its own rows, every ratio with its base."""
    print(f"{'workload':<20} {'metric':<24} {'A':>12} {'B':>12} {'B/A':>8}  verdict")
    for workload, name, va, vb, worse, bound in rows:
        verdict = "ok" if worse <= bound else f"WORSE by {worse:.1%}"
        print(
            f"{workload:<20} {name:<24} {va:>12.5g} {vb:>12.5g} "
            f"{vb / va:>8.3f}  {verdict} (bound {bound:.2f} of A)"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload (driver contract)")
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--seconds", type=float, help="measuring budget per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one repeat")
    parser.add_argument("--out", help="save the suite's results as JSON")
    parser.add_argument("--spans-out", help="write the traced repeat's spans as JSONL")
    parser.add_argument("--no-trace", action="store_true", help="suite: skip traced runs")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    if args.compare:
        a, b = (json.loads(Path(p).read_text()) for p in args.compare)
        print_comparison(worsenings(a, b))
        return 0
    if args.workload:
        if args.seconds is None:
            args.seconds = declaration()["run_seconds"]
        return run_workload(args)
    if args.selfcheck:
        # Two complete sets of the same code, one after the other, must
        # agree within the benchmark's own bounds.
        args.no_trace = True
        first = run_suite(args, "[set A] ")
        second = run_suite(args, "[set B] ")
        forward = worsenings(first, second)
        print_comparison(forward)
        # Neither set is the reference: a metric fails when either set
        # is worse than the other by more than the bound.
        both = forward + worsenings(second, first)
        beyond = [row for row in both if row[4] > row[5]]
        # The byte ratios are exact for a seed: any difference is one.
        beyond += [row for row in forward if row[1] in EXACT and row[2] != row[3]]
        correct = all(
            row["correct"] for r in (first, second) for row in r["workloads"].values()
        )
        print(f"\nharness.selfcheck_max_rel_diff {max(r[4] for r in both):.4f} ratio")
        for workload, name, _, _, worse, bound in beyond:
            print(f"  beyond its bound: {workload} {name} {worse:.1%} > {bound:.0%}")
        ok = correct and not beyond
        print("selfcheck", "passed" if ok else "FAILED")
        return 0 if ok else 1
    result = run_suite(args)
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0 if all(row["correct"] for row in result["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
