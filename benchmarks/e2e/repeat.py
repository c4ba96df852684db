"""One repeat of a workload: drive the script, time every operation,
verify every answer (untimed), and hand the numbers to the parent.

A repeat runs in a forked child, one child at a time: every repeat
starts from the same process image (inputs built and frozen, no
``repro`` cache warmed by an earlier repeat, a clean heap for the RSS
figure) without paying interpreter start-up and input generation
again.  The parent only waits.
"""

from __future__ import annotations

import gc
import hashlib
import os
import pickle
import resource
import sys
import traceback
from contextlib import nullcontext
from time import perf_counter_ns
from typing import Any, Callable

from tracing import Tracer
from workloads import (
    BATCH,
    COMPACT,
    CONSTRUCT,
    FINALIZE,
    INGEST,
    POINT,
    PULL,
    SUBSCRIBE,
    WARM_UP,
    WHERE,
    Inputs,
    Op,
)

from repro.framework import MintFramework
from repro.query.result import QueryResult, QueryStatus
from repro.query.spec import QuerySpec


class _Run:
    """The framework under test and its standing subscription."""

    fw: MintFramework
    sub: Any = None


def _construct(run: _Run, op: Op) -> None:
    run.fw = MintFramework(deployment=op.arg())


def _subscribe(run: _Run, op: Op) -> None:
    run.sub = run.fw.subscribe(op.arg)


CALLS: dict[str, Callable[[_Run, Op], Any]] = {
    CONSTRUCT: _construct,
    WARM_UP: lambda run, op: run.fw.warm_up(op.arg),
    SUBSCRIBE: _subscribe,
    INGEST: lambda run, op: run.fw.process_trace(op.arg, op.now),
    FINALIZE: lambda run, op: run.fw.finalize(op.now),
    COMPACT: lambda run, op: run.fw.compact(op.arg, op.now),
    # Cursors are lazy: drain them inside the timed call.
    POINT: lambda run, op: run.fw.query(op.arg),
    BATCH: lambda run, op: run.fw.query_many(op.arg).all(),
    WHERE: lambda run, op: run.fw.execute(op.arg).all(),
    PULL: lambda run, op: run.fw.execute(
        QuerySpec.batch(op.arg, pull_params=True)
    ).all(),
}

MAX_ERRORS_SHOWN = 5
# A speed probe runs after every PROBE_EVERY_NS of operation time.
PROBE_EVERY_NS = 40_000_000
PROBE_RUNS = 5


_TABLE: dict[str, int] = {}
_OUT: list[str] = []


def _kernel() -> int:
    """A fixed piece of interpreter work (dict, str, list, int): what
    the program's own hot paths are made of."""
    table, out = _TABLE, _OUT
    table.clear()
    out.clear()
    for i in range(1200):
        key = f"k{i & 63}"
        table[key] = table.get(key, 0) + i
        out.append(key.upper().lower())
    return len(out) + len(table)


def speed_probe() -> int:
    """How long the fixed kernel takes right now (median of a burst).

    This sandbox's speed drifts by tens of percent over seconds to
    minutes (README, "Estimator"), so an operation's time is read
    against the probes around it: the harness reports time at a
    reference speed, not the wall time of whichever minute it ran in.

    A probe must not move the program's garbage collections: where it
    runs depends on elapsed time, and a collection shifted from one
    operation to another makes the same operation do different work in
    different repeats.  So it runs with the collector off and leaves no
    container behind — the allocation count the collector triggers on
    is the same after the probe as before it."""
    clock = perf_counter_ns
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        runs = []
        for _ in range(PROBE_RUNS):
            start = clock()
            _kernel()
            runs.append(clock() - start)
        runs.sort()
        return runs[PROBE_RUNS // 2]
    finally:
        del runs
        if was_enabled:
            gc.enable()


def _signature(result: QueryResult) -> str:
    """Status plus shape — the oracle the repo's invariance gates use."""
    detail = f"{result.trace_id}:{result.status}"
    if result.status is QueryStatus.EXACT and result.trace is not None:
        return f"{detail}:{len(result.trace.spans)}"
    if result.status is QueryStatus.PARTIAL and result.approximate is not None:
        return detail + ":" + ",".join(
            f"{seg.topo_pattern_id}/{seg.span_count}"
            for seg in result.approximate.segments
        )
    return detail


class _Verifier:
    """Failure accounting and the answer digest of one repeat."""

    def __init__(self, inputs: Inputs) -> None:
        self.span_counts = inputs.span_counts
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digest = hashlib.blake2b(digest_size=16)

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        if len(self.errors) < MAX_ERRORS_SHOWN:
            self.errors.append(message)

    def answer(self, result: QueryResult, trace_id: str | None = None) -> None:
        """One answer about an ingested id: never a miss (the paper's
        all-requests claim), and an exact one has every original span."""
        self.attempted += 1
        self.digest.update(_signature(result).encode())
        expected = self.span_counts.get(result.trace_id)
        if trace_id is not None and result.trace_id != trace_id:
            self.fail(1, f"asked for {trace_id}, answered {result.trace_id}")
        elif expected is None:
            self.fail(1, f"answer for unknown id {result.trace_id}")
        elif result.is_miss:
            self.fail(1, f"miss for ingested id {result.trace_id}")
        elif result.is_exact and result.span_count != expected:
            self.fail(
                1,
                f"{result.trace_id}: exact answer has {result.span_count} "
                f"spans, original {expected}",
            )

    def raised(self, op: Op, trace_back: str) -> None:
        count = len(op.arg) if op.kind in (BATCH, PULL) else 1
        self.attempted += count
        self.fail(count, f"{op.kind} raised:\n{trace_back}")

    def check(self, op: Op, out: Any) -> None:
        kind = op.kind
        if kind == POINT:
            self.answer(out, op.arg)
        elif kind in (BATCH, PULL):
            if len(out) != len(op.arg):
                self.attempted += len(op.arg)
                self.fail(len(op.arg), f"{kind}: {len(out)} answers for {len(op.arg)} ids")
                return
            for trace_id, result in zip(op.arg, out):
                self.answer(result, trace_id)
        elif kind == WHERE:
            self.attempted += 1
            bad = [
                r.trace_id
                for r in out
                if r.is_miss
                or (op.arg.error_only and r.is_exact and not r.trace.has_error)
            ]
            for result in out:
                self.digest.update(_signature(result).encode())
            if bad:
                self.fail(1, f"where: {len(bad)} answers violate the predicate")
        else:
            self.attempted += 1


def _stats(fw: MintFramework) -> dict[str, float]:
    """Counters the program keeps itself, read from its public surfaces."""
    plan = fw.backend.plan_totals
    stats: dict[str, float] = {
        "network_bytes": fw.network_bytes,
        "storage_bytes": fw.storage_bytes,
        "query.filters_probed": plan.filters_probed,
        "query.filters_pruned": plan.filters_pruned,
        "query.cache_hits": plan.cache_hits,
        "query.params_pulled": plan.params_pulled,
        "query.candidates": plan.candidates,
        "net.retransmit_bytes": fw.retransmit_bytes,
        "push_bytes": fw.push_bytes,
    }
    net = fw.net_stats()
    totals = net["totals"] if net is not None else {}
    stats["net.batches"] = totals.get("sent_batches", 0)
    stats["net.transmissions"] = totals.get("transmissions", 0)
    stats["net.retransmits"] = totals.get("retransmits", 0)
    stats["net.queue_depth_max"] = totals.get("max_queue_depth", 0)
    cold = fw.cold_stats()
    stats["cold.sealed_blocks"] = cold["sealed_blocks"]
    stats["cold.blocks_decoded"] = cold["blocks_decoded"]
    stats["cold.blocks_promoted"] = cold["blocks_promoted"]
    stats["cold.logical_bytes"] = cold["logical_storage_bytes"]
    stats["cold.physical_bytes"] = cold["physical_storage_bytes"]
    live = fw.live_stats()
    stats["live.evaluations"] = live["evaluations"] if live else 0
    stats["live.pushes"] = live["delivered"] if live else 0
    stats["backend.replicated_pattern_bytes"] = (
        fw.backend.storage.replicated_pattern_bytes()
        if fw.deployment.is_sharded
        else 0
    )
    return stats


def run_repeat(inputs: Inputs, traced: bool, keep_spans: bool) -> dict[str, Any]:
    """Drive one repeat; everything returned is picklable."""
    # The parent's collector state (allocation counts, the results of
    # earlier repeats in its generations) is inherited at fork and
    # differs from repeat to repeat; start every repeat from the same
    # one, or the program's collections land on different operations.
    gc.collect()
    gc.freeze()
    rss_start = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tracer = Tracer() if traced else None
    verifier = _Verifier(inputs)
    run = _Run()
    clock = perf_counter_ns
    op_ns: list[int] = []
    # The speed around each operation: probe_ns[k] was taken after
    # probe_at[k] operations (two int lists: nothing the collector tracks).
    probe_at, probe_ns = [0], [speed_probe()]
    since_probe = 0
    with tracer if tracer is not None else nullcontext():
        for index, op in enumerate(inputs.script):
            call = CALLS[op.kind]
            if tracer is not None:
                tracer.op_id = index
            start = clock()
            try:
                out = call(run, op)
            except Exception:  # an operation that raises is a failed operation
                elapsed = clock() - start
                verifier.raised(op, traceback.format_exc())
            else:
                elapsed = clock() - start
                verifier.check(op, out)
            op_ns.append(elapsed)
            since_probe += elapsed
            if since_probe >= PROBE_EVERY_NS:
                probe_at.append(index + 1)
                probe_ns.append(speed_probe())
                since_probe = 0
    probe_at.append(len(op_ns))
    probe_ns.append(speed_probe())
    fw, sub = run.fw, run.sub

    if sub is not None:
        verifier.attempted += 1
        standing = sorted(sub.hit_ids)
        post_hoc = sorted(r.trace_id for r in fw.execute(sub.spec))
        verifier.digest.update(repr(standing).encode())
        if standing != post_hoc:
            verifier.fail(
                1,
                f"subscription holds {len(standing)} hits, the post-hoc "
                f"query of the same spec {len(post_hoc)}",
            )
    stats = _stats(fw)
    for name in inputs.must_fire:
        verifier.attempted += 1
        if not stats[name] > 0:
            verifier.fail(1, f"mechanism did not fire: {name} == {stats[name]}")
    fw.close()
    verifier.digest.update(repr(sorted(stats.items())).encode())

    result: dict[str, Any] = {
        "traced": traced,
        "op_ns": op_ns,
        "probes": list(zip(probe_at, probe_ns)),
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "errors": verifier.errors,
        "digest": verifier.digest.hexdigest(),
        "stats": stats,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss_start,
    }
    if tracer is not None:
        result["self_ns"] = dict(tracer.self_ns)
        result["calls"] = dict(tracer.calls)
        result["counters"] = dict(tracer.counters)
        if keep_spans:
            result["spans"] = list(tracer.span_rows())
    return result


def in_child(fn: Callable[[], Any]) -> Any:
    """Run ``fn`` in a forked child and return its (pickled) result.

    The child's high-water RSS starts at the parent's current RSS, so
    the RSS growth a repeat reports is its own.  Only bytes this
    program wrote are unpickled."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            payload = pickle.dumps(fn())
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(payload)
            code = 0
        except BaseException:  # report, then leave without unwinding the parent's stack
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        payload = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"repeat child exited with status {status}")
    return pickle.loads(payload)
