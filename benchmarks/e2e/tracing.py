"""Per-layer tracing from outside the program.

``Tracer.install()`` replaces callables of the ``repro`` packages at
the layer boundaries with timing wrappers — class attributes for
methods; for module functions every ``repro`` module global bound to
the function object — and ``uninstall()`` puts every original back.
Nothing under ``src/`` knows it is being traced.

Each wrapped call is a span: ``name, start_ns, end_ns, parent, op_id``
(``op_id`` is set by the harness, so all spans of one
``process_trace``/``query`` share it).  A layer's *self* time is its
span's duration minus the part its child spans cover, so self times
over all names sum to the time inside the outermost wrapped calls.
Spans are kept in memory (the harness writes them as JSONL when asked
to); the hottest callables (``HOT``) keep aggregates only.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from time import perf_counter_ns
from typing import Any, Callable, Iterator

# (metric name, module, class, attribute).  Several callables may share
# one name: they are the same layer boundary on different classes.
METHODS: list[tuple[str, str, str, str]] = [
    ("framework.init", "repro.framework", "MintFramework", "__init__"),
    ("framework.warm_up", "repro.framework", "MintFramework", "warm_up"),
    ("framework.subscribe", "repro.framework", "MintFramework", "subscribe"),
    ("framework.process_trace", "repro.framework", "MintFramework", "process_trace"),
    ("framework.finalize", "repro.framework", "MintFramework", "finalize"),
    ("framework.query", "repro.framework", "MintFramework", "query"),
    ("framework.query", "repro.framework", "MintFramework", "query_many"),
    ("framework.query", "repro.framework", "MintFramework", "execute"),
    ("framework.compact", "repro.framework", "MintFramework", "compact"),
    ("parsing.warm_up", "repro.parsing.span_parser", "SpanParser", "warm_up"),
    ("parsing.span_parse", "repro.parsing.span_parser", "SpanParser", "parse"),
    ("agent.ingest", "repro.agent.agent", "MintAgent", "ingest"),
    ("agent.collector_process", "repro.agent.collector", "MintCollector", "process"),
    ("agent.collector_flush", "repro.agent.collector", "MintCollector", "flush"),
    ("agent.mark_sampled", "repro.agent.collector", "MintCollector", "mark_sampled"),
    ("agent.request_params", "repro.agent.collector", "MintCollector", "request_params"),
    ("bloom.add", "repro.bloom.bloom_filter", "BloomFilter", "add"),
    ("bloom.contains", "repro.bloom.bloom_filter", "BloomFilter", "__contains__"),
    ("model.sub_traces", "repro.model.trace", "Trace", "sub_traces"),
    ("transport.deliver", "repro.transport.transport", "LocalTransport", "deliver"),
    ("transport.deliver", "repro.net.transport", "NetTransport", "deliver"),
    ("transport.notify", "repro.transport.transport", "LocalTransport", "notify"),
    ("transport.notify", "repro.net.transport", "NetTransport", "notify"),
    ("transport.sync_storage", "repro.transport.transport", "LocalTransport", "sync_storage"),
    ("transport.sync_storage", "repro.net.transport", "NetTransport", "sync_storage"),
    ("transport.drain", "repro.transport.transport", "LocalTransport", "drain"),
    ("transport.drain", "repro.net.transport", "NetTransport", "drain"),
    ("net.scheduler", "repro.net.events", "EventScheduler", "run_until"),
    ("net.scheduler", "repro.net.events", "EventScheduler", "run_all"),
    ("backend.receive", "repro.transport.plane", "BackendPlane", "receive"),
    ("backend.notify_sampled", "repro.transport.plane", "BackendPlane", "notify_sampled"),
    ("backend.execute", "repro.transport.plane", "BackendPlane", "execute"),
    ("backend.execute", "repro.transport.plane", "BackendPlane", "query"),
    ("backend.execute", "repro.transport.plane", "BackendPlane", "query_many"),
    ("backend.store", "repro.backend.storage", "StorageEngine", "store_pattern_report"),
    ("backend.store", "repro.backend.storage", "StorageEngine", "store_bloom_report"),
    ("backend.store", "repro.backend.storage", "StorageEngine", "store_params_report"),
    ("backend.reconstruct", "repro.backend.querier", "Querier", "query"),
    ("query.plan", "repro.query.planner", "QueryPlanner", "plan"),
    ("query.results", "repro.query.planner", "QueryPlan", "results"),
    ("cold.decode", "repro.cold.blocks", "ColdTier", "decode"),
    ("live.on_sampled", "repro.live.plane", "LiveQueryPlane", "_on_sampled"),
    ("live.settle", "repro.live.plane", "LiveQueryPlane", "settle"),
]

# (metric name, defining module, function name)
FUNCTIONS: list[tuple[str, str, str]] = [
    ("parsing.lcs", "repro.parsing.lcs", "lcs_length"),
    ("parsing.lcs", "repro.parsing.lcs", "lcs_tokens"),
    ("parsing.cluster_strings", "repro.parsing.clustering", "cluster_strings"),
    ("parsing.sub_trace_parse", "repro.parsing.trace_parser", "extract_topo_pattern"),
    ("parsing.template_from_text", "repro.parsing.string_patterns", "template_from_text"),
    ("model.encoded_size", "repro.model.encoding", "encoded_size"),
    ("model.encoded_size", "repro.model.encoding", "fast_encoded_size"),
    ("cold.compact", "repro.cold.compactor", "compact_engine"),
]

# Called tens of thousands of times per repeat: aggregates, no spans.
HOT = {
    "parsing.lcs",
    "parsing.span_parse",
    "parsing.template_from_text",
    "bloom.add",
    "bloom.contains",
    "model.encoded_size",
    "transport.notify",
}

# ``QueryPlan.results`` is a generator: its work happens in ``next()``.
GENERATORS = {"query.results"}


class Tracer:
    """Timing wrappers, their aggregates and the in-memory span list."""

    def __init__(self) -> None:
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)
        # (name, start_ns, end_ns, parent index or -1, op_id)
        self.spans: list[tuple[str, int, int, int, int]] = []
        self.op_id = -1
        self._child_ns: list[int] = []  # one accumulator per open call
        self._open_spans: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Install / uninstall
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every boundary; idempotence is the caller's job."""
        for name, module, cls_name, attr in METHODS:
            cls = getattr(importlib.import_module(module), cls_name)
            self._patch(cls, attr, self._wrap(name, cls.__dict__[attr]))
        for name, module, attr in FUNCTIONS:
            original = getattr(importlib.import_module(module), attr)
            wrapper = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not mod_name.startswith("repro"):
                    continue
                for global_name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, global_name, wrapper)

    def uninstall(self) -> None:
        """Put every original back, newest patch first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    def _patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _wrap(self, name: str, fn: Callable) -> Callable:
        enter, leave = self._enter, self._leave
        hot = name in HOT
        counters = self.counters

        if name in GENERATORS:

            def traced_generator(*args, **kwargs) -> Iterator[Any]:
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        frame = enter(hot)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            leave(name, frame)
                        yield item
                finally:
                    inner.close()

            return traced_generator

        if name == "parsing.lcs":

            def traced_lcs(a, b):
                counters["parsing.lcs.cells"] += len(a) * len(b)
                frame = enter(hot)
                try:
                    return fn(a, b)
                finally:
                    leave(name, frame)

            return traced_lcs

        if name == "net.scheduler":

            def traced_scheduler(*args, **kwargs):
                frame = enter(hot)
                try:
                    ran = fn(*args, **kwargs)
                finally:
                    leave(name, frame)
                counters["net.events"] += ran
                return ran

            return traced_scheduler

        if name == "agent.collector_process":

            def traced_process(*args, **kwargs):
                frame = enter(hot)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    leave(name, frame)
                counters["agent.sampled_sub_traces"] += result.sampled
                return result

            return traced_process

        def traced(*args, **kwargs):
            frame = enter(hot)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(name, frame)

        return traced

    def _enter(self, hot: bool) -> tuple[int, int]:
        """Open a call; returns (span index or -1, start_ns)."""
        self._child_ns.append(0)
        index = -1
        if not hot:
            open_spans = self._open_spans
            index = len(self.spans)
            # Placeholder keeps the slot (and so the parent indices of
            # children) stable; filled in on leave.
            self.spans.append(("", 0, 0, open_spans[-1] if open_spans else -1, 0))
            open_spans.append(index)
        return index, perf_counter_ns()

    def _leave(self, name: str, frame: tuple[int, int]) -> None:
        end = perf_counter_ns()
        index, start = frame
        elapsed = end - start
        child_ns = self._child_ns
        self.self_ns[name] += elapsed - child_ns.pop()
        self.calls[name] += 1
        if child_ns:
            child_ns[-1] += elapsed
        if index >= 0:
            self._open_spans.pop()
            self.spans[index] = (name, start, end, self.spans[index][3], self.op_id)

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def span_rows(self) -> Iterator[dict[str, Any]]:
        """The span list as JSON-ready rows (``id`` is the row index)."""
        for index, (name, start, end, parent, op_id) in enumerate(self.spans):
            yield {
                "id": index,
                "name": name,
                "start_ns": start,
                "end_ns": end,
                "parent": parent,
                "op_id": op_id,
            }
