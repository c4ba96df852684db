"""Property tests: concurrent interning is commutative and lossless.

Content-derived pattern ids are what make parallel ingest safe at all:
the same span shape hashes to the same id on every worker, so K
partitioned libraries merge into exactly the sequential library.  The
properties pin that commutativity twice — directly at the intern layer
(pure, hypothesis-heavy) and end-to-end through the backend (full
frameworks at K ∈ {1, 2, 4, 8} workers: identical merged library,
identical byte counters, identical ``replicated_pattern_bytes``).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.concurrent.verify import byte_tables
from repro.framework import MintFramework
from repro.parsing.span_parser import SpanPatternLibrary
from repro.sim.experiment import drive as sim_drive
from repro.sim.experiment import generate_stream
from repro.transport import Deployment
from repro.workloads import build_onlineboutique

WORKER_COUNTS = (1, 2, 4, 8)

# A span shape as the intern layer sees it: (name, service, kind,
# status, attribute schema).  Small alphabets on purpose — collisions
# between workers are the interesting case.
_names = st.sampled_from(["GET /a", "GET /b", "POST /c", "DELETE /d"])
_services = st.sampled_from(["cart", "auth", "pay"])
_kinds = st.sampled_from(["server", "client"])
_statuses = st.sampled_from(["ok", "error"])
_attr_schemas = st.sampled_from(
    [
        (),
        (("http.method", "categorical", "GET"),),
        (("http.method", "categorical", "GET"), ("latency", "numeric", "<num>")),
    ]
)
span_shapes = st.tuples(_names, _services, _kinds, _statuses, _attr_schemas)


class TestInternLayerCommutativity:
    @given(st.lists(span_shapes, min_size=1, max_size=120), st.sampled_from(WORKER_COUNTS))
    @settings(max_examples=60, deadline=None)
    def test_partitioned_interning_merges_to_sequential(self, shapes, workers):
        sequential = SpanPatternLibrary()
        for shape in shapes:
            sequential.intern(*shape)

        partitioned = [SpanPatternLibrary() for _ in range(workers)]
        for index, shape in enumerate(shapes):
            partitioned[index % workers].intern(*shape)

        merged: set[str] = set()
        for library in partitioned:
            merged.update(library.snapshot())
        assert merged == set(sequential.snapshot())
        # Totals commute too: every span is matched exactly once somewhere.
        assert sum(
            library.match_count(pid)
            for library in partitioned
            for pid in library.snapshot()
        ) == len(shapes)

    @given(st.lists(span_shapes, min_size=1, max_size=80))
    @settings(max_examples=60, deadline=None)
    def test_snapshot_is_stable_and_insertion_ordered(self, shapes):
        library = SpanPatternLibrary()
        for shape in shapes:
            library.intern(*shape)
        first = library.snapshot()
        # Re-interning already-known shapes never perturbs the snapshot.
        for shape in shapes:
            library.intern(*shape)
        assert library.snapshot() == first
        assert len(set(first)) == len(first)


class TestEndToEndCommutativity:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        workers=st.sampled_from(WORKER_COUNTS),
    )
    @settings(max_examples=4, deadline=None)
    def test_k_workers_reproduce_sequential_libraries_and_bytes(
        self, seed, workers
    ):
        workload = build_onlineboutique()
        stream, _ = generate_stream(workload, 70, abnormal_rate=0.02, seed=seed)

        def drive(framework):
            sim_drive(framework, stream)
            return framework

        sequential = drive(
            MintFramework(auto_warmup_traces=30, deployment=Deployment.sharded(2))
        )
        parallel = drive(
            MintFramework(
                auto_warmup_traces=30,
                deployment=Deployment.sharded(2, workers=workers),
            )
        )
        try:
            seq_store, par_store = (
                sequential.backend.storage,
                parallel.backend.storage,
            )
            assert set(par_store.span_patterns) == set(seq_store.span_patterns)
            assert set(par_store.topo_patterns) == set(seq_store.topo_patterns)
            assert byte_tables(parallel) == byte_tables(sequential)
            assert (
                parallel.backend.merged.replicated_pattern_bytes()
                == sequential.backend.merged.replicated_pattern_bytes()
            )
        finally:
            parallel.close()
            sequential.close()
