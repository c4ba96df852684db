"""Contracts of the read-path kernels and of the segment-render memo.

* ``StringTemplate.reconstruct`` (one interleaving join) ≡ the token
  walk in ``tests/reference_read_path.py``.
* ``BloomFilter.contains_hashed(*_digest_pair(x))`` ≡ ``x in f``.
* ``entries_containing(entries, h1, h2)`` ≡ the ``contains_hashed``
  comprehension (same objects, same order) over mixed geometries, and
  the merged pre-screen ≡ the oracle's while accumulators are added and
  dropped.
* A lookup resolves sealed filters in ``iter(engine.blooms)`` order:
  decode counts and LRU order equal a plain iteration's.
* The render memo is dropped exactly when a pattern report changes
  something or the reachable shards move, is bounded by the topo
  library, and never shares ``nodes_reporting`` between results.
* The stitched-order memo is dropped with the render memo, holds at
  most one entry per distinct matched pattern set, and still hands
  every result fresh segments.
* ``span_from_record`` ≡ the oracle's exact span, and a record whose
  value count differs from its pattern raises ``ValueError``.
* A sharded point, batch or predicate lookup decodes no sealed block
  whose pattern the pre-screen ruled out.
"""

from __future__ import annotations

import random

import pytest
import reference_read_path
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agent.reports import BloomReport, ParamsReport, PatternLibraryReport
from repro.backend.backend import MintBackend
from repro.backend.sharded import MergedStorageView, ShardedBackend, shard_for_key
from repro.backend.storage import StorageEngine, StoredBloom
from repro.bloom.bloom_filter import BloomFilter, _digest_pair, entries_containing, sized_for_bytes
from repro.cold import ColdPolicy, blocks, compactor
from repro.cold.blocks import decode_bloom_payload, encode_bloom_payload
from repro.elastic.chaos import SHARD_CHAOS_PROFILES
from repro.framework import MintFramework
from repro.obs.trace import Observer
from repro.parsing.span_parser import DURATION_KEY, ParsedSpan, SpanPattern, span_from_record
from repro.parsing.string_patterns import WILDCARD, StringTemplate, template_from_text
from repro.parsing.trace_parser import TopoPattern
from repro.query import QuerySpec
from repro.sim.experiment import drive, generate_stream
from repro.transport.deployment import Deployment
from repro.workloads import build_onlineboutique

# ----------------------------------------------------------------------
# StringTemplate.reconstruct
# ----------------------------------------------------------------------
TOKENS = st.sampled_from([WILDCARD, "select", "x1", " ", "=", "/", "?", ":", "id", "ü"])
PARAMS = st.text(alphabet=st.sampled_from(list("ab1 /=:<*>ü")), max_size=6)


@st.composite
def template_and_params(draw):
    template = StringTemplate(tokens=tuple(draw(st.lists(TOKENS, max_size=12))))
    params = draw(
        st.lists(PARAMS, min_size=template.wildcard_count, max_size=template.wildcard_count)
    )
    return template, params


class TestSegmentJoinedReconstruct:
    @settings(max_examples=400, deadline=None)
    @given(template_and_params())
    def test_equals_the_token_walk(self, case):
        template, params = case
        want = reference_read_path.reconstruct(template, params)
        assert template.reconstruct(params) == want
        assert template.reconstruct(tuple(params)) == want
        reparsed = template_from_text(template.text)  # what the backend holds
        if reparsed.wildcard_count == len(params):
            assert reparsed.reconstruct(params) == reference_read_path.reconstruct(
                reparsed, params
            )

    @settings(max_examples=400, deadline=None)
    @given(template_and_params())
    def test_extract_then_reconstruct_round_trips(self, case):
        template, params = case
        value = reference_read_path.reconstruct(template, params)
        extracted = template.extract(value)
        assert extracted is not None
        assert template.reconstruct(extracted) == value

    @pytest.mark.parametrize(
        "tokens, params, want",
        [
            ((), [], ""),
            (("a", " ", "b"), [], "a b"),
            ((WILDCARD,), [""], ""),
            ((WILDCARD, "a"), ["<*>"], "<*>a"),
            (("a", WILDCARD), ["x y"], "ax y"),
            ((WILDCARD, WILDCARD, "/", WILDCARD, WILDCARD), ["p", "q"], "p/q"),
            ((WILDCARD, "=", WILDCARD), ["", ""], "="),
        ],
    )
    def test_edges(self, tokens, params, want):
        template = StringTemplate(tokens=tokens)
        assert template.reconstruct(params) == want
        assert reference_read_path.reconstruct(template, params) == want

    @pytest.mark.parametrize("params", [[], ["a"], ["a", "b", "c"]])
    def test_wrong_arity_raises(self, params):
        template = StringTemplate(tokens=("k", "=", WILDCARD, "&", WILDCARD))
        with pytest.raises(ValueError, match="2 wildcards"):
            template.reconstruct(params)
        with pytest.raises(ValueError, match="2 wildcards"):
            reference_read_path.reconstruct(template, params)


# ----------------------------------------------------------------------
# BloomFilter.contains_hashed
# ----------------------------------------------------------------------
# (n, p) -> bit_count 959 (7 mod 8), 8 (the floor; h2 % m == 0 is common),
# 14378, 124 and the deployed 4 KB geometry.
GEOMETRIES = [(100, 0.01), (1, 0.5), (1000, 0.001), (37, 0.2), (3417, 0.01)]


def definitional_probe(filt: BloomFilter, h1: int, h2: int) -> bool:
    bits = int.from_bytes(filt.to_bytes(), "little")
    return all(
        bits >> ((h1 + i * h2) % filt.bit_count) & 1 for i in range(filt.hash_count)
    )


def round_trips(filt: BloomFilter) -> list[BloomFilter]:
    """The filter itself, through to/from_bytes, and through a cold block."""
    clone = BloomFilter.from_bytes(
        filt.to_bytes(), filt.expected_insertions, filt.false_positive_probability, len(filt)
    )
    (decoded,) = decode_bloom_payload(
        encode_bloom_payload([StoredBloom(node="n", topo_pattern_id="t", filter=filt)])
    )
    return [filt, clone, decoded.filter]


class TestHashedProbe:
    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_equals_in_for_inserted_and_absent_ids(self, geometry):
        rng = random.Random(geometry[0])
        left, right = BloomFilter(*geometry), BloomFilter(*geometry)
        inserted = [f"{rng.getrandbits(128):032x}" for _ in range(geometry[0])]
        for index, item in enumerate(inserted):
            (left if index % 2 else right).add(item)
        merged = BloomFilter(*geometry)
        merged.absorb(left)
        merged.absorb(right)
        absent = [f"{rng.getrandbits(128):032x}" for _ in range(300)]
        for base in (left, right, merged):
            for filt in round_trips(base):
                assert filt.geometry() == base.geometry() and len(filt) == len(base)
                for item in inserted + absent:
                    digest = _digest_pair(item)
                    got = filt.contains_hashed(*digest)
                    assert got == (item in filt)
                    assert got == reference_read_path.bloom_contains(filt, item)
                    assert got == definitional_probe(filt, *digest)
        assert all(merged.contains_hashed(*_digest_pair(item)) for item in inserted)

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(GEOMETRIES),
        st.integers(min_value=0, max_value=2**64 - 1),
        st.integers(min_value=0, max_value=2**64 - 1),
        st.integers(min_value=0, max_value=64),
        st.booleans(),
    )
    def test_any_digest_matches_the_definition(self, geometry, h1, h2, fill, zero_step):
        filt = BloomFilter(*geometry)
        for index in range(fill):
            filt.add(f"item-{index}")
        if zero_step:  # every probe lands on the same bit
            h2 -= h2 % filt.bit_count
        assert filt.contains_hashed(h1, h2) == definitional_probe(filt, h1, h2)

    def test_zero_step_digest_of_a_real_id(self):
        filt = BloomFilter(1, 0.5)
        item = next(
            f"id-{i}" for i in range(10_000) if _digest_pair(f"id-{i}")[1] % filt.bit_count == 0
        )
        assert item not in filt and not filt.contains_hashed(*_digest_pair(item))
        filt.add(item)
        assert item in filt and filt.contains_hashed(*_digest_pair(item))


# ----------------------------------------------------------------------
# entries_containing: one probe pass over many filters
# ----------------------------------------------------------------------
def comprehension(entries, h1, h2):
    return [e for e in entries if e.filter.contains_hashed(h1, h2)]


def assert_same_objects(got, want):
    assert [id(e) for e in got] == [id(e) for e in want]


def random_entries(rng, make, count, fill):
    entries = []
    for index in range(count):
        filt = make()
        for _ in range(rng.randint(0, fill)):
            filt.add(f"{rng.getrandbits(128):032x}")
        entries.append(StoredBloom(f"n{index % 3}", f"t{index % 5}", filt))
    return entries


# Two buffer sizes at two fpps, and tiny geometries whose probe
# sequence wraps past ``m`` on almost every digest; the last two share
# ``m = 8`` but probe 6 and 3 times.
PROBE_GEOMETRIES = [
    lambda: sized_for_bytes(4096, 0.01),
    lambda: sized_for_bytes(512, 0.05),
    lambda: BloomFilter(37, 0.2),
    lambda: BloomFilter(1, 0.5),
    lambda: BloomFilter(2, 0.5),
]


class TestEntriesContaining:
    def test_equals_the_comprehension_over_mixed_geometries(self):
        rng = random.Random(34)
        for _ in range(60):
            entries = []
            for make in rng.sample(PROBE_GEOMETRIES, rng.randint(1, 3)):
                probe = make()
                fill = rng.choice([1, probe.expected_insertions // 3, probe.expected_insertions])
                entries += random_entries(rng, make, rng.randint(0, 12), fill)
            rng.shuffle(entries)
            for _ in range(40):
                digest = rng.getrandbits(64), rng.getrandbits(64)
                got = entries_containing(entries, *digest)
                assert_same_objects(got, comprehension(entries, *digest))
                assert got is not entries

    def test_empty_none_one_and_all(self):
        rng = random.Random(7)
        assert entries_containing([], 1, 2) == []
        entries = random_entries(rng, PROBE_GEOMETRIES[0], 10, 3)
        absent = next(
            digest
            for digest in ((rng.getrandbits(64), rng.getrandbits(64)) for _ in range(1000))
            if not comprehension(entries, *digest)
        )
        assert entries_containing(entries, *absent) == []
        entries[4].filter.add("only-here")
        one = _digest_pair("only-here")
        assert_same_objects(entries_containing(entries, *one), [entries[4]])
        for entry in entries:
            entry.filter.add("everywhere")
        every = _digest_pair("everywhere")
        assert_same_objects(entries_containing(entries, *every), entries)
        mixed = entries + random_entries(rng, PROBE_GEOMETRIES[1], 5, 0)
        mixed[-1].filter.add("everywhere")
        assert_same_objects(entries_containing(mixed, *every), entries + mixed[-1:])

    def test_same_bit_count_other_hash_count_is_another_geometry(self):
        rng = random.Random(2)
        six, three = PROBE_GEOMETRIES[-2](), PROBE_GEOMETRIES[-1]()
        assert six.bit_count == three.bit_count and six.hash_count != three.hash_count
        entries = random_entries(rng, PROBE_GEOMETRIES[-2], 6, 1)
        entries += random_entries(rng, PROBE_GEOMETRIES[-1], 6, 1)
        for _ in range(300):
            digest = rng.getrandbits(64), rng.getrandbits(64)
            for ordered in (entries, entries[::-1]):
                assert_same_objects(
                    entries_containing(ordered, *digest), comprehension(ordered, *digest)
                )

    @pytest.mark.parametrize("make", PROBE_GEOMETRIES)
    def test_digests_that_wrap_past_m(self, make):
        rng = random.Random(11)
        entries = random_entries(rng, make, 8, make().expected_insertions // 2)
        m, k = entries[0].filter.geometry()
        top = 2**64 // m * m  # the largest multiple of m a 64-bit digest reaches
        for h1 in (m - 1, 2 * m - 1, top - 1):  # all start at m - 1
            for h2 in (m - 1, m + m // 2, top + 1):
                positions = [h1 % m + i * (h2 % m) for i in range(k)]
                assert k >= 2 and max(positions) >= m  # the sequence wraps
                assert_same_objects(
                    entries_containing(entries, h1, h2), comprehension(entries, h1, h2)
                )


class TestPrescreenCandidates:
    def test_equals_the_oracle_while_accumulators_come_and_go(self):
        rng = random.Random(3)
        shards = [StorageEngine(4096, 0.01), StorageEngine(512, 0.05)]
        view = MergedStorageView(shards)
        patterns = [f"{index:016x}" for index in range(6)]
        inserted: list[str] = []
        dropped = 0
        for step in range(80):
            shard = rng.choice(shards)
            filt = sized_for_bytes(shard.bloom_buffer_bytes, shard.bloom_fpp)
            heavy = rng.random() < 0.1  # drives an accumulator past saturation
            for _ in range(filt.expected_insertions if heavy else rng.randint(1, 20)):
                inserted.append(f"{rng.getrandbits(128):032x}")
                filt.add(inserted[-1])
            report = BloomReport(
                node=f"host-{step % 4}",
                topo_pattern_id=rng.choice(patterns),
                payload=filt.to_bytes(),
                inserted=len(filt),
            )
            before = len(view._accumulators)
            shard.store_bloom_report(report)
            view.observe_report(report, shard)
            dropped += len(view._accumulators) < before
            assert [(e.topo_pattern_id, id(e.filter)) for e in view._accumulators] == [
                (pattern_id, id(filt))
                for pattern_id, groups in view._merged_blooms.items()
                for filt in groups.values()
            ]
            for trace_id in rng.sample(inserted, 5) + [f"absent-{step}"]:
                want = reference_read_path.merged_prescreen_candidates(view, trace_id)
                assert view.prescreen_candidates(trace_id) == want
                assert_same_objects(
                    view.patterns_matching_trace(trace_id),
                    reference_read_path.merged_patterns_matching_trace(view, trace_id),
                )
        assert dropped and view._prescreen_saturated
        geometries = {e.filter.geometry() for e in view._accumulators}
        assert len(geometries) == 2


class TestFromBytes:
    def test_adopts_a_copy_of_the_payload(self):
        source = sized_for_bytes(4096)
        source.add("a" * 32)
        payload = bytearray(source.to_bytes())
        clone = BloomFilter.from_bytes(payload, source.expected_insertions, 0.01, inserted=1)
        payload[:] = bytes(len(payload))
        assert "a" * 32 in clone and clone.inserted == 1
        assert clone.size_bytes == source.size_bytes
        clone.add("b" * 32)
        assert "b" * 32 not in source

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_wrong_length_payload_raises(self, delta):
        filt = BloomFilter(200, 0.01)
        payload = (filt.to_bytes() + b"x")[: filt.size_bytes + delta]
        with pytest.raises(ValueError, match=f"expected {filt.size_bytes}"):
            BloomFilter.from_bytes(payload, 200, 0.01)


# ----------------------------------------------------------------------
# The segment-render memo
# ----------------------------------------------------------------------
TRACE_ID = "7" * 32
ROOT = SpanPattern(
    name="GET /cart",
    service="cart",
    kind="server",
    status="ok",
    attributes=(("items", "numeric", "<num>"), (DURATION_KEY, "numeric", "<num>")),
)
CHILD = SpanPattern(
    name="redis.get",
    service="cart",
    kind="client",
    status="ok",
    attributes=(("key", "string", "cart:<*>"),),
)
TOPO = TopoPattern(
    roots=((ROOT.pattern_id, ((CHILD.pattern_id, ()),)),),
    entry_ops=(("cart", "GET /cart"),),
    exit_ops=(("redis", "get"),),
)


def root_report(node: str, upper: float, with_child: bool = False) -> PatternLibraryReport:
    patterns = [dict(ROOT.to_dict(), numeric_ranges={"items": [1.0, upper]})]
    if with_child:
        patterns.append(CHILD.to_dict())
    return PatternLibraryReport(node=node, span_patterns=patterns)


def topo_and_bloom_reports(node: str):
    filt = sized_for_bytes(4096)
    filt.add(TRACE_ID)
    return (
        PatternLibraryReport(node=node, topo_patterns=[TOPO.to_dict()]),
        BloomReport(
            node=node, topo_pattern_id=TOPO.pattern_id, payload=filt.to_bytes(), inserted=1
        ),
    )


def rendered(backend):
    """(span names, the root's ``items`` range) of the one segment."""
    result = backend.query(TRACE_ID)
    assert result.status == "partial"
    (segment,) = result.approximate.segments
    assert segment.nodes_reporting == ["host-a"]
    return [v["name"] for v in segment.spans], segment.spans[0]["attributes"]["items"]


def two_hosts_on_different_shards() -> tuple[str, str]:
    home = shard_for_key("host-a", 2)
    other = next(h for h in map("host-{}".format, "bcdefgh") if shard_for_key(h, 2) != home)
    return "host-a", other


class TestRenderMemoStaleness:
    @pytest.mark.parametrize("make", [MintBackend, lambda: ShardedBackend(num_shards=2)])
    def test_a_pattern_report_shows_in_the_next_answer(self, make):
        backend = make()
        first_host, second_host = two_hosts_on_different_shards()
        backend.receive(root_report(first_host, upper=10.0))
        for report in topo_and_bloom_reports(first_host):
            backend.receive(report)
        before = backend.query(TRACE_ID)
        assert rendered(backend) == (["GET /cart"], "(1, 10]")
        # Wider range + the span pattern the first render could not resolve.
        backend.receive(root_report(second_host, upper=50.0, with_child=True))
        assert rendered(backend) == (["GET /cart", "redis.get"], "(1, 50]")
        # The earlier answer is a snapshot: nothing rewrote it in place.
        (old_segment,) = before.approximate.segments
        assert [v["name"] for v in old_segment.spans] == ["GET /cart"]
        assert old_segment.spans[0]["attributes"]["items"] == "(1, 10]"

    def test_version_moves_exactly_when_a_report_changes_something(self):
        engine = MintBackend().storage
        engine.store_pattern_report(root_report("host-a", upper=10.0))
        engine.store_pattern_report(topo_and_bloom_reports("host-a")[0])
        version, renders = engine.pattern_version, engine.segment_renders
        renders["sentinel"] = object()
        for _ in range(2):  # duplicates and narrower ranges change nothing
            engine.store_pattern_report(root_report("host-b", upper=10.0))
            engine.store_pattern_report(root_report("host-b", upper=5.0))
            engine.store_pattern_report(topo_and_bloom_reports("host-b")[0])
        assert engine.pattern_version == version and engine.segment_renders is renders
        for report in (
            root_report("host-b", upper=11.0),
            root_report("host-b", upper=11.0, with_child=True),
        ):
            engine.store_pattern_report(report)
            version += 1
            assert engine.pattern_version == version
            assert "sentinel" not in engine.segment_renders

    @pytest.mark.parametrize("start_down", [False, True])
    def test_outage_renders_and_healthy_renders_never_mix(self, start_down):
        # Chaos attaches the roster patched below (its crash starts at 5 s; the clock reads 0).
        backend = ShardedBackend(num_shards=2, shard_chaos=SHARD_CHAOS_PROFILES["crash"])
        first_host, second_host = two_hosts_on_different_shards()
        backend.receive(root_report(first_host, upper=10.0))
        for report in topo_and_bloom_reports(first_host):
            backend.receive(report)
        backend.receive(root_report(second_host, upper=50.0, with_child=True))
        down: set[int] = set()
        backend.down_shards = lambda: down
        healthy = (["GET /cart", "redis.get"], "(1, 50]")
        degraded = (["GET /cart"], "(1, 10]")
        outage = {backend.shard_for(second_host)}
        for is_down in [start_down, not start_down, start_down, start_down]:
            down.clear()
            down.update(outage if is_down else ())
            assert rendered(backend) == (degraded if is_down else healthy)


class TestRenderMemoBound:
    @pytest.mark.parametrize("shards", [1, 2])
    def test_bounded_by_the_topo_library_and_nodes_never_shared(self, shards):
        workload = build_onlineboutique()
        stream, _ = generate_stream(workload, 200, abnormal_rate=0.05, seed=3)
        deployment = Deployment.single() if shards == 1 else Deployment.sharded(shards)
        framework = MintFramework(deployment=deployment, auto_warmup_traces=40)
        drive(framework, stream)
        rng = random.Random(4)
        ids = [trace.trace_id for _, trace in stream] + ["missing"]
        results = []
        for _ in range(20):
            results.extend(framework.query(rng.choice(ids)) for _ in range(50))
            results.extend(framework.query_many(rng.choices(ids, k=50)))
        assert len(results) == 2000
        storage = framework.backend.storage
        assert 0 < len(storage.segment_renders) <= len(storage.topo_patterns)
        by_pattern: dict[str, list] = {}
        for result in {id(r): r for r in results}.values():  # cursors repeat objects
            if result.approximate is not None:
                for segment in result.approximate.segments:
                    by_pattern.setdefault(segment.topo_pattern_id, []).append(segment)
        assert any(len(group) > 1 for group in by_pattern.values())
        for group in by_pattern.values():
            assert len({id(seg.nodes_reporting) for seg in group}) == len(group)
            # ... while the pattern-only render is one shared, read-only object.
            assert len({id(seg.spans) for seg in group}) == 1
        framework.close()


# ----------------------------------------------------------------------
# The stitched-order memo
# ----------------------------------------------------------------------
STORES = {
    "single": MintBackend,
    "sharded": lambda: ShardedBackend(num_shards=2),
    # Chaos attaches a roster (its crash starts at 5 s; the clock reads 0).
    "elastic-roster": lambda: ShardedBackend(
        num_shards=2, shard_chaos=SHARD_CHAOS_PROFILES["crash"]
    ),
}


class TestOrderMemoStaleness:
    @pytest.mark.parametrize("make", list(STORES.values()), ids=list(STORES))
    def test_dropped_with_the_renders_exactly_when_a_report_changes_something(self, make):
        backend = make()
        storage = backend.storage
        first_host, second_host = two_hosts_on_different_shards()
        backend.receive(root_report(first_host, upper=10.0))
        for report in topo_and_bloom_reports(first_host):
            backend.receive(report)
        assert rendered(backend) == (["GET /cart"], "(1, 10]")
        orders, renders = storage.segment_orders, storage.segment_renders
        assert list(orders) == [(TOPO.pattern_id,)]
        for report in (  # duplicates and narrower ranges change nothing
            root_report(first_host, upper=10.0),
            root_report(first_host, upper=5.0),
            topo_and_bloom_reports(first_host)[0],
        ):
            backend.receive(report)
            assert rendered(backend) == (["GET /cart"], "(1, 10]")
            assert storage.segment_orders is orders and storage.segment_renders is renders
        for report, want in (
            (root_report(first_host, upper=11.0), (["GET /cart"], "(1, 11]")),
            (
                root_report(second_host, upper=50.0, with_child=True),
                (["GET /cart", "redis.get"], "(1, 50]"),
            ),
        ):
            backend.receive(report)
            assert storage.segment_orders == {} and storage.segment_renders == {}
            assert rendered(backend) == want
            assert list(storage.segment_orders) == [(TOPO.pattern_id,)]


def matched_set(storage, trace_id: str) -> tuple[str, ...]:
    return tuple(sorted({s.topo_pattern_id for s in storage.patterns_matching_trace(trace_id)}))


class TestOrderMemoBound:
    @pytest.mark.parametrize("shards", [1, 2])
    def test_one_entry_per_matched_set_and_fresh_segments(self, shards):
        workload = build_onlineboutique()
        stream, _ = generate_stream(workload, 200, abnormal_rate=0.05, seed=3)
        deployment = Deployment.single() if shards == 1 else Deployment.sharded(shards)
        framework = MintFramework(deployment=deployment, auto_warmup_traces=40)
        drive(framework, stream)
        rng = random.Random(4)
        ids = [trace.trace_id for _, trace in stream] + ["missing"]
        queried: set[str] = set()
        results = []
        for _ in range(20):
            point = [rng.choice(ids) for _ in range(50)]
            batch = rng.choices(ids, k=50)
            queried.update(point, batch)
            results.extend(framework.query(trace_id) for trace_id in point)
            results.extend(framework.query_many(batch))
        assert len(results) == 2000
        storage = framework.backend.storage
        matched_sets = {matched_set(storage, trace_id) for trace_id in queried} - {()}
        assert 0 < len(storage.segment_orders) <= len(matched_sets)
        assert set(storage.segment_orders) <= matched_sets
        distinct = list({id(r): r for r in results}.values())  # cursors repeat objects
        partial = [r for r in distinct if r.approximate is not None]
        assert any(len(r.approximate.segments) > 1 for r in partial)
        segments = [seg for r in partial for seg in r.approximate.segments]
        assert len({id(seg) for seg in segments}) == len(segments)
        assert len({id(seg.nodes_reporting) for seg in segments}) == len(segments)
        framework.close()


# ----------------------------------------------------------------------
# Exact spans straight from compact records
# ----------------------------------------------------------------------
RECORD = ["s1", None, "host-a", ROOT.pattern_id, 12.5, [3, 41.5]]


class TestSpanFromRecord:
    def test_exact_length_equals_the_oracle(self):
        parsed = ParsedSpan.from_compact_record(TRACE_ID, RECORD, ROOT)
        want = reference_read_path.reconstruct_exact_span(ROOT, parsed)
        got = span_from_record(TRACE_ID, RECORD, ROOT)
        assert got == want
        assert (got.duration, got.attributes, got.start_time) == (41.5, {"items": 3.0}, 12.5)

    @pytest.mark.parametrize("values", [[3], [3, 41.5, 7]], ids=["short", "long"])
    def test_wrong_value_count_raises_naming_the_pattern(self, values):
        record = RECORD[:5] + [values]
        with pytest.raises(ValueError, match=ROOT.pattern_id):
            span_from_record(TRACE_ID, record, ROOT)
        backend = MintBackend()
        backend.receive(root_report("host-a", upper=10.0))
        backend.receive(ParamsReport(node="host-a", trace_id=TRACE_ID, records=[record]))
        message = f"{len(values)} values; span pattern {ROOT.pattern_id}"
        with pytest.raises(ValueError, match=message):
            backend.query(TRACE_ID)

    @pytest.mark.parametrize(
        "pattern, values, message",
        [
            (ROOT, [[3], 41.5], "numeric attribute 'items' carries a list"),
            (CHILD, ["42"], "string attribute 'key' carries"),
        ],
    )
    def test_kind_mismatch_raises_type_error(self, pattern, values, message):
        record = ["s1", None, "host-a", pattern.pattern_id, 1.0, values]
        with pytest.raises(TypeError, match=message):
            span_from_record(TRACE_ID, record, pattern)


# ----------------------------------------------------------------------
# Pre-screened-out sealed blocks stay cold
# ----------------------------------------------------------------------
OTHER = TopoPattern(
    roots=((CHILD.pattern_id, ()),), entry_ops=(("redis", "get"),), exit_ops=()
)
OTHER_TRACE_ID = "8" * 32


class TestPrescreenedOutBlocksStayCold:
    def test_a_point_lookup_decodes_only_candidate_blocks(self):
        backend = ShardedBackend(num_shards=2)
        host = "host-a"
        topo_report, bloom_report = topo_and_bloom_reports(host)
        other = sized_for_bytes(4096)
        other.add(OTHER_TRACE_ID)
        for report in (
            root_report(host, upper=10.0, with_child=True),
            topo_report,
            PatternLibraryReport(node=host, topo_patterns=[OTHER.to_dict()]),
            bloom_report,
            BloomReport(
                node=host, topo_pattern_id=OTHER.pattern_id, payload=other.to_bytes(), inserted=1
            ),
        ):
            backend.receive(report)
        engine = backend.shards[backend.shard_for(host)]
        observer = Observer()
        engine.cold.bind_observer(observer)
        cache_hits = observer.counter("mint_cold_cache_hits", plane="cold")
        engine.seal_bloom_block([1])  # OTHER's filter goes cold
        assert backend.merged.prescreen_candidates(TRACE_ID) == {TOPO.pattern_id}
        # Point, batch and predicate plans share one lookup.
        results = [backend.query(TRACE_ID) for _ in range(3)]
        results += backend.query_many([TRACE_ID, TRACE_ID]).all()
        results += backend.execute(QuerySpec.where(candidates=[TRACE_ID], service="cart")).all()
        assert len(results) == 6
        for result in results:
            assert [seg.topo_pattern_id for seg in result.approximate.segments] == [
                TOPO.pattern_id
            ]
        assert (engine.cold.blocks_decoded, cache_hits.value) == (0, 0)
        # A lookup the pre-screen lets through still reads the sealed filter.
        result = backend.query(OTHER_TRACE_ID)
        assert [seg.topo_pattern_id for seg in result.approximate.segments] == [
            OTHER.pattern_id
        ]
        assert engine.cold.blocks_decoded == 1


# ----------------------------------------------------------------------
# A lookup decodes sealed blocks in iteration order
# ----------------------------------------------------------------------
def sealed_engines(shards: int) -> list[StorageEngine]:
    """OnlineBoutique with all but two filters sealed, one per block."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(compactor, "BLOCK_BLOOMS", 1)
        deployment = Deployment.single() if shards == 1 else Deployment.sharded(shards)
        framework = MintFramework(deployment=deployment)
        stream, _ = generate_stream(build_onlineboutique(), 300, 0.1, seed=9)
        framework.warm_up([trace for _, trace in stream[:60]])
        drive(framework, stream[60:])
        framework.compact(ColdPolicy(keep_hot_traces=20, keep_hot_blooms=2))
    storage = framework.backend.storage
    framework.close()
    return list(getattr(storage, "shards", [storage]))


class TestLookupDecodeOrder:
    @pytest.mark.parametrize("shards", [1, 2], ids=["single", "sharded-2"])
    def test_a_lookup_leaves_the_cold_tier_as_iteration_does(self, shards, monkeypatch):
        looked_up, iterated = sealed_engines(shards), sealed_engines(shards)
        monkeypatch.setattr(blocks, "CACHE_BLOCKS", 3)  # a sweep evicts
        rng = random.Random(5)
        for lookup, twin in zip(looked_up, iterated):
            assert twin.blooms.sealed_count() > blocks.CACHE_BLOCKS
            for block_id in rng.sample(twin.cold.block_ids(), 3):  # same warm LRU on both
                lookup.cold.decode(block_id)
                twin.cold.decode(block_id)
            for trace_id in rng.sample(sorted(twin.params), 4) + ["no-such-trace"]:
                matches = lookup.patterns_matching_trace(trace_id)
                swept = list(iter(twin.blooms))
                assert [(m.node, m.topo_pattern_id) for m in matches] == [
                    (s.node, s.topo_pattern_id)
                    for s in swept
                    if s.filter.contains_hashed(*_digest_pair(trace_id))
                ]
                assert lookup.cold.blocks_decoded == twin.cold.blocks_decoded
                assert list(lookup.cold._cache) == list(twin.cold._cache)
