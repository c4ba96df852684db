"""Cold-tier units: the codec, sealed blocks, tiered containers.

The contracts pinned here are the ones the seal-boundary integration
tests (test_cold_boundaries.py) and the cold bench gate build on:
the codec roundtrips bit-for-bit (with and without a trained dictionary),
the block store fails loudly on corruption, and the tiered containers
are behaviourally indistinguishable from the plain dict/list they
replace — including iteration order across seal/unseal cycles.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.agent.reports import BloomReport
from repro.backend.sharded import ShardedBackend
from repro.backend.storage import StorageEngine, StoredBloom
from repro.bloom.bloom_filter import BloomFilter, sized_for_bytes
from repro.cold import (
    ColdPolicy,
    ColdReadError,
    ColdTier,
    TieredBlooms,
    TieredParams,
    ZlibCodec,
    compact_engine,
    compactor,
    train_dictionary,
)
from repro.cold.blocks import (
    BLOOM_KIND,
    PARAMS_KIND,
    decode_bloom_payload,
    decode_params_payload,
    encode_bloom_payload,
    encode_params_payload,
)

RECORDS = {
    f"{i:032x}": [
        ["s1", None, "node-0", "p-aaaa", round(1.5 + i, 6), [i, "GET /items"]],
        ["s2", "s1", "node-1", "p-bbbb", round(1.6 + i, 6), [i * 2, "ok"]],
    ]
    for i in range(24)
}


class TestCodecs:
    def test_zlib_roundtrip_without_dictionary(self):
        codec = ZlibCodec()
        data = b'{"span":"GET /items","values":[1,2,3]}' * 50
        assert codec.decompress(codec.compress(data)) == data

    def test_zlib_roundtrip_with_trained_dictionary(self):
        codec = ZlibCodec()
        samples = [b'{"span":"GET /items","values":[%d]}' % i for i in range(40)]
        dictionary = codec.train(samples, 4096)
        assert dictionary
        data = b'{"span":"GET /items","values":[99]}'
        blob = codec.compress(data, dictionary)
        assert codec.decompress(blob, dictionary) == data

    def test_trained_dictionary_beats_plain_on_templated_blocks(self):
        # Small templated blocks are exactly the cold tier's payloads:
        # the dictionary must make them cheaper than dictionary-less
        # compression (the headline trained-vs-plain gate, in miniature).
        codec = ZlibCodec()
        blocks = [
            encode_params_payload({tid: bucket}) for tid, bucket in RECORDS.items()
        ]
        dictionary = codec.train(blocks, 8192)
        plain = sum(len(codec.compress(b)) for b in blocks)
        trained = sum(len(codec.compress(b, dictionary)) for b in blocks)
        assert trained < plain

    def test_fallback_trainer_is_deterministic_and_bounded(self):
        samples = [b"abc", b"def", b"abc", b"xyz" * 100]
        assert train_dictionary(samples, 64) == train_dictionary(samples, 64)
        assert len(train_dictionary(samples, 64)) <= 64
        # Most frequent sample sits at the tail (DEFLATE's cheap zone).
        assert train_dictionary(samples, 4096).endswith(b"abc")

    def test_tier_always_seals_with_zlib(self):
        tier = ColdTier()
        assert tier.codec.name == "zlib"
        assert tier.stats()["codec"] == "zlib"

    def test_unknown_codec_rejected(self):
        for name in ("zstd", "auto", "lz4"):
            with pytest.raises(ValueError):
                ColdPolicy(codec=name)


def make_bloom(node: str, pattern: str, items: list[str]) -> StoredBloom:
    filt = BloomFilter(expected_insertions=64, false_positive_probability=0.01)
    for item in items:
        filt.add(item)
    return StoredBloom(node=node, topo_pattern_id=pattern, filter=filt)


class TestPayloadFrames:
    def test_params_frame_roundtrip_preserves_order(self):
        raw = encode_params_payload(RECORDS)
        decoded = decode_params_payload(raw)
        assert decoded == RECORDS
        assert list(decoded) == list(RECORDS)

    def test_bloom_frame_roundtrip_preserves_geometry(self):
        entries = [
            make_bloom("node-0", "tp-1", ["a" * 32, "b" * 32]),
            make_bloom("node-1", "tp-2", ["c" * 32]),
        ]
        decoded = decode_bloom_payload(encode_bloom_payload(entries))
        assert len(decoded) == 2
        for original, back in zip(entries, decoded):
            assert back.node == original.node
            assert back.topo_pattern_id == original.topo_pattern_id
            assert back.filter.inserted == original.filter.inserted
            assert back.filter.geometry() == original.filter.geometry()
            assert back.filter.to_bytes() == original.filter.to_bytes()


class TestColdTier:
    def test_seal_decode_pop(self):
        tier = ColdTier()
        raw = encode_params_payload(RECORDS)
        block_id = tier.seal(
            PARAMS_KIND, raw, 1000, frozenset({"node-0", "node-1"}), tuple(RECORDS)
        )
        assert tier.decode(block_id) == RECORDS
        assert tier.sealed_logical_bytes() == 1000
        assert tier.physical_bytes() > 0
        assert tier.pop(block_id) == RECORDS
        assert len(tier) == 0
        assert tier.physical_bytes() == 0

    def test_corrupt_block_raises_cold_read_error(self):
        tier = ColdTier()
        raw = encode_params_payload(RECORDS)
        block_id = tier.seal(PARAMS_KIND, raw, 1000, frozenset(), tuple(RECORDS))
        block = tier.block(block_id)
        tier._blocks[block_id] = dataclasses.replace(
            block, payload=b"\x00garbage\xff"
        )
        with pytest.raises(ColdReadError):
            tier.decode(block_id)

    def test_truncated_decode_raises_cold_read_error(self):
        tier = ColdTier()
        raw = encode_params_payload(RECORDS)
        block_id = tier.seal(PARAMS_KIND, raw, 1000, frozenset(), tuple(RECORDS))
        block = tier.block(block_id)
        # A valid frame of the wrong content: decodes, but to the wrong
        # length — the tier must refuse rather than serve it.
        wrong = tier.codec.compress(raw[: len(raw) // 2], tier.dictionary)
        tier._blocks[block_id] = dataclasses.replace(block, payload=wrong)
        with pytest.raises(ColdReadError):
            tier.decode(block_id)

    def test_host_index(self):
        tier = ColdTier()
        a = tier.seal(PARAMS_KIND, b"{}", 1, frozenset({"node-0"}), ())
        b = tier.seal(PARAMS_KIND, b"{}", 1, frozenset({"node-1"}), ())
        assert tier.blocks_with_host("node-0") == [a]
        assert tier.blocks_with_host("node-1", PARAMS_KIND) == [b]
        assert tier.blocks_with_host("node-9") == []

    def test_decode_cache_reuses_objects(self):
        tier = ColdTier()
        entries = [make_bloom("node-0", "tp-1", ["a" * 32])]
        block_id = tier.seal(
            BLOOM_KIND, encode_bloom_payload(entries), 10, frozenset({"node-0"}), (1,),
            with_dictionary=False,
        )
        first = tier.decode(block_id)
        again = tier.decode(block_id)
        assert first is again
        assert tier.blocks_decoded == 1


class TestTieredParams:
    def seal_all(self, store: TieredParams, tier: ColdTier) -> int:
        items = store.hot_items()
        raw = encode_params_payload(dict(items))
        block_id = tier.seal(
            PARAMS_KIND,
            raw,
            1,
            frozenset(r[2] for _, bucket in items for r in bucket),
            tuple(k for k, _ in items),
        )
        store.seal([k for k, _ in items], block_id)
        return block_id

    def build(self) -> tuple[TieredParams, ColdTier]:
        tier = ColdTier()
        store = TieredParams(tier)
        for tid, bucket in RECORDS.items():
            store.setdefault(tid, []).extend(r for r in bucket)
        return store, tier

    def test_reads_read_through_without_promoting(self):
        store, tier = self.build()
        self.seal_all(store, tier)
        tid = next(iter(RECORDS))
        assert store.get(tid) == RECORDS[tid]
        assert store[tid] == RECORDS[tid]
        assert tid in store
        assert store.is_sealed(tid)  # reads never unseal
        assert len(tier) == 1

    def test_iteration_order_matches_plain_dict(self):
        store, tier = self.build()
        plain = {tid: list(bucket) for tid, bucket in RECORDS.items()}
        self.seal_all(store, tier)
        assert list(store) == list(plain)
        assert [k for k, _ in store.items()] == list(plain)
        assert len(store) == len(plain)
        # Delete + reinsert moves the key to the end, exactly like dict.
        victim = next(iter(plain))
        del store[victim]
        del plain[victim]
        store[victim] = [["x", None, "node-0", "p", 0.0, []]]
        plain[victim] = [["x", None, "node-0", "p", 0.0, []]]
        assert list(store) == list(plain)

    def test_writes_promote_the_whole_block(self):
        store, tier = self.build()
        self.seal_all(store, tier)
        tid = next(iter(RECORDS))
        bucket = store.setdefault(tid, [])
        assert bucket == RECORDS[tid]
        assert not store.is_sealed(tid)
        assert store.sealed_count() == 0  # block granularity
        assert len(tier) == 0
        bucket.append(["s9", None, "node-2", "p-cccc", 9.0, []])
        assert store[tid][-1][0] == "s9"

    def test_promote_host_only_touches_blocks_with_host(self):
        tier = ColdTier()
        store = TieredParams(tier)
        store.setdefault("t1", []).append(["s1", None, "node-0", "p", 0.0, []])
        store.setdefault("t2", []).append(["s2", None, "node-1", "p", 0.0, []])
        for tid in ("t1", "t2"):
            raw = encode_params_payload({tid: store[tid]})
            bid = tier.seal(PARAMS_KIND, raw, 1, frozenset({store[tid][0][2]}), (tid,))
            store.seal([tid], bid)
        assert store.sealed_count() == 2
        assert store.promote_host("node-0") == 1
        assert not store.is_sealed("t1")
        assert store.is_sealed("t2")


class TestTieredBlooms:
    def build(self) -> tuple[TieredBlooms, ColdTier, list[StoredBloom]]:
        tier = ColdTier()
        store = TieredBlooms(tier)
        entries = [
            make_bloom("node-0", "tp-1", ["a" * 32]),
            make_bloom("node-1", "tp-1", ["b" * 32]),
            make_bloom("node-0", "tp-2", ["c" * 32]),
        ]
        for stored in entries:
            store.append(stored)
        return store, tier, entries

    def seal_positions(self, store: TieredBlooms, tier: ColdTier, positions):
        raw = encode_bloom_payload(store.entries_at(positions))
        hosts = frozenset(store.entries_at(positions)[i].node for i in range(len(positions)))
        block_id = tier.seal(BLOOM_KIND, raw, 1, hosts, (len(positions),), with_dictionary=False)
        store.seal(positions, block_id)
        return block_id

    def test_positions_and_membership_survive_sealing(self):
        store, tier, entries = self.build()
        self.seal_positions(store, tier, [0, 1])
        assert len(store) == 3
        assert store[-1] is entries[2]  # hot tail untouched
        resolved = list(store)
        for original, back in zip(entries, resolved):
            assert back.node == original.node
            assert back.topo_pattern_id == original.topo_pattern_id
            assert back.filter.to_bytes() == original.filter.to_bytes()
        assert "a" * 32 in resolved[0].filter

    def test_remove_node_requires_promotion(self):
        store, tier, _ = self.build()
        self.seal_positions(store, tier, [0, 1])
        with pytest.raises(RuntimeError):
            store.remove_node("node-0")
        store.promote_host("node-0")
        moved = store.remove_node("node-0")
        assert [b.node for b in moved] == ["node-0", "node-0"]
        assert [b.node for b in store] == ["node-1"]

    @pytest.mark.parametrize("shards", [1, 2], ids=["single", "sharded-2"])
    def test_pattern_index_equals_a_linear_scan(self, shards):
        rng = random.Random(shards)
        hosts = [f"host-{i}" for i in range(4)]
        patterns = [f"tp-{i}" for i in range(4)]
        id_sets = [
            {pattern for bit, pattern in enumerate(patterns) if mask >> bit & 1}
            for mask in range(1 << len(patterns))
        ]
        if shards == 1:
            engines = [StorageEngine(bloom_buffer_bytes=64)]
            receive = engines[0].store_bloom_report
        else:
            backend = ShardedBackend(num_shards=shards, bloom_buffer_bytes=64)
            engines, receive = backend.shards, backend.receive

        def view(stored):
            return stored.node, stored.topo_pattern_id, stored.filter.to_bytes()

        sealed_checks = 0
        for step in range(300):
            target = rng.choice(engines)
            op = rng.randrange(6)
            hot = target.blooms.hot_positions()
            sealed = target.cold.block_ids(BLOOM_KIND)
            if op == 1 and hot:
                target.seal_bloom_block(sorted(rng.sample(hot, rng.randint(1, len(hot)))))
            elif op == 2 and sealed:
                target.blooms.promote_block(rng.choice(sealed))
            elif op == 3:
                target.blooms.promote_host(rng.choice(hosts))
            elif op == 4:
                target.evict_host(rng.choice(hosts))
            else:
                filt = sized_for_bytes(64)
                filt.add(f"{step:032x}")
                receive(
                    BloomReport(
                        node=rng.choice(hosts),
                        topo_pattern_id=rng.choice(patterns),
                        payload=filt.to_bytes(),
                        inserted=1,
                    )
                )
            for engine in engines:
                blooms = engine.blooms
                sealed_checks += blooms.sealed_count() > 0
                assert blooms.sealed_count() == len(blooms) - len(blooms.hot_positions())
                assert [view(e) for e in blooms.resolved()] == [view(e) for e in blooms]
                for ids in id_sets:
                    want = [view(e) for e in engine.blooms if e.topo_pattern_id in ids]
                    assert [view(e) for e in engine.blooms.of_patterns(ids)] == want
        assert sealed_checks > 50


class TestCompactEngine:
    def drive_engine(self) -> StorageEngine:
        from repro.agent.reports import ParamsReport

        engine = StorageEngine()
        for tid, bucket in RECORDS.items():
            engine.store_params_report(
                ParamsReport(node="node-0", trace_id=tid, records=bucket)
            )
        return engine

    def test_ruler_never_moves_and_physical_shrinks(self, monkeypatch):
        monkeypatch.setattr(compactor, "BLOCK_TRACES", 3)
        engine = self.drive_engine()
        logical_before = engine.storage_bytes()
        stats = compact_engine(engine, ColdPolicy())
        assert stats.params_traces == len(RECORDS)
        assert engine.storage_bytes() == logical_before
        assert engine.physical_storage_bytes() < logical_before
        assert engine.cold_savings_bytes() == stats.logical_bytes - (
            stats.physical_bytes + stats.dict_bytes
        )

    def test_compaction_is_idempotent(self):
        engine = self.drive_engine()
        compact_engine(engine, ColdPolicy())
        again = compact_engine(engine, ColdPolicy())
        assert again.blocks == 0
        assert again.params_traces == 0

    def test_lru_keeps_newest_hot(self):
        engine = self.drive_engine()
        compact_engine(engine, ColdPolicy(keep_hot_traces=2))
        tids = list(RECORDS)
        assert engine.params.is_sealed(tids[0])
        assert not engine.params.is_sealed(tids[-1])
        assert not engine.params.is_sealed(tids[-2])

    def test_policy_has_three_fields_and_rejects_negative_keeps(self):
        assert [f.name for f in dataclasses.fields(ColdPolicy)] == [
            "keep_hot_traces",
            "keep_hot_blooms",
            "codec",
        ]
        with pytest.raises(ValueError):
            ColdPolicy(keep_hot_traces=-1)
        with pytest.raises(ValueError):
            ColdPolicy(keep_hot_blooms=-1)


# Seals a small OnlineBoutique run and prints what the cold tier holds.
_COMPACTION_RUN = """
import json
from repro.cold import ColdPolicy
from repro.framework import MintFramework
from repro.sim.experiment import generate_stream
from repro.workloads import build_onlineboutique

stream, _ = generate_stream(build_onlineboutique(), 120, abnormal_rate=0.1, seed=7)
framework = MintFramework(auto_warmup_traces=40)
for now, trace in stream:
    framework.process_trace(trace, now)
framework.finalize(stream[-1][0])
stats = framework.compact()
print(json.dumps({
    "physical_storage_bytes": framework.physical_storage_bytes,
    "cold_stats": framework.cold_stats(),
    "codecs": sorted({part.codec for part in stats}),
}, sort_keys=True))
"""


class TestInstalledPackages:
    def run_compaction(self, extra_path: list[str]) -> dict:
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([*extra_path, src]))
        done = subprocess.run(
            [sys.executable, "-c", _COMPACTION_RUN],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout.strip().splitlines()[-1])

    def test_sealed_bytes_do_not_depend_on_installed_packages(self, tmp_path):
        # A poisoned zstandard on the path: importable, but any use raises.
        stub = tmp_path / "zstandard"
        stub.mkdir()
        (stub / "__init__.py").write_text(
            "def __getattr__(name):\n"
            "    raise RuntimeError(f'stub zstandard: {name}')\n"
        )
        plain = self.run_compaction([])
        stubbed = self.run_compaction([str(tmp_path)])
        assert stubbed == plain
        assert plain["codecs"] == ["zlib"]
        assert plain["cold_stats"]["codec"] == "zlib"
        assert plain["physical_storage_bytes"] < plain["cold_stats"]["logical_storage_bytes"]
