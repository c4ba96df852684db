"""The cold tier: sealed, dictionary-compressed storage segments.

Hot storage in the :class:`~repro.backend.storage.StorageEngine` is
plain Python objects — parameter buckets and stored Bloom filters —
charged at canonical-JSON wire sizes.  This package seals cold
segments of that store into compressed blocks (stdlib ``zlib`` against
a dictionary trained on the store's own records) behind containers
that keep every existing read and write path working unchanged:

* :mod:`repro.cold.codec` — the codec and deterministic dictionary
  training;
* :mod:`repro.cold.blocks` — sealed-block payload framing and the
  :class:`~repro.cold.blocks.ColdTier` block store with its lazy
  decode index;
* :mod:`repro.cold.store` — the tiered params/bloom containers the
  engine swaps in for its plain dict and list;
* :mod:`repro.cold.compactor` — the compaction policy and pass.

The binding contract is the **ruler split**: sealing and unsealing
never move the logical byte counters (``storage_bytes`` stays the one
fig11 ruler, bit-identical to a never-sealed run), while the physical
figure — ``physical_storage_bytes`` = logical minus cold savings —
tracks what the compressed store actually holds, exactly as
``replicated_pattern_bytes`` is a derived figure next to the merged
pattern table.
"""

from repro.cold.blocks import ColdReadError, ColdTier, ColdTierError, SealedBlock
from repro.cold.codec import ZlibCodec, train_dictionary
from repro.cold.compactor import ColdPolicy, CompactionStats, compact_engine
from repro.cold.store import TieredBlooms, TieredParams

__all__ = [
    "ColdPolicy",
    "ColdReadError",
    "ColdTier",
    "ColdTierError",
    "CompactionStats",
    "SealedBlock",
    "TieredBlooms",
    "TieredParams",
    "ZlibCodec",
    "compact_engine",
    "train_dictionary",
]
