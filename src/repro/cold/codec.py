"""The cold-tier codec: stdlib ``zlib`` with a trained preset dictionary.

:class:`ZlibCodec` has one three-method surface (``train`` /
``compress`` / ``decompress``): the dictionary is trained on the
corpus's own templated chunks and every block is compressed against
it — the trained-dictionary technique of the UnifiedStateCodec bench,
with DEFLATE's ``zdict`` preset in place of a zstd dictionary.  It
needs nothing beyond the standard library, so sealed bytes never
depend on which packages happen to be installed.

Dictionary training must be deterministic (the cold bit-identity gate
re-runs compaction and diffs byte tables), so the trainer uses only
frequency counts and first-seen order, never hashing seeds or
wall-clock state.
"""

from __future__ import annotations

import zlib

#: DEFLATE level for every sealed block.
LEVEL = 9


def train_dictionary(samples: list[bytes], max_bytes: int = 8192) -> bytes:
    """Assemble a preset dictionary from corpus samples, deterministically.

    Samples are ranked by frequency (ties broken by first-seen order,
    latest first) and concatenated most-frequent-*last*: DEFLATE
    matches against the most recent dictionary bytes most cheaply, so
    the hottest — and, among unique samples, the freshest — templates
    sit at the tail.  The corpus assembler feeds pattern text first
    and record samples after, so on the all-unique corpora typical of
    sampled params the record text wins the tail and the truncation
    (from the front, to ``max_bytes``) sheds the pattern text first.
    zlib presets beyond the 32 KB window are dead weight anyway.
    """
    counts: dict[bytes, int] = {}
    first_seen: dict[bytes, int] = {}
    for index, sample in enumerate(samples):
        if not sample:
            continue
        counts[sample] = counts.get(sample, 0) + 1
        first_seen.setdefault(sample, index)
    ranked = sorted(counts, key=lambda s: (counts[s], first_seen[s]))
    blob = b"".join(ranked)
    return blob[-max_bytes:] if max_bytes > 0 else b""


class ZlibCodec:
    """Stdlib DEFLATE with a trained ``zdict`` preset dictionary."""

    name = "zlib"

    def train(self, samples: list[bytes], max_dict_bytes: int) -> bytes:
        """Build the preset dictionary (see :func:`train_dictionary`)."""
        return train_dictionary(samples, max_dict_bytes)

    def compress(self, data: bytes, dictionary: bytes = b"") -> bytes:
        if dictionary:
            compressor = zlib.compressobj(LEVEL, zdict=dictionary)
        else:
            compressor = zlib.compressobj(LEVEL)
        return compressor.compress(data) + compressor.flush()

    def decompress(self, blob: bytes, dictionary: bytes = b"") -> bytes:
        if dictionary:
            decompressor = zlib.decompressobj(zdict=dictionary)
        else:
            decompressor = zlib.decompressobj()
        return decompressor.decompress(blob) + decompressor.flush()
