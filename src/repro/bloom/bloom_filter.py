"""A from-scratch Bloom filter with the guarantees Mint relies on.

Paper Section 3.3: *"While Bloom Filters might falsely indicate that a
trace belongs to a pattern, they will never miss a trace that does
belong, ensuring trace coherence."*

The implementation mirrors Guava's (which the paper uses): given an
expected insertion count ``n`` and a target false-positive probability
``p``, the bit count is ``m = -n ln p / (ln 2)^2`` and the hash count is
``k = (m / n) ln 2``.  Double hashing over two independent 64-bit
digests generates the ``k`` probe positions.

Reads probe many stored filters with one digest per lookup.
:meth:`BloomFilter.contains_hashed` is the single-filter ruler;
:func:`entries_containing` is the read path's one probe pass over a
list of filters that share a geometry: the digest's ``k`` probe
positions are computed once, and each probe narrows the survivors.
"""

from __future__ import annotations

import hashlib
import math


def optimal_bit_count(expected_insertions: int, false_positive_probability: float) -> int:
    """Guava's formula: bits needed for ``n`` insertions at fpp ``p``."""
    if expected_insertions <= 0:
        raise ValueError("expected_insertions must be positive")
    if not 0.0 < false_positive_probability < 1.0:
        raise ValueError("false_positive_probability must be in (0, 1)")
    bits = -expected_insertions * math.log(false_positive_probability) / (math.log(2) ** 2)
    return max(8, int(math.ceil(bits)))


def optimal_hash_count(bit_count: int, expected_insertions: int) -> int:
    """Guava's formula: hash functions for ``m`` bits and ``n`` insertions."""
    k = (bit_count / expected_insertions) * math.log(2)
    return max(1, int(round(k)))


# Per-bit masks indexed by (position & 7): probing touches these on
# every insert/lookup, so they are built once instead of shifted inline.
_BIT_MASKS = tuple(1 << i for i in range(8))


def _digest_pair(item: str) -> tuple[int, int]:
    """Two independent 64-bit hashes from a single blake2b digest.

    One 16-byte blake2b call is cheaper than sha256 and yields both
    double-hashing seeds at once — this sits in the per-sub-trace hot
    path of every agent.
    """
    digest = hashlib.blake2b(item.encode("utf-8"), digest_size=16).digest()
    return (
        int.from_bytes(digest[:8], "big"),
        int.from_bytes(digest[8:16], "big"),
    )


def entries_containing(entries: list, h1: int, h2: int) -> list:
    """``[e for e in entries if e.filter.contains_hashed(h1, h2)]``: the
    same objects in the same order, as a new list.

    ``entries`` carry their filter as ``.filter``.  When all filters
    share one geometry, each of the ``k`` ``(byte, mask)`` probe pairs
    is computed once and narrows the survivors with one comprehension;
    the pass stops when none survive.  Mixed geometries fall back to
    the per-filter expression above.
    """
    if not entries:
        return []
    first = entries[0].filter
    m, k = first.bit_count, first.hash_count
    for entry in entries:
        filt = entry.filter
        if filt.bit_count != m or filt.hash_count != k:
            return [e for e in entries if e.filter.contains_hashed(h1, h2)]
    masks = _BIT_MASKS
    pos = h1 % m
    step = h2 % m
    for _ in range(k):
        byte, mask = pos >> 3, masks[pos & 7]
        entries = [e for e in entries if e.filter._bits[byte] & mask]
        if not entries:
            break
        pos += step
        if pos >= m:
            pos -= m
    return entries


class BloomFilter:
    """Fixed-size Bloom filter over strings.

    Parameters
    ----------
    expected_insertions:
        Capacity the filter is sized for.  Inserting more than this
        degrades the false-positive rate (it never causes misses).
    false_positive_probability:
        Target fpp at capacity.  The paper's default is 0.01.
    """

    def __init__(
        self,
        expected_insertions: int = 1000,
        false_positive_probability: float = 0.01,
    ) -> None:
        self._bits = bytearray(self._size(expected_insertions, false_positive_probability))
        self._inserted = 0

    def _size(self, expected_insertions: int, false_positive_probability: float) -> int:
        """Set the geometry from ``(n, p)``; returns the bit array's byte length."""
        self.expected_insertions = expected_insertions
        self.false_positive_probability = false_positive_probability
        self.bit_count = optimal_bit_count(expected_insertions, false_positive_probability)
        self.hash_count = optimal_hash_count(self.bit_count, expected_insertions)
        return (self.bit_count + 7) // 8

    def __len__(self) -> int:
        return self._inserted

    def add(self, item: str) -> None:
        """Insert ``item``; afterwards ``item in self`` is always True."""
        h1, h2 = _digest_pair(item)
        bits = self._bits
        masks = _BIT_MASKS
        m = self.bit_count
        pos = h1 % m
        step = h2 % m
        for _ in range(self.hash_count):
            bits[pos >> 3] |= masks[pos & 7]
            pos += step
            if pos >= m:
                pos -= m
        self._inserted += 1

    def __contains__(self, item: str) -> bool:
        return self.contains_hashed(*_digest_pair(item))

    def contains_hashed(self, h1: int, h2: int) -> bool:
        """``item in self``, given ``_digest_pair(item)``: probe positions
        are ``h1 + i * h2 mod m`` and only ``m`` is the filter's own, so a
        lookup that scans many filters takes the digest once."""
        bits = self._bits
        masks = _BIT_MASKS
        m = self.bit_count
        pos = h1 % m
        step = h2 % m
        for _ in range(self.hash_count):
            if not bits[pos >> 3] & masks[pos & 7]:
                return False
            pos += step
            if pos >= m:
                pos -= m
        return True

    @property
    def inserted(self) -> int:
        """Insertions recorded so far (carried across serialisation —
        a re-reported filter must advertise the same count, or the
        reshard snapshot would reset ``is_full`` on the destination)."""
        return self._inserted

    @property
    def is_full(self) -> bool:
        """True once the filter has absorbed its sized-for capacity.

        Mint reports and resets a filter at this point (paper
        Section 4.1: fixed 4 KB buffers, flushed when full).
        """
        return self._inserted >= self.expected_insertions

    @property
    def size_bytes(self) -> int:
        """Wire size of the bit array (what gets uploaded)."""
        return len(self._bits)

    @property
    def saturation(self) -> float:
        """Fraction of bits set — a health signal for fpp drift."""
        set_bits = int.from_bytes(self._bits, "big").bit_count()
        return set_bits / self.bit_count

    def estimated_fpp(self) -> float:
        """Current false-positive probability from the saturation level."""
        return self.saturation**self.hash_count

    def to_bytes(self) -> bytes:
        """Serialise the bit array for reporting."""
        return bytes(self._bits)

    @classmethod
    def from_bytes(
        cls,
        payload: bytes,
        expected_insertions: int,
        false_positive_probability: float,
        inserted: int = 0,
    ) -> "BloomFilter":
        """Rebuild a reported filter on the backend."""
        filt = cls.__new__(cls)
        byte_count = filt._size(expected_insertions, false_positive_probability)
        if len(payload) != byte_count:
            raise ValueError(f"payload is {len(payload)} bytes, expected {byte_count}")
        filt._bits = bytearray(payload)
        filt._inserted = inserted
        return filt

    def union(self, other: "BloomFilter") -> "BloomFilter":
        """Merge two filters built with identical parameters."""
        merged = BloomFilter(self.expected_insertions, self.false_positive_probability)
        merged.absorb(self)
        merged.absorb(other)
        return merged

    def absorb(self, other: "BloomFilter") -> None:
        """In-place OR of ``other`` into this filter (same geometry).

        After absorbing, every item present in ``other`` tests positive
        here (the superset property cross-shard merge indexes rely on);
        false positives may increase, misses never appear.  This is the
        one OR-merge implementation — :meth:`union` is a copy plus two
        absorbs.
        """
        if (
            self.bit_count != other.bit_count
            or self.hash_count != other.hash_count
        ):
            raise ValueError("cannot merge filters with different geometry")
        bits = self._bits
        for i, byte in enumerate(other._bits):
            if byte:
                bits[i] |= byte
        self._inserted += other._inserted

    def geometry(self) -> tuple[int, int]:
        """(bit_count, hash_count) — the compatibility key for merging."""
        return (self.bit_count, self.hash_count)


def sized_for_bytes(
    buffer_bytes: int, false_positive_probability: float = 0.01
) -> BloomFilter:
    """Build the largest filter that fits in ``buffer_bytes`` (paper
    default: 4 KB buffers per topo pattern).

    Works backwards from the bit budget to the insertion capacity at the
    requested fpp.
    """
    bit_budget = buffer_bytes * 8
    bits_per_item = -math.log(false_positive_probability) / (math.log(2) ** 2)
    # Closed form: capacity = floor(budget / bits_per_item) guarantees
    # ceil(capacity * bits_per_item) <= bit_budget, so the filter always
    # fits the byte budget (down to the 8-bit floor at degenerate
    # budgets) — no trial-construction shrink loop needed.
    capacity = max(1, int(bit_budget / bits_per_item))
    return BloomFilter(capacity, false_positive_probability)
