"""Greedy single-pass clustering of string attribute values.

Paper Section 3.2.1: *"for all possible values of the same string-type
attribute in sampled spans, we aggregate values with similarity above a
threshold (0.8 in our implementation) to form clusters."*

We use leader clustering: each value joins the first existing cluster
whose representative is similar enough, otherwise it founds a new
cluster.  Leader clustering is order-dependent but O(n * k) instead of
O(n^2), matching what an agent can afford online; determinism is kept by
processing values in the caller-supplied order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.parsing.lcs import token_similarity
from repro.parsing.tokenizer import tokenize_words


@dataclass
class StringCluster:
    """A group of mutually similar attribute values."""

    # Word tokens of the founding value: what every later value is
    # compared against, so they are derived once, at founding.
    representative_words: list[str]
    members: list[str] = field(default_factory=list)
    member_tokens: list[list[str]] = field(default_factory=list)

    def add(self, value: str, tokens: list[str]) -> None:
        """Record ``value`` (pre-tokenised as ``tokens``) in the cluster."""
        self.members.append(value)
        self.member_tokens.append(tokens)


def cluster_strings(
    values: Iterable[str],
    threshold: float = 0.8,
    max_clusters: int | None = None,
) -> list[StringCluster]:
    """Cluster ``values`` by LCS token similarity.

    Parameters
    ----------
    values:
        Attribute values, processed in iteration order.
    threshold:
        Minimum :func:`token_similarity` (over *word* tokens) between a
        value and a cluster representative for the value to join the
        cluster.  The paper default is 0.8.
    max_clusters:
        Optional safety cap; when reached, further unmatched values join
        their nearest cluster instead of founding new ones.

    Returns
    -------
    list[StringCluster]
        Clusters in founding order.  Every input value is a member of
        exactly one cluster.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")
    clusters: list[StringCluster] = []
    for value in values:
        tokens, words = tokenize_words(value)
        best_index = -1
        best_score = -1.0
        for index, cluster in enumerate(clusters):
            score = token_similarity(words, cluster.representative_words)
            if score > best_score:
                best_score = score
                best_index = index
            if score >= threshold:
                # Leader clustering: first adequate cluster wins.
                best_index = index
                break
        joined = best_index >= 0 and best_score >= threshold
        at_cap = max_clusters is not None and len(clusters) >= max_clusters
        if joined or (at_cap and best_index >= 0):
            clusters[best_index].add(value, tokens)
        else:
            cluster = StringCluster(representative_words=words)
            cluster.add(value, tokens)
            clusters.append(cluster)
    return clusters


def cluster_sizes(clusters: Sequence[StringCluster]) -> list[int]:
    """Member counts per cluster, in cluster order."""
    return [len(c.members) for c in clusters]
