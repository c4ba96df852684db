"""Per-attribute parsers: one parser per attribute key.

Paper Section 3.2.1: *"Since different attributes have different
semantics, to speed up the parsing stage, we train a separate parser for
each attribute to avoid meaningless comparisons between different
semantics."*

String attributes are handled by :class:`StringAttributeParser` (LCS
clustering + templates in a prefix tree); numeric attributes by
:class:`NumericAttributeParser` (closed-form exponential bucketing).
Both support the online update path: a value that matches no existing
pattern either widens a sufficiently similar template or founds a new
one.
"""

from __future__ import annotations

import sys
from typing import Iterable, NamedTuple, Union

from repro.parsing.clustering import StringCluster, cluster_strings
from repro.parsing.lcs import token_similarity
from repro.parsing.numeric_buckets import Bucket, NumericBucketer
from repro.parsing.prefix_tree import TemplatePrefixTree
from repro.parsing.string_patterns import StringTemplate, extract_template
from repro.parsing.tokenizer import tokenize, tokenize_words, word_tokens

# How many raw member values each template remembers, used to re-derive
# a wider template when a near-miss value arrives online.
_REPRESENTATIVES_PER_TEMPLATE = 5

ParamValue = Union[list[str], float]


class ParsedAttribute(NamedTuple):
    """Result of parsing one attribute value.

    ``pattern`` is the common part (template text or bucket label) and
    ``param`` the variable part (wildcard fills or numeric offset).
    A NamedTuple rather than a dataclass: one is built per parsed
    attribute on the ingest hot path, and tuple construction is several
    times cheaper than a frozen dataclass ``__init__``.
    """

    key: str
    kind: str  # "string" | "numeric"
    pattern: str
    param: ParamValue


class StringAttributeParser:
    """Parser for one string-valued attribute key."""

    # Exact-value memo bound: repeated values (constant attributes,
    # small vocabularies) should cost one dict lookup, not a tree walk.
    _VALUE_CACHE_CAP = 4096
    # How many hit-ranked templates to try with a direct template match
    # before falling back to the prefix-tree walk.
    _HOT_TEMPLATES = 5

    def __init__(self, key: str, similarity_threshold: float = 0.8) -> None:
        self.key = key
        self.similarity_threshold = similarity_threshold
        self._tree = TemplatePrefixTree()
        # template -> {member value: its word tokens}, in arrival order.
        self._representatives: dict[StringTemplate, dict[str, list[str]]] = {}
        # Exact value -> parsed result, and -> the template it matched.
        # Caching the parsed result (not just the template) lets
        # repeated values skip the template extraction entirely; the
        # ParsedAttribute is immutable and its params list is never
        # mutated by consumers.  Two dicts with the same keys, not one
        # of pairs: a pair would be one more long-lived container per
        # memoised value.
        self._value_cache: dict[str, ParsedAttribute] = {}
        self._value_templates: dict[str, StringTemplate] = {}
        # Hit counts as single-element mutable cells: a bump is a C-level
        # ``cell[0] += 1`` with no template hashing on the hot path.
        self._hit_counts: dict[StringTemplate, list[int]] = {}
        # Top-K templates by hit count, maintained incrementally with
        # the exact order of ``sorted(hit_counts, key=-count)`` (ties by
        # first-hit order) so the hot path never re-sorts per miss.
        self._hit_order: dict[StringTemplate, int] = {}
        self._hot_ranked: list[StringTemplate] = []

    @property
    def templates(self) -> list[StringTemplate]:
        """All templates currently known to this parser."""
        return self._tree.templates()

    # Clustering more sampled values than this per key adds nothing but
    # quadratic LCS cost; the offline stage is a warm start, not a scan.
    _WARMUP_VALUE_CAP = 300

    def warm_up(self, values: Iterable[str]) -> None:
        """Offline stage: cluster sampled values and extract templates."""
        seen: set[str] = set()
        distinct: list[str] = []
        for value in values:
            if value not in seen:
                seen.add(value)
                distinct.append(value)
            if len(distinct) >= self._WARMUP_VALUE_CAP:
                break
        for cluster in cluster_strings(distinct, threshold=self.similarity_threshold):
            template = extract_template(cluster)
            self._register(template, cluster.members)

    # A hot-path match is only trusted when the wildcard fills cover at
    # most this fraction of the value; wider matches fall through to
    # the full (most-specific) search.
    _HOT_PARAM_MASS_LIMIT = 0.3

    def parse(self, value: str) -> ParsedAttribute:
        """Online stage: match ``value`` or update the parser.

        Returns the matched (or newly created) pattern plus the wildcard
        parameters extracted from the value.  Hot paths first: an
        exact-value memo, then a direct template check of the most-hit
        templates (accepted only when the extracted parameters are a
        small fraction of the value — a wide template matching
        everything must not swallow whole clauses as parameters), then
        the prefix-tree walk.
        """
        cached = self._value_cache.get(value)
        if cached is not None:
            self._record_hit(self._value_templates[value])
            return cached
        template, params = self._hot_match_extract(value)
        if params is not None and not self._acceptable_mass(value, params):
            template, params = None, None
        if params is None:
            tokens = tokenize(value)
            template = self._tree.find_match(value, tokens)
            if template is None:
                template = self._linear_match(value)
            if template is not None:
                params = template.extract(value)
            # A degenerate match (e.g. a catch-all template absorbing
            # most of the value as parameters) is worse than learning a
            # proper template for this value's shape.
            if (
                template is None
                or params is None
                or not self._acceptable_mass(value, params)
            ):
                template = self._learn(value, tokens)
                params = template.extract(value)
        if params is None:  # pragma: no cover - matching guarantees extraction
            raise RuntimeError(f"template failed on {value!r}")
        assert template is not None
        self._record_hit(template)
        parsed = ParsedAttribute(
            key=self.key, kind="string", pattern=template.text, param=params
        )
        if len(self._value_cache) < self._VALUE_CACHE_CAP:
            self._value_cache[value] = parsed
            self._value_templates[value] = template
        return parsed

    @classmethod
    def _acceptable_mass(cls, value: str, params: list[str]) -> bool:
        if not value:
            return True
        mass = sum(map(len, params))
        return mass <= cls._HOT_PARAM_MASS_LIMIT * len(value)

    def _record_hit(self, template: StringTemplate) -> None:
        """Bump ``template``'s hit count and restore the top-K order.

        Maintains ``_hot_ranked`` as exactly the first ``_HOT_TEMPLATES``
        entries of ``sorted(self._hit_counts.items(), key=-count)`` —
        counts descending, ties broken by first-hit order, matching the
        stable sort this replaced.  A bump moves one template at most a
        few positions, so the amortised cost is O(K) dict lookups
        instead of an O(n log n) sort per parsed value.
        """
        counts = self._hit_counts
        ranked = self._hot_ranked
        if ranked and ranked[0] is template:
            # Already the hottest template: a bump cannot change the
            # order, so skip the maintenance entirely (the warm-path
            # common case).
            counts[template][0] += 1
            return
        cell = counts.get(template)
        if cell is None:
            counts[template] = cell = [1]
            count = 1
            self._hit_order[template] = len(self._hit_order)
        else:
            cell[0] = count = cell[0] + 1
        order = self._hit_order
        try:
            index = ranked.index(template)
        except ValueError:
            if len(ranked) < self._HOT_TEMPLATES:
                ranked.append(template)
                index = len(ranked) - 1
            else:
                last = ranked[-1]
                last_count = counts[last][0]
                if count > last_count or (
                    count == last_count and order[template] < order[last]
                ):
                    ranked[-1] = template
                    index = len(ranked) - 1
                else:
                    return
        seq = order[template]
        while index > 0:
            prev = ranked[index - 1]
            prev_count = counts[prev][0]
            if prev_count > count or (prev_count == count and order[prev] < seq):
                break
            ranked[index - 1], ranked[index] = template, prev
            index -= 1

    def _hot_match_extract(
        self, value: str
    ) -> tuple[StringTemplate | None, list[str] | None]:
        """Try the most frequently matched templates directly.

        Only templates with at least one wildcard are tried here: a
        fully-literal template matching means the value is identical,
        which the value memo already covers.  Each candidate is probed
        with one ``extract`` pass that also yields the parameters, so the
        winning template is never matched twice.
        """
        best: StringTemplate | None = None
        best_params: list[str] | None = None
        for template in self._hot_ranked:
            if template.wildcard_count and (
                best is None
                or template.literal_token_count > best.literal_token_count
            ):
                params = template.extract(value)
                if params is not None:
                    best = template
                    best_params = params
        return best, best_params

    def _linear_match(self, value: str) -> StringTemplate | None:
        """Fallback scan for values the token walk fails to route."""
        best: StringTemplate | None = None
        for template in self._tree.templates():
            if template.matches(value):
                if best is None or template.literal_token_count > best.literal_token_count:
                    best = template
        return best

    def _learn(self, value: str, tokens: list[str]) -> StringTemplate:
        """Online update: widen the nearest template or found a new one."""
        words = word_tokens(tokens)
        best_template: StringTemplate | None = None
        best_score = -1.0
        for template, reps in self._representatives.items():
            for rep_words in reps.values():
                score = token_similarity(words, rep_words)
                if score > best_score:
                    best_score = score
                    best_template = template
        if best_template is not None and best_score >= self.similarity_threshold:
            reps = self._representatives[best_template]
            members = [*reps, value]
            member_tokens = [*map(tokenize, reps), tokens]
            widened = extract_template(StringCluster(reps[members[0]], members, member_tokens))
            self._replace(best_template, widened, members)
            return widened
        literal = StringTemplate(tokens=tuple(tokens))
        self._register(literal, [value])
        return literal

    def _register(self, template: StringTemplate, members: list[str]) -> None:
        self._tree.insert(template)
        self._remember(template, members)

    def _remember(self, template: StringTemplate, members: list[str]) -> None:
        reps = self._representatives.setdefault(template, {})
        for member in members:
            if member not in reps and len(reps) < _REPRESENTATIVES_PER_TEMPLATE:
                # Interned: representatives of one key share a small
                # vocabulary, so kept word lists cost pointers, not strings.
                reps[member] = [*map(sys.intern, tokenize_words(member)[1])]

    def _replace(
        self, old: StringTemplate, new: StringTemplate, members: list[str]
    ) -> None:
        if new == old:
            self._remember(old, members)
            return
        # The old template stays in the tree (other stored spans may
        # reference its text); the new, wider one is added alongside.
        self._register(new, members)


class NumericAttributeParser:
    """Parser for one numeric attribute key."""

    def __init__(self, key: str, alpha: float = 0.5) -> None:
        self.key = key
        self._bucketer = NumericBucketer(alpha=alpha)

    @property
    def bucketer(self) -> NumericBucketer:
        """The underlying exponential bucketer."""
        return self._bucketer

    def warm_up(self, values: Iterable[float]) -> None:
        """Offline stage is a no-op: the mapping formula is closed-form."""

    def parse(self, value: float) -> ParsedAttribute:
        """Split ``value`` into its bucket label and lower-bound offset."""
        bucket = self._bucketer.bucket_of(value)
        param = abs(value) - bucket.lower
        return ParsedAttribute(
            key=self.key, kind="numeric", pattern=bucket.label, param=param
        )

    def bucket_for_pattern(self, pattern: str) -> Bucket | None:
        """Rebuild a bucket from its label (for reconstruction)."""
        text = pattern
        negative = text.startswith("-")
        if negative:
            text = text[1:]
        if not (text.startswith("(") and text.endswith("]")):
            return None
        try:
            lower_s, upper_s = text[1:-1].split(",")
            lower = float(lower_s)
            upper = float(upper_s)
        except ValueError:
            return None
        if upper == 0:
            return Bucket(index=0, negative=False, lower=0.0, upper=0.0)
        index = self._bucketer.index_of(upper) if upper > 0 else 0
        return Bucket(index=index, negative=negative, lower=lower, upper=upper)

    def reconstruct(self, pattern: str, param: float) -> float:
        """Exact value from bucket label + offset."""
        bucket = self.bucket_for_pattern(pattern)
        if bucket is None:
            raise ValueError(f"not a bucket label: {pattern!r}")
        magnitude = bucket.lower + param
        return -magnitude if bucket.negative else magnitude


AttributeParser = Union[StringAttributeParser, NumericAttributeParser]
