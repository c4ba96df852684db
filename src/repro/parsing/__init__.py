"""Commonality + variability parsing: the paper's core contribution.

Two levels of parsing (paper Section 3):

* **inter-span** (:mod:`repro.parsing.span_parser`) — each attribute of a
  span is split into a common *pattern* and variable *parameters*;
  co-occurring attribute patterns form span patterns.
* **inter-trace** (:mod:`repro.parsing.trace_parser`) — per-node
  sub-traces are encoded as topology patterns over span pattern ids.

A module-level memo holds only immutable values derived from pattern
content, never per-span data, so it outlives no framework's spans: the
topo pattern per canonical sub-trace shape (``trace_parser``) and the
template per pattern text (``string_patterns.template_from_text``).  The
record skeleton size per parameter key set lives on the
:class:`SpanParser` instance, with the replay plans it feeds.
"""

from repro.parsing.attribute_parser import (
    AttributeParser,
    NumericAttributeParser,
    ParsedAttribute,
    StringAttributeParser,
)
from repro.parsing.clustering import cluster_strings
from repro.parsing.lcs import lcs_length, lcs_tokens, token_similarity
from repro.parsing.numeric_buckets import NumericBucketer
from repro.parsing.prefix_tree import TemplatePrefixTree
from repro.parsing.span_parser import ParsedSpan, SpanParser, SpanPattern, SpanPatternLibrary
from repro.parsing.string_patterns import StringTemplate, extract_template
from repro.parsing.tokenizer import detokenize, tokenize
from repro.parsing.trace_parser import ParsedSubTrace, TopoPattern, TopoPatternLibrary

__all__ = [
    "tokenize",
    "detokenize",
    "lcs_length",
    "lcs_tokens",
    "token_similarity",
    "cluster_strings",
    "StringTemplate",
    "extract_template",
    "NumericBucketer",
    "TemplatePrefixTree",
    "AttributeParser",
    "StringAttributeParser",
    "NumericAttributeParser",
    "ParsedAttribute",
    "SpanParser",
    "SpanPattern",
    "SpanPatternLibrary",
    "ParsedSpan",
    "TopoPattern",
    "TopoPatternLibrary",
    "ParsedSubTrace",
]
