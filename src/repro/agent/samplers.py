"""Samplers deciding which traces get their parameters uploaded.

Paper Section 4.2 defines two samplers purpose-built for the
'commonality + variability' paradigm:

* :class:`SymptomSampler` — watches the Params Buffer for anomalies:
  span durations beyond the P95 of their span pattern, or string
  parameters containing user-defined abnormal words;
* :class:`EdgeCaseSampler` — watches the Topo Pattern Library and
  boosts the sampling probability of rare execution paths.

Mint also remains compatible with conventional rules, provided here as
:class:`HeadSampler` and :class:`TailSampler`.
"""

from __future__ import annotations

import random
import re
from bisect import bisect_left, insort
from collections import deque
from typing import Callable, Protocol

from repro.model.trace import SubTrace
from repro.parsing.span_parser import DURATION_KEY
from repro.parsing.trace_parser import ParsedSubTrace, TopoPatternLibrary


class Sampler(Protocol):
    """Decision interface: should this trace's parameters be uploaded?"""

    def observe(self, sub_trace: SubTrace, parsed: ParsedSubTrace) -> bool:
        """Inspect one parsed sub-trace; True marks the trace sampled."""
        ...


class SymptomSampler:
    """Marks traces with anomalous parameter values as sampled.

    For span durations (the paper's example of "unusually large
    duration values") the sampler keeps a sliding window per span
    pattern and flags values above the configured percentile (default
    P95).  For string parameters it flags values containing any
    abnormal word (case-insensitive substring match), with the word list
    being user-defined per the paper.
    """

    def __init__(
        self,
        abnormal_words: tuple[str, ...] = (),
        percentile: float = 95.0,
        window: int = 512,
        min_observations: int = 20,
    ) -> None:
        if not 0.0 < percentile < 100.0:
            raise ValueError("percentile must be in (0, 100)")
        self.percentile = percentile
        self.min_observations = min_observations
        # One alternation regex answers "any abnormal word present?" in a
        # single C-level scan, with word boundaries on both sides.
        self._word_regex = (
            re.compile(
                r"(?<![0-9a-z])(?:"
                + "|".join(re.escape(w.lower()) for w in abnormal_words)
                + r")(?![0-9a-z])"
            )
            if abnormal_words
            else None
        )
        # Window state per key: [deque, sorted mirror, running sum].
        # The sorted mirror makes the percentile a single index instead
        # of a per-observation sort; the running sum makes the mean one
        # division.  The running sum equals the freshly-computed sum
        # exactly until the window first wraps; after that it can
        # differ in the last ulp, which is billions of times smaller
        # than any outlier margin.
        self._window_state: dict = {}
        self._window_size = window

    def observe(self, sub_trace: SubTrace, parsed: ParsedSubTrace) -> bool:
        sampled = False
        check_words = self._word_regex is not None
        for span in parsed.parsed_spans:
            params = span.params
            # The parser's layout names the list-valued params; the
            # word scan touches only those.
            if check_words:
                for key in span._param_lists:
                    parts = params[key]
                    if parts and self._has_abnormal_word(parts):
                        sampled = True
            # Windows are kept per span pattern: "unusually large" only
            # makes sense against spans doing the same unit of work,
            # not a mixed population.
            if self._is_numeric_outlier(
                (span.pattern_id, DURATION_KEY), params[DURATION_KEY]
            ):
                sampled = True
        return sampled

    def _has_abnormal_word(self, parts: list[str]) -> bool:
        """Word-boundary match so random hex ids containing e.g. '500'
        as a substring do not trip the sampler."""
        regex = self._word_regex
        if regex is None:
            return False
        search = regex.search
        for part in parts:
            if part and search(part.lower()):
                return True
        return False

    def _is_numeric_outlier(self, key: tuple[str, str] | str, value: float) -> bool:
        """True for genuinely anomalous values.

        Beyond the paper's P95 rule, the value must also exceed twice
        the window mean — under steady load roughly 5 % of values sit
        above P95 by construction, and marking all of them would sample
        far more than the anomalous traffic the rule is after.

        The window keeps a sorted mirror so the percentile threshold is
        one list index per observation; decisions are identical to
        re-sorting the window every time (same multiset, same
        nearest-rank formula, same freshly-summed mean).
        """
        state = self._window_state.get(key)
        if state is None:
            window: deque[float] = deque()
            state = [window, [], 0.0]
            self._window_state[key] = state
            ordered: list[float] = state[1]
        else:
            window, ordered, _ = state
        count = len(window)
        outlier = False
        if count >= self.min_observations:
            rank = max(0, min(count - 1, int(round(self.percentile / 100.0 * count)) - 1))
            threshold = ordered[rank]
            mean = state[2] / count
            outlier = value > threshold and value > 2.0 * mean
        if count == self._window_size:
            oldest = window.popleft()
            del ordered[bisect_left(ordered, oldest)]
            state[2] -= oldest
        window.append(value)
        insort(ordered, value)
        state[2] += value
        return outlier


class EdgeCaseSampler:
    """Boosts sampling of traces following rare topology patterns.

    The probability of sampling a trace matched to pattern ``p`` scales
    with the inverse of the pattern's observed share: common patterns
    stay near ``base_rate`` and the rarest patterns approach 1.
    """

    def __init__(
        self,
        library: TopoPatternLibrary,
        base_rate: float = 0.02,
        seed: int = 7,
    ) -> None:
        if not 0.0 <= base_rate <= 1.0:
            raise ValueError("base_rate must be in [0, 1]")
        self.library = library
        self.base_rate = base_rate
        self._rng = random.Random(seed)

    def sampling_probability(self, topo_pattern_id: str) -> float:
        """Probability assigned to a trace of the given pattern.

        Inverse-share weighting: a pattern carrying a ``1/n``-th share
        of traffic (``n`` = library size, the uniform share) is sampled
        at ``base_rate``; rarer patterns are boosted proportionally and
        the very first occurrences of any new path are always sampled.
        Common patterns decay well below ``base_rate`` so steady-state
        edge-case traffic stays a small fraction of requests.
        """
        total = self.library.total_matches()
        count = self.library.match_count(topo_pattern_id)
        if total <= 0 or count <= 0:
            return 1.0  # Never-seen pattern: always an edge case.
        if count <= 2:
            return 1.0  # First occurrences of a new path always sampled.
        share = count / total
        uniform_share = 1.0 / max(len(self.library), 1)
        boosted = self.base_rate * uniform_share / max(share, 1e-9)
        return min(1.0, boosted)

    def observe(self, sub_trace: SubTrace, parsed: ParsedSubTrace) -> bool:
        return self._rng.random() < self.sampling_probability(parsed.topo_pattern_id)


class HeadSampler:
    """Conventional head sampling: decide at trace start, by trace id.

    The decision hashes the trace id so every agent that sees the trace
    agrees without coordination (equivalent to propagating the sampled
    flag in the context).
    """

    def __init__(self, rate: float, seed: int = 0) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")
        self.rate = rate
        self._seed = seed

    def decide(self, trace_id: str) -> bool:
        """Deterministic per-trace-id decision."""
        rng = random.Random(f"{self._seed}:{trace_id}")
        return rng.random() < self.rate

    def observe(self, sub_trace: SubTrace, parsed: ParsedSubTrace) -> bool:
        return self.decide(sub_trace.trace_id)


class TailSampler:
    """Conventional tail sampling: a user-defined predicate over the
    (sub-)trace, evaluated after the fact.

    The paper's evaluation configures tail sampling to keep traces
    tagged ``is_abnormal``; that predicate is the default here.
    """

    def __init__(
        self, predicate: Callable[[SubTrace], bool] | None = None
    ) -> None:
        self.predicate = predicate or _default_abnormal_predicate

    def observe(self, sub_trace: SubTrace, parsed: ParsedSubTrace) -> bool:
        return self.predicate(sub_trace)


def _default_abnormal_predicate(sub_trace: SubTrace) -> bool:
    for span in sub_trace:
        if span.attributes.get("is_abnormal") in (True, "true", 1):
            return True
    return False
