"""Spectrum analysis primitives shared by the RCA methods.

Spectrum-based fault localisation (Reps et al.; used by MicroRank and
TraceRCA) scores a program element — here, a service — by how its
coverage correlates with failures: elements covered by many failing
runs and few passing runs are suspicious.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Iterable

from repro.rca.views import SpanView, TraceView


@dataclass
class SpectrumCounts:
    """Coverage counts for one service."""

    ef: float = 0.0  # covered by failing traces
    ep: float = 0.0  # covered by passing traces
    nf: float = 0.0  # not covered, failing
    np: float = 0.0  # not covered, passing


def ochiai(counts: SpectrumCounts) -> float:
    """The Ochiai suspiciousness score in [0, 1]."""
    denominator = ((counts.ef + counts.nf) * (counts.ef + counts.ep)) ** 0.5
    if denominator == 0:
        return 0.0
    return counts.ef / denominator


def duration_baselines(
    views: Iterable[TraceView],
) -> dict[tuple[str, str, str], tuple[float, float]]:
    """(mean, stdev) of span *self time* per (source, service, operation),
    from normal traces only.

    Self time is the localising signal: a slow leaf inflates every
    ancestor's total duration, but only the leaf's self time moves.
    Baselines are keyed by view source because exact durations and
    approximate bucket-midpoint durations are different scales —
    comparing one against the other's statistics flags everything.
    """
    samples: dict[tuple[str, str, str], list[float]] = {}
    for view in views:
        if view.is_abnormal:
            continue
        for span in view.spans:
            if span.kind == "client":
                continue
            samples.setdefault(
                (view.source, span.service, span.operation), []
            ).append(span.self_duration)
    baselines: dict[tuple[str, str, str], tuple[float, float]] = {}
    for key, values in samples.items():
        mean = statistics.fmean(values)
        std = statistics.pstdev(values) if len(values) > 1 else 0.0
        baselines[key] = (mean, std)
    return baselines


def anomalous_spans(
    view: TraceView,
    baselines: dict[tuple[str, str, str], tuple[float, float]],
    z_threshold: float = 3.0,
) -> list[SpanView]:
    """Spans of ``view`` that deviate from their same-source baseline.

    A span is anomalous when it carries an error status or its self
    time exceeds mean + z_threshold * std (with a floor so near-constant
    baselines don't flag microsecond jitter).  Client spans are skipped:
    their time is the callee's, which has its own server span.  Spans
    with no same-source baseline are not judged.
    """
    out: list[SpanView] = []
    for span in view.spans:
        if span.kind == "client":
            continue
        if span.is_error:
            out.append(span)
            continue
        baseline = baselines.get((view.source, span.service, span.operation))
        if baseline is None:
            continue
        mean, std = baseline
        floor = max(std, 0.1 * mean, 1e-6)
        if span.self_duration > mean + z_threshold * floor:
            out.append(span)
    return out
