"""Tracing frameworks compared in the paper's evaluation.

All frameworks implement the :class:`~repro.baselines.base.TracingFramework`
interface — including the unified query plane: every one is a
:class:`~repro.query.engine.QueryEngine` answering
:class:`~repro.query.result.QueryResult` — and are charged through
identical byte meters, so the Fig. 11 comparison is apples-to-apples:

* ``OTFull`` — OpenTelemetry, 100 % sampling (the no-reduction reference);
* ``OTHead`` — head sampling at a fixed rate (default 5 %);
* ``OTTail`` — tail sampling on the ``is_abnormal`` tag;
* ``Hindsight`` — retroactive sampling with breadcrumbs (NSDI '23);
* ``Sieve`` — RRCF-based biased tail sampling (ICWS '21).

``MintFramework`` — this paper's system — is *not* a baseline and
lives at :mod:`repro.framework`.
"""

from repro.baselines.base import TracingFramework
from repro.baselines.hindsight import Hindsight
from repro.baselines.otel import OTFull, OTHead, OTTail
from repro.baselines.rrcf import RandomCutTree, RobustRandomCutForest
from repro.baselines.sieve import Sieve

__all__ = [
    "TracingFramework",
    "OTFull",
    "OTHead",
    "OTTail",
    "Hindsight",
    "Sieve",
    "RobustRandomCutForest",
    "RandomCutTree",
]
