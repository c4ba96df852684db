"""Shared helpers for the paper-table benches.

A plain module rather than ``conftest.py``: pytest imports a
``conftest.py`` outside any package as the module ``conftest``, so in a
session that also collects ``tests/``, ``from conftest import emit``
would resolve to ``tests/conftest.py``.

Every bench regenerates one of the paper's tables or figures (as a text
table of the same rows/series) at laptop scale.  Results are printed
and also written to ``benchmarks/results/`` so they survive pytest's
output capture.

Scale note: the paper's corpora run to millions of traces on production
clusters; these benches use deterministic scaled-down streams.  The
assertions check the *shape* claims (who wins, by roughly what factor,
where the crossovers are), not absolute numbers.
"""

from __future__ import annotations

import pathlib

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def emit(name: str, text: str) -> None:
    """Print a result table and persist it under benchmarks/results/."""
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def once(benchmark, func):
    """Run a heavy end-to-end experiment exactly once under timing."""
    return benchmark.pedantic(func, rounds=1, iterations=1, warmup_rounds=0)
