"""Tier-1 smoke test of the whole-path benchmark (``--smoke`` sizes).

Pins the contract later PRs are judged by: every workload and metric
``BENCHMARK.json`` declares is printed under its declared unit, no
operation fails, and a traced run leaves no wrapper installed.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", "17", "--seconds", "1", "--trace", str(trace), "--smoke",
        ],  # fmt: skip
        cwd=ROOT,
        env=dict(os.environ, PYTHONHASHSEED="0"),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_declared_metrics_are_printed_and_nothing_fails(workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        line = _run(workload, trace)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True
        assert line["failed"] == 0 < line["attempted"]
        declared = {m["name"]: m["unit"] for m in DECLARED[section]}
        printed = {name: m["unit"] for name, m in line["metrics"].items()}
        assert printed == declared
        if section == "end_to_end":
            assert all(m["value"] > 0 for m in line["metrics"].values())


def test_declaration_matches_the_benchmark():
    sys.path.insert(0, str(HERE))
    import run
    import workloads

    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.BUILDERS)
    for section, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = [(m["name"], m["unit"], m["better"]) for m in DECLARED[section]]
        assert declared == table
    assert DECLARED["command"][-1] == "benchmarks/e2e/run.py"
    assert DECLARED["paths"] == ["benchmarks/e2e"]


def test_tracer_restores_every_original():
    sys.path.insert(0, str(HERE))
    import tracing

    def bound():
        """Every patched class attribute and every ``repro`` module
        global bound to a patched function, by location."""
        seen = {}
        for _, module, cls_name, attr in tracing.METHODS:
            cls = getattr(importlib.import_module(module), cls_name)
            seen[(module, cls_name, attr)] = vars(cls)[attr]
        originals = [
            getattr(importlib.import_module(module), attr)
            for _, module, attr in tracing.FUNCTIONS
        ]
        for mod_name, mod in list(sys.modules.items()):
            if mod is not None and mod_name.startswith("repro"):
                for name, value in vars(mod).items():
                    if any(value is original for original in originals):
                        seen[(mod_name, name)] = value
        return seen

    from repro.framework import MintFramework
    from repro.workloads import TraceGenerator, build_onlineboutique

    before = bound()
    workload = build_onlineboutique()
    generator = TraceGenerator(workload, seed=3)
    traces = [generator.generate(workload.apis[i % 3]) for i in range(12)]
    with tracing.Tracer() as tracer:
        assert all(bound()[key] is not value for key, value in before.items())
        framework = MintFramework()
        framework.warm_up(traces[:6])
        for trace in traces[6:]:
            framework.process_trace(trace)
        framework.finalize()
        assert not framework.query(traces[-1].trace_id).is_miss
    assert bound() == before
    assert tracer.calls["framework.process_trace"] == 6
    # Self times partition the time inside the outermost wrapped calls.
    roots = [s for s in tracer.spans if s[3] == -1]
    assert sum(tracer.self_ns.values()) == sum(end - start for _, start, end, _, _ in roots)
