"""The perf-gate harness: one entry point, one ``drive``, nine suites.

Pins what ``benchmarks/perf/run.py`` owns on behalf of every suite —
the registry, argparse's rejections, the ``config``/environment block,
the JSON write and the exit code — and that each suite's ``check`` is a
pure function of the report: the committed ``BENCH_<suite>.json`` is a
clean report for it, and one doctored cell is a violation.
"""

from __future__ import annotations

import copy
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.framework import MintFramework
from repro.sim.experiment import drive, generate_stream
from repro.verify import fingerprint
from repro.workloads import build_onlineboutique

ROOT = Path(__file__).resolve().parent.parent
PERF = ROOT / "benchmarks" / "perf"
SUITES = ("ingest", "sharded", "net", "query", "elastic", "concurrent", "cold", "obs", "live")

FIRST = object()  # path step: the first key of a dict / index 0 of a list
# One failing cell per suite: (path into the report, value to plant).
DOCTORED = {
    "ingest": (("byte_invariant_records_checked",), 0),
    "sharded": (("invariance", FIRST, FIRST, "identical"), False),
    "net": (("convergence", FIRST, FIRST, "converged"), False),
    "query": (("workloads", FIRST, FIRST, "identical"), False),
    "elastic": (("autoscale", FIRST, "scaled"), False),
    "concurrent": (("invariance", FIRST, FIRST, "identical"), False),
    "cold": (("workloads", FIRST, FIRST, "savings_bytes"), 0),
    "obs": (("panel", FIRST, "detected"), False),
    "live": (("storm", "converged"), False),
}


@pytest.fixture(scope="module")
def runner():
    """``run.py`` loaded by path, under a name that cannot collide with
    ``benchmarks/e2e/run.py``; the suites are its top-level siblings."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERF))
        spec = importlib.util.spec_from_file_location("perf_run", PERF / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        yield module


def committed_body(suite: str) -> dict:
    report = json.loads((PERF / f"BENCH_{suite}.json").read_text())
    return {key: value for key, value in report.items() if key not in ("benchmark", "config")}


def _key(node, step):
    if step is not FIRST:
        return step
    return 0 if isinstance(node, list) else next(iter(node))


def plant(report: dict, path: tuple, value) -> dict:
    report = copy.deepcopy(report)
    node = report
    for step in path[:-1]:
        node = node[_key(node, step)]
    node[_key(node, path[-1])] = value
    return report


def test_registry_lists_exactly_the_nine_suites(runner):
    assert tuple(runner.SUITES) == SUITES
    for module in runner.SUITES.values():
        assert callable(module.measure) and callable(module.check)
        assert set(module.DEFAULTS) <= set(runner.SHARED_FLAGS)


@pytest.mark.parametrize("suite", SUITES)
def test_check_and_exit_code_follow_the_report(runner, suite, tmp_path, monkeypatch, capsys):
    module = runner.SUITES[suite]
    clean = committed_body(suite)
    doctored = plant(clean, *DOCTORED[suite])
    argv = [suite, "--check", "--output", str(tmp_path / "out.json")]

    monkeypatch.setattr(module, "measure", lambda args: copy.deepcopy(clean))
    assert runner.main(argv) == 0
    written = json.loads((tmp_path / "out.json").read_text())
    assert written["benchmark"] == suite
    assert {key: written[key] for key in clean} == clean

    args = runner.build_parser().parse_args(argv)
    report = {**doctored, "config": runner.environment()}
    assert module.check(report, args), "the doctored cell must be a violation"
    monkeypatch.setattr(module, "measure", lambda args: copy.deepcopy(doctored))
    capsys.readouterr()
    assert runner.main(argv) == 1
    assert "FAIL: " in capsys.readouterr().err
    # Without --check the same report is only recorded.
    assert runner.main([arg for arg in argv if arg != "--check"]) == 0


def test_wall_clock_sections_stay_out_of_the_committed_report(
    runner, tmp_path, monkeypatch, capsys
):
    module = runner.SUITES["query"]
    assert module.WALL_CLOCK == ("timing",)
    body = committed_body("query")
    assert "timing" not in body and body["workloads"]
    slow = {
        workload: {deployment: {"batch_speedup": 0.5} for deployment in cells}
        for workload, cells in body["workloads"].items()
    }
    monkeypatch.setattr(module, "measure", lambda args: {**copy.deepcopy(body), "timing": slow})
    # An explicit --output (the CI artifact) keeps the section, and the gate reads it.
    explicit = tmp_path / "artifact.json"
    assert runner.main(["query", "--check", "--output", str(explicit)]) == 1
    assert "batch speedup 0.50x" in capsys.readouterr().err
    assert json.loads(explicit.read_text())["timing"] == slow
    # The default --output is the committed report: same run, section left out.
    redirected = str(tmp_path / "BENCH_query.json")
    monkeypatch.setattr(runner, "committed_path", lambda suite: redirected)
    assert runner.main(["query"]) == 0
    written = json.loads(Path(redirected).read_text())
    assert "timing" not in written and written["workloads"] == body["workloads"]
    assert not set(runner.environment()) & set(written["config"])


def test_real_tiny_run_writes_the_shared_environment_block(tmp_path):
    output = tmp_path / "BENCH_sharded.json"
    done = subprocess.run(
        [
            sys.executable, str(PERF / "run.py"), "sharded", "--check",
            "--workloads", "onlineboutique", "--traces", "40", "--shards", "1", "2",
            # 40 traces is scheduler-noise territory: gate on invariance only.
            "--max-overhead", "50", "--output", str(output),
        ],  # fmt: skip
        cwd=ROOT,
        env=os.environ,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    report = json.loads(output.read_text())
    assert report["benchmark"] == "sharded"
    config = report["config"]
    assert {"python", "machine", "cpu_count", "gil_enabled"} <= set(config)
    assert (config["traces"], config["shards"], config["workloads"]) == (
        40, [1, 2], ["onlineboutique"],
    )  # fmt: skip
    assert set(report["invariance"]["onlineboutique"]) == {"1", "2"}
    assert all(v["identical"] for v in report["invariance"]["onlineboutique"].values())


@pytest.mark.parametrize(
    "argv",
    [
        ["nosuchsuite"],
        ["sharded", "--no-such-flag"],
        ["cold", "--seed", "3"],  # a shared flag the suite does not read is not offered
        ["obs", "--workloads", "nosuchworkload"],
        [],
    ],
)
def test_argparse_rejects_unknown_suites_and_flags(runner, argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        runner.main(argv)
    assert exit_info.value.code == 2
    capsys.readouterr()


def test_drive_equals_the_hand_written_loop():
    stream, _ = generate_stream(build_onlineboutique(), 60, abnormal_rate=0.05, seed=5)
    driven = MintFramework(auto_warmup_traces=20)
    elapsed = drive(driven, stream)
    by_hand = MintFramework(auto_warmup_traces=20)
    last_now = 0.0
    for now, trace in stream:
        by_hand.process_trace(trace, now)
        last_now = now
    by_hand.finalize(last_now)
    assert elapsed > 0.0
    assert fingerprint(driven, stream) == fingerprint(by_hand, stream)
