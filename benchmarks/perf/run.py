#!/usr/bin/env python
"""The one perf-gate entry point: ``run.py <suite> [--check] [flags]``.

Usage (from the repo root)::

    PYTHONPATH=src python benchmarks/perf/run.py sharded            # measure + write
    PYTHONPATH=src python benchmarks/perf/run.py sharded --check    # ... and gate
    PYTHONPATH=src python benchmarks/perf/run.py sharded --help     # the suite's flags

A suite is one sibling module exposing ``DEFAULTS`` (its defaults for
the shared flags it reads — a shared flag it does not list is not
offered), ``FLAGS`` (its own flags, as argparse keyword dicts),
``measure(args) -> report`` and ``check(report, args) -> violations``,
and optionally ``WALL_CLOCK`` — the report sections that hold
wall-clock numbers.  Those are gated and written to an explicit
``--output`` (the CI artifact) but left out of the default one, the
committed ``BENCH_<suite>.json`` (as is the environment block), which
then only moves when behaviour does.
Everything else lives here once: the shared flags, the ``config`` block
with the environment the numbers were taken in, the JSON write to
``--output`` (default ``BENCH_<suite>.json`` next to this file), the
``FAIL:`` lines and the exit code — 1 when ``--check`` found a
violation, 2 when argparse rejected the command line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

import cold_bench
import concurrent_bench
import elastic_bench
import ingest_bench
import live_bench
import net_bench
import obs_bench
import query_bench
import sharded_bench

from repro.workloads import WORKLOAD_BUILDERS

SUITES = {
    "ingest": ingest_bench,
    "sharded": sharded_bench,
    "net": net_bench,
    "query": query_bench,
    "elastic": elastic_bench,
    "concurrent": concurrent_bench,
    "cold": cold_bench,
    "obs": obs_bench,
    "live": live_bench,
}

SHARED_FLAGS = {
    "traces": dict(type=int, help="stream length per workload"),
    "warmup_traces": dict(type=int, help="traces that warm the parsers before timing"),
    "workloads": dict(nargs="+", choices=list(WORKLOAD_BUILDERS)),
    "repeats": dict(type=int, help="best-of-N wall-clock repeats"),
    "seed": dict(type=int, help="seed of the chaos / schedule draws"),
}


def usable_cores() -> int:
    """CPU cores this process may run on (affinity-aware on Linux)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def environment() -> dict:
    """Where the numbers were taken — recorded with every report, since
    wall-clock figures mean nothing without it."""
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": usable_cores(),
        "gil_enabled": getattr(sys, "_is_gil_enabled", lambda: True)(),
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    suites = parser.add_subparsers(dest="suite", required=True, metavar="suite")
    for name, module in SUITES.items():
        sub = suites.add_parser(
            name,
            description=module.__doc__,
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        for dest, spec in SHARED_FLAGS.items():
            if dest in module.DEFAULTS:
                sub.add_argument(
                    "--" + dest.replace("_", "-"), default=module.DEFAULTS[dest], **spec
                )
        for flag, spec in module.FLAGS.items():
            sub.add_argument(flag, **spec)
        sub.add_argument(
            "--check", action="store_true", help="exit 1 when any of the suite's gates fails"
        )
        sub.add_argument("--output", default=committed_path(name))
    return parser


def committed_path(suite: str) -> str:
    """Where a suite's committed report lives (the default ``--output``)."""
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), f"BENCH_{suite}.json")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    suite = SUITES[args.suite]
    config = {
        key: value
        for key, value in vars(args).items()
        if key not in ("suite", "check", "output")
    }
    report = {
        **suite.measure(args),
        "benchmark": args.suite,
        "config": {**config, **environment()},
    }
    failures = suite.check(report, args) if args.check else []
    if hasattr(suite, "WALL_CLOCK") and os.path.abspath(args.output) == committed_path(args.suite):
        # Nothing machine-bound: no wall-clock sections, no environment.
        for section in suite.WALL_CLOCK:
            del report[section]
        report["config"] = config

    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.output}")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
