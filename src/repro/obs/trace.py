"""The deterministic internal-tracing seam.

An :class:`Observer` is the one handle instrumented components hold.
It wraps a :class:`MetricsRegistry` and offers two timing domains:

* ``span(stage)`` / ``observe_wall`` — ``perf_counter`` wall-clock
  profiling.  Honest about machine noise; stripped from deterministic
  report snapshots.
* ``sim_span(stage)`` / ``observe_sim`` — durations read off a clock
  that ticks in simulated time (``SimClock.now`` or the transport's
  ``wire_now``).  Reading the clock is side-effect free — the
  ``wire_now`` discipline: instrumentation may *read* clocks, never
  pump them — so these series are bit-reproducible across identical
  seeded runs.

Components are handed :data:`NULL_OBSERVER` at construction and a real
observer only when the deployment enables observability.  The null
flavour returns no-op instruments, so hot paths cache their counter
handles once and pay a single attribute check (``observer.enabled``)
per timing block when observability is off — cheap enough to leave the
seam compiled in everywhere, including the parent side of the lane
plane (never inside lane workers).
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS_S,
    SIM_DOMAIN,
    WALL_DOMAIN,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)

#: Every stage histogram shares this name; the ``stage`` label names
#: the seam (warm_up, parse, transport_deliver, net_queue_wait,
#: epoch_barrier, query_plan, query_reconstruct, cold_decode,
#: cold_promote, supervisor_park_replay).
STAGE_METRIC = "mint_stage_seconds"


class _Span:
    """A wall-clock timer context feeding one histogram."""

    __slots__ = ("_hist", "_start")

    def __init__(self, hist: Histogram) -> None:
        self._hist = hist
        self._start = 0.0

    def __enter__(self) -> "_Span":
        self._start = perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._hist.observe(max(0.0, perf_counter() - self._start))


class _SimSpan:
    """A simulated-time timer context: reads the clock, never pumps it."""

    __slots__ = ("_hist", "_clock", "_start")

    def __init__(self, hist: Histogram, clock: Callable[[], float]) -> None:
        self._hist = hist
        self._clock = clock
        self._start = 0.0

    def __enter__(self) -> "_SimSpan":
        self._start = self._clock()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._hist.observe(max(0.0, self._clock() - self._start))


class _NullInstrument:
    """Absorbs every instrument verb; also a no-op context manager."""

    __slots__ = ()

    def inc(self, n: int = 1) -> None:
        pass

    def dec(self, n: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def record(self, value: float) -> None:
        pass

    def __enter__(self) -> "_NullInstrument":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        pass


NULL_INSTRUMENT = _NullInstrument()


class Observer:
    """The live observability handle: a registry plus timing contexts."""

    enabled = True

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()

    # -- instrument handles (cacheable by hot paths) -------------------
    def counter(self, name: str, **labels: Any) -> Counter:
        return self.registry.counter(name, **labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self.registry.gauge(name, **labels)

    def histogram(
        self,
        name: str,
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS_S,
        domain: str = WALL_DOMAIN,
        track_samples: bool = False,
        **labels: Any,
    ) -> Histogram:
        return self.registry.histogram(
            name, buckets=buckets, track_samples=track_samples, domain=domain, **labels
        )

    def stage_histogram(self, stage: str, domain: str = WALL_DOMAIN) -> Histogram:
        """The shared per-stage latency histogram for one seam."""
        return self.histogram(STAGE_METRIC, domain=domain, stage=stage)

    # -- one-shot verbs ------------------------------------------------
    def count(self, name: str, n: int = 1, **labels: Any) -> None:
        self.registry.counter(name, **labels).inc(n)

    def observe_wall(self, stage: str, seconds: float, **labels: Any) -> None:
        self.registry.histogram(
            STAGE_METRIC, domain=WALL_DOMAIN, stage=stage, **labels
        ).observe(seconds)

    def observe_sim(self, stage: str, seconds: float, **labels: Any) -> None:
        self.registry.histogram(
            STAGE_METRIC, domain=SIM_DOMAIN, stage=stage, **labels
        ).observe(seconds)

    # -- timer contexts ------------------------------------------------
    def span(self, stage: str, **labels: Any) -> _Span:
        """Wall-clock timer context for one stage."""
        return _Span(
            self.registry.histogram(
                STAGE_METRIC, domain=WALL_DOMAIN, stage=stage, **labels
            )
        )

    def sim_span(
        self, stage: str, clock: Callable[[], float], **labels: Any
    ) -> _SimSpan:
        """Simulated-time timer context for one stage (clock is read,
        never advanced)."""
        return _SimSpan(
            self.registry.histogram(
                STAGE_METRIC, domain=SIM_DOMAIN, stage=stage, **labels
            ),
            clock,
        )

    def snapshot(self, deterministic: bool = False) -> dict[str, Any]:
        return self.registry.snapshot(deterministic=deterministic)


class NullObserver(Observer):
    """The off switch: every verb is a no-op, every handle absorbs."""

    enabled = False

    def __init__(self) -> None:  # no registry — nothing is recorded
        self.registry = None  # type: ignore[assignment]

    def counter(self, name: str, **labels: Any) -> Any:
        return NULL_INSTRUMENT

    def gauge(self, name: str, **labels: Any) -> Any:
        return NULL_INSTRUMENT

    def histogram(self, name: str, **kwargs: Any) -> Any:
        return NULL_INSTRUMENT

    def stage_histogram(self, stage: str, domain: str = WALL_DOMAIN) -> Any:
        return NULL_INSTRUMENT

    def count(self, name: str, n: int = 1, **labels: Any) -> None:
        pass

    def observe_wall(self, stage: str, seconds: float, **labels: Any) -> None:
        pass

    def observe_sim(self, stage: str, seconds: float, **labels: Any) -> None:
        pass

    def span(self, stage: str, **labels: Any) -> Any:
        return NULL_INSTRUMENT

    def sim_span(self, stage: str, clock: Callable[[], float], **labels: Any) -> Any:
        return NULL_INSTRUMENT

    def snapshot(self, deterministic: bool = False) -> dict[str, Any]:
        return {"counters": {}, "gauges": {}, "histograms": {}}


#: The shared disabled observer every component starts with.
NULL_OBSERVER = NullObserver()
