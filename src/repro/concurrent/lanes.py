"""Worker lanes: the bounded channels the ingest plane fans out over.

A lane is one :class:`~repro.concurrent.worker.AgentWorkerState` behind
a command channel.  Two kinds share one command loop:

* :class:`ThreadLane` — a daemon thread fed through a **bounded**
  ``queue.Queue``; the default, zero-copy, and the lane that scales on
  free-threaded builds.
* :class:`ProcessLane` — a forked (or spawned) worker process over a
  duplex pipe; commands and replies are pickled, so parsing runs on a
  real second core even under the GIL.  The OS pipe buffer is the
  bound.

Both bounds give the same backpressure contract: a producer that
outruns its lane blocks on ``post`` instead of queueing unbounded
memory.  Deadlock is structurally impossible because the protocol is
half-duplex per lane — the parent only reads replies after a
reply-bearing command, and a lane only writes when replying, at which
point the parent has stopped posting and is draining.

Failure is loud, not silent: a lane that raises poisons itself, ships
the traceback in place of its next reply, and the parent raises
:class:`LaneError` at the next barrier; a process lane killed outright
raises it on the next ``post`` or ``collect``.  Nondeterminism from a
half-dead lane can therefore never leak into results — exactly what the
race/stress CI lane hammers on.
"""

from __future__ import annotations

import multiprocessing
import queue
import threading
import traceback
from typing import Callable

from repro.agent.config import MintConfig
from repro.concurrent.worker import (
    REPLYING_COMMANDS,
    AgentWorkerState,
    SamplerFactory,
)

#: Inbound command-batch bound per thread lane.  Each entry is a whole
#: ops batch, so the bound caps in-flight work at
#: ``QUEUE_BOUND * OPS_BATCH`` sub-traces per lane — deep enough to keep
#: a lane busy across an epoch, small enough that a stalled lane
#: backpressures the producer instead of buffering the run.  (Process
#: lanes are bounded by the OS pipe buffer instead.)
QUEUE_BOUND = 64


class LaneError(RuntimeError):
    """A worker lane failed; carries the lane-side traceback."""


def lane_loop(recv: Callable[[], tuple], send: Callable[[tuple], None],
              state: AgentWorkerState) -> None:
    """The shared command loop of every lane kind.

    On an exception the lane poisons itself: later commands are
    swallowed, and every reply-bearing one (including the one that
    raised) answers ``("error", traceback)`` so the parent fails fast at
    its next collect instead of deadlocking on a reply that never comes.
    ``stop`` always answers ``("bye",)`` so shutdown stays clean even
    after poisoning.
    """
    poisoned: str | None = None
    while True:
        cmd = recv()
        op = cmd[0]
        if op == "stop":
            send(("bye",))
            return
        reply: tuple | None = None
        if poisoned is None:
            try:
                reply = state.execute(cmd)
            except Exception:
                poisoned = traceback.format_exc()
        if op in REPLYING_COMMANDS:
            send(reply if poisoned is None else ("error", poisoned))


class ThreadLane:
    """One worker state on a daemon thread behind a bounded queue."""

    def __init__(
        self,
        index: int,
        config: MintConfig,
        sampler_factories: list[SamplerFactory] | None = None,
    ) -> None:
        self.index = index
        self._inbox: queue.Queue[tuple] = queue.Queue(maxsize=QUEUE_BOUND)
        self._outbox: queue.SimpleQueue[tuple] = queue.SimpleQueue()
        self._stopped = False
        state = AgentWorkerState(config, sampler_factories)
        self._thread = threading.Thread(
            target=lane_loop,
            args=(self._inbox.get, self._outbox.put, state),
            name=f"ingest-lane-{index}",
            daemon=True,
        )
        self._thread.start()

    def post(self, cmd: tuple) -> None:
        """Queue one command; blocks when the lane is saturated."""
        self._inbox.put(cmd)

    def collect(self) -> tuple:
        """Block for the next reply; raises :class:`LaneError` on one."""
        reply = self._outbox.get()
        if reply[0] == "error":
            raise LaneError(f"ingest lane {self.index} failed:\n{reply[1]}")
        return reply

    def stop(self) -> None:
        """Shut the lane down; idempotent, never raises."""
        if self._stopped:
            return
        self._stopped = True
        if not self._thread.is_alive():
            return
        self._inbox.put(("stop",))
        # Drain until the goodbye — stray error replies from a poisoned
        # lane must not wedge shutdown.
        while True:
            reply = self._outbox.get()
            if reply[0] in ("bye", "error"):
                break
        self._thread.join(timeout=10.0)


def _process_lane_main(conn, config: MintConfig,
                       sampler_factories: list[SamplerFactory]) -> None:
    """Child-process entry point: run the loop over the pipe."""
    state = AgentWorkerState(config, sampler_factories)
    try:
        lane_loop(conn.recv, conn.send, state)
    except (EOFError, BrokenPipeError):  # parent went away; nothing to save
        pass
    finally:
        conn.close()


class ProcessLane:
    """One worker state in a child process behind a duplex pipe.

    Fork is preferred (the lane inherits the parent's imports and the
    sampler factories without pickling them); spawn is the fallback on
    platforms without it.  Lanes are created before any trace is
    ingested, so a forked child never carries stale fleet state.
    """

    def __init__(
        self,
        index: int,
        config: MintConfig,
        sampler_factories: list[SamplerFactory] | None = None,
    ) -> None:
        self.index = index
        self._stopped = False
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
        self._conn, child_conn = ctx.Pipe(duplex=True)
        self._proc = ctx.Process(
            target=_process_lane_main,
            args=(child_conn, config, list(sampler_factories or [])),
            name=f"ingest-lane-{index}",
            daemon=True,
        )
        self._proc.start()
        child_conn.close()

    def post(self, cmd: tuple) -> None:
        """Send one command; blocks when the pipe buffer is full and
        raises :class:`LaneError` when the lane process is gone."""
        try:
            self._conn.send(cmd)
        except OSError as exc:
            raise LaneError(f"ingest lane {self.index} died") from exc

    def collect(self) -> tuple:
        """Block for the next reply; raises :class:`LaneError` on one."""
        try:
            reply = self._conn.recv()
        except EOFError as exc:
            raise LaneError(f"ingest lane {self.index} died without replying") from exc
        if reply[0] == "error":
            raise LaneError(f"ingest lane {self.index} failed:\n{reply[1]}")
        return reply

    def stop(self) -> None:
        """Shut the lane down; idempotent, never raises."""
        if self._stopped:
            return
        self._stopped = True
        try:
            if self._proc.is_alive():
                self._conn.send(("stop",))
                while True:
                    reply = self._conn.recv()
                    if reply[0] in ("bye", "error"):
                        break
        except (BrokenPipeError, EOFError, OSError):
            pass
        self._proc.join(timeout=10.0)
        if self._proc.is_alive():  # pragma: no cover - hung worker
            self._proc.terminate()
            self._proc.join(timeout=5.0)
        self._conn.close()


LANE_KINDS = {"thread": ThreadLane, "process": ProcessLane}


def make_lane(mode: str, index: int, config: MintConfig,
              sampler_factories: list[SamplerFactory] | None = None):
    """Construct one lane of the requested kind."""
    return LANE_KINDS[mode](index, config, sampler_factories)
