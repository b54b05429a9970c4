"""One worker-fleet substrate for the scale-out serving tiers.

The shard tier (:mod:`repro.serving.sharded`) and the replicated router
tier (:mod:`repro.serving.replicated`) both run N supervised workers
behind one dispatcher.  Everything they share lives here, once
(DESIGN.md §4.5):

* :func:`worker_loop` — the worker side of the pipe: receive an op, apply
  the injected fault, dispatch to the tier's op → handler table, reply
  (or ship a traceback), stop on ``stop``.
* :class:`WorkerChannel` — the dispatcher's end of one worker: one fault
  plan consultation per op, deadline-bounded replies, reply validation.
  :class:`PipeChannel` runs the worker in its own process;
  :class:`InlineChannel` runs the same handler table in-process and
  surfaces injected faults where the pipe would.  A tier's handle is its
  typed ops mixed over either transport.
* :class:`Fleet` — the supervisor: slots, deaths with capped exponential
  backoff, warm respawns, the circuit breaker, RPC deadlines, and close.

A tier keeps only what is its own: the handler table, the typed ops and
their reply shapes, and its policy reactions to respawns and retirements
(rebalancing, gossip priming, admission capacity).  Every channel failure
— EOF, broken pipe, deadline miss, error reply, malformed payload — is a
:class:`~repro.serving.faults.WorkerFault` (:class:`~repro.serving.
faults.WorkerTimeout` for deadline misses): a worker is *dead*, never
*wrong*.  Channels never retry; the tier recovers the work and the fleet
replaces the worker.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import time
import traceback
from collections import deque
from typing import Callable, Sequence

from ..errors import QueryError
from .faults import (
    CRASH,
    GARBLE,
    GARBLED_REPLY,
    HANG,
    FaultPlan,
    WorkerFault,
    WorkerTimeout,
)

#: How long a worker told to HANG sleeps — far past any realistic deadline.
_HANG_S = 3600.0

#: A tier's worker ops: op name -> handler(payload) -> reply payload.
Handlers = dict[str, Callable[[object], object]]


def worker_loop(conn, handlers: Handlers) -> None:
    """Serve ops off one duplex pipe until ``stop`` or EOF.

    Every op message is ``(op, payload, fault)``, where ``fault`` is the
    action the dispatcher drew from its fault plan for this op: ``crash``
    exits before touching the op (the dispatcher's next receive EOFs,
    exactly like a segfault), ``hang`` sleeps far past any deadline, and
    ``garble`` ships junk in place of the real reply.  A handler's return
    value travels back as ``("ok", value)``; an exception ships its
    traceback as ``("error", text)``.  Handlers may exchange in-band
    messages over ``conn`` before returning (the shard planner's probe
    RPC does).
    """
    while True:
        try:
            op, payload, fault = conn.recv()
        except (EOFError, OSError):  # pragma: no cover - parent died
            return
        if fault == CRASH:
            return
        if fault == HANG:  # pragma: no cover - killed mid-sleep
            time.sleep(_HANG_S)
        try:
            if fault == GARBLE:
                conn.send(("ok", GARBLED_REPLY))
            elif op == "stop":
                conn.send(("ok", None))
                return
            elif op in handlers:
                conn.send(("ok", handlers[op](payload)))
            else:  # pragma: no cover - protocol bug
                conn.send(("error", f"unknown op {op!r}"))
        except Exception:  # noqa: BLE001 - ship the traceback back
            conn.send(("error", traceback.format_exc()))


class WorkerChannel:
    """The dispatcher's end of one worker: ops out, validated replies in.

    Each op consults the fault plan exactly once, when it is sent, and
    carries the drawn action to the worker (counting stays dispatcher-side
    so it survives respawns; see :mod:`repro.serving.faults`).  Transports
    supply ``_send``, ``_recv_message``, :meth:`reply_ready` and
    :meth:`close`; typed ops build on :meth:`_request` and
    :meth:`_recv_ok`.
    """

    #: Names the worker in errors ("shard worker 1", "router 0").
    label = "worker"

    def __init__(self, worker_id: int, fault_plan: FaultPlan | None) -> None:
        self.worker_id = worker_id
        self._fault_plan = fault_plan

    def __str__(self) -> str:
        return f"{self.label} {self.worker_id}"

    def _action(self, op: str) -> str | None:
        if self._fault_plan is None:
            return None
        return self._fault_plan.action_for(self.worker_id, op)

    def _start(self, spec) -> None:
        """Warm start: the worker builds its state before serving anything."""
        try:
            self._request_none("init", spec, deadline_s=None)
        except Exception:
            self.close(graceful=False)
            raise

    def _recv_ok(self, deadline_s: float | None):
        status, payload = self._recv_message(deadline_s)
        if status != "ok":
            raise WorkerFault(f"{self} failed:\n{payload}")
        return payload

    def _request(self, op: str, payload, deadline_s: float | None):
        self._send(op, payload)
        return self._recv_ok(deadline_s)

    def _request_none(self, op: str, payload, deadline_s: float | None) -> None:
        reply = self._request(op, payload, deadline_s)
        if reply is not None:
            raise WorkerFault(f"{self}: unexpected {op} reply {reply!r}")

    def _expect(self, reply, kind: type, op: str):
        """Reply-shape check: anything but a ``kind`` is a garbled reply."""
        if not isinstance(reply, kind):
            raise WorkerFault(f"{self}: garbled {op} reply {reply!r}")
        return reply


class PipeChannel(WorkerChannel):
    """A worker in its own process, driven over a duplex pipe.

    ``target`` is the process entry point (a module-level function that
    builds the tier's handler table and runs :func:`worker_loop`), so the
    design is start-method agnostic.  Every receive polls before it
    reads, bounded by the caller's deadline.
    """

    def __init__(
        self,
        worker_id: int,
        spec,
        target: Callable,
        start_method: str | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        super().__init__(worker_id, fault_plan)
        context = multiprocessing.get_context(start_method)
        self._conn, worker_conn = context.Pipe(duplex=True)
        self._process = context.Process(
            target=target,
            args=(worker_conn,),
            daemon=True,
            name=f"maliva-{self.label.replace(' ', '-')}-{worker_id}",
        )
        self._process.start()
        worker_conn.close()
        self._start(spec)

    def _send(self, op: str, payload) -> None:
        try:
            self._conn.send((op, payload, self._action(op)))
        except (BrokenPipeError, OSError, ValueError) as error:
            raise WorkerFault(f"{self}: send failed: {error}") from error

    def _recv_message(self, deadline_s: float | None):
        try:
            if deadline_s is not None and not self._conn.poll(deadline_s):
                raise WorkerTimeout(f"{self}: no reply within {deadline_s:.3f}s")
            message = self._conn.recv()
        except WorkerFault:
            raise
        except Exception as error:  # noqa: BLE001 - any transport failure
            raise WorkerFault(f"{self}: receive failed: {error}") from error
        if not isinstance(message, tuple) or len(message) != 2:
            raise WorkerFault(f"{self}: malformed reply {message!r}")
        return message

    def reply_ready(self) -> bool:
        """Non-blocking probe: has the worker's next reply arrived?

        Transport errors report ready — the subsequent collect surfaces
        them as a :class:`WorkerFault` for the supervisor.
        """
        try:
            return bool(self._conn.poll(0))
        except (OSError, ValueError, EOFError):
            return True

    def close(self, graceful: bool = True) -> None:
        """Stop the worker, escalating terminate → kill, and free the pipe.

        The pipe is always closed, even when the worker is already dead —
        a respawning supervisor must not leak one FD per death.
        """
        try:
            if graceful and self._process.is_alive():
                try:
                    self._conn.send(("stop", None, None))
                    if self._conn.poll(1.0):
                        self._conn.recv()
                except (BrokenPipeError, EOFError, OSError, ValueError):
                    pass
                self._process.join(timeout=5.0)
            if self._process.is_alive():
                self._process.terminate()
                self._process.join(timeout=2.0)
            if self._process.is_alive():  # pragma: no cover - stuck worker
                self._process.kill()
                self._process.join(timeout=2.0)
        finally:
            try:
                self._conn.close()
            except OSError:  # pragma: no cover - already closed
                pass


class InlineChannel(WorkerChannel):
    """A worker driven in-process: the same handler table, no transport.

    Sent ops queue until their reply is collected, so the work happens
    where a worker process would have produced the reply.  Injected
    faults surface there too — ``hang`` raises :class:`WorkerTimeout`,
    ``crash`` and ``garble`` raise :class:`WorkerFault` — and the
    supervisor recovers exactly as from a real worker death.  Handler
    exceptions propagate unchanged: there is no process boundary to
    ship them across.
    """

    def __init__(
        self, worker_id: int, spec, handlers: Handlers, fault_plan: FaultPlan | None
    ) -> None:
        super().__init__(worker_id, fault_plan)
        self._handlers = handlers
        self._pending: deque[tuple[str, object, str | None]] = deque()
        self._start(spec)

    def _send(self, op: str, payload) -> None:
        self._pending.append((op, payload, self._action(op)))

    def _recv_message(self, deadline_s: float | None):
        op, payload, action = self._pending.popleft()
        if action == HANG:
            raise WorkerTimeout(f"{self}: injected hang")
        if action is not None:
            raise WorkerFault(f"{self}: injected {action}")
        return "ok", self._handlers[op](payload)

    def reply_ready(self) -> bool:
        """Inline work happens at collect time, so a reply never blocks."""
        return True

    def close(self, graceful: bool = True) -> None:
        self._pending.clear()


class SupervisedSlot:
    """One supervised position in a fleet: a handle plus its history.

    The slot outlives any individual worker: deaths null the handle,
    respawns refill it, and the breaker retires the slot for good.
    ``worker_id`` is the slot's index for the fleet's lifetime (the shard
    id or the router id); the fault plan counts ops per ``worker_id``.
    """

    __slots__ = (
        "worker_id",
        "handle",
        "retired",
        "deaths",
        "respawns",
        "backoff_s",
        "next_spawn_at",
    )

    def __init__(self, worker_id: int, backoff_s: float) -> None:
        self.worker_id = worker_id
        self.handle = None
        self.retired = False
        self.deaths = 0
        self.respawns = 0
        self.backoff_s = backoff_s
        self.next_spawn_at = 0.0


class Fleet:
    """Supervisor for N workers: death, backoff, respawn, breaker, close.

    Deaths null the slot's handle and schedule a respawn after a capped
    exponential backoff.  :meth:`ensure` — run between batches, never
    mid-batch, so a batch sees a stable fleet — respawns dead slots whose
    backoff has passed, and a slot that has spent ``max_respawns`` trips
    the circuit breaker and is retired for good.  Lifecycle counters go
    to the tier's stats window (``record_death`` / ``record_respawn`` /
    ``record_retired``); the tier's *reactions* (rebalancing, gossip
    priming, admission capacity) key off what :meth:`ensure` returns.

    The constructor only validates; :meth:`start` spawns the workers, so
    a tier can reject bad options before it builds anything else.
    """

    def __init__(
        self,
        n_workers: int,
        *,
        size_option: str,
        rpc_deadline_ms: float | None,
        deadline_tau_factor: float,
        max_respawns: int,
        respawn_backoff_s: float,
        respawn_backoff_cap_s: float,
        stats: Callable[[], object | None],
    ) -> None:
        if n_workers < 1:
            raise QueryError(f"{size_option} must be at least 1, got {n_workers}")
        if rpc_deadline_ms is not None and rpc_deadline_ms <= 0:
            raise QueryError("rpc_deadline_ms must be positive (None disables)")
        if deadline_tau_factor < 0:
            raise QueryError("deadline_tau_factor must be non-negative")
        if max_respawns < 0:
            raise QueryError("max_respawns must be non-negative")
        if respawn_backoff_s < 0 or respawn_backoff_cap_s < 0:
            raise QueryError("respawn backoffs must be non-negative")
        self.n_workers = n_workers
        self.rpc_deadline_ms = rpc_deadline_ms
        self.deadline_tau_factor = deadline_tau_factor
        self.max_respawns = max_respawns
        self.respawn_backoff_s = respawn_backoff_s
        self.respawn_backoff_cap_s = respawn_backoff_cap_s
        self._stats = stats
        self._respawn: Callable[[SupervisedSlot], object] | None = None
        self.slots: list[SupervisedSlot] = []
        self._closed = False

    def start(
        self,
        spawn: Callable[[SupervisedSlot], object],
        respawn: Callable[[SupervisedSlot], object] | None = None,
    ) -> None:
        """Spawn every worker (``spawn(slot)`` returns a started handle).

        ``respawn`` rebuilds a dead slot's worker (default: ``spawn``);
        it must be warm and coherent with the live state it replaces.
        """
        self._respawn = respawn or spawn
        for worker_id in range(self.n_workers):
            slot = SupervisedSlot(worker_id, self.respawn_backoff_s)
            slot.handle = spawn(slot)
            self.slots.append(slot)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def live_slots(self) -> list[SupervisedSlot]:
        """Slots with a live handle, in worker-id order."""
        return [
            slot
            for slot in self.slots
            if not slot.retired and slot.handle is not None
        ]

    def active_slots(self) -> list[SupervisedSlot]:
        """Slots not retired (their worker may be dead awaiting respawn)."""
        return [slot for slot in self.slots if not slot.retired]

    # ------------------------------------------------------------------
    # Deadlines
    # ------------------------------------------------------------------
    def call_deadline_s(self, tau_ms: float | None = None) -> float | None:
        """Reply deadline for request-path ops, scaled by the batch budget.

        A worker serving a big-budget batch legitimately works longer, so
        the deadline grows with the largest ``tau_ms`` in flight; the base
        ``rpc_deadline_ms`` covers transport and fixed overheads.
        ``rpc_deadline_ms=None`` disables deadlines entirely.
        """
        if self.rpc_deadline_ms is None:
            return None
        tau = tau_ms if tau_ms is not None else 0.0
        return (self.rpc_deadline_ms + self.deadline_tau_factor * tau) / 1000.0

    def setup_deadline_s(self) -> float | None:
        """Generous deadline for coherence ops (syncs, mirrors, gossip,
        stats): these can ship whole tables and rebuild indexes, so they
        get a wide fixed multiple of the RPC deadline, not a tau-scaled one."""
        if self.rpc_deadline_ms is None:
            return None
        return max(30.0, 4.0 * self.rpc_deadline_ms / 1000.0)

    # ------------------------------------------------------------------
    # Supervision
    # ------------------------------------------------------------------
    def record_death(self, slot: SupervisedSlot) -> None:
        """Mark a slot's worker dead, reap it, and schedule its respawn."""
        handle, slot.handle = slot.handle, None
        slot.deaths += 1
        _reap(handle)
        window = self._stats()
        if window is not None:
            window.record_death(slot.worker_id)
        self._backoff(slot)

    def attempt(self, slot: SupervisedSlot, call: Callable[[object], object]) -> bool:
        """Run ``call(slot.handle)``; a :class:`WorkerFault` marks it dead.

        Returns whether the call went through.
        """
        try:
            call(slot.handle)
        except WorkerFault:
            self.record_death(slot)
            return False
        return True

    def broadcast(self, call: Callable[[object], object]) -> bool:
        """:meth:`attempt` ``call`` on every live worker.

        Dead slots are skipped: their respawn rebuilds from live state and
        cannot go stale.  Returns whether any worker took the call.
        """
        delivered = False
        for slot in self.live_slots():
            delivered = self.attempt(slot, call) or delivered
        return delivered

    def ensure(self) -> tuple[list[SupervisedSlot], list[SupervisedSlot]]:
        """Respawn dead slots past their backoff; retire exhausted ones.

        Returns the slots respawned and the slots newly retired this pass.
        """
        respawned: list[SupervisedSlot] = []
        retired: list[SupervisedSlot] = []
        if self._closed:
            return respawned, retired
        now = time.monotonic()
        for slot in self.slots:
            if slot.retired or slot.handle is not None:
                continue
            if slot.respawns >= self.max_respawns:
                # Circuit breaker: the respawn budget is spent; stop
                # flapping and shrink the fleet instead.
                if self._retire(slot):
                    retired.append(slot)
                continue
            if now < slot.next_spawn_at:
                continue
            slot.respawns += 1
            try:
                assert self._respawn is not None
                slot.handle = self._respawn(slot)
            except Exception:  # noqa: BLE001 - retry after backoff
                self._backoff(slot)
                if slot.respawns >= self.max_respawns and self._retire(slot):
                    retired.append(slot)
                continue
            slot.backoff_s = self.respawn_backoff_s
            window = self._stats()
            if window is not None:
                window.record_respawn(slot.worker_id)
            respawned.append(slot)
        return respawned, retired

    def close(self) -> None:
        """Stop every worker gracefully (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for slot in self.slots:
            handle, slot.handle = slot.handle, None
            if handle is None:
                continue
            try:
                handle.close(graceful=True)
            except Exception:  # noqa: BLE001 - closing is best-effort
                pass

    def _backoff(self, slot: SupervisedSlot) -> None:
        slot.next_spawn_at = time.monotonic() + slot.backoff_s
        slot.backoff_s = min(
            self.respawn_backoff_cap_s,
            max(slot.backoff_s * 2.0, self.respawn_backoff_s),
        )

    def _retire(self, slot: SupervisedSlot) -> bool:
        if slot.retired:
            return False
        slot.retired = True
        handle, slot.handle = slot.handle, None
        _reap(handle)
        window = self._stats()
        if window is not None:
            window.record_retired(slot.worker_id)
        return True


def _reap(handle) -> None:
    """Close a dead or retired worker's handle, best-effort."""
    if handle is None:
        return
    try:
        handle.close(graceful=False)
    except Exception:  # noqa: BLE001 - reaping is best-effort
        pass


async def await_replies(
    slots: Sequence[SupervisedSlot], deadline_s: float | None
) -> None:
    """Yield to the event loop until every live slot's reply has arrived.

    Also returns once ``deadline_s`` passes, so the synchronous collect
    that follows surfaces the timeout through the supervisor.  The async
    tier awaits this between a tier's execute begin and finish.
    """
    deadline_at = None if deadline_s is None else time.monotonic() + deadline_s
    while any(
        slot.handle is not None and not slot.handle.reply_ready()
        for slot in slots
    ):
        if deadline_at is not None and time.monotonic() >= deadline_at:
            return
        await asyncio.sleep(0.0005)
