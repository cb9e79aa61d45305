"""Admission control: bounded queueing, deadlines, graceful shedding.

A scoring daemon that accepts every request dies the moment traffic
exceeds capacity — queues grow without bound, every response is late,
and the ingest worker starves.  Admission control makes overload a
*decision* instead of an accident, degrading in three explicit steps:

``full``
    Everything is served: fresh reads, and ingest is accepting deltas.
``degraded``
    The ingest circuit breaker is open (consecutive re-estimate
    failures) or staleness exceeded its bound: reads are still served
    from the current epoch — every response carries an explicit
    ``staleness`` count so clients know what they got — but mutating
    requests (``ingest``) and slow analysis (:data:`SLOW_OPS`, i.e.
    ``explain``) are refused until the path heals.
``reject``
    The 503-equivalent: the bounded request queue is full (per-request
    shedding) or the daemon is draining for shutdown.  The connection
    gets an immediate structured refusal, never a silent hang.

Per-request deadlines are enforced at *dequeue*: a request that waited
past its deadline in the queue is answered with a ``deadline``
rejection rather than processed late — under overload, work that no
client is still waiting for is the first thing to drop.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

from ..obs import get_telemetry

__all__ = ["AdmissionController", "AdmissionTicket", "MODES", "SLOW_OPS"]

#: Numeric encoding of the ``serve.mode`` gauge (0 is healthy, as in
#: the ``serve.circuit_state`` gauge): 0 full service, 1 stale reads
#: only, 2 rejecting.
MODES = {"full": 0, "degraded": 1, "reject": 2}

#: Request kinds that mutate serving state; refused in degraded mode.
MUTATING_OPS = frozenset({"ingest"})

#: Request kinds whose cost is orders of magnitude above a score read
#: (``explain`` runs one Jacobi solve over the whole graph's edges).  They
#: get their own bounded lane — an explain storm can never take every
#: slot cheap reads need — and are shed outright in degraded mode,
#: where every cycle belongs to cheap reads and to healing the ingest
#: path.
SLOW_OPS = frozenset({"explain"})


class AdmissionTicket:
    """One admitted request: its queue slot and deadline."""

    __slots__ = ("op", "enqueued_at", "deadline", "released", "slow")

    def __init__(
        self, op: str, enqueued_at: float, deadline: Optional[float],
        *, slow: bool = False,
    ) -> None:
        self.op = op
        self.enqueued_at = enqueued_at
        #: absolute monotonic time after which the request is dropped
        self.deadline = deadline
        self.released = False
        #: admitted into the slow lane (its own depth bound + workers)
        self.slow = slow


class AdmissionController:
    """Tracks queue depth and service mode; admits or sheds requests.

    Parameters
    ----------
    max_queue:
        Bound on requests admitted but not yet finished.  The
        ``max_queue + 1``-th concurrent request is shed with an
        ``overloaded`` rejection.
    request_timeout:
        Per-request deadline in seconds from admission (``None``
        disables deadline drops).
    max_slow:
        Separate bound on concurrently admitted :data:`SLOW_OPS`
        requests (default ``max(1, max_queue // 4)``) — a storm of
        ``explain`` calls saturates its own lane, never the fast one.
    clock:
        Injection point for deterministic tests.
    """

    def __init__(
        self,
        max_queue: int = 64,
        *,
        request_timeout: Optional[float] = None,
        max_slow: Optional[int] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if request_timeout is not None and request_timeout <= 0:
            raise ValueError("request_timeout must be positive")
        if max_slow is None:
            max_slow = max(1, max_queue // 4)
        if max_slow < 1:
            raise ValueError("max_slow must be >= 1")
        self.max_queue = max_queue
        self.max_slow = max_slow
        self.request_timeout = request_timeout
        self._clock = clock
        self._lock = threading.Lock()
        self._depth = 0
        self._slow_depth = 0
        self._draining = False
        self._ingest_healthy = True
        self.admitted = 0
        self.shed = 0
        self.slow_shed = 0
        self.deadline_drops = 0

    # ------------------------------------------------------------------
    # mode
    # ------------------------------------------------------------------

    @property
    def mode(self) -> str:
        """The current service mode (``full``/``degraded``/``reject``)."""
        if self._draining:
            return "reject"
        if not self._ingest_healthy:
            return "degraded"
        return "full"

    def set_ingest_healthy(self, healthy: bool) -> None:
        """Driven by the ingest circuit breaker / staleness bound."""
        with self._lock:
            changed = self._ingest_healthy != healthy
            self._ingest_healthy = healthy
        if changed:
            tele = get_telemetry()
            if tele.enabled:
                tele.event("serve.mode_change", mode=self.mode)
        self._gauge_mode()

    def start_drain(self) -> None:
        """Enter shutdown: refuse new requests, let admitted ones finish."""
        with self._lock:
            self._draining = True
        self._gauge_mode()

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def depth(self) -> int:
        """Requests admitted and not yet released."""
        return self._depth

    @property
    def slow_depth(self) -> int:
        """Slow-lane requests admitted and not yet released."""
        return self._slow_depth

    # ------------------------------------------------------------------
    # per-request flow
    # ------------------------------------------------------------------

    def admit(self, op: str) -> "AdmissionTicket":
        """Admit one request or raise :class:`AdmissionRejected`.

        Rejection reasons: ``shutting-down`` (drain started),
        ``overloaded`` (queue full), ``degraded`` (a mutating op while
        ingest is unhealthy), ``slow-op`` (a :data:`SLOW_OPS` request
        while degraded — expensive analysis is the first load shed).
        """
        slow = op in SLOW_OPS
        with self._lock:
            if self._draining:
                self._count_shed("shutting-down")
                raise AdmissionRejected("shutting-down", "reject")
            if op in MUTATING_OPS and not self._ingest_healthy:
                self._count_shed("degraded")
                raise AdmissionRejected("degraded", "degraded")
            if slow and not self._ingest_healthy:
                self.slow_shed += 1
                self._count_shed("slow-op")
                raise AdmissionRejected("slow-op", "degraded")
            if slow and self._slow_depth >= self.max_slow:
                self.slow_shed += 1
                self._count_shed("overloaded")
                raise AdmissionRejected("overloaded", self.mode)
            if self._depth >= self.max_queue:
                self._count_shed("overloaded")
                raise AdmissionRejected("overloaded", self.mode)
            self._depth += 1
            if slow:
                self._slow_depth += 1
            self.admitted += 1
            now = self._clock()
            deadline = (
                None
                if self.request_timeout is None
                else now + self.request_timeout
            )
            ticket = AdmissionTicket(op, now, deadline, slow=slow)
        self._gauge_depth()
        return ticket

    def check_deadline(self, ticket: AdmissionTicket) -> None:
        """At dequeue: drop the request if its deadline already passed."""
        if ticket.deadline is not None and self._clock() > ticket.deadline:
            with self._lock:
                self.deadline_drops += 1
            tele = get_telemetry()
            if tele.enabled:
                tele.inc("serve.deadline_drops")
            self.release(ticket)
            raise AdmissionRejected("deadline", self.mode)

    def release(self, ticket: AdmissionTicket) -> None:
        """Free the queue slot (idempotent)."""
        with self._lock:
            if ticket.released:
                return
            ticket.released = True
            self._depth -= 1
            if ticket.slow:
                self._slow_depth -= 1
        self._gauge_depth()

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------

    def _count_shed(self, reason: str) -> None:
        # caller holds the lock
        self.shed += 1
        tele = get_telemetry()
        if tele.enabled:
            tele.inc("serve.shed")
            tele.event("serve.shed", reason=reason, depth=self._depth)

    def _gauge_depth(self) -> None:
        tele = get_telemetry()
        if tele.enabled:
            tele.set_gauge("serve.queue_depth", self._depth)

    def _gauge_mode(self) -> None:
        tele = get_telemetry()
        if tele.enabled:
            tele.set_gauge("serve.mode", MODES[self.mode])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AdmissionController({self.mode}, depth={self._depth}/"
            f"{self.max_queue}, shed={self.shed})"
        )


class AdmissionRejected(Exception):
    """A request was refused at admission (shed/deadline/degraded).

    Not a :class:`~repro.errors.ReproError`: this is request-scoped
    control flow inside the server, mapped to a structured error
    response, never an operator-facing failure.
    """

    def __init__(self, reason: str, mode: str) -> None:
        super().__init__(reason)
        self.reason = reason
        self.mode = mode


__all__.append("AdmissionRejected")
