"""Guarded incremental re-estimation: deadline, retries, degradation.

Both consumers of the incremental engine — the serving daemon's ingest
worker and the ``repro-spam update`` command — need the same wrapper
around a warm re-estimate: bound it with a wall-clock deadline (a
diffused push can cost far more than the typical case), retry
transient failures with deterministic backoff, and degrade to a cold
re-solve when the warm path keeps failing (unless degradation is
forbidden).  The plan is one in-process re-estimate, so the machinery
is a worker thread joined against the deadline.

An abandoned attempt keeps running in its daemon thread until it
finishes or the process exits: the caller is never blocked behind a
hang.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..errors import ReproError, SupervisionError
from ..obs import get_telemetry
from ..runtime.retry import BackoffPolicy

__all__ = ["DEFAULT_BACKOFF", "IngestPolicy", "IngestTimeout", "guarded_call"]

#: Default backoff between warm retries: short, capped, jitter-free —
#: the re-estimate is CPU-bound and local, so there is no remote
#: service to be polite to; the backoff exists to ride out transient
#: memory or scheduler pressure without busy-looping.
DEFAULT_BACKOFF = BackoffPolicy(
    retries=2, base=0.02, factor=2.0, max_total=1.0
)


class IngestTimeout(ReproError):
    """A guarded re-estimate exceeded its deadline and was abandoned."""


@dataclass(frozen=True)
class IngestPolicy:
    """The knobs of one guarded re-estimate.

    ``max_retries`` re-runs of the *warm* path are allowed after its
    first attempt; when they are exhausted (or the deadline fires on
    the last attempt) the ``fallback`` — typically a cold re-solve —
    runs, unless ``allow_degrade`` is false, in which case
    :class:`~repro.errors.SupervisionError` is raised (the ``--no-degrade``
    contract).
    """

    max_retries: int = 1
    deadline: Optional[float] = None
    allow_degrade: bool = True
    backoff: BackoffPolicy = field(default_factory=lambda: DEFAULT_BACKOFF)

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be positive")


def _call_with_deadline(
    fn: Callable[[], object], deadline: Optional[float]
):
    """Run ``fn`` bounded by ``deadline`` seconds; raise on expiry.

    Without a deadline the call is direct (no thread).  With one, the
    work runs in a daemon thread and the caller joins against the
    budget — numpy/scipy kernels release the GIL, so the worker makes
    real progress while the caller waits.
    """
    if deadline is None:
        return fn()
    box: dict = {}

    def _runner() -> None:
        try:
            box["value"] = fn()
        except BaseException as exc:  # propagated to the caller below
            box["error"] = exc

    thread = threading.Thread(
        target=_runner, name="guarded-reestimate", daemon=True
    )
    thread.start()
    thread.join(deadline)
    if thread.is_alive():
        raise IngestTimeout(
            f"re-estimate exceeded its {deadline:g}s deadline and was "
            "abandoned"
        )
    if "error" in box:
        raise box["error"]
    return box.get("value")


def guarded_call(
    warm: Callable[[], object],
    fallback: Optional[Callable[[], object]],
    policy: IngestPolicy,
    *,
    label: str = "ingest",
    sleep: Callable[[float], None] = time.sleep,
) -> tuple:
    """Run ``warm`` under the policy; returns ``(result, degraded)``.

    ``degraded`` is true when the result came from ``fallback``.  A
    warm attempt that raises (or times out) is retried up to
    ``policy.max_retries`` times with the policy's backoff; exhaustion
    degrades to ``fallback`` — still under the deadline — or raises
    :class:`SupervisionError` when degradation is disallowed or there
    is no fallback.
    """
    tele = get_telemetry()
    delays = policy.backoff.delays()
    last_error: Optional[BaseException] = None
    for attempt in range(1 + policy.max_retries):
        try:
            return _call_with_deadline(warm, policy.deadline), False
        except (ReproError, FloatingPointError) as exc:
            last_error = exc
            if tele.enabled:
                tele.inc("serve.ingest.retries" if attempt
                         < policy.max_retries else "serve.ingest.failures")
                tele.event(
                    "serve.ingest_attempt_failed",
                    label=label,
                    attempt=attempt + 1,
                    error=type(exc).__name__,
                )
            if attempt < policy.max_retries:
                if delays:
                    sleep(delays[min(attempt, len(delays) - 1)])
                continue
    if not policy.allow_degrade or fallback is None:
        raise SupervisionError(
            f"{label}: warm re-estimate failed "
            f"{1 + policy.max_retries} time(s) "
            f"(last: {type(last_error).__name__}: {last_error}) and "
            "degradation to a cold re-solve is "
            + ("disallowed" if fallback is not None else "unavailable"),
        ) from last_error
    if tele.enabled:
        tele.inc("serve.ingest.degraded")
        tele.event(
            "serve.ingest_degraded",
            label=label,
            error=type(last_error).__name__,
        )
    try:
        return _call_with_deadline(fallback, policy.deadline), True
    except (ReproError, FloatingPointError) as exc:
        raise SupervisionError(
            f"{label}: cold fallback failed after the warm path did "
            f"({type(exc).__name__}: {exc})",
        ) from exc
