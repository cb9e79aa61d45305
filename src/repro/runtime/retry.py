"""Retry with exponential backoff for transient I/O failures.

:func:`with_retries` calls a zero-argument function, retrying an
``OSError`` after sleeping ``backoff·2^i`` before retry ``i + 1``, and
emits one ``retry.attempt`` event per retry.  The schedule has no
jitter and no clock, so a retry storm replays identically under test
and in a post-mortem.

Kept dependency-free at module import time (the only intra-package
import is a lazy one of :mod:`repro.obs`, itself stdlib-only, on the
rare retry path) so any layer — including :mod:`repro.graph.io`, which
sits below the runtime package — can use it without import cycles.
"""

from __future__ import annotations

import time
from typing import Callable, TypeVar

__all__ = ["with_retries"]

T = TypeVar("T")


def _emit_retry(attempt: int, retries: int, exc: BaseException,
                delay: float) -> None:
    from ..obs import get_telemetry

    tele = get_telemetry()
    if not tele.enabled:
        return
    tele.inc("retry.attempts")
    tele.event(
        "retry.attempt",
        attempt=attempt,
        retries=retries,
        error=type(exc).__name__,
        delay=delay,
    )


def with_retries(
    fn: Callable[[], T],
    *,
    retries: int = 3,
    backoff: float = 0.05,
    sleep: Callable[[float], None] = time.sleep,
) -> T:
    """Call ``fn`` up to ``1 + retries`` times with exponential backoff.

    Parameters
    ----------
    fn:
        Zero-argument callable; must be safe to re-run (the io writers
        re-open and rewrite the whole file on each attempt).
    retries:
        Number of *re*-tries after the first attempt; 0 disables
        retrying.
    backoff:
        Sleep before the first retry, in seconds; each later one
        doubles it.
    sleep:
        Injection point for tests.

    Only ``OSError`` is retried; anything else propagates at once.  The
    final failure propagates unchanged, so callers see the genuine
    exception once the budget is exhausted.
    """
    if retries < 0:
        raise ValueError("retries must be non-negative")
    if backoff < 0:
        raise ValueError("backoff must be non-negative")
    for attempt in range(retries + 1):
        try:
            return fn()
        except OSError as exc:
            if attempt == retries:
                raise
            delay = backoff * 2 ** attempt
            _emit_retry(attempt + 1, retries, exc, delay)
            sleep(delay)
    raise AssertionError("unreachable")  # pragma: no cover
