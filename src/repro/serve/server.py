"""Local socket front-end for the scoring daemon.

Transport is deliberately boring: a unix-domain socket speaking
newline-delimited JSON — one request object per line, one response
object per line, in order.  Each connection gets a reader thread that
parses and admits requests and answers every admitted op itself,
except ``explain``: a connection's next line is read only after its
reply is sent, so a hand-off to another thread would buy nothing but
two context switches.  Only the slow lane (:data:`SLOW_OPS`:
``explain`` runs one Jacobi solve over the whole graph) goes through a
queue to its own worker thread, so an explain storm never holds up
the readers.

Admission decides on two things the server reads directly: its own
drain flag and :attr:`ScoringDaemon.degraded
<repro.serve.daemon.ScoringDaemon.degraded>`.  During a drain every op
is refused with ``shutting-down``; while the daemon is degraded
``ingest`` is refused with ``degraded`` and ``explain`` with
``slow-op``.  Overload is shed at the door with ``overloaded`` instead
of a growing backlog: ``max_queue`` bounds admitted-but-unfinished
requests across all connections, and the slow lane has its own
``max(1, max_queue // 4)`` slots.  A request that waited past
``request_timeout`` is dropped when it starts, with ``deadline``.

Every response carries the serving context a client needs to interpret
it: the epoch sequence, the ``staleness`` count (accepted deltas not
yet folded into the scores) and the service ``mode``
(``full``/``degraded``/``reject``).  SIGTERM triggers a clean drain:
new requests are refused with ``shutting-down``, in-flight ones
finish, the ingest worker stops after its current apply (pending
deltas stay durable in the WAL), and the socket is unlinked.

Protocol ops
------------
``score``    ``{"op": "score", "host": "spam.example.com"}``
``top``      ``{"op": "top", "k": 10, "tau": 0.98, "rho": 10.0}``
``explain``  ``{"op": "explain", "host": "...", "top": 10}``
``ingest``   ``{"op": "ingest", "insertions": [[u, v], ...],
             "deletions": [[u, v], ...]}``
``health``   ``{"op": "health"}``
``stats``    ``{"op": "stats"}``
"""

from __future__ import annotations

import json
import os
import queue
import signal
import socket
import threading
import time
from pathlib import Path
from typing import Optional, Union

from ..errors import ReproError, WalError
from ..obs import get_telemetry
from .daemon import ScoringDaemon

__all__ = ["SLOW_OPS", "ScoringServer", "ServeClient"]

PathLike = Union[str, Path]

#: Request kinds whose cost is orders of magnitude above a score read
#: (``explain`` runs one Jacobi solve over the whole graph's edges).  They
#: get their own bounded lane — an explain storm can never take every
#: slot cheap reads need — and are shed outright in degraded mode,
#: where every cycle belongs to cheap reads and to healing the ingest
#: path.
SLOW_OPS = frozenset({"explain"})

#: Requests larger than this are refused outright (a malformed client
#: must not be able to balloon the reader's buffer).
MAX_REQUEST_BYTES = 4 * 1024 * 1024

#: Encodes every reply and request line.  ``json.dumps(obj,
#: separators=(",", ":"))`` builds this same encoder on every call, so
#: the bytes are the same without the per-call construction.
_encode = json.JSONEncoder(separators=(",", ":")).encode


class _Job:
    """One admitted slow-lane request travelling from reader to worker."""

    __slots__ = ("request", "deadline", "done", "response")

    def __init__(self, request: dict, deadline: Optional[float]) -> None:
        self.request = request
        self.deadline = deadline
        self.done = threading.Event()
        self.response: Optional[dict] = None


class ScoringServer:
    """Serves one :class:`~repro.serve.daemon.ScoringDaemon` on a socket.

    Parameters
    ----------
    daemon:
        The scoring daemon (already loaded; the server starts its
        ingest worker).
    socket_path:
        Unix-domain socket path; unlinked on startup and shutdown.
    max_queue:
        Bound on admitted-but-unfinished requests across all
        connections; the next one is shed with ``overloaded``.  The
        slow lane (:data:`SLOW_OPS`) has its own ``max(1, max_queue //
        4)`` slots inside it, served by one worker thread, so an
        explain storm's only effect on ``score`` latency is CPU
        contention.
    request_timeout:
        Deadline in seconds from admission, checked when the request
        starts (``None``: no deadline).  Fast ops start as soon as
        they are admitted, so in practice it fires only on a slow-lane
        request that waited for the worker.
    max_requests:
        Optional cap on processed requests, after which the server
        drains itself — benchmark/soak plumbing.
    """

    def __init__(
        self,
        daemon: ScoringDaemon,
        socket_path: PathLike,
        *,
        max_queue: int = 64,
        request_timeout: Optional[float] = None,
        max_requests: Optional[int] = None,
    ) -> None:
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if request_timeout is not None and request_timeout <= 0:
            raise ValueError("request_timeout must be positive")
        if max_requests is not None and max_requests < 1:
            raise ValueError("max_requests must be >= 1")
        self.daemon = daemon
        self.socket_path = Path(socket_path)
        self.max_queue = max_queue
        self.max_slow = max(1, max_queue // 4)
        self.request_timeout = request_timeout
        self.max_requests = max_requests
        self._slow_queue: "queue.Queue[Optional[_Job]]" = queue.Queue()
        self._threads: list = []
        self._listener: Optional[socket.socket] = None
        self._stopping = threading.Event()
        self._stopped = threading.Event()
        # guards the drain flag's setting, the slow-lane queue and the
        # counters below
        self._lock = threading.Lock()
        self._depth = 0
        self._slow_depth = 0
        self.admitted = 0
        self.shed = 0
        self.slow_shed = 0
        self.deadline_drops = 0
        self.requests = 0
        self.errors = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Bind the socket, start the slow worker + acceptor + ingest
        worker."""
        if not hasattr(socket, "AF_UNIX"):  # pragma: no cover
            raise ReproError(
                "the scoring server needs unix-domain sockets, which "
                "this platform does not provide"
            )
        if self.socket_path.exists():
            self.socket_path.unlink()
        self.socket_path.parent.mkdir(parents=True, exist_ok=True)
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(str(self.socket_path))
        listener.listen(16)
        listener.settimeout(0.2)
        self._listener = listener
        self.daemon.start()
        for target, name in (
            (self._slow_loop, "serve-slow-0"),
            (self._accept_loop, "serve-accept"),
        ):
            thread = threading.Thread(target=target, name=name, daemon=True)
            thread.start()
            self._threads.append(thread)
        tele = get_telemetry()
        if tele.enabled:
            tele.event("serve.listening", socket=str(self.socket_path))

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT → drain (main thread only)."""

        def _handler(signum, _frame) -> None:
            tele = get_telemetry()
            if tele.enabled:
                tele.event("serve.signal", signum=int(signum))
            self.stop()

        signal.signal(signal.SIGTERM, _handler)
        signal.signal(signal.SIGINT, _handler)

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the server stops; True when it did."""
        return self._stopped.wait(timeout)

    def stop(self) -> None:
        """Drain: refuse new work, finish in-flight, close everything."""
        with self._lock:
            first = not self._stopping.is_set()
            self._stopping.set()
            if first:
                # the slow worker's poison pill; admission queues a slow
                # job under this lock only while no drain has started,
                # so every admitted job is ahead of it and finishes
                self._slow_queue.put(None)
        if not first:  # another stop() is already draining; wait it out
            self._stopped.wait()
            return
        listener, self._listener = self._listener, None
        if listener is not None:
            listener.close()
        # sets the serve.mode gauge to 2 (reject) under the lock that
        # stops the ingest worker, so no apply finishing now lowers it
        self.daemon.close()
        if self.socket_path.exists():
            try:
                self.socket_path.unlink()
            except OSError:  # pragma: no cover - racing a re-bind
                pass
        tele = get_telemetry()
        if tele.enabled:
            tele.event(
                "serve.drained", requests=self.requests, shed=self.shed
            )
        # set LAST: wait() returning is the caller's license to exit
        # the process, and everything above (socket unlink, telemetry)
        # must be done by then — stop() often runs on a daemon thread
        self._stopped.set()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stopped.is_set():
            listener = self._listener
            if listener is None:
                return
            try:
                conn, _ = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            thread = threading.Thread(
                target=self._reader_loop,
                args=(conn,),
                name="serve-conn",
                daemon=True,
            )
            thread.start()

    def _reader_loop(self, conn: socket.socket) -> None:
        """Parse, admit and answer one connection's requests, in order."""
        try:
            with conn:
                fh = conn.makefile("rb")
                while not self._stopped.is_set():
                    line = fh.readline(MAX_REQUEST_BYTES + 1)
                    if not line:
                        return
                    if len(line) > MAX_REQUEST_BYTES:
                        self._send(conn, {
                            "ok": False,
                            "error": "bad-request",
                            "detail": "request too large",
                        })
                        return
                    try:
                        self._send(conn, self._handle_line(line))
                    finally:
                        # once the reply is out, or could not go out
                        # (the client left): stop() is what lets the
                        # process exit
                        if self._capped():
                            threading.Thread(
                                target=self.stop, daemon=True
                            ).start()
        except (OSError, ValueError):
            return

    def _capped(self) -> bool:
        """``max_requests`` answered and no drain started yet."""
        return (
            self.max_requests is not None
            and self.requests >= self.max_requests
            and not self._stopping.is_set()
        )

    def _handle_line(self, line: bytes) -> dict:
        try:
            request = json.loads(line)
            if not isinstance(request, dict):
                raise ValueError("request must be an object")
            op = str(request.get("op", ""))
        except (ValueError, UnicodeDecodeError):
            self.errors += 1
            return {"ok": False, "error": "bad-request",
                    "detail": "unparsable request line"}
        slow = op in SLOW_OPS
        deadline = (
            None
            if self.request_timeout is None
            else time.monotonic() + self.request_timeout
        )
        job = _Job(request, deadline) if slow else None
        with self._lock:
            # admitting and queueing a slow job is one step under the
            # lock stop() takes to start the drain: the job lands ahead
            # of the worker's poison pill, or is refused shutting-down
            mode = self._mode()
            reason = self._refusal(op, slow, mode)
            if reason is None:
                self._depth += 1
                self.admitted += 1
                if job is not None:
                    self._slow_depth += 1
                    self._slow_queue.put(job)
        if reason is not None:
            return self._rejection(reason, mode)
        self._gauge_depth()
        if job is None:
            return self._answer(request, deadline, slow=False)
        job.done.wait()
        return job.response

    def _mode(self) -> str:
        """The service mode a rejection reports and ``stats`` shows."""
        if self._stopping.is_set():
            return "reject"
        return "degraded" if self.daemon.degraded else "full"

    def _refusal(self, op: str, slow: bool, mode: str) -> Optional[str]:
        """The reason ``op`` is shed in ``mode``, counted, or ``None``
        to admit it.

        The caller holds the lock.  A drain refuses every op; a
        degraded daemon refuses ``ingest`` and :data:`SLOW_OPS`;
        otherwise only the slow-lane and queue bounds refuse.
        """
        if mode == "reject":
            return self._shed("shutting-down")
        if mode == "degraded" and op == "ingest":
            return self._shed("degraded")
        if slow and mode == "degraded":
            self.slow_shed += 1
            return self._shed("slow-op")
        if slow and self._slow_depth >= self.max_slow:
            self.slow_shed += 1
            return self._shed("overloaded")
        if self._depth >= self.max_queue:
            return self._shed("overloaded")
        return None

    def _shed(self, reason: str) -> str:
        # caller holds the lock
        self.shed += 1
        tele = get_telemetry()
        if tele.enabled:
            tele.inc("serve.shed")
            tele.event("serve.shed", reason=reason, depth=self._depth)
        return reason

    def _send(self, conn: socket.socket, response: dict) -> None:
        conn.sendall(_encode(response).encode("utf-8") + b"\n")

    def _rejection(self, reason: str, mode: str) -> dict:
        return {
            "ok": False,
            "error": "rejected",
            "reason": reason,
            "mode": mode,
            "staleness": self.daemon.staleness,
        }

    # ------------------------------------------------------------------
    # answering
    # ------------------------------------------------------------------

    def _answer(
        self, request: dict, deadline: Optional[float], *, slow: bool
    ) -> dict:
        """Answer one admitted request and free its slot.

        Runs on the connection's reader for fast ops and on the slow
        worker for :data:`SLOW_OPS`.  A request whose deadline passed
        while it waited is dropped here, with ``deadline``.
        """
        try:
            if deadline is not None and time.monotonic() > deadline:
                with self._lock:
                    self.deadline_drops += 1
                tele = get_telemetry()
                if tele.enabled:
                    tele.inc("serve.deadline_drops")
                response = self._rejection("deadline", self._mode())
            else:
                response = self._dispatch(request)
        except Exception as exc:  # noqa: BLE001 - boundary
            self.errors += 1
            response = {
                "ok": False,
                "error": "internal",
                "detail": f"{type(exc).__name__}: {exc}",
            }
        finally:
            with self._lock:
                self._depth -= 1
                if slow:
                    self._slow_depth -= 1
                self.requests += 1
            self._gauge_depth()
        return response

    def _slow_loop(self) -> None:
        while True:
            job = self._slow_queue.get()
            if job is None:
                return
            job.response = self._answer(job.request, job.deadline, slow=True)
            job.done.set()

    def _gauge_depth(self) -> None:
        tele = get_telemetry()
        if tele.enabled:
            tele.set_gauge("serve.queue_depth", self._depth)

    def _dispatch(self, request: dict) -> dict:
        op = str(request.get("op", ""))
        daemon = self.daemon
        try:
            if op == "score":
                return {"ok": True, **daemon.query_score(_host(request))}
            if op == "top":
                return {"ok": True, **daemon.query_top(
                    int(request.get("k", 10)),
                    tau=_opt_float(request.get("tau")),
                    rho=_opt_float(request.get("rho")),
                )}
            if op == "explain":
                return {"ok": True, **daemon.query_explain(
                    _host(request), top=int(request.get("top", 10))
                )}
            if op == "ingest":
                return {"ok": True, **daemon.submit_delta(
                    [tuple(edge) for edge in request.get("insertions", [])],
                    [tuple(edge) for edge in request.get("deletions", [])],
                )}
            if op == "health":
                return {"ok": True, **daemon.health()}
            if op == "stats":
                return {"ok": True, **self.stats()}
        except KeyError as exc:
            return {"ok": False, "error": "unknown-host",
                    "detail": str(exc)}
        except WalError as exc:
            return {
                "ok": False,
                "error": "rejected",
                "reason": "degraded",
                "mode": "degraded",
                "detail": str(exc),
                "staleness": daemon.staleness,
            }
        except (ValueError, TypeError, OverflowError) as exc:
            # OverflowError: int() of an out-of-range number (1e400)
            return {"ok": False, "error": "bad-request",
                    "detail": str(exc)}
        except ReproError as exc:
            self.errors += 1
            return {"ok": False, "error": "error",
                    "detail": f"{type(exc).__name__}: {exc}"}
        return {"ok": False, "error": "bad-request",
                "detail": f"unknown op {op!r}"}

    def stats(self) -> dict:
        daemon = self.daemon
        return {
            "requests": self.requests,
            "request_errors": self.errors,
            "admitted": self.admitted,
            "shed": self.shed,
            "deadline_drops": self.deadline_drops,
            "queue_depth": self._depth,
            "mode": self._mode(),
            "staleness": daemon.staleness,
            "epoch": daemon.store.current.seq,
            "applies": daemon.applies,
            "apply_failures": daemon.apply_failures,
            "degraded_applies": daemon.degraded_applies,
            "swaps": daemon.store.swaps,
            "pid": os.getpid(),
            "slow_depth": self._slow_depth,
            "slow_shed": self.slow_shed,
        }


def _host(request: dict) -> str:
    """The request's ``host``; a missing one is a ``bad-request``
    (``ValueError``), not an ``unknown-host`` (``KeyError``)."""
    if "host" not in request:
        raise ValueError("missing field 'host'")
    return str(request["host"])


def _opt_float(value) -> Optional[float]:
    return None if value is None else float(value)


class ServeClient:
    """Minimal synchronous client for the NDJSON protocol.

    Used by the CLI's poke path, the soak test and the serving
    benchmark; also the reference for how to talk to the daemon from
    anything else.
    """

    def __init__(
        self, socket_path: PathLike, *, timeout: float = 30.0
    ) -> None:
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            self._sock.settimeout(timeout)
            self._sock.connect(str(socket_path))
        except BaseException:
            self._sock.close()
            raise
        self._fh = self._sock.makefile("rb")

    def request(self, payload: dict) -> dict:
        self._sock.sendall(_encode(payload).encode("utf-8") + b"\n")
        line = self._fh.readline()
        if not line:
            raise ReproError("server closed the connection mid-request")
        return json.loads(line)

    def score(self, host: str) -> dict:
        return self.request({"op": "score", "host": host})

    def top(self, k: int = 10, **kwargs) -> dict:
        return self.request({"op": "top", "k": k, **kwargs})

    def explain(self, host: str, top: int = 10) -> dict:
        return self.request({"op": "explain", "host": host, "top": top})

    def ingest(self, insertions=None, deletions=None) -> dict:
        return self.request({
            "op": "ingest",
            "insertions": [list(e) for e in (insertions or [])],
            "deletions": [list(e) for e in (deletions or [])],
        })

    def health(self) -> dict:
        return self.request({"op": "health"})

    def stats(self) -> dict:
        return self.request({"op": "stats"})

    def close(self) -> None:
        try:
            self._fh.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
