"""Local socket front-end for the scoring daemon.

Transport is deliberately boring: a unix-domain socket speaking
newline-delimited JSON — one request object per line, one response
object per line, in order.  Each connection gets a reader thread that
parses and *admits* requests (:mod:`repro.serve.admission`) and
answers every admitted op itself, except ``explain``: a connection's
next line is read only after its reply is sent, so a hand-off to
another thread would buy nothing but two context switches.  Only the
slow lane (:data:`~repro.serve.admission.SLOW_OPS`: ``explain`` runs
one Jacobi solve over the whole graph) goes through a queue to its own
worker threads,
so an explain storm never holds up the readers.  Overload is shed at
the door with a structured refusal instead of a growing backlog.

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
from pathlib import Path
from typing import Optional, Union

from ..errors import ReproError, WalError
from ..obs import get_telemetry
from .admission import AdmissionController, AdmissionRejected
from .daemon import ScoringDaemon

__all__ = ["ScoringServer", "ServeClient"]

PathLike = Union[str, Path]

#: Requests larger than this are refused outright (a malformed client
#: must not be able to balloon the reader's buffer).
MAX_REQUEST_BYTES = 4 * 1024 * 1024

#: Encodes every reply and request line.  ``json.dumps(obj,
#: separators=(",", ":"))`` builds this same encoder on every call, so
#: the bytes are the same without the per-call construction.
_encode = json.JSONEncoder(separators=(",", ":")).encode


class _Job:
    """One admitted slow-lane request travelling from reader to worker."""

    __slots__ = ("ticket", "request", "done", "response")

    def __init__(self, ticket, request: dict) -> None:
        self.ticket = ticket
        self.request = request
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
    max_queue / request_timeout:
        Admission bounds (see :class:`AdmissionController`).
        ``max_queue`` bounds admitted-but-unfinished requests across
        all connections.  Fast ops are answered on the reader thread
        as soon as they are admitted, so in practice the deadline
        fires only on a slow-lane request that waited for a worker.
    slow_workers:
        Worker threads dedicated to the slow lane
        (:data:`~repro.serve.admission.SLOW_OPS` — ``explain``).  Slow
        requests never occupy a reader, so an explain storm's only
        effect on ``score`` latency is CPU contention.
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
        slow_workers: int = 1,
        max_requests: Optional[int] = None,
    ) -> None:
        if slow_workers < 1:
            raise ValueError("slow_workers must be >= 1")
        if max_requests is not None and max_requests < 1:
            raise ValueError("max_requests must be >= 1")
        self.daemon = daemon
        self.socket_path = Path(socket_path)
        self.admission = AdmissionController(
            max_queue, request_timeout=request_timeout
        )
        self.slow_workers = slow_workers
        self.max_requests = max_requests
        self._slow_queue: "queue.Queue[Optional[_Job]]" = queue.Queue()
        self._threads: list = []
        self._listener: Optional[socket.socket] = None
        self._stopping = threading.Event()
        self._stopped = threading.Event()
        self._lock = threading.Lock()
        self.requests = 0
        self.errors = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Bind the socket, start slow workers + acceptor + ingest worker."""
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
        for i in range(self.slow_workers):
            thread = threading.Thread(
                target=self._slow_loop,
                name=f"serve-slow-{i}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        acceptor = threading.Thread(
            target=self._accept_loop, name="serve-accept", daemon=True
        )
        acceptor.start()
        self._threads.append(acceptor)
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
        if not first:  # another stop() is already draining; wait it out
            self._stopped.wait()
            return
        self.admission.start_drain()
        listener, self._listener = self._listener, None
        if listener is not None:
            listener.close()
        # one poison pill per slow worker; queued jobs ahead of them
        # finish
        for _ in range(self.slow_workers):
            self._slow_queue.put(None)
        self.daemon.close()
        if self.socket_path.exists():
            try:
                self.socket_path.unlink()
            except OSError:  # pragma: no cover - racing a re-bind
                pass
        tele = get_telemetry()
        if tele.enabled:
            tele.event(
                "serve.drained",
                requests=self.requests,
                shed=self.admission.shed,
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
        # admission decides on the daemon's mode as of this request
        self.admission.set_ingest_healthy(not self.daemon.degraded)
        try:
            ticket = self.admission.admit(op)
        except AdmissionRejected as rejected:
            return self._rejection(rejected)
        if not ticket.slow:
            return self._answer(ticket, request)
        job = _Job(ticket, request)
        self._slow_queue.put(job)
        job.done.wait()
        return job.response

    def _send(self, conn: socket.socket, response: dict) -> None:
        conn.sendall(_encode(response).encode("utf-8") + b"\n")

    def _rejection(self, rejected: AdmissionRejected) -> dict:
        return {
            "ok": False,
            "error": "rejected",
            "reason": rejected.reason,
            "mode": rejected.mode,
            "staleness": self.daemon.staleness,
        }

    # ------------------------------------------------------------------
    # answering
    # ------------------------------------------------------------------

    def _answer(self, ticket, request: dict) -> dict:
        """Answer one admitted request and free its slot.

        Runs on the connection's reader for fast ops and on a slow-lane
        worker for :data:`~repro.serve.admission.SLOW_OPS`.
        """
        try:
            self.admission.check_deadline(ticket)
            response = self._dispatch(request)
        except AdmissionRejected as rejected:
            response = self._rejection(rejected)
        except Exception as exc:  # noqa: BLE001 - boundary
            self.errors += 1
            response = {
                "ok": False,
                "error": "internal",
                "detail": f"{type(exc).__name__}: {exc}",
            }
        finally:
            self.admission.release(ticket)
            with self._lock:
                self.requests += 1
        return response

    def _slow_loop(self) -> None:
        while True:
            job = self._slow_queue.get()
            if job is None:
                return
            job.response = self._answer(job.ticket, job.request)
            job.done.set()

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
            "admitted": self.admission.admitted,
            "shed": self.admission.shed,
            "deadline_drops": self.admission.deadline_drops,
            "queue_depth": self.admission.depth,
            "mode": self.admission.mode,
            "staleness": daemon.staleness,
            "epoch": daemon.store.current.seq,
            "applies": daemon.applies,
            "apply_failures": daemon.apply_failures,
            "degraded_applies": daemon.degraded_applies,
            "swaps": daemon.store.swaps,
            "pid": os.getpid(),
            "slow_depth": self.admission.slow_depth,
            "slow_shed": self.admission.slow_shed,
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
