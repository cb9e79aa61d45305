"""Admission: the server's decision to answer, queue or shed a request.

Overload must be a decision: a bounded number of requests in flight,
a slow lane bounded apart from the fast ops, deadline drops when a
request starts, and structured rejections whose ``mode`` is read from
the server's drain flag and the daemon's ``degraded``.
"""

import json
import sys
import threading
import time
import types

import pytest

import repro.serve.daemon as serve_daemon
import repro.serve.server as serve_server
from repro.serve import ScoringDaemon, ScoringServer, ServeClient
from test_serve_daemon import _ask_once, _in_thread, base  # noqa: F401


@pytest.fixture()
def daemon(base):
    return ScoringDaemon(*base)


def _ask(server, request):
    """One request through the server's admission and answer, in
    process (no socket)."""
    return server._handle_line(json.dumps(request).encode("utf-8"))


def _score(base):
    return {"op": "score", "host": base[0].name_of(3)}


def _explain(base):
    return {"op": "explain", "host": base[0].name_of(3), "top": 3}


def _fake_clock(monkeypatch, times):
    """The server reads ``times`` in order as its monotonic clock."""
    clock = iter(times)
    monkeypatch.setattr(
        serve_server,
        "time",
        types.SimpleNamespace(monotonic=lambda: next(clock)),
    )


class _HeldOp:
    """Holds each call of one daemon query until released."""

    def __init__(self, monkeypatch, daemon, name):
        self.entered = threading.Semaphore(0)
        self.release = threading.Event()
        real = getattr(daemon, name)

        def held(*args, **kwargs):
            self.entered.release()
            self.release.wait(10.0)
            return real(*args, **kwargs)

        monkeypatch.setattr(daemon, name, held)


def test_validation(daemon, tmp_path):
    for kwargs in (
        {"max_queue": 0},
        {"request_timeout": 0},
        {"request_timeout": -1.0},
        {"max_requests": 0},
    ):
        with pytest.raises(ValueError):
            ScoringServer(daemon, tmp_path / "sock", **kwargs)
    # the slow lane's slots: a quarter of the queue, at least one
    for max_queue, max_slow in ((16, 4), (3, 1)):
        server = ScoringServer(daemon, tmp_path / "s", max_queue=max_queue)
        assert server.max_slow == max_slow


def test_full_mode_admits_and_releases(base, daemon, tmp_path):
    """Readers on more threads than CPUs, with a short switch interval:
    every request is admitted or shed ``overloaded``, each admitted one
    frees its slot, and no count loses an update."""
    server = ScoringServer(daemon, tmp_path / "sock", max_queue=2)
    request = _score(base)
    replies = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(
                target=lambda: replies.extend(
                    _ask(server, request) for _ in range(200)
                ),
                daemon=True,
            )
            for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    answered = sum(reply["ok"] for reply in replies)
    shed = [reply for reply in replies if not reply["ok"]]
    assert {(r["reason"], r["mode"]) for r in shed} <= {
        ("overloaded", "full")
    }
    stats = server.stats()
    assert len(replies) == 8 * 200
    assert stats["admitted"] == stats["requests"] == answered
    assert stats["shed"] == len(shed)
    assert stats["queue_depth"] == 0 and stats["slow_depth"] == 0
    # a finished request's slot is free again
    assert _ask(server, request)["ok"] is True


def test_degraded_mode_refuses_only_mutations(base, daemon, tmp_path):
    server = ScoringServer(daemon, tmp_path / "sock")
    daemon._failures = serve_daemon.CIRCUIT_THRESHOLD  # the circuit opens
    assert daemon.degraded
    reads = (
        _score(base), {"op": "top", "k": 3}, {"op": "health"}, {"op": "stats"}
    )
    for request in reads:
        reply = _ask(server, request)  # reads still flow
        assert reply["ok"] is True and reply["mode"] == "degraded", reply
    reply = _ask(server, {"op": "ingest", "insertions": [[0, 5]]})
    assert reply["ok"] is False
    assert (reply["reason"], reply["mode"]) == ("degraded", "degraded")
    daemon._failures = 0  # the circuit closes: ingest is admitted again
    assert _ask(server, {"op": "ingest", "insertions": [[0, 5]]})["ok"] is True


def test_drain_refuses_everything(base, daemon, tmp_path):
    """Once ``stop()`` starts the drain, every op on a connection that
    is still open is refused ``shutting-down`` in mode ``reject``."""
    server = ScoringServer(daemon, tmp_path / "sock")
    server.start()
    requests = [
        _score(base),
        {"op": "top", "k": 3},
        _explain(base),
        {"op": "ingest", "insertions": [[0, 5]]},
        {"op": "health"},
        {"op": "stats"},
    ]
    clients = [ServeClient(server.socket_path) for _ in requests]
    try:
        for client in clients:  # each connection has its reader
            assert client.health()["ok"] is True
        server.stop()
        for client, request in zip(clients, requests):
            reply = client.request(request)
            assert reply["ok"] is False, (request, reply)
            assert reply["reason"] == "shutting-down"
            assert reply["mode"] == "reject"
        assert server.stats()["mode"] == "reject"
    finally:
        for client in clients:
            client.close()
        server.stop()


def test_deadline_dropped_at_dequeue_and_slot_freed(
    base, daemon, tmp_path, monkeypatch
):
    server = ScoringServer(daemon, tmp_path / "sock", request_timeout=5.0)
    # admitted at 100 (deadline 105), started at 104: within budget
    _fake_clock(monkeypatch, [100.0, 104.0])
    assert _ask(server, _score(base))["ok"] is True
    # admitted at 100, started at 106: dropped
    _fake_clock(monkeypatch, [100.0, 106.0])
    reply = _ask(server, _score(base))
    assert reply["ok"] is False
    assert (reply["reason"], reply["mode"]) == ("deadline", "full")
    stats = server.stats()
    assert stats["deadline_drops"] == 1
    assert stats["queue_depth"] == 0  # released by the drop
    assert stats["requests"] == stats["admitted"] == 2


def test_no_timeout_means_no_deadline(base, daemon, tmp_path, monkeypatch):
    server = ScoringServer(daemon, tmp_path / "sock")
    _fake_clock(monkeypatch, [])  # reading the clock would raise
    assert _ask(server, _score(base))["ok"] is True
    assert server.stats()["deadline_drops"] == 0


def test_admission_sheds_slow_ops_in_degraded_mode(base, daemon, tmp_path):
    server = ScoringServer(daemon, tmp_path / "sock", max_queue=16)
    server.start()
    try:
        daemon._failures = serve_daemon.CIRCUIT_THRESHOLD
        reply = _ask(server, _explain(base))
        assert (reply["reason"], reply["mode"]) == ("slow-op", "degraded")
        assert server.stats()["slow_shed"] == 1
        assert _ask(server, _score(base))["ok"] is True  # cheap reads flow
        daemon._failures = 0
        assert _ask(server, _explain(base))["ok"] is True
        stats = server.stats()
        assert stats["slow_shed"] == 1 and stats["slow_depth"] == 0
    finally:
        server.stop()


def test_admission_bounds_slow_lane_independently(
    base, daemon, tmp_path, monkeypatch
):
    """With ``max_queue`` 8 the slow lane has 2 slots: one explain on
    the worker and one queued behind it fill it, a third is shed
    ``overloaded``, and a ``score`` is still answered."""
    held = _HeldOp(monkeypatch, daemon, "query_explain")
    server = ScoringServer(daemon, tmp_path / "sock", max_queue=8)
    server.start()
    try:
        first = _in_thread(_ask_once, server.socket_path, _explain(base))
        assert held.entered.acquire(timeout=10.0)
        second = _in_thread(_ask_once, server.socket_path, _explain(base))
        deadline = time.monotonic() + 10.0
        while server.stats()["slow_depth"] < 2:
            assert time.monotonic() < deadline, "second explain not queued"
            time.sleep(0.01)
        reply = _ask(server, _explain(base))
        assert (reply["reason"], reply["mode"]) == ("overloaded", "full")
        # the fast lane is untouched by a saturated slow lane
        assert _ask(server, _score(base))["ok"] is True
        held.release.set()
        for thread, result in (first, second):
            thread.join(10.0)
            assert not thread.is_alive()
            assert result["reply"]["ok"] is True
        stats = server.stats()
        assert stats["slow_shed"] == 1 and stats["shed"] == 1
        assert stats["slow_depth"] == 0 and stats["queue_depth"] == 0
    finally:
        held.release.set()
        server.stop()
