"""Admission control.

Overload must be a decision: bounded depth, explicit mode transitions
(full → degraded → reject), deadline drops at dequeue, and structured
rejections.
"""

import pytest

from repro.serve.admission import (
    MODES,
    AdmissionController,
    AdmissionRejected,
)


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


# ----------------------------------------------------------------------
# admission
# ----------------------------------------------------------------------


def test_validation():
    with pytest.raises(ValueError):
        AdmissionController(0)
    with pytest.raises(ValueError):
        AdmissionController(4, request_timeout=0)
    assert set(MODES) == {"full", "degraded", "reject"}


def test_full_mode_admits_and_releases():
    ctl = AdmissionController(2)
    assert ctl.mode == "full"
    t1 = ctl.admit("score")
    t2 = ctl.admit("ingest")
    assert ctl.depth == 2
    with pytest.raises(AdmissionRejected) as info:
        ctl.admit("score")
    assert info.value.reason == "overloaded"
    ctl.release(t1)
    ctl.release(t1)  # idempotent
    assert ctl.depth == 1
    ctl.admit("score")
    ctl.release(t2)
    assert ctl.shed == 1


def test_degraded_mode_refuses_only_mutations():
    ctl = AdmissionController(8)
    ctl.set_ingest_healthy(False)
    assert ctl.mode == "degraded"
    ticket = ctl.admit("score")  # reads still flow
    ctl.release(ticket)
    with pytest.raises(AdmissionRejected) as info:
        ctl.admit("ingest")
    assert info.value.reason == "degraded"
    assert info.value.mode == "degraded"
    ctl.set_ingest_healthy(True)
    ctl.release(ctl.admit("ingest"))


def test_drain_refuses_everything():
    ctl = AdmissionController(8)
    ctl.start_drain()
    assert ctl.mode == "reject"
    for op in ("score", "ingest", "health"):
        with pytest.raises(AdmissionRejected) as info:
            ctl.admit(op)
        assert info.value.reason == "shutting-down"


def test_deadline_dropped_at_dequeue_and_slot_freed():
    clock = FakeClock()
    ctl = AdmissionController(4, request_timeout=5.0, clock=clock)
    ticket = ctl.admit("score")
    clock.now += 4.0
    ctl.check_deadline(ticket)  # still within budget
    clock.now += 2.0
    with pytest.raises(AdmissionRejected) as info:
        ctl.check_deadline(ticket)
    assert info.value.reason == "deadline"
    assert ctl.depth == 0  # released by the drop
    assert ctl.deadline_drops == 1


def test_no_timeout_means_no_deadline():
    ctl = AdmissionController(4)
    ticket = ctl.admit("score")
    assert ticket.deadline is None
    ctl.check_deadline(ticket)


def test_admission_sheds_slow_ops_in_degraded_mode():
    ctrl = AdmissionController(16)
    ctrl.set_ingest_healthy(False)
    with pytest.raises(AdmissionRejected) as err:
        ctrl.admit("explain")
    assert err.value.reason == "slow-op" and err.value.mode == "degraded"
    assert ctrl.slow_shed == 1
    ctrl.admit("score").released  # cheap reads still flow
    ctrl.set_ingest_healthy(True)
    ticket = ctrl.admit("explain")
    assert ticket.slow and ctrl.slow_depth == 1
    ctrl.release(ticket)
    assert ctrl.slow_depth == 0


def test_admission_bounds_slow_lane_independently():
    ctrl = AdmissionController(16, max_slow=2)
    tickets = [ctrl.admit("explain") for _ in range(2)]
    with pytest.raises(AdmissionRejected) as err:
        ctrl.admit("explain")
    assert err.value.reason == "overloaded"
    # the fast lane is untouched by a saturated slow lane
    fast = ctrl.admit("score")
    for t in tickets + [fast]:
        ctrl.release(t)
