"""Unit tests for the runtime helpers: retries and solution snapshots."""

import numpy as np
import pytest

from repro.runtime import load_solution, save_solution, with_retries
from repro.runtime.chaos import FlakyCalls


# ----------------------------------------------------------------------
# retry
# ----------------------------------------------------------------------


def test_with_retries_recovers_from_transient_failures():
    sleeps = []
    flaky = FlakyCalls(lambda: "ok", fail_first=2, exc=OSError)
    result = with_retries(
        flaky, retries=3, backoff=0.01, sleep=sleeps.append
    )
    assert result == "ok"
    assert flaky.calls == 3
    # exponential backoff
    assert sleeps == [0.01, 0.02]


def test_with_retries_exhausts_and_reraises():
    flaky = FlakyCalls(lambda: "ok", fail_first=5, exc=OSError)
    with pytest.raises(OSError):
        with_retries(flaky, retries=2, backoff=0.0, sleep=lambda _: None)
    assert flaky.calls == 3


def test_with_retries_exhaustion_raises_the_last_error():
    """Once the budget is spent, the last attempt's error propagates."""
    flaky = FlakyCalls(lambda: "ok", fail_first=10, exc=OSError)
    with pytest.raises(OSError, match="on call 3$"):
        with_retries(flaky, retries=2, backoff=0.0, sleep=lambda _: None)
    assert flaky.calls == 3


def test_with_retries_does_not_catch_unlisted_exceptions():
    flaky = FlakyCalls(lambda: "ok", fail_first=1, exc=KeyError)
    with pytest.raises(KeyError):
        with_retries(flaky, retries=5, backoff=0.0, sleep=lambda _: None)
    assert flaky.calls == 1


def _fails(first):
    return FlakyCalls(lambda: "ok", fail_first=first, exc=OSError)


def test_with_retries_sleeps_exactly_the_schedule_prefix():
    """``f`` failures sleep the first ``f`` delays of ``backoff·2^i``."""
    schedule = [0.125 * 2**i for i in range(6)]
    for failures in range(7):
        slept = []
        result = with_retries(
            _fails(failures), retries=6, backoff=0.125, sleep=slept.append
        )
        assert result == "ok"
        assert slept == schedule[:failures]


def test_with_retries_emits_attempt_telemetry(telemetry):
    slept = []
    with_retries(_fails(2), retries=3, backoff=0.125, sleep=slept.append)
    events = telemetry.sink.named("retry.attempt")
    assert [e.attrs["attempt"] for e in events] == [1, 2]
    assert [e.attrs["delay"] for e in events] == [0.125, 0.25]
    assert all(e.attrs["retries"] == 3 for e in events)
    assert all(e.attrs["error"] == "OSError" for e in events)
    assert telemetry.metrics.value("retry.attempts") == 2
    assert slept == [0.125, 0.25]


@pytest.mark.parametrize("kwargs", [{"retries": -1}, {"backoff": -0.1}])
def test_with_retries_rejects_a_negative_budget(kwargs):
    flaky = _fails(0)
    with pytest.raises(ValueError):
        with_retries(flaky, sleep=lambda _: None, **kwargs)
    assert flaky.calls == 0


# ----------------------------------------------------------------------
# solution snapshots
# ----------------------------------------------------------------------


def test_checkpoint_write_is_atomic_no_tmp_left(tmp_path):
    save_solution(tmp_path, np.ones((16, 2)), fingerprint="fp")
    leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []
    assert [p.name for p in tmp_path.iterdir()] == ["solution.npz"]


def test_checkpoint_save_retries_transient_oserror(tmp_path, monkeypatch):
    import repro.runtime.checkpoint as ckpt_mod

    real_replace = ckpt_mod.os.replace
    flaky = FlakyCalls(real_replace, fail_first=2, exc=OSError)
    monkeypatch.setattr(ckpt_mod.os, "replace", flaky)
    scores = np.arange(8.0).reshape(4, 2)
    save_solution(tmp_path, scores, fingerprint="fp", retries=3, backoff=0.0)
    monkeypatch.setattr(ckpt_mod.os, "replace", real_replace)
    assert np.array_equal(
        load_solution(tmp_path, fingerprint="fp").scores, scores
    )
    assert flaky.calls == 3
    assert not list(tmp_path.glob("*.tmp"))
