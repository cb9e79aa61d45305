"""Shared fixtures.

The synthetic world and the reproduction context are expensive relative
to a unit test, so they are built once per session and shared; tests
must treat them as read-only.
"""

import numpy as np
import pytest

from repro.datasets import figure1_graph, figure2_graph
from repro.eval import ReproductionContext
from repro.obs import MemorySink, Telemetry, set_telemetry
from repro.synth import WorldConfig, build_world, default_good_core


@pytest.fixture(scope="session")
def fig1():
    """The Figure 1 example with the paper's k=3 boosters."""
    return figure1_graph(3)


@pytest.fixture(scope="session")
def fig2():
    """The Figure 2 / Table 1 example."""
    return figure2_graph()


@pytest.fixture(scope="session")
def tiny_config():
    """A deliberately tiny world config for fast structural tests."""
    return WorldConfig(
        seed=3,
        num_base_hosts=1_500,
        mean_outdegree=6.0,
        directory_size=40,
        gov_size=60,
        edu_countries={"us": (5, 4), "it": (4, 3), "de": (3, 3)},
        portal_hosts=60,
        blog_hosts=70,
        uncovered_country_hosts=120,
        uncovered_country_edu=15,
        covered_country_hosts=100,
        covered_country_edu=15,
        num_cliques=2,
        clique_size_range=(5, 12),
        num_farms=10,
        farm_boosters_range=(8, 60),
        num_alliances=1,
        alliance_targets=2,
        alliance_boosters=15,
        num_expired=2,
        expired_links_range=(6, 15),
        num_paid_customers=4,
        paid_links_range=(3, 12),
    )


@pytest.fixture(scope="session")
def tiny_world(tiny_config):
    """A tiny but structurally complete synthetic world."""
    return build_world(tiny_config)


@pytest.fixture(scope="session")
def tiny_core(tiny_world):
    """The default good core of the tiny world."""
    return default_good_core(tiny_world)


@pytest.fixture(scope="session")
def small_ctx():
    """A full reproduction context at the small stock scale."""
    return ReproductionContext.build(WorldConfig.small())


@pytest.fixture()
def rng():
    """A fresh deterministic generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture()
def telemetry():
    """In-process telemetry capture for behavioural assertions.

    Installs a fresh enabled :class:`~repro.obs.Telemetry` backed by a
    :class:`~repro.obs.MemorySink` as the process default, yields it,
    and restores the previous telemetry afterwards — so instrumented
    code under test emits into the fixture and nothing leaks across
    tests.  Assert on ``telemetry.sink`` (events, ``span_count``,
    ``named``) and ``telemetry.metrics`` (``value``, ``snapshot``).
    """
    tele = Telemetry(sink=MemorySink())
    previous = set_telemetry(tele)
    try:
        yield tele
    finally:
        set_telemetry(previous)


@pytest.fixture()
def sweep_threads(monkeypatch):
    """Set how many threads the block kernel's products run on, however
    small the operator: ``sweep_threads(3)`` forces a 3-thread pool,
    ``sweep_threads(1)`` inline sweeps."""
    from repro.perf import engine

    def force(threads):
        monkeypatch.setattr(engine, "PARALLEL_MIN_NNZ", 0)
        monkeypatch.setattr(engine, "_cpu_count", lambda: threads)

    return force
