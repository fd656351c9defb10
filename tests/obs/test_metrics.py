"""Metric series/registry invariants and the unified counter namespace.

The ring bound is the load-bearing property: a series may never hold
more windows than its capacity, no matter what update sequence arrives
(including the out-of-order interleavings a merge can produce), so
recording stays bounded on arbitrarily long horizons.
"""

import pickle
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from repro.fleet.router import RouterCounters
from repro.obs import (
    MetricRegistry,
    MetricSeries,
    ObsConfig,
    counters_namespace,
    merge_registries,
)
from repro.reliability.ras import ReliabilityStats
from repro.workloads import ScenarioSpec, run_workload


class TestSeries:
    def test_counter_sums_within_a_window(self):
        series = MetricSeries("c", "counter", interval_ns=100, capacity=8)
        series.add(10, 1.0)
        series.add(90, 2.0)
        series.add(150, 5.0)
        assert series.points() == ((0, 3.0), (1, 5.0))
        assert series.total == 8.0

    def test_gauge_keeps_last_write_per_window(self):
        series = MetricSeries("g", "gauge", interval_ns=100, capacity=8)
        series.set(10, 1.0)
        series.set(90, 7.0)
        series.set(250, 3.0)
        assert series.points() == ((0, 7.0), (2, 3.0))

    def test_kind_mismatch_raises(self):
        series = MetricSeries("c", "counter", interval_ns=100, capacity=8)
        with pytest.raises(TypeError, match="is a counter"):
            series.set(0, 1.0)
        registry = MetricRegistry()
        registry.counter("x")
        with pytest.raises(TypeError, match="already registered"):
            registry.gauge("x")

    def test_out_of_order_update_folds_into_owning_window(self):
        series = MetricSeries("c", "counter", interval_ns=100, capacity=8)
        series.add(250, 1.0)
        series.add(50, 2.0)   # late: belongs to window 0
        series.add(150, 4.0)  # late: new window between existing ones
        assert series.points() == ((0, 2.0), (1, 4.0), (2, 1.0))

    @given(updates=st.lists(
        st.tuples(st.integers(min_value=0, max_value=10_000),
                  st.floats(min_value=-100, max_value=100,
                            allow_nan=False)),
        max_size=200),
        capacity=st.integers(min_value=1, max_value=8))
    def test_ring_never_exceeds_capacity(self, updates, capacity):
        series = MetricSeries("c", "counter", interval_ns=100,
                              capacity=capacity)
        for ts_ns, delta in updates:
            series.add(ts_ns, delta)
            assert len(series) <= capacity
            windows = [window for window, _ in series.points()]
            assert windows == sorted(windows)
        retained = {window for window, _ in series.points()}
        offered = {ts_ns // 100 for ts_ns, _ in updates}
        assert len(series) + series.evicted >= len(offered & retained)

    def test_eviction_drops_oldest_and_counts(self):
        series = MetricSeries("c", "counter", interval_ns=1, capacity=3)
        for ts_ns in range(5):
            series.add(ts_ns, 1.0)
        assert len(series) == 3
        assert series.evicted == 2
        assert series.points() == ((2, 1.0), (3, 1.0), (4, 1.0))


class TestRegistry:
    def test_as_dict_is_sorted_and_complete(self):
        registry = MetricRegistry(interval_ns=10, ring_capacity=4)
        registry.gauge("b").set(0, 1.0)
        registry.counter("a").add(0, 2.0)
        document = registry.as_dict()
        assert list(document) == ["a", "b"]
        assert document["a"]["kind"] == "counter"
        assert document["a"]["points"] == [[0, 2.0]]

    def test_merge_prefixes_and_rejects_collisions(self):
        left = MetricRegistry()
        left.counter("x").add(0, 1.0)
        right = MetricRegistry()
        right.counter("x").add(0, 2.0)
        merged = merge_registries([("a/", left), ("b/", right)])
        assert merged.names() == ("a/x", "b/x")
        with pytest.raises(ValueError, match="collision"):
            merge_registries([("", left), ("", right)])

    def test_registry_pickles_and_compares(self):
        registry = MetricRegistry()
        registry.counter("x").add(5, 1.0)
        clone = pickle.loads(pickle.dumps(registry))
        assert clone == registry
        clone.counter("x").add(6, 1.0)
        assert clone != registry

    def test_run_respects_configured_ring_capacity(self):
        spec = ScenarioSpec(scenario="decode-serving", system="rome",
                            rate_per_s=1_000_000.0, num_requests=4, seed=0,
                            obs=ObsConfig(metrics=True,
                                          metrics_interval_ns=64,
                                          ring_capacity=4))
        result = run_workload(spec)
        assert len(result.metrics) > 0
        evicted = 0
        for name in result.metrics.names():
            series = result.metrics.get(name)
            assert len(series) <= 4
            evicted += series.evicted
        assert evicted > 0  # the bound actually engaged on this run


class TestCountersNamespace:
    def test_flattens_every_layer_without_moving_attributes(self):
        # Satellite contract: the pre-existing ad-hoc counter blocks
        # (scheduler evaluations, ReliabilityStats, RouterCounters) all
        # surface under one flat namespace, purely as a view.
        stats = ReliabilityStats()
        stats.corrected = 3
        counters = RouterCounters(routed=5, rerouted=2, hedged=1,
                                  timeouts=1, shed=0, failed=0)
        result = SimpleNamespace(evaluations=7, reliability=stats,
                                 counters=counters)
        namespace = counters_namespace(result)
        assert namespace["controller.evaluations"] == 7.0
        assert namespace["reliability.corrected"] == 3.0
        assert namespace["fleet.router.rerouted"] == 2.0
        assert namespace["fleet.router.routed"] == 5.0
        # The originals are untouched.
        assert result.reliability.corrected == 3
        assert result.counters.rerouted == 2

    def test_workload_result_namespace(self):
        spec = ScenarioSpec(scenario="decode-serving", system="rome",
                            rate_per_s=1_000_000.0, num_requests=4, seed=0)
        namespace = counters_namespace(run_workload(spec))
        assert namespace["controller.evaluations"] > 0
        assert all(not key.startswith("fleet.") for key in namespace)

    def test_router_counters_as_dict_matches_fields(self):
        counters = RouterCounters(routed=1, rerouted=2, hedged=3,
                                  timeouts=4, shed=5, failed=6)
        assert counters.as_dict() == {
            "routed": 1, "rerouted": 2, "hedged": 3,
            "timeouts": 4, "shed": 5, "failed": 6,
        }
