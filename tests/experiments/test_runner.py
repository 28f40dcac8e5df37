"""Tests for the experiment harness."""

from __future__ import annotations

import pytest

from repro.experiments.configs import (
    APPS,
    SYSTEM_FACTORIES,
    TRACES,
    all_workloads,
    standard_config,
)
from repro.experiments import runner
from repro.experiments.runner import (
    build_cluster,
    resolve_base_rate,
    resolve_workers,
    run_scenario,
)
from repro.experiments.scenario import Scenario
from repro.policies.naive import NaivePolicy
from repro.workload.generators import constant_trace
from repro.workload.replay import replay


class TestConfig:
    def test_unknown_app_or_trace_rejected(self):
        with pytest.raises(ValueError):
            standard_config("bogus", "tweet")
        with pytest.raises(ValueError):
            standard_config("lv", "bogus")

    def test_all_workloads_cross_product(self):
        wl = all_workloads(duration=10.0)
        assert len(wl) == len(APPS) * len(TRACES)
        assert ("lv", "tweet") in wl

    def test_slo_override_applies(self):
        scenario = standard_config("lv", "tweet", slo=0.250, duration=10.0)
        assert scenario.build_application().slo == pytest.approx(0.250)

    def test_custom_trace_used_verbatim(self):
        trace = constant_trace(10.0, 5.0)
        scenario = Scenario(app={"name": "tm"}, workers=1)
        cluster = build_cluster(scenario, NaivePolicy(), trace)
        replay(trace, cluster)
        assert cluster.metrics.submitted == len(trace)

    def test_calibrated_rate_scales_with_utilization(self):
        lo = standard_config("lv", "tweet", utilization=0.5, duration=10.0)
        hi = standard_config("lv", "tweet", utilization=1.0, duration=10.0)
        assert resolve_base_rate(hi) > resolve_base_rate(lo)

    def test_calibrated_workers_cover_every_module(self):
        scenario = standard_config("lv", "tweet", duration=10.0)
        workers = resolve_workers(scenario)
        assert set(workers) == set(scenario.build_application().spec.module_ids)
        assert all(n >= 1 for n in workers.values())

    def test_explicit_workers_respected(self):
        scenario = Scenario(
            app={"name": "tm"}, workers=3,
            trace={"name": "tweet", "base_rate": 20, "duration": 5.0},
        )
        cluster = build_cluster(scenario, NaivePolicy())
        assert all(m.n_workers == 3 for m in cluster.modules.values())

    def test_base_rate_is_not_silently_overridden(self):
        """An explicit base rate reaches the trace; combined with the
        default calibration it is an error, not a silently ignored knob."""
        with pytest.raises(ValueError, match="mutually exclusive"):
            standard_config("lv", "tweet", base_rate=500.0, duration=10.0)
        slow, fast = (
            standard_config("lv", "tweet", base_rate=rate, duration=10.0,
                            utilization=None)
            for rate in (60.0, 500.0)
        )
        assert resolve_base_rate(slow) == 60.0
        assert resolve_base_rate(fast) == 500.0
        assert (fast.build_trace(resolve_base_rate(fast)).count()
                > 4 * slow.build_trace(resolve_base_rate(slow)).count())

    def test_calibrated_rate_honours_int_workers(self):
        """Regression: the int form of ``workers`` used to be ignored by
        calibration, which silently assumed 2 workers per module."""

        def scenario(**workers) -> Scenario:
            return Scenario(
                app={"name": "tm"}, utilization=0.9,
                trace={"name": "wiki", "duration": 10.0}, **workers,
            )

        def rate(n: int) -> float:
            return resolve_base_rate(scenario(workers=n))

        assert rate(4) == pytest.approx(4 * rate(1))
        default = resolve_base_rate(scenario())
        assert rate(2) == pytest.approx(default)

    def test_list_valued_trace_args_calibrate(self):
        """The natural list form of generator kwargs must survive the
        memoized (hash-keyed) pilot-shape lookup."""
        scenario = Scenario(
            app={"name": "tm"}, utilization=0.9,
            trace={"name": "step", "duration": 10.0,
                   "args": {"rates": [[0.0, 1.0], [5.0, 2.0]]}},
        )
        assert resolve_base_rate(scenario) > 0
        assert len(scenario.build_trace(resolve_base_rate(scenario))) > 0

    def test_pilot_trace_generated_once(self, monkeypatch):
        """Regression: every resolve_* call used to re-simulate the full
        pilot trace; the shape factor is now memoized per
        (trace, duration, seed)."""
        runner._trace_shape_factor.cache_clear()
        pilot_calls = []
        real = runner.TRACES["wiki"]

        def counting(*args, **kwargs):
            if kwargs.get("base_rate") == 50.0:
                pilot_calls.append("pilot")
            return real(*args, **kwargs)

        monkeypatch.setitem(runner.TRACES, "wiki", counting)
        scenario = standard_config("tm", "wiki", duration=12.0)
        resolve_workers(scenario)
        scenario.build_trace(resolve_base_rate(scenario))
        assert len(pilot_calls) == 1

    def test_reregistered_generator_invalidates_pilot_memo(self, monkeypatch):
        """The memo keys on the generator object, so swapping the
        implementation under the same name recalibrates."""
        from repro.workload.generators import constant_trace

        def slow(base_rate, duration, seed=0, name="wiki"):
            return constant_trace(rate=base_rate, duration=duration,
                                  name=name)

        def fast(base_rate, duration, seed=0, name="wiki"):
            return constant_trace(rate=2 * base_rate, duration=duration,
                                  name=name)

        scenario = standard_config("tm", "wiki", duration=10.0)
        monkeypatch.setitem(runner.TRACES, "wiki", slow)
        slow_rate = resolve_base_rate(scenario)
        monkeypatch.setitem(runner.TRACES, "wiki", fast)
        fast_rate = resolve_base_rate(scenario)
        assert fast_rate == pytest.approx(slow_rate / 2, rel=0.05)


class TestRunner:
    def test_run_scenario_accounts_every_arrival(self):
        scenario = Scenario(
            app={"name": "tm"}, workers=2, policy="Naive",
            trace={"name": "tweet", "base_rate": 30, "duration": 8.0},
        )
        result = run_scenario(scenario)
        assert result.summary.total == len(result.trace)
        assert result.collector.submitted == len(result.trace)

    def test_system_factories_cover_paper_systems(self):
        assert set(SYSTEM_FACTORIES) == {"PARD", "Nexus", "Clipper++", "Naive"}
        for factory in SYSTEM_FACTORIES.values():
            assert factory(0).name


class TestHeadlineReproduction:
    """Scaled-down check of the paper's headline comparison (§5.2)."""

    def test_pard_beats_reactive_baselines_on_lv_tweet(self):
        results = {
            name: run_scenario(standard_config(
                "lv", "tweet", duration=30.0, seed=1, policy=name
            ))
            for name in SYSTEM_FACTORIES
        }
        pard = results["PARD"].summary
        for other in ("Nexus", "Clipper++", "Naive"):
            s = results[other].summary
            assert pard.goodput >= s.goodput
            assert pard.invalid_rate <= s.invalid_rate + 0.01
        assert pard.drop_rate < results["Naive"].summary.drop_rate
