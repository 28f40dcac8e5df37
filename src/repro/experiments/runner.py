"""Experiment harness: one call from a :class:`Scenario` to metrics.

Rates are expressed per-run rather than hard-coded so benches can scale the
paper's 64-GPU workloads down to what a CI box simulates in seconds while
keeping the load *regime* (load factor relative to provisioned capacity)
identical — that regime, not the absolute request rate, is what the
dropping policies react to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import lru_cache, partial
from typing import Callable, Sequence

from ..metrics.analysis import Summary, merge_collectors, summarize
from ..metrics.collector import MetricsCollector
from ..metrics.goodput import GoodputReport, goodput_report
from ..pipeline.profiles import ProfileRegistry
from ..policies.base import DropPolicy
from ..policies.registry import make_admission, make_policy
from ..simulation.batching import plan_batch_sizes, provision_workers
from ..simulation.cluster import Cluster
from ..simulation.engine import Simulator
from ..simulation.failures import FailureInjector
from ..simulation.rng import RngStreams
from ..simulation.scaling import ReactiveScaler
from ..simulation.tenancy import SharedCluster, Tenant
from ..workload.generators import TRACES
from ..workload.replay import ArrivalPump, replay
from ..workload.source import ArrivalSource
from ..workload.trace import Trace
from .scenario import MultiScenario, ScalingSpec, Scenario, _thaw

#: Trace base rate (req/s) when a scenario declares neither a rate nor a
#: ``utilization`` to calibrate one.
DEFAULT_BASE_RATE = 60.0


@lru_cache(maxsize=256)
def _trace_shape_factor(
    generator: Callable[..., Trace],
    trace: str,
    duration: float,
    seed: int,
    args: tuple = (),
) -> float:
    """Mean-rate-to-base-rate factor of a named trace, memoized.

    Measured on a cheap pilot trace built with the same generator ``args``
    as the real one — shape-changing args (a step trace's rate multipliers,
    a tweet burst override) would otherwise skew calibration badly.
    The generator *object* is part of the key so re-registering a new
    generator under an old name cannot serve a stale shape.  A calibrated
    run consults the shape from both :func:`resolve_base_rate` and
    :func:`resolve_workers`; without memoization every call re-simulated
    the full-duration pilot.
    """
    kwargs = {k: _thaw(v) for k, v in args}
    pilot = generator(
        base_rate=50.0, duration=duration, seed=seed, name=trace, **kwargs
    )
    shape = pilot.mean_rate / 50.0
    if shape <= 0:
        # Report the trace by name and size only — never embed a trace
        # repr, which is unbounded for large materialized workloads.
        raise ValueError(
            f"trace {trace} produced no arrivals in the calibration "
            f"pilot ({len(pilot)} arrivals over {duration:g}s)"
        )
    return shape


def _trace_shape(scenario: Scenario) -> float:
    """Mean-rate-to-base-rate factor of the scenario's generator trace.

    Thinning scales the realized mean rate linearly, so it folds straight
    into the shape factor — calibration then targets the utilization of
    the trace actually replayed.
    """
    trace = scenario.trace
    generator = TRACES.get(trace.name)
    if generator is None:
        raise KeyError(
            f"unknown trace {trace.name!r}; known: {sorted(TRACES)}"
        )
    seed = scenario.seed if trace.seed is None else trace.seed
    return trace.scale * _trace_shape_factor(
        generator, trace.name, trace.duration, seed, trace.args
    )


def resolve_base_rate(scenario: Scenario) -> float:
    """The trace's base rate, calibrated to ``utilization`` when set.

    The bottleneck module's aggregate throughput defines capacity; the
    trace's mean-rate-to-base-rate shape factor (measured on a cheap
    pilot trace) maps capacity to the generator's ``base_rate`` knob.
    Uncalibrated scenarios use ``trace.base_rate`` (default
    :data:`DEFAULT_BASE_RATE`).
    """
    if scenario.utilization is None:
        rate = scenario.trace.base_rate
        return DEFAULT_BASE_RATE if rate is None else rate
    app = scenario.build_application()
    registry = scenario.build_registry()
    plan = plan_batch_sizes(app.spec, registry, app.slo)
    workers = scenario.workers

    def count(module_id: str) -> int:
        # Explicit worker counts cap capacity; without any, calibration
        # assumes the two-worker bottleneck pool resolve_workers builds.
        if isinstance(workers, dict):
            return workers[module_id]
        if isinstance(workers, int):
            return workers
        return 2

    capacity = min(
        count(m.id) * registry.get(m.model).throughput(plan[m.id])
        for m in app.spec.modules
    )
    return capacity * scenario.utilization / _trace_shape(scenario)


def resolve_workers(
    scenario: Scenario, trace: ArrivalSource | None = None
) -> int | dict[str, int]:
    """Explicit worker counts, or a plan provisioned for the workload.

    ``trace`` is the steady (burst-free) workload to provision for when
    neither ``utilization`` nor ``provision_rate`` fixes the rate; it is
    built from the scenario when omitted.  Bursts stay out of provisioning
    on purpose: a cluster sized for the burst-inflated mean would de-fang
    the very overload the scenario declares.
    """
    if scenario.workers is not None:
        return scenario.workers
    app = scenario.build_application()
    registry = scenario.build_registry()
    plan = plan_batch_sizes(app.spec, registry, app.slo)
    if scenario.utilization is not None:
        # Calibrated mode: the bottleneck module gets a two-worker pool at
        # the target utilization; every other module is provisioned so its
        # own utilization lands just below capacity too, the way the
        # paper's per-module scaling keeps all modules near their rate
        # (otherwise drops artificially concentrate at the single
        # bottleneck).
        mean_rate = resolve_base_rate(scenario) * _trace_shape(scenario)
        out: dict[str, int] = {}
        for m in app.spec.modules:
            per_worker = registry.get(m.model).throughput(plan[m.id])
            need = mean_rate / (0.97 * per_worker)
            out[m.id] = max(1, math.ceil(need))
        return out
    rate = scenario.provision_rate
    if rate is None:
        if trace is None:
            trace = scenario.trace.build_base(
                resolve_base_rate(scenario), default_seed=scenario.seed
            )
        rate = trace.mean_rate
    return provision_workers(
        app.spec, registry, plan, rate, headroom=scenario.provision_headroom
    )


@dataclass
class ExperimentResult:
    """Run output: scenario, policy name, collector and summary."""

    scenario: Scenario
    policy_name: str
    collector: MetricsCollector
    summary: Summary
    cluster: Cluster
    trace: ArrivalSource
    failure_log: list[str] = field(default_factory=list)
    #: Structured fault timeline (the source of ``failure_log``'s rendered
    #: strings), exportable via ``repro.metrics.export.fault_table``.
    fault_records: list = field(default_factory=list)
    #: Goodput-under-constraints report; None unless the scenario declared
    #: token-level SLO constraints.
    goodput: GoodputReport | None = None

    @property
    def module_ids(self) -> list[str]:
        return self.cluster.spec.module_ids


def build_cluster(
    scenario: Scenario,
    policy: DropPolicy,
    trace: ArrivalSource | None = None,
    lean: bool = False,
) -> Cluster:
    """Construct the provisioned cluster for a scenario (no trace replayed).

    The seam for callers that replay by hand or need a live policy object.
    ``trace`` is the steady workload auto-provisioning sizes workers for
    (see :func:`resolve_workers`).  ``lean=True`` collects streaming
    summary counters only (no per-request records) — see
    :class:`~repro.metrics.collector.MetricsCollector`.  The scenario's
    goodput constraints, fork router and per-hop resilience are installed;
    scaling and failures are the caller's to arm.
    """
    app = scenario.build_application()
    registry = scenario.build_registry()
    plan = plan_batch_sizes(app.spec, registry, app.slo)
    workers = resolve_workers(scenario, trace)
    goodput = scenario.goodput
    metrics = (
        MetricsCollector(lean=lean, goodput=goodput)
        if (lean or goodput is not None) else None
    )
    return Cluster(
        sim=Simulator(),
        app=app,
        policy=policy,
        workers=workers,
        registry=registry,
        batch_plan=plan,
        metrics=metrics,
        rng=RngStreams(seed=scenario.seed),
        sync_interval=scenario.sync_interval,
        stats_window=scenario.stats_window,
        router=(
            None if scenario.router is None
            else scenario.router.build(scenario.seed)
        ),
        resilience=scenario.resilience_map(),
    )


def _start_scaler(
    cluster: Cluster | SharedCluster, scaling: ScalingSpec
) -> None:
    # Field-for-field forwarding: every ScalingSpec knob except the enable
    # flag is a ReactiveScaler constructor parameter.
    knobs = {f.name: getattr(scaling, f.name) for f in fields(scaling)
             if f.name != "enabled"}
    ReactiveScaler(cluster, **knobs).start()


def run_scenario(scenario: Scenario, lean: bool = False) -> ExperimentResult:
    """Run one declarative scenario end to end.

    Calibration (``utilization``) measures the named base trace *with its
    generator args* — they are part of the declared workload; burst
    overlays and thinning then compose on top — matching the paper's
    framing, where the cluster is provisioned for the expected workload
    and the burst is the unpredictable event that exceeds it.
    ``lean`` collects summary counters only (identical :class:`Summary`,
    no per-request records) — for sweeps and benchmarks that never read
    them.
    """
    scenario.validate()
    base = scenario.trace.build_base(
        resolve_base_rate(scenario), default_seed=scenario.seed
    )
    trace = scenario.trace.overlay(base, default_seed=scenario.seed)
    policy = make_policy(scenario.policy, scenario.seed)
    cluster = build_cluster(scenario, policy, base, lean=lean)
    if scenario.scaling.enabled:
        _start_scaler(cluster, scenario.scaling)
    injector = None
    if scenario.failures:
        injector = FailureInjector(cluster, events=list(scenario.failures))
        injector.schedule_all()
    replay(trace, cluster, drain=scenario.drain)
    return ExperimentResult(
        scenario=scenario,
        policy_name=policy.name,
        collector=cluster.metrics,
        summary=summarize(cluster.metrics, duration=trace.duration),
        cluster=cluster,
        trace=trace,
        failure_log=list(injector.log) if injector is not None else [],
        fault_records=list(injector.records) if injector is not None else [],
        goodput=goodput_report(cluster.metrics, duration=trace.duration),
    )


@dataclass
class MultiResult:
    """Output of one shared-cluster run: per-app books plus the aggregate.

    ``summaries``/``collectors``/``traces`` are keyed by tenant label in
    declaration order; ``aggregate`` summarises every tenant's records
    together over the longest trace duration.
    """

    multi: MultiScenario
    summaries: dict[str, Summary]
    collectors: dict[str, MetricsCollector]
    aggregate: Summary
    cluster: SharedCluster
    traces: dict[str, ArrivalSource]
    failure_log: list[str] = field(default_factory=list)
    #: Structured fault timeline (the source of ``failure_log``).
    fault_records: list = field(default_factory=list)
    #: Per-app goodput-under-constraints reports, keyed like ``summaries``;
    #: tenants without declared constraints map to None.
    goodputs: dict[str, GoodputReport | None] = field(default_factory=dict)

    @property
    def pool_ids(self) -> list[str]:
        return self.cluster.pool_ids()


def _tenant_workload(
    scenario: Scenario, seed: int, weight: float
) -> tuple[ArrivalSource, ArrivalSource]:
    """(base workload, composed workload) for one tenant.

    Mirrors :func:`run_scenario`'s trace path exactly — same generator,
    args, scale and overlay order — so a tenant served alone and the same
    tenant on an uncontended shared cluster replay the identical workload.
    ``weight`` scales the declared base rate; ``seed`` is the effective
    (shared-seed-shifted) tenant seed.
    """
    base = scenario.trace.build_base(
        resolve_base_rate(scenario) * weight, default_seed=seed
    )
    return base, scenario.trace.overlay(base, default_seed=seed)


def _provision_pools(
    multi: MultiScenario,
    registry: ProfileRegistry,
    tenants: Sequence[Tenant],
    base_rates: dict[str, float],
) -> dict[str, int]:
    """Workers per pool sized for the aggregate steady (pre-burst) load.

    Every (tenant, module) member of a pool contributes its tenant's base
    mean rate — on a static DAG each request visits every hop — and the
    pool is provisioned for the sum at its (tightest-tenant) target batch,
    matching the single-app rule that bursts stay unprovisioned-for.
    ``tenants`` carry the already-resolved apps and batch plans.
    """
    from ..simulation.tenancy import assign_pools

    pools, _ = assign_pools([(t.name, t.app) for t in tenants])
    plans = {t.name: t.batch_plan for t in tenants}
    out: dict[str, int] = {}
    for key, pool in pools.items():
        batch = min(plans[tname][mid] for tname, mid in pool.members)
        rate = sum(base_rates[tname] for tname, _ in pool.members)
        per_worker = registry.get(pool.model).throughput(batch)
        need = rate * multi.provision_headroom / per_worker
        out[key] = max(1, math.ceil(need))
    return out


def run_multi_scenario(multi: MultiScenario, lean: bool = False) -> MultiResult:
    """Run one declarative shared-cluster scenario end to end.

    Each tenant's workload, policy and seed resolve exactly as in
    :func:`run_scenario`; the cluster layer is shared — pools assigned by
    model profile, one reactive scaler and failure schedule over the pools,
    per-app metrics collected on the tenant views.  ``lean`` keeps
    per-tenant summary counters only (no per-request records).
    """
    multi.validate()
    registry = multi.build_registry()
    tenants: list[Tenant] = []
    traces: dict[str, ArrivalSource] = {}
    base_rates: dict[str, float] = {}
    for tenant_spec in multi.tenants:
        s = tenant_spec.scenario
        label = tenant_spec.label()
        seed = multi.tenant_seed(tenant_spec)
        base, trace = _tenant_workload(s, seed, tenant_spec.weight)
        traces[label] = trace
        base_rates[label] = base.mean_rate
        # Resolve the app and its batch plan once here; provisioning and
        # SharedCluster consume them instead of re-deriving per stage.
        app = s.build_application()
        tenants.append(
            Tenant(
                name=label,
                app=app,
                policy=make_policy(s.policy, seed),
                metrics=MetricsCollector(lean=lean, goodput=s.goodput),
                router=None if s.router is None else s.router.build(seed),
                batch_plan=plan_batch_sizes(app.spec, registry, app.slo),
                quota=tenant_spec.quota,
            )
        )
    if multi.workers is not None:
        workers: int | dict[str, int] = multi.workers
    else:
        workers = _provision_pools(multi, registry, tenants, base_rates)
    admission = None
    if multi.admission is not None:
        # The fairness seam: constructed from plain data with the declared
        # tenant weights as its fair-share vector, bound to the cluster by
        # SharedCluster.__init__.
        admission = make_admission(
            multi.admission,
            {t.label(): t.weight for t in multi.tenants},
            seed=multi.seed,
        )
    sim = Simulator()
    cluster = SharedCluster(
        sim=sim,
        tenants=tenants,
        workers=workers,
        registry=registry,
        rng=RngStreams(seed=multi.seed),
        sync_interval=multi.sync_interval,
        stats_window=multi.stats_window,
        admission=admission,
    )
    if multi.scaling.enabled:
        _start_scaler(cluster, multi.scaling)
    injector = None
    if multi.failures:
        injector = FailureInjector(cluster, events=list(multi.failures))
        injector.schedule_all()
    # One arrival lane per tenant, opened in declaration order: each lane
    # reserves its sequence-number block up front, so lazily pumping one
    # pending arrival per tenant reproduces the exact event ordering of
    # the old eager pre-scheduling loop (tenant-by-tenant, trace order).
    for tenant in tenants:
        ArrivalPump(
            traces[tenant.name],
            partial(cluster.submit_now, tenant.name),
            sim.open_lane(),
        ).prime()
    cluster.start_ticks()
    sim.run(until=multi.duration() + multi.drain)
    cluster.stop_ticks()
    sim.run()
    collectors = {t.name: t.metrics for t in tenants}
    summaries = {
        name: summarize(coll, duration=traces[name].duration)
        for name, coll in collectors.items()
    }
    goodputs = {
        name: goodput_report(coll, duration=traces[name].duration)
        for name, coll in collectors.items()
    }
    aggregate = summarize(merge_collectors(collectors),
                          duration=multi.duration())
    return MultiResult(
        multi=multi,
        summaries=summaries,
        collectors=collectors,
        aggregate=aggregate,
        cluster=cluster,
        traces=traces,
        failure_log=list(injector.log) if injector is not None else [],
        fault_records=list(injector.records) if injector is not None else [],
        goodputs=goodputs,
    )
