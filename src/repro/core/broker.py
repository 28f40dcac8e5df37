"""Request Broker: per-request end-to-end latency estimation (Equation 3).

At decision time ``t_b`` (a request is drawn from the DEPQ toward a forming
batch) the broker has all bi-directional runtime information:

* backward — ``L_pre + Q_k + W_k = t_e - t_s`` (elapsed time to the expected
  batch start; t_s travels with the request, t_e is known because the next
  batch starts exactly when the executing one finishes);
* current — ``D_k = d_k`` from offline profiling at the planned batch size;
* forward — ``L_sub`` from the State Planner (Equation 3b's q/d/w sums,
  maximum over DAG paths).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..interfaces import DropContext
from .state_planner import StatePlanner


class SubMode:
    """What the forward component L_sub includes (ablation knob)."""

    FULL = "full"  # PARD: sum q + sum d + w_k
    NONE = "none"  # PARD-back: L_sub = 0 (Clockwork/Nexus/Scrooge-like)
    DURATIONS = "durations"  # PARD-sf: sum d only (DREAM-like)

    ALL = (FULL, NONE, DURATIONS)


@dataclass(frozen=True)
class LatencyEstimate:
    """Decomposed end-to-end estimate for one request at one module."""

    backward: float  # t_e - t_s: everything up to the expected batch start
    current_exec: float  # d_k
    sub: float  # L_sub estimate for downstream modules

    @property
    def total(self) -> float:
        return self.backward + self.current_exec + self.sub


class RequestBroker:
    """Computes Equation 3 estimates from a bound State Planner."""

    def __init__(self, planner: StatePlanner, sub_mode: str = SubMode.FULL) -> None:
        if sub_mode not in SubMode.ALL:
            raise ValueError(f"unknown sub mode {sub_mode!r}")
        self.planner = planner
        self.sub_mode = sub_mode

    def estimate(self, ctx: DropContext) -> LatencyEstimate:
        """End-to-end latency estimate for the request in ``ctx``."""
        backward = ctx.expected_start - ctx.request.sent_at
        return LatencyEstimate(
            backward=backward,
            current_exec=ctx.batch_duration,
            sub=self._sub(ctx),
        )

    def estimate_total(self, ctx: DropContext) -> float:
        """Equation 3's scalar total, without building the decomposition.

        The drop decision only compares the total against the SLO; this
        runs once per drawn request, so it skips the frozen-dataclass
        allocation :meth:`estimate` pays.
        """
        return (
            ctx.expected_start - ctx.request.sent_at
            + ctx.batch_duration
            + self._sub(ctx)
        )

    def _sub(self, ctx: DropContext) -> float:
        """Forward component L_sub for the request's current module."""
        planner = self.planner
        assert planner.cluster is not None
        # Translate the data-plane module to this pipeline's DAG position:
        # in a shared cluster the pool id is not the tenant's module id.
        module_id = planner.cluster.hop_id(ctx.module)
        sub_mode = self.sub_mode
        if sub_mode == SubMode.FULL:
            # Once per drawn request: ``planner.sub_estimate`` inlined.
            return planner._sub_estimates.get(module_id, 0.0)
        if sub_mode == SubMode.NONE:
            return 0.0
        return self._durations_only(module_id)

    def _durations_only(self, module_id: str) -> float:
        """Max over downstream paths of the profiled execution durations.

        Read off the spec's single reverse-topological reduction instead
        of enumerating paths (exponential on dense DAGs).  Durations are
        refreshed by the planner per tick, so the table cannot be frozen
        at bind time; one O(V + E) pass per estimate is still far cheaper
        than the path walk it replaces.
        """
        assert self.planner.cluster is not None
        spec = self.planner.cluster.spec
        durations = {mid: self.planner.state(mid).duration for mid in spec.module_ids}
        return spec.downstream_path_max(durations)[module_id]
