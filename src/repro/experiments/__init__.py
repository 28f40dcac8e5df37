"""Experiment harness reproducing the paper's evaluation."""

from .configs import (
    APPS,
    SYSTEM_FACTORIES,
    TRACES,
    all_workloads,
    known_policies,
    make_policy,
    standard_config,
)
from .runner import (
    ExperimentResult,
    MultiResult,
    build_cluster,
    run_multi_scenario,
    run_scenario,
)
from .scenario import (
    AppSpec,
    BurstSpec,
    MultiScenario,
    PolicySpec,
    Scenario,
    ScalingSpec,
    SweepSpec,
    TenantSpec,
    TraceSpec,
    load_scenario_file,
    multi_scenario_grid,
    scenario_axes,
    scenario_grid,
)

# The sweep layer (process pool, disk cache) serves grids only, so a single
# run does not import it.  Every other name in ``__all__`` is bound above,
# so only the sweep names reach this hook, on first access (PEP 562).
def __getattr__(name: str):
    if name in __all__:
        from . import sweep

        return getattr(sweep, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "APPS",
    "AppSpec",
    "BurstSpec",
    "CellResult",
    "ExperimentResult",
    "MultiResult",
    "MultiScenario",
    "PolicySpec",
    "SYSTEM_FACTORIES",
    "Scenario",
    "ScalingSpec",
    "SweepCell",
    "SweepEvent",
    "SweepSpec",
    "TRACES",
    "TenantSpec",
    "TraceSpec",
    "all_workloads",
    "build_cluster",
    "cell_fingerprint",
    "execute_cell",
    "known_policies",
    "load_scenario_file",
    "make_policy",
    "multi_scenario_grid",
    "prune_cache",
    "run_multi_scenario",
    "run_scenario",
    "run_sweep",
    "scenario_axes",
    "scenario_cells",
    "scenario_grid",
    "standard_config",
    "summaries_payload",
    "summary_table",
    "sweep_grid",
]
