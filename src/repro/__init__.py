"""PARD reproduction: proactive request dropping for inference pipelines.

Public API quick tour::

    from repro import Scenario, run_scenario, standard_config

    scenario = standard_config("lv", "tweet", duration=60, policy="PARD")
    result = run_scenario(scenario)
    print(result.summary)

    # The same run as plain data (JSON-ready, fingerprintable):
    scenario = Scenario.from_dict({
        "app": {"name": "lv"}, "trace": {"name": "tweet", "duration": 60},
        "policy": "PARD", "utilization": 0.9, "scaling": {"enabled": True},
    })

See README.md for installation, the CLI and the scenario and study
formats, and ROADMAP.md for the measured state and the open work.
"""

from .core import (
    BatchWaitEstimator,
    BudgetMode,
    MinMaxHeap,
    PardPolicy,
    PriorityMode,
    StatePlanner,
    SubMode,
    WaitMode,
)
from .experiments import (
    AppSpec,
    ExperimentResult,
    Scenario,
    ScalingSpec,
    TraceSpec,
    run_scenario,
    standard_config,
)
from .metrics import MetricsCollector, Summary, summarize
from .pipeline import Application, ModelProfile, PipelineSpec, get_application
from .policies import (
    ClipperPlusPlusPolicy,
    DropPolicy,
    NaivePolicy,
    NexusPolicy,
    OverloadControlPolicy,
    ParamSpec,
    PolicySpec,
    make_ablation,
    make_policy,
)
from .simulation import Cluster, Request, Simulator
from .workload import Trace, get_trace

__version__ = "1.0.0"

__all__ = [
    "AppSpec",
    "Application",
    "BatchWaitEstimator",
    "BudgetMode",
    "ClipperPlusPlusPolicy",
    "Cluster",
    "DropPolicy",
    "ExperimentResult",
    "MetricsCollector",
    "MinMaxHeap",
    "ModelProfile",
    "NaivePolicy",
    "NexusPolicy",
    "OverloadControlPolicy",
    "ParamSpec",
    "PardPolicy",
    "PolicySpec",
    "PipelineSpec",
    "PriorityMode",
    "Request",
    "Scenario",
    "ScalingSpec",
    "Simulator",
    "StatePlanner",
    "SubMode",
    "Summary",
    "Trace",
    "TraceSpec",
    "WaitMode",
    "get_application",
    "get_trace",
    "make_ablation",
    "make_policy",
    "run_scenario",
    "standard_config",
    "summarize",
    "__version__",
]
