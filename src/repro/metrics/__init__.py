"""Metrics: per-request records and the paper's §5.1 measures."""

from .analysis import (
    Summary,
    consumed_budget_per_module,
    drop_rate_at_min_goodput,
    drop_rate_series,
    drops_per_module,
    goodput_series,
    latency_component_cdf,
    latency_percentiles,
    max_drop_rate,
    merge_collectors,
    min_normalized_goodput,
    normalized_goodput_series,
    per_app_summaries,
    slo_attainment_curve,
    summarize,
)
from .collector import MetricsCollector, RequestRecord, VisitRecord
from .goodput import GoodputReport, GoodputSpec, goodput_report

# The table renderers serve reports only, so a single run does not import
# them.  Every other name in ``__all__`` is bound above, so only the
# renderer names reach this hook, on first access (PEP 562).
def __getattr__(name: str):
    if name in __all__:
        from . import report

        return getattr(report, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "GoodputReport",
    "GoodputSpec",
    "MetricsCollector",
    "RequestRecord",
    "Summary",
    "VisitRecord",
    "consumed_budget_per_module",
    "drop_rate_at_min_goodput",
    "drop_rate_series",
    "drops_per_module",
    "goodput_series",
    "latency_component_cdf",
    "latency_percentiles",
    "max_drop_rate",
    "merge_collectors",
    "min_normalized_goodput",
    "normalized_goodput_series",
    "per_app_summaries",
    "slo_attainment_curve",
    "summarize",
    "comparison_table",
    "format_table",
    "goodput_report",
    "goodput_table",
    "pct",
    "per_app_drop_table",
    "per_app_table",
    "per_module_drop_table",
]
