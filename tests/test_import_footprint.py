"""A single run imports only what it runs.

Cold import is most of a short run's set-up time, so the run path must not
pull in the sweep layer (process pool, disk cache), the report renderers or
networkx.  The check runs in a fresh interpreter: this test process has
long since imported everything.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]

NOT_ON_RUN_PATH = (
    "networkx",
    "multiprocessing",
    "concurrent.futures",
    "repro.experiments.sweep",
    "repro.metrics.report",
)

SCRIPT = f"""
import json, sys
sys.modules["networkx"] = None  # any import of it now raises ImportError

import repro
from repro.experiments.runner import run_scenario
from repro.experiments.scenario import Scenario

result = run_scenario(Scenario.from_dict({{
    "app": {{"name": "da"}},
    "trace": {{"name": "tweet", "duration": 2}},
    "policy": "PARD",
    "workers": 2,
    "seed": 1,
}}))
loaded = [m for m in {NOT_ON_RUN_PATH!r}
          if m in sys.modules and sys.modules[m] is not None]

from repro.experiments import run_sweep, summary_table, sweep_grid
from repro.metrics import format_table
import repro.experiments.sweep as sweep
import repro.metrics.report as report

print(json.dumps({{
    "requests": result.collector.count,
    "loaded": loaded,
    "lazy_ok": run_sweep is sweep.run_sweep
               and summary_table is sweep.summary_table
               and sweep_grid is sweep.sweep_grid
               and format_table is report.format_table,
}}))
"""


def test_run_path_imports_only_what_it_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["requests"] > 0
    assert out["loaded"] == []
    assert out["lazy_ok"]


@pytest.mark.parametrize("package", ["repro.experiments", "repro.metrics"])
def test_lazy_package_attributes(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        assert hasattr(module, name), name
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name  # noqa: B018
