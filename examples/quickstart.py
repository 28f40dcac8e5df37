#!/usr/bin/env python
"""Quickstart: serve the live-video pipeline under four dropping policies.

Builds the paper's ``lv`` application (5 cascaded models, 500 ms SLO),
replays a bursty Twitter-like trace at ~90% of provisioned capacity, and
compares PARD against Nexus, Clipper++ and a no-dropping baseline.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from dataclasses import replace

from repro import run_scenario, standard_config
from repro.experiments.runner import resolve_base_rate


def main() -> None:
    scenario = standard_config(
        app="lv", trace="tweet", duration=60.0, seed=7, utilization=0.9
    )
    print(f"workload: lv x tweet, base rate ~{resolve_base_rate(scenario):.0f} req/s")
    print(f"{'policy':12s} {'goodput':>9s} {'drop rate':>10s} {'invalid rate':>13s}")
    for policy in ("PARD", "Nexus", "Clipper++", "Naive"):
        result = run_scenario(replace(scenario, policy=policy))
        s = result.summary
        print(
            f"{result.policy_name:12s} {s.goodput:7.1f}/s "
            f"{s.drop_rate:10.2%} {s.invalid_rate:13.2%}"
        )


if __name__ == "__main__":
    main()
