"""Standalone performance benchmark for the PARD simulator.

Run it from the repository root::

    python3 perfbench/run.py --workload stream-overload --seed 1 --seconds 15 --trace 0

See ``perfbench/README.md`` for the metrics, the workloads and the
layer map.  Nothing in this package imports :mod:`repro` at module import
time: the child process times the cold import itself.
"""
