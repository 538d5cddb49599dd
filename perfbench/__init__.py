"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

Run ``python3 perfbench/run.py --help`` from the repository root; see
``perfbench/README.md`` for the workloads and the metric map.
"""
