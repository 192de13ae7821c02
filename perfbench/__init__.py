"""Seeded end-to-end and per-layer benchmark of riskbound's public paths.

Run ``python3 perfbench/run.py --help``; ``perfbench/README.md`` lists the
workloads and metrics.
"""
