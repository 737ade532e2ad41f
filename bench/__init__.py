"""Benchmark of the nestedflow CLI: end-to-end timings and per-layer traces.

Run ``python3 bench/run.py --help`` from the repository root; README.md in
this directory describes the workloads and metrics.
"""
