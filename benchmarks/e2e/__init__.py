"""End-to-end benchmark of the ``repro`` public API, timed from outside.

Run it with ``python3 benchmarks/e2e/run.py``; see ``README.md`` next to
this file for the workloads, the metrics and how to compare two commits.
"""
