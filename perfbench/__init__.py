"""The repository benchmark: three workloads, end-to-end and per-layer metrics.

See ``perfbench/README.md``; the entry point is ``perfbench/run.py``.
"""
