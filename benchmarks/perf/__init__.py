"""CLI-level performance benchmark for ``repro``.

``python -m benchmarks.perf run`` times the four CLI workloads and
``python -m benchmarks.perf compare A.json B.json`` judges one result
set against another; see README.md in this directory.
"""
