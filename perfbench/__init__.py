"""End-to-end and per-layer benchmark of the four headline paths.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload (``solve-ls``, ``serve-mixed``, ``churn-replay`` or
``sharded``) through the public API of :mod:`repro`, checks every output and
prints its metrics; see ``perfbench/README.md`` for the workloads, the metric
definitions and the layer predictions.
"""
