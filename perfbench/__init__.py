"""The repository's benchmark: two workloads, end-to-end and per-layer metrics.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; ``NOTES.md`` explains the
workloads, the metrics and the layer names.
"""
