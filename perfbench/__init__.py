"""The repository benchmark: seeded workloads, output checks, layer times.

Run it from the repository root::

    python3 perfbench/run.py --workload cold-corpus --seed 11 \\
        --seconds 20 --trace 0

See ``perfbench/NOTES.md`` for the workloads, their metrics and the
layer-to-metric map.
"""
