"""Start-up probe for the cold-corpus set-up time.

Run as a child process: imports the feature-table path the way
``repro train`` does and opens an extraction engine over a fresh
``sqlite:`` cache. Then it prints ``ready``, the user CPU seconds it
has used so far and the median of a few speed-probe times taken on its
own core, and exits. The parent times spawn to ``ready`` and scales the
CPU seconds by the probe. System CPU seconds are left out: they follow
the page cache, which other tenants of a shared host churn.

Usage: python3 perfbench/startup.py CACHE_DB_PATH
"""

import os
import statistics
import sys


def main(argv) -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    from repro.core.pipeline import build_feature_table  # noqa: F401
    from repro.engine import ExtractionEngine, FeatureCache

    cache = FeatureCache("sqlite:" + argv[1])
    ExtractionEngine(workers=1, cache=cache)
    cache.get("0" * 64)  # opens the database
    cpu = os.times().user
    sys.path.insert(0, root)
    from perfbench.harness import SpeedProbe

    probe = SpeedProbe()
    speed = statistics.median(probe.measure() for _ in range(5))
    print(f"ready {cpu!r} {speed!r}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
