"""Child of ``setup_s``: import the toolchain, bring one workload's system
up, print ``ready`` and exit.  The parent times spawn → ``ready``.

Usage: ``python3 perfbench/setup_child.py <workload>``
"""

import sys

WORKLOAD = sys.argv[1]
if WORKLOAD == "serve-slo-60s":
    import serving

    serving.build_engine()
else:
    import dag  # noqa: F401  (imports every layer a pipeline pass calls)
    from repro.analysis.engine import Linter

    Linter()
print("ready", flush=True)
