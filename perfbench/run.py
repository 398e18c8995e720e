"""The toolchain benchmark: one workload per invocation.

Usage::

    python3 perfbench/run.py --workload fig5-dgemm-32k --seed 1 --seconds 20 --trace 0

Workloads: ``fig5-dgemm-32k``, ``mesh16-dgemm-262k``, ``registry-mixed``,
``serve-slo-60s`` (see ``perfbench/README.md``).  With ``--trace 0`` the
last stdout line carries the end-to-end metrics of ``BENCHMARK.json``;
with ``--trace 1`` the per-layer metrics, from spans the benchmark records
around each layer call.  Lines above it are a human-readable report.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("fig5-dgemm-32k", "mesh16-dgemm-262k", "registry-mixed", "serve-slo-60s")


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    """Set up, measure and check one workload; returns its ``Outcome``
    with ``setup_s`` and ``peak_rss_mib`` filled in."""
    import harness

    if name == "registry-mixed":
        import registry_mix

        return registry_mix.run(seconds, trace, seed)
    setup = harness.setup_seconds(name)
    if name == "serve-slo-60s":
        import serving

        outcome = serving.run(seconds, trace, seed)
    else:
        import dag

        outcome = dag.run(dag.FIG5 if name == "fig5-dgemm-32k" else dag.MESH, seconds, trace)
    outcome.end_to_end["setup_s"] = setup
    outcome.end_to_end["peak_rss_mib"] = harness.peak_rss_mib()
    return outcome


def result_line(outcome, spec: dict, trace: bool) -> dict:
    """The JSON record: every metric ``BENCHMARK.json`` lists for this
    mode.  Per-layer metrics of a layer the workload does not touch are 0."""
    if trace:
        metrics = {
            m["name"]: {"value": float(outcome.per_layer.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    else:
        metrics = {
            m["name"]: {"value": float(outcome.end_to_end[m["name"]]), "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    return {
        "correct": outcome.failed == 0 and outcome.ops > 0,
        "attempted": max(1, outcome.ops),
        "failed": outcome.failed if outcome.ops else 1,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no toolchain sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    record = result_line(outcome, spec, bool(args.trace))
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    rows = dict(outcome.report)
    rows["error_rate"] = (record["failed"] / record["attempted"], "ratio")
    for name, (value, unit) in rows.items():
        print(f"{name:<28} {value:>16.6g} {unit}")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
