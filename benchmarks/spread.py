"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 benchmarks/spread.py --seeds 1-10 [--workload NAME ...] [--out FILE]

Runs ``benchmarks/run.py --trace 0`` once per seed and workload, one run
at a time, with ``run_seconds`` from BENCHMARK.json, then one traced run
per workload on the first seed.  For each metric it reports the
median, the quartiles from ``statistics.quantiles(n=4)`` and the
spread (q3 - q1) / median, and marks a spread that is not below a
third of the metric's bound; it exits 1 if any is marked.  The
summary, with every value and each run's note line (tail percentile,
sample count, error rate) and the traced run's per-layer metrics, is
printed as JSON and optionally written to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def run(workload: str, seed: int, seconds, trace: int):
    """Exit code, result object and note line of one benchmark run."""
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]), lines[-2]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {
        "machine": {"platform": platform.platform(), "cpus": os.cpu_count(),
                    "python": platform.python_version()},
        "run_seconds": spec["run_seconds"], "seeds": args.seeds, "workloads": {},
    }
    steady = True
    for workload in workloads:
        values = {name: [] for name in bounds}
        notes = []
        for seed in args.seeds:
            code, result, note = run(workload, seed, spec["run_seconds"], trace=0)
            if code != 0 or not result["correct"]:
                print(f"{workload} seed {seed}: exit {code}, {result['failed']} failed",
                      file=sys.stderr)
                return 1
            notes.append(note)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n} {v[-1]:.4g}" for n, v in values.items()), file=sys.stderr)
        code, traced, trace_note = run(workload, args.seeds[0], spec["run_seconds"], trace=1)
        if code != 0:
            print(f"{workload} traced run: exit {code}", file=sys.stderr)
            return 1
        rows = {}
        for name, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            ok = spread < bounds[name] / 3
            steady = steady and ok
            rows[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bounds[name], "below_third_of_bound": ok,
                          "values": series}
        summary["workloads"][workload] = {
            "metrics": rows, "notes": notes,
            "traced": {"seed": args.seeds[0], "note": trace_note,
                       "per_layer": {n: m["value"] for n, m in traced["metrics"].items()}},
        }
    text = json.dumps(summary, indent=2) + "\n"
    if args.out:
        args.out.write_text(text, encoding="utf-8")
    print(text)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
