"""Self-test of the benchmark, at minimal run length.

    python3 benchmarks/selftest.py

Checks, from the repository root:

* every workload in BENCHMARK.json runs with and without tracing, with
  no failed item, and emits exactly the metrics BENCHMARK.json names
  for that mode, each a number with the declared unit;
* the traced runs report a tracing overhead of at least
  ``MIN_OVERHEAD``, as tracing only adds work to the same items;
* a corrupted golden report is detected: the run, made in this process
  with the runner's golden file pointed at a corrupted copy, exits
  nonzero and counts the item as failed;
* in a directory holding only BENCHMARK.json and the benchmark's files,
  the benchmark exits nonzero without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import run as bench

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_out" / "selftest"
SEED = "7"
SECONDS = "1"
# traced runs split their seconds between the untraced and the traced
# phase; a few seconds each make the overhead ratio stand above noise
TRACE_SECONDS = "8"
# item time that covers a whole hadic pass, so the corrupted report is reached
PASS_SECONDS = "30"
# lowest accepted trace.overhead_ratio; below 1 only by timing noise
MIN_OVERHEAD = 0.95


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    if lines:
        try:
            return json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return None


def run(args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, last_json(proc.stdout), proc.stderr


def run_with_golden(golden: Path, args):
    """Exit code and result of the runner, in this process, checking against ``golden``."""
    bench.GOLDEN = golden
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = bench.main(args)
    return code, last_json(stdout.getvalue())


def metric_problems(result, expected) -> list[str]:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        problems.append(f"attempted {result['attempted']!r}")
    if result["failed"] != 0 or result["correct"] is not True:
        problems.append(f"failed {result['failed']}, correct {result['correct']}")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        problems.append(f"missing {sorted(set(expected) - set(metrics))}, "
                        f"unexpected {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        entry = metrics.get(name)
        if entry is None:
            continue
        value = entry.get("value")
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r}")
        if entry.get("unit") != unit:
            problems.append(f"{name}: unit {entry.get('unit')!r}, declared {unit!r}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    SCRATCH.mkdir(parents=True, exist_ok=True)

    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            code, result, stderr = run(["--workload", workload, "--seed", SEED,
                                        "--seconds", TRACE_SECONDS if trace else SECONDS,
                                        "--trace", str(trace)])
            label = f"{workload} --trace {trace}"
            if code != 0 or result is None:
                failures.append(f"{label}: exit {code}, no result\n{stderr}")
                continue
            failures += [f"{label}: {p}" for p in metric_problems(result, expected[trace])]
            if trace:
                overhead = result["metrics"].get("trace.overhead_ratio", {}).get("value", 0)
                if overhead < MIN_OVERHEAD:
                    failures.append(f"{label}: trace.overhead_ratio {overhead}")
                label += f", tracing overhead {overhead:.3f}x"
            print(f"ok {label}: {result['attempted']} items")

    golden = json.loads((HERE / "golden" / "analyze_catalog.json").read_text(encoding="utf-8"))
    golden["reports"][0]["trace"] = "1"
    corrupt = SCRATCH / "corrupt_golden.json"
    corrupt.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    code, result = run_with_golden(corrupt, ["--workload", "hadic", "--seed", SEED,
                                             "--seconds", PASS_SECONDS, "--trace", "0"])
    if code == 0 or result is None or result["failed"] == 0 or result["correct"]:
        failures.append(f"corrupted golden not detected: exit {code}, result {result}")
    else:
        print(f"ok corrupted golden: exit {code}, error_rate "
              f"{result['failed'] / result['attempted']:g}")

    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    code, result, _ = run(["--workload", "hadic", "--seed", SEED, "--seconds", SECONDS,
                           "--trace", "0"], cwd=bare)
    if code == 0 or result is not None:
        failures.append(f"bare directory: exit {code}, result {result}")
    else:
        print(f"ok bare directory: exit {code}, no result")

    for failure in failures:
        print(f"FAIL {failure}")
    print("PASS" if not failures else f"FAIL ({len(failures)} problems)")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
