"""Benchmark for g2jones: exact workloads, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 benchmarks/run.py --workload hadic --seed 1 --seconds 45 --trace 0

Workloads (see workloads.py): ``hadic`` (the packaged catalog, seeded
long Torelli words and the first-order calculus checks, mixed) and
``degree0`` (validation and the degree-0 decomposition).  The library
under ``src/`` is imported from source; nothing needs building.

One process and one thread drive the library in a closed loop, one
item after another.  A run times ``MIN_SETUPS`` set-ups as a first run
of the CLI does them, spread over the run between items: a fresh import
of g2jones, ``search_valid_rep``, the ``rep_to_document``/
``rep_from_document`` round trip through the CLI's cache document, and
``CharacterTable.build`` on ``degree0``.  Items come in passes.  Every pass starts with a
fresh import and the set-up of a later CLI run (revalidating the cached
document), so nothing one pass computes can be reused by the next.
Passes run until the items have taken ``--seconds``; set-ups and the
seeded input generation are outside the item timer.

``--trace 0`` prints the end-to-end metrics:

* ``items_per_s``: items completed per second of item time (process
  CPU time, see ``clock`` below);
* ``item_p50_ms``: median item latency;
* ``item_tail_ms``: the latency with exactly ten samples above it, the
  highest percentile with at least ten samples beyond it; its
  percentile and the sample count are printed beside it;
* ``setup_s``: median time of the first-run set-ups;
* ``peak_rss_mb``: peak resident memory of the process.

Every item's output is checked; the error rate (failed / attempted) is
printed and carried by the ``failed`` and ``attempted`` fields, and any
failure makes the exit code 1.

``--trace 1`` runs every item twice, once untraced and once traced, each
in a fresh import of its own, for half of ``--seconds`` each; then it
replays the kernels and prints the per-layer metrics.  It also writes
the spans and the per-layer table under ``.bench_out/``.  The tracing
overhead is the traced item time over the untraced item time of the
same items.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracing import Tracer, replay_kernels
from workloads import WORKLOADS, Golden

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
GOLDEN = HERE / "golden" / "analyze_catalog.json"
DEFAULT_SEED = 1
# Items and set-ups are timed in process CPU time.  The loop is
# single-threaded and does no I/O outside the import in each set-up, so on
# an idle machine CPU time equals wall time; on a busy one it leaves out
# the time the process waits for a core.
clock = time.process_time
REPLAY_BUDGET_S = 0.3
# first-run set-ups per run, for a steady median of setup_s
MIN_SETUPS = 11
# wall-clock limit on a phase, in multiples of its seconds; reached only
# when items fail so fast that item time barely grows
MAX_WALL_FACTOR = 3

# layers measured inside items, reported per item
ITEM_LAYERS = {
    "words.evaluate_word": ("calls", "self_s"),
    "words.parse_word": ("self_s",),
    "rings.laurent_to_series": ("calls", "self_s"),
    "matrices.determinant_by_permutations": ("calls", "self_s"),
    "matrices.series_matrix_valuation": ("self_s",),
    "matrices.matrix_inverse": ("calls", "self_s"),
    "matrices.exact_rank": ("calls", "self_s"),
    "symplectic.is_torelli": ("calls", "self_s"),
    "filtration.analyze": ("calls", "self_s"),
    "filtration.check_delta_additivity": ("self_s",),
    "filtration.check_equivariance": ("self_s",),
    "filtration.check_bracket": ("self_s",),
    "isotypic.group_closure": ("self_s",),
    "isotypic.class_sums": ("self_s",),
    "isotypic.projector_rank": ("self_s",),
}
# layers measured during set-up, reported per set-up
SETUP_LAYERS = {
    "rep.search_valid_rep": ("self_s",),
    "rep.rep_from_document": ("self_s",),
    "presentation.check_presentation": ("calls", "self_s"),
    "characters.CharacterTable.build": ("self_s",),
}
REPLAY_UNITS = {
    "rings.laurent_mul.ns_per_op": "ns/op",
    "rings.laurent_mul.coeff_products": "count/op",
    "rings.laurent_mul.operand_terms": "terms/operand",
    "rings.series_mul.ns_per_op": "ns/op",
    "rings.series_mul.coeff_products": "count/op",
    "rings.series_mul.order": "count",
    "matrices.laurent_matmul.ns_per_op": "ns/op",
    "matrices.laurent_matmul.coeff_products": "count/op",
    "matrices.laurent_matmul.operand_span": "count",
    "rings.series_mul.coeff_bits": "bits",
}


@dataclass
class Context:
    g: object
    rep: object
    table: object


@dataclass
class Phase:
    latencies: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    @property
    def item_time(self) -> float:
        return sum(self.latencies)

    @property
    def items_per_s(self) -> float:
        return len(self.latencies) / self.item_time


def fresh_import():
    """Import g2jones from this checkout's src/, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "g2jones" or n.startswith("g2jones.")]:
        del sys.modules[name]
    package = importlib.import_module("g2jones")
    if Path(package.__file__).resolve().parent != SRC / "g2jones":
        raise ImportError(f"g2jones imported from {package.__file__}, not from {SRC}")
    return package


def first_set_up(uses_chartable: bool, tracer: Tracer | None) -> tuple[float, dict]:
    """A first CLI run's set-up: its CPU seconds and the rep document it caches."""
    gc.collect()
    start = clock()
    g = fresh_import()
    if tracer is not None:
        tracer.install(g)
    rep = g.search_valid_rep()
    document = json.loads(json.dumps(g.rep_to_document(rep), sort_keys=True))
    g.rep_from_document(document)
    if uses_chartable:
        g.CharacterTable.build(6)
    return clock() - start, document


def pass_set_up(uses_chartable: bool, document: dict, tracer: Tracer | None) -> Context:
    """A later CLI run's set-up: fresh import, cached rep revalidated."""
    gc.collect()
    g = fresh_import()
    rep = g.rep_from_document(document)
    table = g.CharacterTable.build(6) if uses_chartable else None
    if tracer is not None:
        tracer.install(g)
    return Context(g, rep, table)


def run_item(item, ctx, phase: Phase, tracer) -> None:
    """Run one item, timed, and check its output; a failure is recorded, not raised."""
    if tracer is not None:
        tracer.item = len(phase.latencies)
        span = tracer.open("item." + item.kind)
    start = clock()
    try:
        output = item.run(ctx)
        error = None
    except Exception as exc:  # a failed item is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
    phase.latencies.append(clock() - start)
    if tracer is not None:
        tracer.close(span)
        tracer.item = None
    if error is None:
        try:
            if not item.check(output):
                error = "output check failed"
        except Exception as exc:
            error = f"check raised {type(exc).__name__}: {exc}"
    if error is not None:
        phase.failures.append(f"{item.kind} item {len(phase.latencies) - 1}: {error}")


def run_phases(workload, golden, rng, seconds, tracer=None) -> tuple[list[float], list[Phase]]:
    """First-run set-ups and passes until the first phase's items have taken ``seconds``.

    Without a tracer there is one phase, and the first-run set-ups are
    spread evenly over its item time, so that setup_s samples the
    machine over the whole run.  With a tracer there are two phases, an
    untraced and a traced one, each with its own fresh import per pass;
    every item runs in both, back to back, the untraced run first on
    even items and second on odd ones, so both phases time the same
    items under the same machine conditions; the set-ups, all traced,
    all come before the items.
    """
    setups = []

    def set_up_due(item_time):
        while len(setups) < MIN_SETUPS and item_time >= len(setups) * seconds / MIN_SETUPS:
            setups.append(first_set_up(workload.uses_chartable, tracer)[0])

    elapsed, document = first_set_up(workload.uses_chartable, tracer)
    setups.append(elapsed)
    if tracer is not None:
        set_up_due(seconds)
    tracers = [None] if tracer is None else [None, tracer]
    phases = [Phase() for _ in tracers]
    deadline = time.monotonic() + MAX_WALL_FACTOR * seconds * len(phases) + 30
    while phases[0].item_time < seconds and time.monotonic() < deadline:
        contexts = [pass_set_up(workload.uses_chartable, document, t) for t in tracers]
        for item in workload.make_pass(golden, rng):
            if phases[0].item_time >= seconds:
                break
            set_up_due(phases[0].item_time)
            turns = list(zip(contexts, phases, tracers))
            if len(phases[0].latencies) % 2:
                turns.reverse()
            for ctx, phase, item_tracer in turns:
                run_item(item, ctx, phase, item_tracer)
    set_up_due(seconds)
    return setups, phases


def tail(latencies: list[float]) -> tuple[float, float]:
    """(latency, percentile) of the sample with exactly ten samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(setups: list[float], phase: Phase) -> tuple[dict, str]:
    tail_s, percentile = tail(phase.latencies)
    metrics = {
        "items_per_s": (phase.items_per_s, "1/s"),
        "item_p50_ms": (statistics.median(phase.latencies) * 1e3, "ms"),
        "item_tail_ms": (tail_s * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    note = (f"item_tail_ms is p{percentile:.1f} of {len(phase.latencies)} samples; "
            f"setup_s is the median of {len(setups)} set-ups")
    return metrics, note


def per_layer(tracer: Tracer, traced: Phase, untraced: Phase) -> dict:
    items, setups = len(traced.latencies), MIN_SETUPS
    totals = tracer.layer_totals()
    metrics = {}
    for layers, bucket, count, suffix in (
        (ITEM_LAYERS, "item", items, "/item"),
        (SETUP_LAYERS, "setup", setups, "/setup"),
    ):
        for name, fields in layers.items():
            calls, own, _ = totals[bucket].get(name, (0, 0.0, 0.0))
            if "calls" in fields:
                metrics[f"{name}.calls"] = (calls / count, "count" + suffix)
            if "self_s" in fields:
                metrics[f"{name}.self_s"] = (own / count, "s" + suffix)
    metrics.update({
        "words.letters": (tracer.letters / items, "count/item"),
        "words.syllables": (tracer.syllables / items, "count/item"),
        "words.inverse_syllables": (tracer.inverse_syllables / items, "count/item"),
        "rings.max_degree_span": (tracer.max_span, "count"),
        "rings.max_coeff_bits": (tracer.max_bits, "bits"),
        "matrices.det_order_ratio": (
            statistics.fmean(tracer.depth_over_order) if tracer.depth_over_order else 0.0,
            "ratio"),
        "filtration.reuse_ratio": (
            len(tracer.evaluated) / tracer.laurent_evaluations
            if tracer.laurent_evaluations else 0.0,
            "ratio"),
        "isotypic.closure_products": (tracer.closure_products / items, "count/item"),
        "rep.candidates_tried": (tracer.candidates / setups, "count/setup"),
        "trace.overhead_ratio": (traced.item_time / untraced.item_time, "ratio"),
    })
    replays = replay_kernels(tracer, REPLAY_BUDGET_S)
    for name, unit in REPLAY_UNITS.items():
        metrics[name] = (replays.get(name, 0.0), unit)
    return metrics


def analyze_breakdown(tracer: Tracer) -> str:
    """Share of analyze's inclusive time that its main layers spend inside it."""
    layers = ("words.evaluate_word", "rings.laurent_to_series",
              "matrices.determinant_by_permutations", "matrices.series_matrix_valuation")
    inclusive = 0.0
    own = dict.fromkeys(layers, 0.0)
    inside = [False] * len(tracer.spans)
    for index, (span, self_time) in enumerate(zip(tracer.spans, tracer.self_times())):
        name, start, end, parent = span[:4]
        if name == "filtration.analyze" and span[4] is not None:
            inclusive += end - start
        if parent is not None:
            inside[index] = inside[parent] or tracer.spans[parent][0] == "filtration.analyze"
        if inside[index] and name in own:
            own[name] += self_time
    if not inclusive:
        return ""
    shares = ", ".join(f"{name} {own[name] / inclusive:.0%}" for name in layers)
    return f"; self time inside analyze, as a share of its span: {shares}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "g2jones" / "__init__.py").is_file():
        print(f"error: no g2jones sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        golden = Golden.load(GOLDEN)
        fresh_import()
    except (OSError, ValueError, KeyError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    if args.trace:
        tracer = Tracer()
        _, phases = run_phases(workload, golden, rng, args.seconds / 2, tracer)
        metrics = per_layer(tracer, phases[1], phases[0])
        OUT.mkdir(exist_ok=True)
        stem = OUT / f"{args.workload}-seed{args.seed}"
        tracer.write_spans(stem.with_name(stem.name + "-spans.jsonl"))
        table = "\n".join(f"{name:48s} {value:>16.6g} {unit}"
                          for name, (value, unit) in sorted(metrics.items()))
        stem.with_name(stem.name + "-layers.txt").write_text(table + "\n", encoding="utf-8")
        print(table)
        note = (f"{len(tracer.spans)} spans over {len(phases[1].latencies)} traced items; "
                f"tracing overhead {metrics['trace.overhead_ratio'][0]:.3f}x"
                + analyze_breakdown(tracer))
    else:
        setups, phases = run_phases(workload, golden, rng, args.seconds)
        metrics, note = end_to_end(setups, phases[0])

    attempted = sum(len(p.latencies) for p in phases)
    failures = [f for p in phases for f in p.failures]
    for failure in failures[:10]:
        print(f"FAIL {failure}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {note}; "
          f"error_rate {len(failures) / attempted:g} ({len(failures)}/{attempted})")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
