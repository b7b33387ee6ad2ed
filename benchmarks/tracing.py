"""Spans around the library's layer boundaries, and kernel replays.

:meth:`Tracer.install` wraps the public functions below at every
g2jones module attribute that holds them, so calls from one g2jones
module into another are traced too.  Per-element dunders such as
``LaurentPoly.__mul__`` and ``SquareMatrix.__mul__`` are never wrapped:
their cost comes from :func:`replay_kernels`, which times them on
operands captured from the traced run.

A span is ``[name, start, end, parent, item]``; ``parent`` is the index
of the enclosing span (or None) and ``item`` the id of the benchmark
item that caused it (None during set-up).  Self time is a span's
duration minus the durations of its direct children, which cover
disjoint parts of it because everything runs on one thread.
"""

from __future__ import annotations

import functools
import heapq
import inspect
import json
import statistics
import sys
import time
from collections import defaultdict

# (module, attribute, span name) of every traced function; a dotted
# attribute is a method, wrapped on its class
TRACED = (
    ("words", "parse_word", "words.parse_word"),
    ("words", "evaluate_word", "words.evaluate_word"),
    ("rings", "laurent_to_series", "rings.laurent_to_series"),
    ("matrices", "determinant_by_permutations", "matrices.determinant_by_permutations"),
    ("matrices", "series_matrix_valuation", "matrices.series_matrix_valuation"),
    ("matrices", "matrix_inverse", "matrices.matrix_inverse"),
    ("matrices", "exact_rank", "matrices.exact_rank"),
    ("symplectic", "is_torelli", "symplectic.is_torelli"),
    ("filtration", "analyze", "filtration.analyze"),
    ("filtration", "check_delta_additivity", "filtration.check_delta_additivity"),
    ("filtration", "check_equivariance", "filtration.check_equivariance"),
    ("filtration", "check_bracket", "filtration.check_bracket"),
    ("isotypic", "group_closure", "isotypic.group_closure"),
    ("isotypic", "ConjugationModule.class_sums", "isotypic.class_sums"),
    ("isotypic", "ConjugationModule.projector_rank", "isotypic.projector_rank"),
    ("rep", "search_valid_rep", "rep.search_valid_rep"),
    ("rep", "build_rep", "rep.build_rep"),
    ("rep", "rep_from_document", "rep.rep_from_document"),
    ("presentation", "check_presentation", "presentation.check_presentation"),
    ("characters", "CharacterTable.build", "characters.CharacterTable.build"),
)

# functions whose ``eps`` argument is the sign context of the word
# evaluations below them, for the reuse ratio
SIGNED = {"filtration.analyze", "filtration.check_delta_additivity",
          "filtration.check_equivariance", "filtration.check_bracket"}

# operands kept for the replays: the word images of largest degree span
# and the series whose Laurent sources have the largest span, so the
# replays run on the long-word products the Laurent kernel spends most on
CAPTURED_IMAGES = 8
CAPTURED_SERIES = 64


def _span(poly) -> int:
    support = poly.support() if hasattr(poly, "support") else ()
    return support[-1] - support[0] if support else 0


def _keep_largest(heap: list, limit: int, size: int, serial: int, value) -> None:
    """Keep in ``heap`` the ``limit`` values of largest size seen so far."""
    entry = (size, serial, value)
    if len(heap) < limit:
        heapq.heappush(heap, entry)
    elif entry[:2] > heap[0][:2]:
        heapq.heapreplace(heap, entry)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.item: int | None = None
        self.context: dict[int, int] = {}   # span index -> eps
        self.passes = 0                     # installs, one per pass
        self.evaluated: set = set()         # distinct (pass, letters, eps) over Laurent generators
        self.laurent_evaluations = 0
        self.letters = self.syllables = self.inverse_syllables = 0
        self.max_span = self.max_bits = 0
        self.depth_over_order: list[float] = []
        self.closure_products = 0
        self.candidates = 0
        self.images: list = []              # heap of (span, serial, (image, generators))
        self.series: list = []              # heap of (source span, serial, series)
        self.captures = 0

    # ------------------------------------------------------------ wrapping

    def install(self, package) -> None:
        """Wrap every function in TRACED inside the freshly imported package."""
        self.passes += 1
        modules = [m for name, m in sys.modules.items()
                   if name == package.__name__ or name.startswith(package.__name__ + ".")]
        for module_name, attribute, name in TRACED:
            module = sys.modules[f"{package.__name__}.{module_name}"]
            if "." in attribute:
                class_name, method = attribute.split(".")
                cls = getattr(module, class_name)
                raw = cls.__dict__[method]
                if isinstance(raw, classmethod):
                    setattr(cls, method, classmethod(self._wrap(name, raw.__func__)))
                else:
                    setattr(cls, method, self._wrap(name, raw))
                continue
            original = getattr(module, attribute)
            wrapped = self._wrap(name, original)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapped)

    def _wrap(self, name: str, fn):
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)
        signature = inspect.signature(fn) if name in SIGNED else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            if signature is not None:
                self.context[index] = signature.bind(*args, **kwargs).arguments["eps"]
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if observe is not None:
                observe(index, args, result)
            return result

        return traced

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.item])
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    # ----------------------------------------------------------- observers

    def _sign_of(self, index: int):
        parent = self.spans[index][3]
        while parent is not None:
            if parent in self.context:
                return self.context[parent]
            parent = self.spans[parent][3]
        return None

    def _observe_words_evaluate_word(self, index, args, image):
        if self.item is None:
            return
        word = args[0]
        self.letters += word.letter_length()
        self.syllables += word.syllable_length()
        self.inverse_syllables += sum(1 for _, e in word.letters if e < 0)
        polys = [x for row in image.entries for x in row if hasattr(x, "support")]
        if not polys:
            return  # integer generators, as in is_torelli
        self.laurent_evaluations += 1
        self.evaluated.add((self.passes, word.letters, self._sign_of(index)))
        span = max(_span(poly) for poly in polys)
        self.max_span = max(self.max_span, span)
        self.max_bits = max([self.max_bits] + [
            abs(c).bit_length() for poly in polys for _, c in poly.items()])
        self.captures += 1
        _keep_largest(self.images, CAPTURED_IMAGES, span, self.captures,
                      (image, tuple(args[1])))

    def _observe_rings_laurent_to_series(self, index, args, series):
        if self.item is not None:
            self.captures += 1
            _keep_largest(self.series, CAPTURED_SERIES, _span(args[0]), self.captures, series)

    def _observe_filtration_analyze(self, index, args, report):
        self.depth_over_order.append(report.depth / report.order)

    def _observe_isotypic_group_closure(self, index, args, table):
        # breadth-first closure multiplies every element once by each generator
        self.closure_products += len(table) * len(tuple(args[0]))

    def _observe_rep_build_rep(self, index, args, rep):
        self.candidates += 1

    # ---------------------------------------------------------- aggregation

    def self_times(self) -> list[float]:
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def layer_totals(self):
        """Per span name: calls, self seconds and inclusive seconds, for items and set-up."""
        totals = {"item": defaultdict(lambda: [0, 0.0, 0.0]),
                  "setup": defaultdict(lambda: [0, 0.0, 0.0])}
        for span, own in zip(self.spans, self.self_times()):
            bucket = totals["setup" if span[4] is None else "item"][span[0]]
            bucket[0] += 1
            bucket[1] += own
            bucket[2] += span[2] - span[1]
        return totals

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, item in self.spans:
                handle.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "item": item,
                }) + "\n")


# ---------------------------------------------------------------- replays

def _terms(poly) -> int:
    return len(poly.support()) if hasattr(poly, "support") else int(poly != 0)


def _timed_ns(calls, budget_s: float) -> float:
    """Nanoseconds per call, cycling through the calls for about budget_s."""
    count = 0
    start = time.perf_counter()
    while True:
        for call in calls:
            call()
        count += len(calls)
        elapsed = time.perf_counter() - start
        if elapsed >= budget_s:
            return elapsed / count * 1e9


def _coeff_bits(series) -> int:
    return max(max(c.numerator.bit_length(), c.denominator.bit_length())
               for c in series.coefficients)


def replay_kernels(tracer: Tracer, budget_s: float) -> dict[str, float]:
    """Time the three kernels on operands the traced run captured.

    ``laurent_matmul``: a captured word image times a generator matrix,
    the step word evaluation takes per syllable.  ``laurent_mul``: the
    entry products inside those matrix products with both factors
    nonzero.  ``series_mul``: consecutive pairs of captured
    ``laurent_to_series`` outputs, like the products the permutation
    determinant forms.  The images of largest degree span and the series
    of largest source span are kept, which bounds memory and makes the
    replays follow the longest words.  Coefficient products are counted
    from the operands: len(a) * len(b) per Laurent product, and the
    nonzero pairs with i + j <= order per series product.  Operand sizes
    are reported beside them: terms per Laurent factor, degree span of
    the images and coefficient bits of the series.
    """
    out = {}
    if tracer.images:
        images = [captured for _, _, captured in sorted(tracer.images)]
        matmuls = []
        pairs = []
        for n, (image, generators) in enumerate(images):
            right = generators[n % len(generators)]
            matmuls.append((image, right))
            dim = image.dim
            pairs += [(image.entries[i][k], right.entries[k][j])
                      for i in range(dim) for k in range(dim) for j in range(dim)]
        out["matrices.laurent_matmul.ns_per_op"] = _timed_ns(
            [functools.partial(a.__mul__, b) for a, b in matmuls], budget_s)
        out["matrices.laurent_matmul.coeff_products"] = sum(
            _terms(a) * _terms(b) for a, b in pairs) / len(matmuls)
        out["matrices.laurent_matmul.operand_span"] = statistics.fmean(
            span for span, _, _ in tracer.images)
        nonzero = [(a, b) for a, b in pairs if _terms(a) and _terms(b)]
        out["rings.laurent_mul.ns_per_op"] = _timed_ns(
            [functools.partial(a.__mul__, b) for a, b in nonzero], budget_s)
        out["rings.laurent_mul.coeff_products"] = sum(
            _terms(a) * _terms(b) for a, b in nonzero) / len(nonzero)
        out["rings.laurent_mul.operand_terms"] = sum(
            _terms(a) + _terms(b) for a, b in nonzero) / (2 * len(nonzero))
    if len(tracer.series) >= 2:
        series = [s for _, _, s in sorted(tracer.series, key=lambda entry: entry[1])]
        series_pairs = list(zip(series, series[1:]))
        order = series_pairs[0][0].order
        out["rings.series_mul.ns_per_op"] = _timed_ns(
            [functools.partial(a.__mul__, b) for a, b in series_pairs], budget_s)
        out["rings.series_mul.coeff_products"] = sum(
            sum(1 for i, x in enumerate(a.coefficients) if x
                for j, y in enumerate(b.coefficients[: order + 1 - i]) if y)
            for a, b in series_pairs) / len(series_pairs)
        out["rings.series_mul.order"] = order
        out["rings.series_mul.coeff_bits"] = statistics.fmean(_coeff_bits(s) for s in series)
    return out
