"""Per-layer tracing from outside the package, and the jet kernel microbench.

`Tracer.installed` replaces public functions with timing wrappers at the
module attribute each caller looks up at call time (operators resolves
`evaluate`, `curve_jets` and `iterated_laplacian` in its own namespace; cli
resolves `ops.*`, `ex.*`, `sym.*` and its imported samplers), and restores
them on exit.  Nothing under src/ is modified.  Spans (name, start, end,
parent, run) are kept in memory and written out by the caller.
"""

from __future__ import annotations

import statistics
import time
import timeit
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import wraps


def _count_iteration_order(counts, args, kwargs, result):
    p = kwargs["p"] if "p" in kwargs else args[1]
    counts[f"operators.iterated_laplacian.calls.p{p}"] += 1


def _count_draws(counts, args, kwargs, result):
    if result is None:
        return
    points, draws = result
    counts["operators.conditioned_sample.draws"] += draws
    counts["operators.conditioned_sample.accepted"] += len(points)


def _count_bytes(counts, args, kwargs, result):
    if result is not None:
        counts["reports.bytes"] += len(result.encode())


def _targets(cli, ops, ex, sym, rep):
    """(owner, attribute, span name, counter hook) for every traced entry point."""
    return [
        (cli, "main", "cli.main", None),
        (ops, "iterated_laplacian", "operators.iterated_laplacian", _count_iteration_order),
        (ops, "p_harmonic_residuals", "operators.p_harmonic_residuals", None),
        (ops, "laplacian", "operators.laplacian", None),
        (ops, "gradient_product", "operators.gradient_product", None),
        (ops, "check_eigenfunction", "operators.check_eigenfunction", None),
        (ops, "check_eigenfamily", "operators.check_eigenfamily", None),
        (ops, "coordinate_identity_residuals", "operators.identity_residuals", None),
        (ops, "projector_identity_residuals", "operators.identity_residuals", None),
        (ops, "conditioned_sample", "operators.conditioned_sample", _count_draws),
        (ops, "check_invariance", "operators.invariance", None),
        (ops, "non_descent_witness", "operators.invariance", None),
        (ops, "evaluate", "expressions.evaluate", None),
        (ex, "evaluate", "expressions.evaluate", None),
        (ex, "projector_form", "expressions.build", None),
        (ex, "p_harmonic_expr", "expressions.build", None),
        (ex, "flag_sum_expr", "expressions.build", None),
        (ex, "validate_eigen_matrix", "expressions.validate_eigen_matrix", None),
        (ops, "curve_jets", "group.curve_jets", None),
        (cli, "sample_so", "group.sample", None),
        (cli, "sample_so_mn", "group.sample", None),
        (cli, "sample_block_diagonal", "group.sample", None),
        (sym, "verify_p_harmonic", "symcalc.verify_p_harmonic", None),
        (rep.VerificationReport, "to_json", "reports.to_json", _count_bytes),
    ]


class Tracer:
    """Collects spans and counters for one traced pass at a time.

    Counter hooks also run when the wrapped call raises, with result None,
    so a call that ends in a BranchCutError is still counted.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.run = 0
        self._stack: list[int] = []

    def take(self) -> tuple[list[list], Counter]:
        """Return the spans and counters recorded so far and start afresh."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts

    def wrap(self, name, fn, hook):
        stack = self._stack

        @wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run]
            stack.append(len(self.spans))
            self.spans.append(span)
            result = None
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if hook is not None:
                    hook(self.counts, args, kwargs, result)

        return traced

    @contextmanager
    def installed(self, cli, ops, ex, sym, rep):
        saved = []
        try:
            for owner, attr, name, hook in _targets(cli, ops, ex, sym, rep):
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, hook))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def span_times(spans) -> tuple[dict, dict, Counter]:
    """Inclusive seconds, self seconds and call counts per span name.

    Inclusive time skips spans nested inside a span of the same name, so a
    layer's time is never counted twice; self time subtracts the direct
    children's durations.
    """
    inclusive: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for name, start, end, parent, _ in spans:
        duration = end - start
        calls[name] += 1
        own[name] += duration
        if parent >= 0:
            own[spans[parent][0]] -= duration
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            inclusive[name] += duration
    return inclusive, own, calls


# -- jet kernel microbench ------------------------------------------------------

MICRO_REPEATS = 5
MICRO_TARGET_S = 0.04


def nested_jet(jets, c: complex, depth: int):
    """A jet of `depth` nesting levels, order 2 per level, one curve
    parameter per level (value c, unit first derivative at every level)."""
    x = jets.variable(c, 2)
    for _ in range(depth - 1):
        zero = x * 0
        x = jets.JetScalar(2, (x, zero + 1, zero))
    return x


def _per_op_us(op) -> float:
    start = time.perf_counter()
    op()
    once = time.perf_counter() - start
    number = max(1, int(MICRO_TARGET_S / max(once, 1e-7)))
    times = timeit.repeat(op, number=number, repeat=MICRO_REPEATS)
    return statistics.median(times) / number * 1e6


def jet_microbench(jets) -> dict[str, float]:
    """Microseconds per `*` and per `jlog` on jets of nesting depth 1-4."""
    out = {}
    for depth in range(1, 5):
        a = nested_jet(jets, 0.7 + 0.2j, depth)
        b = nested_jet(jets, 1.3 - 0.4j, depth)
        out[f"jets.mul_us.d{depth}"] = _per_op_us(lambda: a * b)
        out[f"jets.jlog_us.d{depth}"] = _per_op_us(lambda: jets.jlog(a))
    return out
