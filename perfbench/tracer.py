"""Per-layer tracing installed from outside the package.

Modules bind names at import (``from .scalar import binom`` copies the
function into the importing module), so each wrapper replaces the name in
every ``invpower`` module that holds it.  ``Scalar`` arithmetic and
``TaylorSeries.to_inexact`` are patched on their classes.  Nothing in the
package's files changes, and ``uninstall`` puts every original back.

Function-level calls become spans (name, start, end, span id, parent
span id, request id) kept in memory.  ``binom`` and the ``Scalar`` ops run
hundreds of thousands of times per request, so they get counters and
cumulative time instead of spans.  A span's self time is its duration
minus the time of its child spans and of the counted calls made inside
it, so the self times of all layers add up to the traced request time.

The clock is ``time.perf_counter``: ``time.process_time`` costs about
0.65 us a call on the 2-vCPU Linux VM the baseline comes from, against
0.19 us, and would triple the cost of every traced ``binom``.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

SPANNED = (
    ("cli", "main"),
    ("asymptotics", "convergence_table"),
    ("asymptotics", "estimate_limits"),
    ("approximant", "coeffs_closed_form"),
    ("approximant", "coeffs_via_matrix"),
    ("approximant", "evaluate"),
    ("transforms", "binomial_convolve"),
    ("identities", "run_suite"),
    ("corpus", "taylor_coeffs"),
    ("corpus", "load_coefficient_file"),
    ("corpus", "evaluate_at"),
)
SCALAR_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__truediv__", "__rtruediv__", "__neg__", "__abs__")
SPAN_NAMES = tuple(f"{layer}.{name}" for layer, name in SPANNED) + ("series.to_inexact",)


class Tracer:
    def __init__(self, modules: dict) -> None:
        """``modules`` maps layer names ("cli", "scalar", ...) to the
        imported ``invpower`` modules, plus "" for the package itself."""
        self.modules = modules
        self.spans: list[tuple] = []
        self.stack: list[tuple[int, list[float]]] = []
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.request: int | None = None
        self.tables: list = []
        self._in_op = False
        self._undo: list[tuple] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        hooks = {"asymptotics.convergence_table": self.tables.append,
                 "identities.run_suite": self._count_cases}
        for layer, name in SPANNED:
            original = getattr(self.modules[layer], name)
            full = f"{layer}.{name}"
            self._replace_everywhere(original, self._span(full, original, hooks.get(full)))
        binom = self.modules["scalar"].binom
        self._replace_everywhere(binom, self._binom(binom))
        scalar = self.modules["scalar"].Scalar
        for op in SCALAR_OPS:
            self._set(scalar, op, self._op(vars(scalar)[op]))
        series = self.modules["series"].TaylorSeries
        self._set(series, "to_inexact", self._span("series.to_inexact", series.to_inexact))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _replace_everywhere(self, original, wrapper) -> None:
        for module in self.modules.values():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    # -- wrappers -------------------------------------------------------

    def _span(self, name: str, fn, hook=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(self.spans) + len(self.stack)
            parent = self.stack[-1][0] if self.stack else None
            children = [0.0]
            self.stack.append((span_id, children))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(result)
                return result
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.self_s[name] += end - start - children[0]
                self.calls[name] += 1
                if self.stack:
                    self.stack[-1][1][0] += end - start
                self.spans.append((name, start, end, span_id, parent, self.request))
        return wrapper

    def _leaf(self, elapsed: float) -> None:
        if self.stack:
            self.stack[-1][1][0] += elapsed

    def _binom(self, fn):
        @functools.wraps(fn)
        def wrapper(a, b):
            start = time.perf_counter()
            value = fn(a, b)
            elapsed = time.perf_counter() - start
            self.calls["scalar.binom"] += 1
            self.self_s["scalar.binom"] += elapsed
            if value:
                self.counts["scalar.binom.nonzero"] += 1
            self._leaf(elapsed)
            return value
        return wrapper

    def _op(self, fn):
        # reflected ops call the forward op of the other operand; only the
        # outermost call is a user-visible operation
        @functools.wraps(fn)
        def wrapper(*args):
            if self._in_op:
                return fn(*args)
            self._in_op = True
            start = time.perf_counter()
            try:
                return fn(*args)
            finally:
                elapsed = time.perf_counter() - start
                self._in_op = False
                self.calls["scalar.ops"] += 1
                self.self_s["scalar.ops"] += elapsed
                self._leaf(elapsed)
        return wrapper

    def _count_cases(self, report) -> None:
        self.counts["identities.cases"] += report.total

    # -- requests -------------------------------------------------------

    def end_request(self, output_bytes: int) -> None:
        """Book the request's table sizes; runs outside every span."""
        self.counts["cli.output_bytes"] += output_bytes
        for table in self.tables:
            self.counts["asymptotics.rows"] += len(table.rows)
            for row in table.rows:
                for q in (row.q0, row.q1):
                    if q is not None and q.exact:
                        bits = q.value.numerator.bit_length() + q.value.denominator.bit_length()
                        if bits > self.counts["asymptotics.max_row_bits"]:
                            self.counts["asymptotics.max_row_bits"] = bits
        self.tables.clear()

    # -- results --------------------------------------------------------

    def exact_counts(self) -> dict[str, tuple[float, str]]:
        """Counts that must repeat exactly from one traced pass to the next."""
        out = {}
        for name in (*SPAN_NAMES, "scalar.binom", "scalar.ops"):
            out[f"{name}.calls"] = (self.calls[name], "count")
        binom_calls = self.calls["scalar.binom"]
        nonzero = self.counts["scalar.binom.nonzero"]
        out["scalar.binom.nonzero_ratio"] = (nonzero / binom_calls if binom_calls else 0.0, "ratio")
        out["asymptotics.rows"] = (self.counts["asymptotics.rows"], "count")
        out["asymptotics.max_row_bits"] = (self.counts["asymptotics.max_row_bits"], "bits")
        out["identities.cases"] = (self.counts["identities.cases"], "count")
        out["cli.output_bytes"] = (self.counts["cli.output_bytes"], "bytes")
        return out

    def self_times(self) -> dict[str, float]:
        return {f"{name}.self_s": self.self_s[name]
                for name in (*SPAN_NAMES, "scalar.binom", "scalar.ops")}

    def span_records(self) -> list[dict]:
        keys = ("name", "start", "end", "id", "parent", "request")
        return [dict(zip(keys, span)) for span in self.spans]
