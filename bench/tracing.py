"""Outside-in layer tracing for the benchmark.

The tracer rebinds public functions of the ``eqloc`` modules to wrappers
that record a span per call (layer name, start, end, parent span) plus a few
counters measured at the same boundary.  A function imported by name into
another module (``engines`` imports ``localize`` and ``exp_series``, the
package re-exports everything) is rebound on every ``eqloc.*`` attribute
that refers to it, and ``LaurentSeries.__mul__``/``__rmul__`` are wrapped on
the class.  ``Tracer.restore`` puts every original object back, so untraced
timings never run through a wrapper.

Spans are kept in flat arrays while the run is timed and turned into
per-layer self times at the end: a span's self time is its duration minus
the durations of its direct children.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# (module, attribute, span name) for every traced function.  The module is
# where the function is defined; every eqloc module attribute bound to the
# same object is rebound too.
TRACED_FUNCTIONS = (
    ("eqloc.exact", "exp_series", "exact.exp_series"),
    ("eqloc.exact", "invert_series", "exact.invert_series"),
    ("eqloc.localize", "localize", "localize"),
    ("eqloc.localize", "euler_class", "localize.euler_class"),
    ("eqloc.engines", "reduce_symplectic_circle", "engines.reduce"),
    ("eqloc.engines", "reduce_symplectic_torus", "engines.reduce"),
    ("eqloc.engines", "reduce_hk_circle", "engines.reduce"),
    ("eqloc.engines", "reduce_hk_circle_viaP", "engines.reduce"),
    ("eqloc.engines", "reduce_hk_torus", "engines.reduce"),
    ("eqloc.atlas", "parse_atlas", "atlas.parse"),
    ("eqloc.atlas", "serialize_atlas", "atlas.serialize"),
    ("eqloc.oracle", "oracle_comparison", "oracle.comparison"),
    ("eqloc.oracle", "atlas_integrand", "oracle.integrand"),
    ("eqloc.oracle", "adaptive_quadrature", "oracle.quad"),
)

# Spans whose callees are not recorded: atlas_integrand's exact pole gate
# counts as integrand time, not as localize or exact-layer work.
OPAQUE = frozenset({"oracle.integrand"})


class SpanLog:
    """Spans in flat arrays: name id, start and end in ns, parent index
    (-1 for a root)."""

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("h")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int, parent: int) -> int:
        self.name_id.append(name_id)
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        self.parent.append(parent)
        return len(self.start) - 1

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()

    def __len__(self) -> int:
        return len(self.start)


def self_times(
    names: Sequence[str],
    name_id: Sequence[int],
    start: Sequence[int],
    end: Sequence[int],
    parent: Sequence[int],
) -> Dict[str, int]:
    """Total self time per span name: each span's duration minus the
    durations of its direct children, summed by name."""
    own = [e - s for s, e in zip(start, end)]
    for p, s, e in zip(parent, start, end):
        if p >= 0:
            own[p] -= e - s
    out: Dict[str, int] = defaultdict(int)
    for n, t in zip(name_id, own):
        out[names[n]] += t
    return dict(out)


class Tracer:
    """Rebinds the traced functions while active; collects spans and
    counters.  Use as a context manager around the traced phase only."""

    def __init__(self):
        self.log = SpanLog()
        self.counts: Dict[str, int] = defaultdict(int)
        # id -> (budget, panels it held when first seen); holding the budget
        # keeps its id from being reused by a later one
        self.budgets: Dict[int, Tuple[object, int]] = {}
        self.rel_err_max = 0.0
        self._stack: List[int] = [-1]
        self._opaque = 0
        self._saved: List[Tuple[object, str, object]] = []

    # -- span plumbing ----------------------------------------------------

    def span(self, name: str) -> "_Span":
        return _Span(self, self.log.intern(name))

    def _wrap(self, fn: Callable, name: str, count: Optional[Callable] = None) -> Callable:
        name_id = self.log.intern(name)
        log, stack = self.log, self._stack
        counts = self.counts
        opaque = name in OPAQUE

        def traced(*args, **kwargs):
            if self._opaque:
                return fn(*args, **kwargs)
            idx = log.open(name_id, stack[-1])
            stack.append(idx)
            if opaque:
                self._opaque += 1
            try:
                out = fn(*args, **kwargs)
            finally:
                if opaque:
                    self._opaque -= 1
                stack.pop()
                log.close(idx)
            counts[name + ".calls"] += 1
            if count is not None:
                count(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    # -- counters measured at the wrapped boundaries ---------------------

    def _count_mul(self, args, out):
        a, b = args
        other = len(b.terms) if hasattr(b, "terms") else 1
        self.counts["exact.mul.term_pairs"] += len(a.terms) * other

    def _count_localize(self, args, out):
        self.counts["localize.points"] += len(args[0].fixed_points)

    def _count_parse(self, args, out):
        doc = args[0]
        if isinstance(doc, (str, bytes)):
            self.counts["atlas.parse.bytes"] += len(doc)

    def _count_comparison(self, args, out):
        self.rel_err_max = max(self.rel_err_max, out["rel_err"])

    def _count_report(self, args, out):
        self.counts["engines.report.bytes"] += len(out)

    def _quadrature(self, fn: Callable) -> Callable:
        """adaptive_quadrature, counting the panels it takes from the
        budget (one budget per t rung)."""

        def quad(f, edges, tol, budget, *rest, **kw):
            before = budget.left
            self.budgets.setdefault(id(budget), (budget, before))
            try:
                return fn(f, edges, tol, budget, *rest, **kw)
            finally:
                self.counts["oracle.panels"] += before - budget.left

        return self._wrap(quad, "oracle.quad")

    def panel_budget_frac(self) -> float:
        """The largest share of its panel budget that any one budget spent."""
        return max(
            ((start - b.left) / start for b, start in self.budgets.values()), default=0.0
        )

    # -- rebinding --------------------------------------------------------

    def _rebind(self, original: object, wrapped: object) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "eqloc" or mod_name.startswith("eqloc.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, wrapped)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        counters = {
            "localize": self._count_localize,
            "atlas.parse": self._count_parse,
            "oracle.comparison": self._count_comparison,
        }
        for mod_name, attr, span_name in TRACED_FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            if attr == "adaptive_quadrature":
                wrapped = self._quadrature(original)
            else:
                wrapped = self._wrap(original, span_name, counters.get(span_name))
            self._rebind(original, wrapped)

        from eqloc.engines import ReductionReport
        from eqloc.exact import LaurentSeries

        mul = LaurentSeries.__dict__["__mul__"]
        rmul = LaurentSeries.__dict__["__rmul__"]
        wrapped_mul = self._wrap(mul, "exact.mul", self._count_mul)
        self._saved.append((LaurentSeries, "__mul__", mul))
        self._saved.append((LaurentSeries, "__rmul__", rmul))
        LaurentSeries.__mul__ = wrapped_mul
        LaurentSeries.__rmul__ = wrapped_mul
        report = ReductionReport.__dict__["canonical_json"]
        self._saved.append((ReductionReport, "canonical_json", report))
        ReductionReport.canonical_json = self._wrap(
            report, "engines.report", self._count_report
        )

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def rebound(self) -> List[Tuple[object, str, object]]:
        """(owner, attribute, original) for every binding currently replaced."""
        return list(self._saved)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- results ---------------------------------------------------------

    def self_seconds(self) -> Dict[str, float]:
        log = self.log
        ns = self_times(log.names, log.name_id, log.start, log.end, log.parent)
        return {name: t / 1e9 for name, t in ns.items()}


class _Span:
    """A span opened by the benchmark itself (one per operation), so the
    traced calls have a root and the benchmark's own work has a name."""

    __slots__ = ("tracer", "name_id", "idx")

    def __init__(self, tracer: Tracer, name_id: int):
        self.tracer = tracer
        self.name_id = name_id

    def __enter__(self):
        t = self.tracer
        self.idx = t.log.open(self.name_id, t._stack[-1])
        t._stack.append(self.idx)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t._stack.pop()
        t.log.close(self.idx)
