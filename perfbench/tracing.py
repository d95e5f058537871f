"""Layer timing for the polarineq benchmark, recorded from outside the package.

polarineq's modules call each other through module-level bindings (for
example ``polarineq.harness.check_inequality`` or
``polarineq.inequalities.circle_extremum``).  ``Tracer`` replaces those
bindings with thin wrappers for the duration of a ``with`` block and puts the
originals back afterwards, so nothing under ``src/`` is edited.

A wrapped call records a span: name, start, end, parent span, thread id and
op id.  Spans stay in per-thread buffers in memory and are reduced to
per-layer metrics when the block ends.  ``poly.evaluate`` runs a few hundred
times per trial, so it is counted (calls, points, seconds) instead of spanned;
its time is charged to the innermost open span so that span's self time
excludes it.

``LatencyProbe`` is the untraced counterpart used for end-to-end metrics: it
only timestamps the start and end of each suite trial, which happens on the
harness's worker threads where the benchmark cannot time it directly.
"""

from __future__ import annotations

import importlib
import itertools
import statistics
import threading
import time
from contextlib import contextmanager
from typing import NamedTuple

_now = time.perf_counter

HARNESS_SPANS = ("harness.run_suite", "harness.fuzz_search")
OP_SPAN = "bench.op"

# (module, attribute, span name).  A function bound in several modules gets
# one wrapper per binding, all recording under one span name.
SPAN_BINDINGS = (
    ("polarineq.harness", "run_suite", "harness.run_suite"),
    ("polarineq.harness", "fuzz_search", "harness.fuzz_search"),
    ("polarineq.harness", "regenerate_instance", "harness.regenerate_instance"),
    ("polarineq.harness", "build_instance", "inequalities.build_instance"),
    ("polarineq.harness", "check_inequality", "inequalities.check_inequality"),
    ("polarineq.harness", "random_zeros_poly_with_roots",
     "generators.random_zeros_poly_with_roots"),
    ("polarineq.harness", "dominated_pair_with_roots",
     "generators.dominated_pair_with_roots"),
    ("polarineq.generators", "random_zeros_poly_with_roots",
     "generators.random_zeros_poly_with_roots"),
    ("polarineq.generators", "circle_extremum", "extrema.circle_extremum"),
    ("polarineq.inequalities", "circle_extremum", "extrema.circle_extremum"),
    ("polarineq.inequalities", "polar_chain", "polar.polar_chain"),
    ("polarineq.inequalities", "zero_location_evidence", "roots.zero_location_evidence"),
    ("polarineq.extrema", "circle_extremum", "extrema.circle_extremum"),
    ("polarineq.roots", "find_roots", "roots.find_roots"),
    ("polarineq.roots", "count_zeros_in_disk", "roots.count_zeros_in_disk"),
)
EVALUATE_BINDINGS = (
    ("polarineq.poly", "evaluate"),
    ("polarineq.inequalities", "evaluate"),
    ("polarineq.extrema", "evaluate"),
    ("polarineq.roots", "evaluate"),
)

# Layer spans reported per op: (span name, report calls, report failures).
LAYER_SPANS = (
    ("inequalities.check_inequality", True, False),
    ("inequalities.build_instance", False, False),
    ("harness.regenerate_instance", False, False),
    ("generators.random_zeros_poly_with_roots", False, False),
    ("generators.dominated_pair_with_roots", False, False),
    ("extrema.circle_extremum", True, True),
    ("roots.find_roots", True, True),
    ("roots.count_zeros_in_disk", False, True),
    ("roots.zero_location_evidence", False, False),
    ("polar.polar_chain", True, False),
)


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = [
        ("poly.evaluate.calls", "count/op"),
        ("poly.evaluate.points_per_call", "count/call"),
        ("poly.evaluate.self_s", "s/op"),
    ]
    for name, calls, failed in LAYER_SPANS:
        if calls:
            out.append((f"{name}.calls", "count/op"))
        out.append((f"{name}.self_s", "s/op"))
        if failed:
            out.append((f"{name}.failed", "count/op"))
        if name == "inequalities.check_inequality":
            out += [(f"{name}.samples", "count/op"), (f"{name}.p50_ms", "ms"),
                    (f"{name}.tail_ms", "ms")]
        if name == "roots.find_roots":
            out.append((f"{name}.wrong_verdicts", "count/op"))
    out += [
        ("harness.self_s", "s/op"),
        ("harness.threads_seen", "count"),
        ("trace.ops_per_cpu_s", "1/s"),
        ("trace.overhead_pct", "%"),
    ]
    return out


def tail(values) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it: (value, percentile).

    That is the eleventh-largest sample; with fewer than eleven samples it is
    the largest, reported as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


@contextmanager
def _patched(replacements):
    """Set ``module.attr = value`` for each entry; restore on exit."""
    saved = []
    try:
        for module, attr, value in replacements:
            mod = importlib.import_module(module)
            saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, value)
        yield
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


class LatencyProbe:
    """Per-trial time of suite trials: regenerate_instance start to check_inequality end.

    Each trial gives its wall time and its CPU time on the worker thread that
    ran it.
    """

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[list] = []

    def _buffer(self) -> list:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = []
            with self._lock:
                self._buffers.append(buf)
        return buf

    def samples_ms(self, cpu: bool) -> list[float]:
        """Time in ms of every completed trial, CPU or wall."""
        with self._lock:
            return [1000.0 * (c if cpu else w) for buf in self._buffers for w, c in buf]

    @contextmanager
    def installed(self):
        import polarineq.harness as harness

        regenerate, check = harness.regenerate_instance, harness.check_inequality
        local = self._local

        def regenerate_instance(*args, **kwargs):
            local.start, local.cpu_start = _now(), time.thread_time()
            return regenerate(*args, **kwargs)

        def check_inequality(*args, **kwargs):
            out = check(*args, **kwargs)
            self._buffer().append((_now() - local.start, time.thread_time() - local.cpu_start))
            return out

        with _patched([("polarineq.harness", "regenerate_instance", regenerate_instance),
                       ("polarineq.harness", "check_inequality", check_inequality)]):
            yield self


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None  # span_id of the enclosing span
    span_id: int
    thread: int
    op_id: int | None
    leaf_s: float  # poly.evaluate time spent directly inside this span
    failed: bool
    samples: int  # InequalityReport.samples of a check_inequality span


class _ThreadState(threading.local):
    def __init__(self):
        self.stack = []  # open spans: [span_id, name, start, op_id, leaf_seconds, parent_id]
        self.spans = None  # closed span records of this thread
        self.counter = None  # poly.evaluate [calls, points, seconds]
        self.trial_op = None


class Tracer:
    """Span and counter recorder over polarineq's module bindings."""

    def __init__(self):
        self._state = _ThreadState()
        self._lock = threading.Lock()
        self._span_buffers: list[list] = []
        self._counters: list[list] = []
        self._ids = itertools.count(1)
        self._op_ids = itertools.count(1_000_000)
        self._ambient = None  # frame of the open harness span

    # -- recording ---------------------------------------------------------
    def _thread(self) -> _ThreadState:
        st = self._state
        if st.spans is None:
            st.spans, st.counter = [], [0, 0, 0.0]
            with self._lock:
                self._span_buffers.append(st.spans)
                self._counters.append(st.counter)
        return st

    def _open(self, name: str, op_id=None):
        st = self._thread()
        parent = st.stack[-1] if st.stack else self._ambient
        parent_id = parent[0] if parent else None
        if op_id is None and parent is not None:
            if parent[1] in HARNESS_SPANS:
                # Each suite trial is one op: it starts at regenerate_instance
                # and its check_inequality runs next on the same thread.
                if name == "harness.regenerate_instance":
                    st.trial_op = next(self._op_ids)
                op_id = st.trial_op
            else:
                op_id = parent[3]
        frame = [next(self._ids), name, 0.0, op_id, 0.0, parent_id]
        st.stack.append(frame)
        if name in HARNESS_SPANS:
            # Worker threads of the harness start with an empty stack; their
            # top-level spans hang off this one.
            self._ambient = frame
        frame[2] = _now()
        return st, frame

    def _close(self, st, frame, failed: bool, samples: int = 0):
        end = _now()
        st.stack.pop()
        span_id, name, start, op_id, leaf, parent_id = frame
        if name in HARNESS_SPANS:
            self._ambient = None
        st.spans.append(Span(name, start, end, parent_id, span_id, threading.get_ident(),
                             op_id, leaf, failed, samples))

    def _span_wrapper(self, fn, name: str):
        def wrapper(*args, **kwargs):
            st, frame = self._open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self._close(st, frame, True)
                raise
            self._close(st, frame, False, getattr(out, "samples", 0))
            return out

        return wrapper

    def _evaluate_wrapper(self, fn):
        def evaluate(p, z):
            start = _now()
            out = fn(p, z)
            spent = _now() - start
            st = self._thread()
            c = st.counter
            c[0] += 1
            c[1] += getattr(z, "size", 1)
            c[2] += spent
            if st.stack:
                st.stack[-1][4] += spent
            return out

        return evaluate

    @contextmanager
    def op(self, op_id: int):
        """A benchmark op span; library spans inside it share ``op_id``."""
        st, frame = self._open(OP_SPAN, op_id=op_id)
        try:
            yield
        finally:
            self._close(st, frame, False)

    @contextmanager
    def installed(self):
        replacements = []
        for module, attr in EVALUATE_BINDINGS:
            fn = getattr(importlib.import_module(module), attr)
            replacements.append((module, attr, self._evaluate_wrapper(fn)))
        for module, attr, name in SPAN_BINDINGS:
            fn = getattr(importlib.import_module(module), attr)
            replacements.append((module, attr, self._span_wrapper(fn, name)))
        with _patched(replacements):
            yield self

    # -- reduction ---------------------------------------------------------
    def spans(self) -> list[Span]:
        with self._lock:
            return [s for buf in self._span_buffers for s in buf]

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-layer metrics normalised by ``ops`` completed ops."""
        spans = self.spans()
        children: dict[int, list[tuple[float, float]]] = {}
        for s in spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append((s.start, s.end))
        by_name: dict[str, list] = {}
        for s in spans:
            covered = _union_length(children.get(s.span_id, ()), s.start, s.end) + s.leaf_s
            by_name.setdefault(s.name, []).append((s, s.end - s.start - covered))

        per_op = 1.0 / max(ops, 1)
        with self._lock:
            calls = sum(c[0] for c in self._counters)
            points = sum(c[1] for c in self._counters)
            eval_s = sum(c[2] for c in self._counters)
        out = {
            "poly.evaluate.calls": calls * per_op,
            "poly.evaluate.points_per_call": points / calls if calls else 0.0,
            "poly.evaluate.self_s": eval_s * per_op,
        }
        for name, want_calls, want_failed in LAYER_SPANS:
            rows = by_name.get(name, [])
            if want_calls:
                out[f"{name}.calls"] = len(rows) * per_op
            out[f"{name}.self_s"] = sum(self_s for _, self_s in rows) * per_op
            if want_failed:
                out[f"{name}.failed"] = sum(1 for s, _ in rows if s.failed) * per_op
            if name == "roots.find_roots":
                out[f"{name}.wrong_verdicts"] = 0.0  # added by the workload's checks
            if name == "inequalities.check_inequality":
                dur_ms = [1000.0 * (s.end - s.start) for s, _ in rows]
                out[f"{name}.samples"] = sum(s.samples for s, _ in rows) * per_op
                out[f"{name}.p50_ms"] = statistics.median(dur_ms) if dur_ms else 0.0
                out[f"{name}.tail_ms"] = tail(dur_ms)[0]
        harness_rows = [r for n in HARNESS_SPANS for r in by_name.get(n, [])]
        out["harness.self_s"] = sum(self_s for _, self_s in harness_rows) * per_op
        out["harness.threads_seen"] = float(_peak_threads(spans))
        return out


def _union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def _peak_threads(spans) -> int:
    """Most threads at once inside library spans directly under a harness or op span."""
    top_names = set(HARNESS_SPANS) | {OP_SPAN}
    names = {s.span_id: s.name for s in spans}
    events = []
    for s in spans:
        if s.name not in top_names and names.get(s.parent) in top_names:
            events += [(s.start, 1, s.thread), (s.end, -1, s.thread)]
    active: dict[int, int] = {}
    peak = 0
    for _, step, tid in sorted(events):
        active[tid] = active.get(tid, 0) + step
        peak = max(peak, sum(1 for v in active.values() if v > 0))
    return peak
