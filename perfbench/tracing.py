"""In-memory spans and counters for the traced benchmark run.

A span records its name, start, end, parent span and op id. A layer's
self time is its span's duration minus the time its child spans cover.
The untraced run uses `NullTracer`, whose spans cost one attribute
lookup and a no-op context manager.

`instrument` wraps the functions `solver.solve_2bilinear` looks up as
attributes of `bikoszul.solver`, plus `ThetaPartition.apply`, for the
duration of a `with` block. Nothing under `src/` is modified on disk.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

from bikoszul import koszul, solver
from bikoszul.exactlinalg import SingularMatrixError
from bikoszul.solver import ExtractionError

# attribute of bikoszul.solver -> span (layer) name
SOLVER_HOOKS = {
    "random_coordinate_change": "core.coordinate_change",
    "apply_coordinate_change": "core.coordinate_change",
    "assemble_delta1": "koszul.assemble",
    "specialize": "koszul.specialize",
    "theta_partition": "koszul.theta_partition",
    "schur_complement": "exactlinalg.schur",
    "to_float": "exactlinalg.to_float",
    "eigen_schur": "solver.eigen",
    "extend_eigenvector": "solver.extend",
    "extract_xy": "solver.extract",
    "solve_z": "solver.solve_z",
    "residual": "solver.residual",
}

# a hooked call that raises one of these counts one failed solve attempt
FAILURE_COUNTERS = {
    "schur_complement": (SingularMatrixError, "solver.failed_singular"),
    "extract_xy": (ExtractionError, "solver.failed_extraction"),
    "solve_z": (ExtractionError, "solver.failed_extraction"),
}


class NullTracer:
    """Records nothing; used for the untraced (end-to-end) passes."""

    enabled = False
    op = None

    def span(self, name):
        return nullcontext()

    def add(self, name, value):
        pass

    def maximum(self, name, value):
        pass


class Tracer:
    """Spans and counters of one phase (a set-up repetition or a pass)."""

    enabled = True

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # (id, name, start, end, parent id, op)
        self.counts = defaultdict(float)
        self.op = None
        self._stack = []

    @contextmanager
    def span(self, name):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)  # reserve the id; filled in on exit
        self._stack.append(span_id)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans[span_id] = (span_id, name, start, end, parent, self.op)

    def add(self, name, value):
        self.counts[name] += value

    def maximum(self, name, value):
        self.counts[name] = max(self.counts[name], value)

    def self_times(self, scale=None) -> dict:
        """Summed self time per span name, in seconds; a span of op `op`
        counts `scale[op]` times its duration when scale is given."""
        child = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for span_id, name, start, end, _, op in self.spans:
            out[name] += ((end - start) - child[span_id]) * (scale[op] if scale else 1.0)
        return dict(out)


def _hook(tracer, name, fn, failure=None, after=None):
    fails, counter = failure or ((), None)

    @functools.wraps(fn)
    def hooked(*args, **kwargs):
        try:
            with tracer.span(name):
                out = fn(*args, **kwargs)
        except fails:
            tracer.add(counter, 1)
            raise
        if after is not None:
            after(out)
        return out

    return hooked


def _schur_bits(tracer):
    def record(schur):
        bits = max((abs(e.numerator).bit_length() + e.denominator.bit_length()
                    for row in schur.rows for e in row), default=0)
        tracer.maximum("exactlinalg.schur_entry_bits_max", bits)

    return record


@contextmanager
def instrument(tracer):
    """Route the solver's layer calls and `ThetaPartition.apply` through spans."""
    saved = {attr: getattr(solver, attr) for attr in SOLVER_HOOKS}
    saved_apply = koszul.ThetaPartition.apply
    try:
        for attr, name in SOLVER_HOOKS.items():
            after = _schur_bits(tracer) if attr == "schur_complement" else None
            setattr(solver, attr, _hook(tracer, name, saved[attr],
                                        FAILURE_COUNTERS.get(attr), after))
        koszul.ThetaPartition.apply = _hook(tracer, "koszul.permute", saved_apply)
        yield tracer
    finally:
        for attr, fn in saved.items():
            setattr(solver, attr, fn)
        koszul.ThetaPartition.apply = saved_apply
