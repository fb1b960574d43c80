"""Outside-in span tracing of the skewcal modules for the benchmark's traced run.

The program is not edited. :func:`traced` replaces the module-level names
that ``harness``, ``qinfo``, ``gns`` and ``linalg`` call through, and
``DensityMatrix.to_eigenbasis``, with wrappers that record one span per call,
and puts every original back when the block ends, also on error. A span is
``(span_id, layer, parent_id, start_ns, end_ns)``; spans stay in memory and
the benchmark writes them out once at the end.

A layer's self time is the duration of its spans minus the part of each span
that its child spans cover (:func:`self_times`). The root span of a round is
``harness.loop`` around the ``run_sweep`` call itself, so its self time is the
sweep's wall time that no child layer accounts for.
"""

from __future__ import annotations

import csv
import json
import logging
import time
from collections import Counter, defaultdict
from contextlib import ExitStack, contextmanager


class Tracer:
    """In-memory span recorder for single-threaded code, plus named counters."""

    def __init__(self):
        self.spans: list[tuple[int, str, int | None, int, int]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._next_id = 0

    def wrap(self, layer: str, fn):
        """Return ``fn`` wrapped so each call records a span named ``layer``."""

        def traced_call(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans.append((span_id, layer, parent, start, end))

        return traced_call

    def calls(self) -> Counter:
        """Number of spans recorded per layer."""
        return Counter(span[1] for span in self.spans)


def covered_ns(intervals, lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` after clipping each to [lo, hi]."""
    total = 0
    run_start = run_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans) -> dict[str, int]:
    """Self time in ns per layer: span duration minus its children's coverage."""
    children = defaultdict(list)
    for _, _, parent, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    out: dict[str, int] = defaultdict(int)
    for span_id, layer, _, start, end in spans:
        out[layer] += (end - start) - covered_ns(children.get(span_id, ()), start, end)
    return dict(out)


class ClampCounter(logging.Handler):
    """Adds the round-off clamps that ``tilde_transform`` logs at DEBUG level to ``counts``."""

    def __init__(self, counts: Counter):
        super().__init__(logging.DEBUG)
        self.counts = counts

    def emit(self, record):
        if record.msg.startswith("clamped") and record.args:
            self.counts["monotone.tilde.clamps"] += int(record.args[0])


class _Proxy:
    """Forwards attribute reads to ``target`` except for the given overrides."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


def patch(stack: ExitStack, owner, name: str, value) -> None:
    """Set ``owner.name`` to ``value``; ``stack`` puts the original back on exit.

    Raises KeyError when ``owner`` does not define ``name`` itself, so a
    renamed program function stops the traced run instead of going untimed.
    """
    original = vars(owner)[name]
    setattr(owner, name, value)
    stack.callback(setattr, owner, name, original)


def _counting(fn, counts: Counter, key: str, measure):
    """``fn`` that also adds ``measure(args)`` to ``counts[key]`` on each call."""

    def call(*args, **kwargs):
        counts[key] += measure(args)
        return fn(*args, **kwargs)

    return call


# (module, name, layer) for every plain function the wrapped layers call.
TARGETS = (
    ("harness", "random_density", "linalg.sample"),
    ("harness", "random_hermitian", "linalg.sample"),
    ("linalg", "eigendecompose", "linalg.eigh"),
    ("harness", "_report_in_eigenbasis", "qinfo.report"),
    ("gns", "variance", "qinfo.direct"),
    ("gns", "covariance", "qinfo.direct"),
    ("gns", "f_information", "qinfo.direct"),
    ("gns", "f_correlation", "qinfo.direct"),
    ("gns", "centered", "qinfo.direct"),
    ("harness", "GnsModel", "gns.model"),
    ("gns", "_compute_spectrum", "gns.model"),
    ("harness", "audit_G_equals_H", "gns.audit"),
    ("gns", "form_G", "gns.forms"),
    ("gns", "form_E1", "gns.forms"),
    ("gns", "build_mu", "gns.mu"),
    ("harness", "_csv_row", "harness.serialize"),
)

# Modules that call tilde_transform through a name of their own.
TILDE_CALLERS = ("qinfo", "linalg", "gns")


@contextmanager
def traced(tracer: Tracer):
    """Wrap the skewcal layers for the duration of the block.

    Counters accumulate on ``tracer.counts``: ``monotone.tilde.elements``
    (entries passed to tilde_transform), ``monotone.tilde.clamps`` (round-off
    clamps, from a DEBUG handler on the ``skewcal.monotone`` logger) and
    ``gns.h.atom_pairs`` (size of each integrated pair measure).
    """
    from skewcal import gns, harness, linalg, qinfo

    modules = {"harness": harness, "linalg": linalg, "qinfo": qinfo, "gns": gns}
    with ExitStack() as stack:
        for module, name, layer in TARGETS:
            owner = modules[module]
            patch(stack, owner, name, tracer.wrap(layer, vars(owner)[name]))
        for module in TILDE_CALLERS:
            owner = modules[module]
            count = _counting(
                vars(owner)["tilde_transform"],
                tracer.counts,
                "monotone.tilde.elements",
                lambda args: int(getattr(args[1], "size", 1)),
            )
            patch(stack, owner, "tilde_transform", tracer.wrap("monotone.tilde", count))
        count = _counting(
            vars(gns)["h_from_measure"],
            tracer.counts,
            "gns.h.atom_pairs",
            lambda args: int(args[0].weights.size),
        )
        patch(stack, gns, "h_from_measure", tracer.wrap("gns.h", count))
        patch(
            stack,
            linalg.DensityMatrix,
            "to_eigenbasis",
            tracer.wrap("linalg.rotate", vars(linalg.DensityMatrix)["to_eigenbasis"]),
        )
        patch(
            stack,
            harness,
            "json",
            _Proxy(json, dumps=tracer.wrap("harness.serialize", json.dumps)),
        )

        def traced_writer(*args, **kwargs):
            writer = csv.writer(*args, **kwargs)
            return _Proxy(writer, writerow=tracer.wrap("harness.serialize", writer.writerow))

        patch(stack, harness, "csv", _Proxy(csv, writer=traced_writer))

        logger = logging.getLogger("skewcal.monotone")
        handler = ClampCounter(tracer.counts)
        stack.callback(logger.setLevel, logger.level)
        stack.callback(logger.removeHandler, handler)
        logger.addHandler(handler)
        logger.setLevel(logging.DEBUG)
        yield
