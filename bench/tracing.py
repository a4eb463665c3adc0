"""Spans recorded from outside the library by rebinding its module-level names.

Every layer of bowendim calls the next one through a module-global name
(``dimension.pressure`` calls ``best_ratio_estimate`` through the
``dimension`` module, ``_grow`` calls ``preimage_arrays`` through the
``transfer`` module, and so on).  Replacing those names with wrappers that
open and close a span traces the whole call tree without editing a file of
the library; ``Rebinding.restore`` puts every original object back.
"""

from __future__ import annotations

import inspect
import math
import statistics
import threading
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float = math.nan
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """In-memory span store with one parent stack per thread.

    A span opened on a thread with no open span of its own (a sweep worker)
    is parented to the innermost span open on the thread that created the
    tracer, which is the thread that submitted the work.
    """

    def __init__(self):
        self.spans = []
        self._lock = threading.Lock()
        self._stacks = {}
        self._home = threading.get_ident()

    def open(self, name):
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            source = stack or self._stacks.get(self._home, [])
            parent = source[-1].id if source else None
            span = Span(len(self.spans), name, parent, tid, time.perf_counter())
            self.spans.append(span)
            stack.append(span)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        with self._lock:
            stack = self._stacks[span.thread]
            if not stack or stack[-1] is not span:
                raise RuntimeError(f"span {span.name} closed out of order")
            stack.pop()

    def named(self, name):
        return [s for s in self.spans if s.name == name]

    def total(self, name):
        return float(sum(s.duration for s in self.named(name)))

    def self_time(self, name):
        """Summed duration of `name` spans minus that of their direct children."""
        child_time = {}
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
        return float(sum(s.duration - child_time.get(s.id, 0.0)
                         for s in self.named(name)))

    def median(self, name):
        durs = [s.duration for s in self.named(name)]
        return float(statistics.median(durs)) if durs else 0.0

    def attr_sum(self, name, key):
        return sum(s.attrs.get(key, 0) for s in self.named(name))

    def to_json(self):
        return [{"id": s.id, "name": s.name, "parent": s.parent,
                 "thread": s.thread, "start": s.start, "end": s.end,
                 "attrs": s.attrs} for s in self.spans]


def _preimage_counts(original):
    """Counter for preimage_arrays: pairs from the arguments, roots and misses
    from the result."""
    sig = inspect.signature(original)

    def count(args, kwargs, out):
        bound = sig.bind(*args, **kwargs)
        targets = np.atleast_1d(np.asarray(bound.arguments["targets"]))
        kmax = np.broadcast_to(np.asarray(bound.arguments["kmax"], dtype=np.int64),
                               targets.shape)
        return {"pairs": int((2 * kmax + 1).sum()), "roots": int(out[0].size),
                "misses": int(out[4].size) if len(out) == 6 else 0}
    return count


def _record_uncertainty(original):
    def count(args, kwargs, out):
        return {"uncertainty": float(out.uncertainty)}
    return count


# (module, attribute, span name, counter factory): the layer boundaries.
BOUNDARIES = (
    ("sweep", "sweep_dimension", "sweep.sweep_dimension", None),
    ("sweep", "bowen_dimension", "sweep.cell", _record_uncertainty),
    ("dimension", "bowen_dimension", "dimension.bowen_dimension", _record_uncertainty),
    ("dimension", "pressure", "dimension.pressure", None),
    ("dimension", "best_ratio_estimate", "dimension.best_ratio_estimate", None),
    ("transfer", "transfer_level_sums", "transfer.transfer_level_sums", None),
    ("transfer", "_sup_l1_probe", "transfer.sup_probe", None),
    ("transfer", "preimage_arrays", "preimages.preimage_arrays", _preimage_counts),
    ("preimages", "preimage_arrays", "preimages.preimage_arrays", _preimage_counts),
    ("preimages", "preimages", "preimages.preimages", None),
    ("cylinder", "classify_window", "cylinder.classify_window", None),
)


class Rebinding:
    """Installs span wrappers on the library's module-level names.

    Use as a context manager; on exit every name is restored and
    `restored` records whether each module attribute is again the very
    object that was there before.
    """

    def __init__(self, package, tracer):
        self.package = package
        self.tracer = tracer
        self.saved = []
        self.restored = False

    def _wrap(self, original, name, counter):
        tracer = self.tracer

        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                out = original(*args, **kwargs)
            finally:
                tracer.close(span)
            if counter is not None:
                span.attrs.update(counter(args, kwargs, out))
            return out
        return traced

    def __enter__(self):
        try:
            for mod_name, attr, name, counter in BOUNDARIES:
                module = getattr(self.package, mod_name)
                original = getattr(module, attr)
                self.saved.append((module, attr, original))
                setattr(module, attr, self._wrap(
                    original, name, counter(original) if counter else None))
        except BaseException:
            self.restore()
            raise
        return self

    def restore(self):
        for module, attr, original in reversed(self.saved):
            setattr(module, attr, original)
        self.restored = all(getattr(module, attr) is original
                            for module, attr, original in self.saved)

    def __exit__(self, *exc):
        self.restore()
        return False
