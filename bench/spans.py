"""Spans and counts recorded around the benchmark's calls into beziermask.

Spans are kept in memory, one list per run, and written out at the end.
A span belongs to the item that was running when it opened (None during
set-up) and to the span that was open around it.
"""

import statistics
import time
import tracemalloc
from contextlib import contextmanager
from functools import wraps


class Tracer:
    def __init__(self):
        self.item = None
        self.spans = []    # [item, name, parent index or None, start ns, end ns]
        self.counts = {}   # item -> {name: value}
        self._open = []

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        record = [self.item, name, self._open[-1] if self._open else None,
                  time.perf_counter_ns(), None]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            record[4] = time.perf_counter_ns()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def wrap(self, name, fn, after=None):
        """fn with a span around each call; after(result, *args), if
        given, runs once the span has closed."""
        @wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if after is not None:
                after(result, *args)
            return result
        return traced

    @contextmanager
    def bound(self, bindings):
        """For the duration, each (module, attribute, span name[, after])
        in bindings is replaced by a span-recording wrapper, so a public
        composite called inside records spans around the steps it looks
        up there. The originals are restored afterwards."""
        saved = []
        try:
            for module, attr, name, *after in bindings:
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(name, fn, *after))
            yield
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def count(self, name, value):
        per_item = self.counts.setdefault(self.item, {})
        per_item[name] = per_item.get(name, 0) + value

    def per_item_ms(self, name, items):
        """Milliseconds spent in spans called `name`, summed per item."""
        total = dict.fromkeys(items, 0)
        for item, span_name, _, start, end in self.spans:
            if span_name == name and item in total:
                total[item] += end - start
        return [v / 1e6 for v in total.values()]

    def setup_ms(self, name):
        """Milliseconds of each set-up call of `name`."""
        return [(end - start) / 1e6 for item, n, _, start, end in self.spans
                if n == name and item is None]

    def top_level_ms(self, items, exclude=()):
        """Per item, the summed duration of its outermost spans."""
        total = dict.fromkeys(items, 0)
        for item, name, parent, start, end in self.spans:
            if parent is None and item in total and name not in exclude:
                total[item] += end - start
        return [v / 1e6 for v in total.values()]

    def per_item_count(self, name, items):
        return [self.counts.get(item, {}).get(name, 0) for item in items]

    def dump(self):
        return {"spans": self.spans,
                "counts": {str(k): v for k, v in self.counts.items()}}


class NullTracer:
    """Stand-in for untraced runs: calls straight through."""

    item = None

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, value):
        pass


def peak_mb(fn, *args):
    """Peak traced allocation, in MB, of one call."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def median(values):
    return statistics.median(values) if values else 0.0
