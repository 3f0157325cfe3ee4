"""Span recording for the traced benchmark run.

One span per item and one per public library call the benchmark makes,
parented by the item that made it; spans of one item share its id.  The
benchmark calls no library internals and the library records nothing
itself, so a call span has no children and its self time is its whole
duration.  Aggregates (calls, busy time, errors by class,
the log-log size fit) are kept exactly; the raw spans are kept in memory
up to ``SPAN_CAP`` and written out when the run ends.
"""

from __future__ import annotations

import math
from collections import Counter
from time import perf_counter

SPAN_CAP = 50_000
SPAN_FIELDS = ("item", "name", "size", "start_s", "end_s", "error")


class Direct:
    """The untraced pass: calls go straight through and nothing is kept."""

    @staticmethod
    def call(name, size, fn, *args):
        return fn(*args)

    def item(self, size, t0, t1):
        pass


class Tracer:
    """The traced pass: a span per ``call``, parented by the item that
    made it, and a span per item, closed by ``item``."""

    def __init__(self):
        self.item_id = 0
        self.item_s = 0.0
        self.spans = []
        self.dropped = 0
        self.calls = Counter()
        self.busy_s = Counter()
        self.errors = Counter()  # (name, exception class) -> count
        self.fit = {}  # name -> [count, sum x, sum y, sum xx, sum xy]

    def call(self, name, size, fn, *args):
        t0 = perf_counter()
        error = None
        try:
            return fn(*args)
        except Exception as exc:
            error = type(exc).__name__
            raise
        finally:
            t1 = perf_counter()
            self._record(name, size, t0, t1, error)

    def item(self, size, t0, t1):
        self.item_s += t1 - t0
        self._keep((self.item_id, "item", size, t0, t1, None))
        self.item_id += 1

    def _keep(self, span):
        if len(self.spans) < SPAN_CAP:
            self.spans.append(span)
        else:
            self.dropped += 1

    def _record(self, name, size, t0, t1, error):
        dt = t1 - t0
        self.calls[name] += 1
        self.busy_s[name] += dt
        if error is not None:
            self.errors[name, error] += 1
        if dt > 0.0 and size > 0:
            x, y = math.log(size), math.log(dt)
            acc = self.fit.setdefault(name, [0, 0.0, 0.0, 0.0, 0.0])
            acc[0] += 1
            acc[1] += x
            acc[2] += y
            acc[3] += x * x
            acc[4] += x * y
        self._keep((self.item_id, name, size, t0, t1, error))

    def exponent(self, name) -> float:
        """Least-squares slope of log(call time) on log(size); 0 when the
        run made fewer than two calls of distinct size."""
        n, sx, sy, sxx, sxy = self.fit.get(name, (0, 0.0, 0.0, 0.0, 0.0))
        var = n * sxx - sx * sx
        if n < 2 or var <= 1e-12 * max(1.0, n * sxx):
            return 0.0
        return (n * sxy - sx * sy) / var

    def dump(self) -> dict:
        """Everything recorded, in a JSON-ready form."""
        return {
            "fields": SPAN_FIELDS,
            "spans": self.spans,
            "spans_dropped": self.dropped,
            "calls": dict(self.calls),
            "busy_s": dict(self.busy_s),
            # item time the library calls do not cover: the benchmark's glue
            "item_self_s": self.item_s - sum(self.busy_s.values()),
            "errors": [{"function": name, "class": cls, "count": count}
                       for (name, cls), count in sorted(self.errors.items())],
        }
