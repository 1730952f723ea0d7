"""Span recorder that times relaymatch's public functions from outside.

A span is recorded around each call of a wrapped module attribute: its
name, start, end, the span open when it began (its parent) and the unit of
work it belongs to. Spans are kept in flat lists while the run goes on and
are only read when it ends, so recording one costs two clock reads and a
few appends.
"""

from __future__ import annotations

import functools
import json
import os
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.units = []
        self.attrs = {}          # span index -> count measured from the call
        self.unit = -1           # set by the runner before each unit of work
        self.active = True
        self._stack = []
        self._restore = []
        # Pool workers forked while tracing is on keep the wrappers; spans
        # are recorded in the parent process only.
        os.register_at_fork(after_in_child=self._stop)

    def _stop(self):
        self.active = False

    def wrap(self, module, attr, name, measure=None):
        """Replace module.attr by a wrapper recording a span named `name`.

        `measure(args, kwargs, result)` may return a count stored with the
        span; it runs after the span has closed.
        """
        fn = getattr(module, attr)
        names, starts, ends = self.names, self.starts, self.ends
        parents, units, stack = self.parents, self.units, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            units.append(self.unit)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if measure is not None:
                self.attrs[idx] = measure(args, kwargs, result)
            return result

        setattr(module, attr, wrapper)
        self._restore.append((module, attr, fn))

    def unwrap_all(self):
        self.active = False
        while self._restore:
            module, attr, fn = self._restore.pop()
            setattr(module, attr, fn)

    def summary(self, units=None) -> dict:
        """Per span name: calls, total and self seconds, and summed counts.

        Self time is a span's duration minus the time of its direct child
        spans. A run_pma span opened inside run_many_to_one is reported
        under "solvers.run_pma/many_to_one", so that the PMA solver and
        the single-radio baseline are kept apart. `units`, if given,
        restricts the summary to spans of those units of work.
        """
        n = len(self.names)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        out = {}
        for i in range(n):
            if units is not None and self.units[i] not in units:
                continue
            name = self.names[i]
            p = self.parents[i]
            if (name == "solvers.run_pma" and p >= 0
                    and self.names[p] == "solvers.run_many_to_one"):
                name = "solvers.run_pma/many_to_one"
            s = out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0,
                                      "count": 0})
            dur = self.ends[i] - self.starts[i]
            s["calls"] += 1
            s["total"] += dur
            s["self"] += dur - child[i]
            s["count"] += self.attrs.get(i, 0)
        return out

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({"name": name, "start": self.starts[i],
                                     "end": self.ends[i],
                                     "parent": self.parents[i],
                                     "unit": self.units[i]}) + "\n")
