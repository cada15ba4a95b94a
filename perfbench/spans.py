"""In-memory span tracer that wraps public names of the program from outside.

Each wrapped call opens a span (name, round, parent, start, end) on a
stack, so nested calls get a parent link.  Self time is a span's
duration minus the durations of its direct children; calls are
synchronous and single-threaded, so children never overlap.  `restore`
puts every wrapped name back.
"""

import functools
import json
import time


class Tracer:
    def __init__(self, t0):
        self.t0 = t0
        self.round = 0
        self.spans = []
        self._stack = []
        self._saved = []

    def wrap(self, owner, attr, on_result=None):
        """Replace ``owner.attr`` with a traced call.

        ``on_result(span, result)`` may record facts about the result in
        the span and returns what the caller receives.
        """
        original = getattr(owner, attr)
        name = f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(span)
            return on_result(span, result) if on_result else result

        setattr(owner, attr, traced)
        self._saved.append((owner, attr, original))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def open(self, name):
        span = {"id": len(self.spans), "name": name, "round": self.round,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "start": time.monotonic(), "end": None}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span):
        span["end"] = time.monotonic()
        self._stack.pop()

    def self_times(self):
        """Duration minus direct children, per span id."""
        own = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def nesting_errors(self, tol=1e-9):
        """Spans whose subtree self times add up to more than the span."""
        own = self.self_times()
        subtree = dict(own)
        for s in reversed(self.spans):      # children come after parents
            if s["parent"] is not None:
                subtree[s["parent"]] += subtree[s["id"]]
        return [s["id"] for s in self.spans
                if own[s["id"]] < -tol
                or subtree[s["id"]] > s["end"] - s["start"] + tol]

    def write(self, path, meta):
        own = self.self_times()
        rows = [dict(s, start=s["start"] - self.t0, end=s["end"] - self.t0,
                     self=own[s["id"]]) for s in self.spans]
        with open(path, "w") as fh:
            json.dump(dict(meta, spans=rows), fh)


class TracedFactor:
    """Stands in for the SuperLU object so each back-solve gets a span."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, rhs, *args):
        span = self._tracer.open("fea.backsolve")
        try:
            return self._lu.solve(rhs, *args)
        finally:
            self._tracer.close(span)

    def __getattr__(self, name):
        return getattr(self._lu, name)
