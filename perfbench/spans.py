"""In-memory spans recorded around the benchmark's calls into teamplan.

A span has a name, start and end times (`perf_counter_ns`), the index of
the span open around it, the operation it belongs to, and any
counts recorded at the same boundary. Spans stay in memory until `dump`.
"""

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []
        self.run = 0
        self._open = []

    @contextmanager
    def span(self, name):
        """Time the block as `name`; yields the span's dict of counts."""
        rec = {"name": name, "run": self.run, "parent": self._open[-1] if self._open else None,
               "start_ns": time.perf_counter_ns(), "end_ns": None, "counts": {}}
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield rec["counts"]
        finally:
            self._open.pop()
            rec["end_ns"] = time.perf_counter_ns()

    def dump(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans))


def duration_ms(span):
    return (span["end_ns"] - span["start_ns"]) / 1e6


def run_totals(spans, run):
    """Per span name in mission `run`: (summed duration, summed self time) in ms.

    Self time is a span's duration minus the time its children cover. The
    children of one span run one after another, so that is the sum of
    their durations.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += duration_ms(s)
    out = {}
    for k, s in enumerate(spans):
        if s["run"] == run:
            total, own = out.get(s["name"], (0.0, 0.0))
            out[s["name"]] = (total + duration_ms(s), own + duration_ms(s) - covered[k])
    return out
