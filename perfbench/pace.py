"""How fast the host runs right now, gauged by a fixed reference computation.

On a shared host the speed a process gets swings by a fifth or more, over
spans from a fraction of a second to minutes, with neighbours' load, while
the ratio between two pieces of CPU work stays within a few percent. So every timed call is bracketed by
gauges: a fixed pure-Python computation shaped like teamplan's layers (a
breadth-first product exploration building tuple-keyed states and choice
records, then Bellman sweeps over it) whose nominal duration is `REF_S`.
A call's paced time is its wall time times `REF_S` over the median of the
gauges just before, during and just after it: the seconds it would take
on a host that runs the reference in `REF_S`. The gauge never touches
teamplan, so any change to teamplan moves paced and wall time alike.
"""

import gc
import random
import signal
import statistics
import time
from collections import deque, namedtuple
from dataclasses import dataclass

REF_S = 0.007  # nominal seconds of one reference unit
UNITS = 3  # a gauge is the median of this many units, so one preempted unit is ignored
FRESH_S = 0.001  # a gauge this recent still describes the host before the next call
# A call lasting seconds outlives the host's faster swings, so a unit also
# runs inside it, from a SIGALRM handler, this often; the call's wall time
# is taken net of them.
INSIDE_S = 0.25

_Choice = namedtuple("_Choice", ["action", "outcomes"])


def _reference_map(nodes=40, seed=20180307):
    """A fixed random map: successors, failure nodes and task labels."""
    rng = random.Random(seed)  # fixed: the reference is the same computation everywhere
    succ = [rng.sample(range(nodes), 3) for _ in range(nodes)]
    fail = frozenset(rng.sample(range(nodes), nodes // 8))
    task = {v: k for k, v in enumerate(rng.sample(range(nodes), 4))}
    return succ, fail, task


def _timed_unit(ref):
    """Seconds of one `_unit`, with the collector held off so that it does
    not collect the caller's garbage on the unit's clock."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _unit(ref)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def _unit(ref):
    """Explore the product of the map with a 4-task automaton (tuple-keyed
    states, choice records) and run three Bellman sweeps over it; the
    mix of allocation, hashing and float work teamplan's layers do."""
    succ, fail, task = ref
    done = (1 << len(task)) - 1
    index = {(0, 0): 0}
    states = [(0, 0)]
    choices = []
    queue = deque(states)
    while queue:
        u, q = queue.popleft()
        row = []
        for a, v in enumerate(succ[u]):
            q2 = q | (1 << task[v]) if v in task else q
            outcomes = []
            for t, p in (((v, q2), 0.9), ((-1, q), 0.1)) if v in fail else (((v, q2), 1.0),):
                if t not in index:
                    index[t] = len(states)
                    states.append(t)
                    if t[0] >= 0:
                        queue.append(t)
                outcomes.append((index[t], p))
            row.append(_Choice(a, tuple(outcomes)))
        choices.append(row)
    choices += [[] for _ in range(len(states) - len(choices))]
    values = [1.0 if u >= 0 and q == done else 0.0 for u, q in states]
    for _ in range(3):
        for s, row in enumerate(choices):
            best = values[s]
            for c in row:
                v = sum(p * values[t] for t, p in c.outcomes)
                if v > best:
                    best = v
            values[s] = best


@dataclass(frozen=True)
class Timing:
    elapsed_s: float  # wall time of the call, the gauges taken inside it included
    before: float  # gauge just before the call, in seconds
    after: float  # gauge just after it
    inside: tuple = ()  # (offset into the call, seconds) of each unit run inside it

    @property
    def wall_s(self):
        """The call's own wall time: elapsed, less the units run inside it."""
        return self.elapsed_s - sum(d for _, d in self.inside)

    @property
    def paced_s(self):
        return self.paced_lead(self.elapsed_s)

    def paced_lead(self, seconds):
        """Pace the first `seconds` of the call, read off the wall clock with
        the units run inside it included: less those units, by the median
        of the gauges from just before the span to just after it (the
        median, so that a unit preempted once does not stand for the span)."""
        inside = [d for off, d in self.inside if off < seconds]
        later = [d for off, d in self.inside if off >= seconds]
        gauges = [self.before, *inside, later[0] if later else self.after]
        return (seconds - sum(inside)) * REF_S / statistics.median(gauges)


class Pacer:
    def __init__(self):
        self._ref = _reference_map()
        self._last = None  # (gauge seconds, perf_counter when it ended)
        self.gauges = []  # every gauge taken, for the report

    def gauge(self):
        """Seconds of one reference unit on the host now (median of `UNITS`)."""
        g = statistics.median(_timed_unit(self._ref) for _ in range(UNITS))
        self._last = (g, time.perf_counter())
        self.gauges.append(g)
        return g

    def time(self, fn, *args, **kwargs):
        """Call `fn` between two gauges, running one reference unit inside it
        every `INSIDE_S`; returns (its result, Timing)."""
        if self._last is not None and time.perf_counter() - self._last[1] < FRESH_S:
            before = self._last[0]
        else:
            before = self.gauge()
        inside = []

        def unit_inside(signum, frame):
            inside.append((time.perf_counter() - t0, _timed_unit(self._ref)))

        previous = signal.signal(signal.SIGALRM, unit_inside)
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INSIDE_S, INSIDE_S)
        try:
            out = fn(*args, **kwargs)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - t0
            signal.signal(signal.SIGALRM, previous)
        after = self.gauge()
        return out, Timing(elapsed, before, after, tuple(inside))
