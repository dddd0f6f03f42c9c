"""Seeded Monte Carlo execution of joint policies.

A rollout walks the grafted chain tree from the root: step nodes sample
one listed successor, reallocation points descend into their grafted
continuation (counting a trigger) or, if none was grafted, end the run
as a failure, matching how the analytical guarantee prices unaddressed
points.

Each call first compiles the tree into a decision table, one entry per
step node with two or more steps. An entry holds its cumulative
thresholds and, for each step, where the walk lands after following
single-step nodes and grafted points (the next entry, success or loss)
and the points crossed on the way. A rollout takes one uniform per entry
and never visits a single-step or point node. The table is rebuilt on
every call, since grafting changes the tree.

The rollouts read one stream of draws, the stream of one `rng.random()`
per draw (a block filled by `rng.random(out=...)` takes the same values
in the same order). Each draw moves the walk from its entry to the next,
and back to the root entry after a success or loss, so the rollouts are
one finite automaton run over the stream. It runs data-parallel by
speculation and repair (Mytkowicz, Musuvathi and Schulte, "Data-parallel
finite-state machines", ASPLOS 2014). A block of the stream is cut into
`SEGMENTS` segments of `SEGMENT` draws, walked in lockstep, one numpy
pass per draw column. The first segment starts where the last block
ended, every other one where a walk from the root `LEAD` draws earlier
stands. A segment entered elsewhere is walked again from its true entry,
in lockstep with the other repairs, until it stands where its stored
walk stood after the same draw (from there on the two agree); past its
end the repair goes on into the next segment. Each draw then lands where
the run-by-run walk lands it. The tallies are read once per block from
the stored landings and cut after the `runs`-th rollout, and the
triggers are ordered by the draw that first crossed them, so the report
is that of rolling out one run after another.
"""

import itertools
import math

import numpy as np

from .mdp import _integer
from .realloc import POINT, STEP, SUCCESS

# landing codes: an entry's index, WIN or LOSS, or CROSS - c for crossing c
WIN, LOSS, CROSS = -1, -2, -3
# a block of draws is SEGMENTS segments of SEGMENT draws (512 KiB of
# float64), each segment speculatively entered by a walk of LEAD draws
SEGMENTS, SEGMENT, LEAD = 1024, 64, 32


class SimReport:
    def __init__(self, runs, successes, frequency, stderr, triggers=None, mean_triggers=0.0):
        self.runs = runs
        self.successes = successes
        self.frequency = frequency
        self.stderr = stderr
        self.triggers = {} if triggers is None else triggers  # "chain:node" -> trigger frequency
        self.mean_triggers = mean_triggers

    def to_dict(self):
        return {
            "runs": self.runs,
            "successes": self.successes,
            "frequency": self.frequency,
            "stderr": self.stderr,
            "mean_triggers": self.mean_triggers,
            "triggers": dict(sorted(self.triggers.items())),
        }


def _decision_table(jp):
    """(cut, to, via, crossed, root, start): the decision table of the
    grafted tree, one row per entry padded to a common number of steps.

    `cut[e, k]` is entry e's k-th running sum of step probabilities
    (infinite past its last but one). Step b of entry e goes to
    `to[e, b]`, an entry, WIN or LOSS, crossing first `via[e, b]` (-1 for
    none). Crossing c stands for the "chain:node" keys `crossed[c]` of the
    grafted points a walk passes, in walk order. Every rollout crosses
    `root` (a crossing, or -1 for none) and then stands at `start`, an
    entry, WIN or LOSS.

    One backward pass per chain, last chain first: steps point forward
    within a chain and children to later chains, so every landing a node
    needs is known when the node is reached."""
    chain_index = {id(c): k for k, c in enumerate(jp.chains)}
    entries, after, crossed = [], [], []
    roots = {}
    for chain in reversed(jp.chains):
        nodes = chain.nodes
        land = [LOSS] * len(nodes)  # violated, dead, degenerate or ungrafted: the mission is lost
        for i in range(len(nodes) - 1, -1, -1):
            nd = nodes[i]
            if nd.kind == SUCCESS:
                land[i] = WIN
            elif nd.kind == POINT and nd.child is not None:
                to, keys = roots[id(nd.child)], (f"{chain_index[id(chain)]}:{i}",)
                if to <= CROSS:  # the child's root crosses points of its own
                    c = CROSS - to
                    to, keys = after[c], keys + crossed[c]
                land[i] = CROSS - len(after)
                after.append(to)
                crossed.append(keys)
            elif nd.kind == STEP and len(nd.steps) == 1:
                land[i] = land[nd.steps[0][1]]
            elif nd.kind == STEP and nd.steps:
                land[i] = len(entries)
                cuts = list(itertools.accumulate(p for p, _ in nd.steps))
                entries.append((cuts[:-1], [land[j] for _, j in nd.steps]))
        roots[id(chain)] = land[0]
    width = max((len(steps) for _, steps in entries), default=1)
    cut = np.full((len(entries), width), np.inf)
    to = np.full((len(entries), width), LOSS, np.intp)
    via = np.full((len(entries), width), -1, np.intp)
    for e, (cuts, steps) in enumerate(entries):
        cut[e, : len(cuts)] = cuts
        for b, code in enumerate(steps):
            if code <= CROSS:  # crossings resolved ahead of time
                via[e, b], code = CROSS - code, after[CROSS - code]
            to[e, b] = code
    root = roots[id(jp.chains[0])]
    if root <= CROSS:
        return cut, to, via, crossed, CROSS - root, after[CROSS - root]
    return cut, to, via, crossed, -1, root


def _walk(at, u, cut, width):
    """The landing ids of draws `u` taken at entries whose first landing
    ids are `at`: that id plus the number of the entry's running sums at
    or below the draw, as `bisect_right` counts them."""
    ids = at + (u >= cut[at])
    for k in range(1, width - 1):
        ids += u >= cut[at + k]
    return ids


def _landings(cut, to, via, start, runs, rng):
    """(counts, first): for each step of the table, how often the draws
    of the first `runs` rollouts land on it and, if it crosses points, the
    stream position of its first landing.

    The walk runs over the table flattened: step b of entry e is landing
    id e * width + b, and a walk stands at its entry's first landing id,
    `nxt[i]` after landing on i (the start after a rollout ends)."""
    width = cut.shape[1]
    cut, to, watch, start = cut.ravel(), to.ravel(), via.ravel() >= 0, start * width
    nxt, ends = np.where(to >= 0, to * width, start), to < 0
    counts = np.zeros(len(cut), np.int64)
    first = np.full(len(cut), np.iinfo(np.int64).max)
    draws = np.empty((SEGMENTS, SEGMENT))
    lands = np.empty((SEGMENTS, SEGMENT), np.intp)
    last, done = start, 0
    for base in itertools.count(0, draws.size):
        rng.random(out=draws)
        # segment p > 0 is entered where a walk from the root over segment
        # p - 1's last LEAD draws stands, the first where the last block ended
        at = np.full(SEGMENTS - 1, start)
        for j in range(SEGMENT - LEAD, SEGMENT):
            at = nxt[_walk(at, draws[:-1, j], cut, width)]
        entered = at = np.concatenate(([last], at))
        for j in range(SEGMENT):
            lands[:, j] = ids = _walk(at, draws[:, j], cut, width)
            at = nxt[ids]
        # repair each segment entered elsewhere than speculated, from where
        # the walk before it ends; a repair still apart from the stored walk
        # at a segment's end goes on into the next segment, whose stored
        # walk (or its own repair) started from the stored end
        seg = np.flatnonzero(at[:-1] != entered[1:]) + 1
        at, j = at[seg - 1], 0
        while seg.size:
            was = nxt[lands[seg, j]]
            lands[seg, j] = ids = _walk(at, draws[seg, j], cut, width)
            at = nxt[ids]
            go = at != was  # the stored walk stands elsewhere after this draw
            seg, at, j = seg[go], at[go], j + 1
            if j == SEGMENT:
                go = seg < SEGMENTS - 1
                seg, at, j = seg[go] + 1, at[go], 0
        last = nxt[lands[-1, -1]]
        order = lands.ravel()
        n = np.bincount(order, minlength=len(cut))
        left = runs - done
        done += int(n[ends].sum())
        if done >= runs:  # cut after the runs-th rollout
            order = order[: np.flatnonzero(ends[order])[left - 1] + 1]
            n = np.bincount(order, minlength=len(cut))
        counts += n
        new = watch & (n > 0)
        if new.any():
            pos = np.flatnonzero(new[order])
            np.minimum.at(first, order[pos], base + pos)
            watch &= ~new
        if done >= runs:
            return counts.reshape(via.shape), first.reshape(via.shape)


def simulate(jp, runs, seed=0):
    """Roll the joint policy out `runs` times and tally outcomes.

    The standard error is the binomial sqrt(f(1-f)/runs), zero when
    every run agrees.
    """
    if _integer(runs, "runs") < 1:
        raise ValueError("need at least one run")
    cut, to, via, crossed, root, start = _decision_table(jp)
    rng = np.random.default_rng(seed)
    successes = runs if start == WIN else 0
    tally = {} if root < 0 else {root: (-1, runs)}  # crossing -> (first draw, count)
    if start >= 0:
        counts, first = _landings(cut, to, via, start, runs, rng)
        successes = int(counts[to == WIN].sum())
        hit = (via >= 0) & (counts > 0)
        for c, n, f in zip(via[hit].tolist(), counts[hit].tolist(), first[hit].tolist()):
            at, m = tally.get(c, (f, 0))
            tally[c] = (min(at, f), m + n)
    trigger_counts = {}
    for c in sorted(tally, key=lambda c: tally[c][0]):  # in the order the walk first crosses them
        for key in crossed[c]:
            trigger_counts[key] = trigger_counts.get(key, 0) + tally[c][1]
    freq = successes / runs
    return SimReport(
        runs=runs,
        successes=successes,
        frequency=freq,
        stderr=math.sqrt(freq * (1.0 - freq) / runs),
        triggers={k: c / runs for k, c in trigger_counts.items()},
        mean_triggers=sum(trigger_counts.values()) / runs,
    )
