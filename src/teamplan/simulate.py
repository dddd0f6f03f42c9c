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
and never visits a single-step or point node, with the draws, tallies
and trigger order of the node-by-node walk. The table is rebuilt on
every call, since grafting changes the tree.
"""

import itertools
import math
from bisect import bisect_right

import numpy as np

from .mdp import _integer
from .realloc import POINT, STEP, SUCCESS

# landing codes: an entry's index, WIN or LOSS, or CROSS - c for crossing c
WIN, LOSS, CROSS = -1, -2, -3


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
    """(entries, after, crossed, root): the decision table of the grafted
    tree and the landing code of chain 0's node 0.

    Entry e is (cuts, to): the running sums of its step probabilities but
    the last, and each step's landing code. Crossing c stands for the
    "chain:node" keys `crossed[c]` of the grafted points a walk passes, in
    walk order, before it lands on `after[c]`, an entry, WIN or LOSS.

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
    return entries, after, crossed, roots[id(jp.chains[0])]


def simulate(jp, runs, seed=0):
    """Roll the joint policy out `runs` times and tally outcomes.

    The standard error is the binomial sqrt(f(1-f)/runs), zero when
    every run agrees.
    """
    if _integer(runs, "runs") < 1:
        raise ValueError("need at least one run")
    entries, after, crossed, root = _decision_table(jp)
    rng = np.random.default_rng(seed)
    # drawn in blocks, used in order: the stream of one rng.random() per draw
    draw = itertools.chain.from_iterable(iter(lambda: rng.random(4096).tolist(), None)).__next__
    successes = 0
    trigger_counts = {}
    for _ in range(runs):
        at = root
        while True:
            if at >= 0:
                # the first running sum above the draw, else the last step
                cuts, to = entries[at]
                at = to[bisect_right(cuts, draw())]
            elif at == WIN:
                successes += 1
                break
            elif at == LOSS:
                break
            else:
                for key in crossed[CROSS - at]:
                    trigger_counts[key] = trigger_counts.get(key, 0) + 1
                at = after[CROSS - at]
    freq = successes / runs
    return SimReport(
        runs=runs,
        successes=successes,
        frequency=freq,
        stderr=math.sqrt(freq * (1.0 - freq) / runs),
        triggers={k: c / runs for k, c in trigger_counts.items()},
        mean_triggers=sum(trigger_counts.values()) / runs,
    )
