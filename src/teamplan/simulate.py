"""Seeded Monte Carlo execution of joint policies.

Each rollout walks the grafted chain tree from the root: step nodes
sample one listed successor, reallocation points descend into their
grafted continuation (counting a trigger) or, if none was grafted, end
the run as a failure, matching how the analytical guarantee prices
unaddressed points.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .realloc import POINT, STEP, SUCCESS


@dataclass
class SimReport:
    runs: int
    successes: int
    frequency: float
    stderr: float
    triggers: dict = field(default_factory=dict)  # "chain:node" -> trigger frequency
    mean_triggers: float = 0.0

    def to_dict(self):
        return {
            "runs": self.runs,
            "successes": self.successes,
            "frequency": self.frequency,
            "stderr": self.stderr,
            "mean_triggers": self.mean_triggers,
            "triggers": dict(sorted(self.triggers.items())),
        }


def simulate(jp, runs, seed=0):
    """Roll the joint policy out `runs` times and tally outcomes.

    The standard error is the binomial sqrt(f(1-f)/runs), zero when
    every run agrees.
    """
    if runs < 1:
        raise ValueError("need at least one run")
    rng = np.random.default_rng(seed)
    # drawn in blocks, used in order: the stream of one rng.random() per draw
    draws, used = [], 0
    chain_index = {id(c): k for k, c in enumerate(jp.chains)}
    successes = 0
    total_triggers = 0
    trigger_counts = {}
    for _ in range(runs):
        chain = jp.chains[0]
        i = 0
        while True:
            nd = chain.nodes[i]
            if nd.kind == SUCCESS:
                successes += 1
                break
            if nd.kind == POINT:
                if nd.child is None:
                    break
                key = f"{chain_index[id(chain)]}:{i}"
                trigger_counts[key] = trigger_counts.get(key, 0) + 1
                total_triggers += 1
                chain = nd.child
                i = 0
                continue
            if nd.kind != STEP or not nd.steps:
                break  # violated, dead, or degenerate: the mission is lost
            if len(nd.steps) == 1:
                i = nd.steps[0][1]
                continue
            if used == len(draws):
                draws, used = rng.random(4096).tolist(), 0
            u = draws[used]
            used += 1
            acc = 0.0
            i = nd.steps[-1][1]
            for p, j in nd.steps:
                acc += p
                if u < acc:
                    i = j
                    break
    freq = successes / runs
    return SimReport(
        runs=runs,
        successes=successes,
        frequency=freq,
        stderr=math.sqrt(freq * (1.0 - freq) / runs),
        triggers={k: c / runs for k, c in trigger_counts.items()},
        mean_triggers=total_triggers / runs,
    )
