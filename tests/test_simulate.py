"""Monte Carlo rollouts against the analytical guarantees they sample."""

import math

import numpy as np
import pytest

from teamplan.realloc import (
    DEAD,
    POINT,
    STEP,
    SUCCESS,
    VIOLATED,
    JointChain,
    JointNode,
    JointPolicy,
    policy_from_dict,
    run_stapu_with_realloc,
)
from teamplan.simulate import SimReport, simulate

from instances import graph_model, guarded_tree_instance
from test_realloc import corridor, mission


def three_sigma(p, runs):
    return 3.0 * math.sqrt(p * (1.0 - p) / runs)


def test_deterministic_chain_hits_exactly_one():
    m = graph_model(3, [(0, 1), (1, 2)], failpoints=set(), pfail=0.0,
                    atom_nodes={"p1": 2})
    jp, report = run_stapu_with_realloc([m, m], mission("F p1"))
    rep = simulate(jp, runs=2000, seed=1)
    assert report.value == pytest.approx(1.0)
    assert rep.frequency == 1.0
    assert rep.stderr == 0.0
    assert rep.mean_triggers == 0.0


def test_budget_instance_frequencies():
    models = [corridor(), corridor()]
    runs = 100_000
    full, report = run_stapu_with_realloc(models, mission("F p1"))
    assert report.value == pytest.approx(0.99, abs=1e-9)
    rep = simulate(full, runs=runs, seed=11)
    assert abs(rep.frequency - 0.99) <= three_sigma(0.99, runs)
    # the lone reallocation fires exactly when robot 0's first move fails
    assert abs(rep.mean_triggers - 0.1) <= three_sigma(0.1, runs)
    point_index = full.chains[0].point_indices[0]
    assert list(rep.triggers) == [f"0:{point_index}"]

    bare, report0 = run_stapu_with_realloc(models, mission("F p1"), max_realloc=0)
    assert report0.value == pytest.approx(0.9, abs=1e-9)
    rep0 = simulate(bare, runs=runs, seed=11)
    assert abs(rep0.frequency - 0.9) <= three_sigma(0.9, runs)
    assert rep0.mean_triggers == 0.0


def test_same_seed_same_report():
    jp, _ = run_stapu_with_realloc([corridor(), corridor()], mission("F p1"))
    a = simulate(jp, runs=5000, seed=42)
    b = simulate(jp, runs=5000, seed=42)
    assert a.to_dict() == b.to_dict()
    c = simulate(jp, runs=5000, seed=43)
    assert c.successes != a.successes


def test_tracks_guarantee_on_random_instances():
    rng = np.random.default_rng(20240624)
    for _ in range(5):
        model, miss = guarded_tree_instance(rng, max_tasks=2)
        jp, report = run_stapu_with_realloc([model, model], miss, epsilon=1e-9)
        runs = 20_000
        rep = simulate(jp, runs=runs, seed=int(rng.integers(1 << 30)))
        band = max(three_sigma(report.value, runs), 1e-9)
        assert abs(rep.frequency - report.value) <= band


def test_rejects_empty_sample():
    jp, _ = run_stapu_with_realloc([corridor()], mission("F p1"))
    with pytest.raises(ValueError):
        simulate(jp, runs=0)
    for runs in (True, 2.5, 100.0):
        with pytest.raises(ValueError, match="not an integer"):
            simulate(jp, runs=runs)
        # checked before the tree is read
        with pytest.raises(ValueError, match="not an integer"):
            simulate(None, runs=runs)


def per_draw_simulate(jp, runs, seed):
    """`simulate` with one `rng.random()` call per stochastic step."""
    rng = np.random.default_rng(seed)
    chain_index = {id(c): k for k, c in enumerate(jp.chains)}
    successes = total = 0
    counts = {}
    for _ in range(runs):
        chain, i = jp.chains[0], 0
        while True:
            nd = chain.nodes[i]
            if nd.kind == SUCCESS:
                successes += 1
                break
            if nd.kind == POINT:
                if nd.child is None:
                    break
                key = f"{chain_index[id(chain)]}:{i}"
                counts[key] = counts.get(key, 0) + 1
                total += 1
                chain, i = nd.child, 0
                continue
            if nd.kind != STEP or not nd.steps:
                break
            if len(nd.steps) == 1:
                i = nd.steps[0][1]
                continue
            u = rng.random()
            acc = 0.0
            i = nd.steps[-1][1]
            for p, j in nd.steps:
                acc += p
                if u < acc:
                    i = j
                    break
    freq = successes / runs
    return SimReport(runs, successes, freq, math.sqrt(freq * (1.0 - freq) / runs),
                     {k: c / runs for k, c in counts.items()}, total / runs)


def test_block_draws_equal_per_draw_reference():
    rng = np.random.default_rng(20261018)
    for i in range(12):
        model, miss = guarded_tree_instance(rng)
        jp, _ = run_stapu_with_realloc([model] * (2 + i % 2), miss)
        seed = int(rng.integers(1 << 30))
        # enough runs that the rollouts use several blocks of draws
        assert simulate(jp, runs=4000, seed=seed).to_dict() == per_draw_simulate(jp, 4000, seed).to_dict(), i


def random_policy(rng):
    """A seeded random well-formed policy dict with what planning rarely
    writes: steps of three or more branches and of zero probability,
    ungrafted points, chain roots that succeed or are points, single-step
    runs into violated and dead nodes, and unreachable chains (grafted
    under points no run reaches). Every chain after the first is grafted
    at one point, as `policy_from_dict` requires."""
    chains = []
    for _ in range(int(rng.integers(1, 6))):
        n = int(rng.integers(1, 10))
        nodes = []
        for i in range(n):
            kinds = [SUCCESS, VIOLATED, DEAD, POINT] + [STEP] * 4 * (i < n - 1)
            nd = {"t": i, "positions": [0], "statuses": ["executing"], "q": [0],
                  "kind": str(rng.choice(kinds)), "steps": []}
            if nd["kind"] == POINT:
                nd["fresh"] = [0]
            if nd["kind"] == STEP:
                targets = rng.integers(i + 1, n, size=int(rng.choice([1, 1, 2, 3, 4])))
                p = rng.random(len(targets)) * (rng.random(len(targets)) < 0.8)
                p = p / p.sum() if p.sum() > 0 else np.full(len(targets), 1.0 / len(targets))
                nd["steps"] = [[float(q), int(j)] for q, j in zip(p, targets)]
            nodes.append(nd)
        chains.append({"nodes": nodes})
    points = []
    for c, chain in enumerate(chains):
        if c and not points:  # no free point left to graft this chain or any later one
            del chains[c:]
            break
        if c:
            nd = points.pop(int(rng.integers(len(points))))
            nd["child"] = c
        points += [nd for nd in chain["nodes"] if nd["kind"] == POINT]
    return {"robots": 1, "chains": chains}


def test_decision_table_matches_per_draw_walk_on_random_policies():
    rng = np.random.default_rng(20261019)
    for k in range(200):
        jp = policy_from_dict(random_policy(rng))
        seed = int(rng.integers(1 << 30))
        rep, ref = simulate(jp, runs=300, seed=seed), per_draw_simulate(jp, 300, seed)
        assert rep.to_dict() == ref.to_dict(), k
        assert list(rep.triggers) == list(ref.triggers), k


def test_deep_single_step_chain_rolls_out():
    n = 100_000
    nodes = [JointNode(t=i, positions=(0,), statuses=("executing",), q=(0,), kind=STEP, steps=[(1.0, i + 1)])
             for i in range(n - 1)]
    nodes.append(JointNode(t=n - 1, positions=(0,), statuses=("executing",), q=(0,), kind=SUCCESS))
    rep = simulate(JointPolicy([JointChain(nodes)], robots=1), runs=3)
    assert rep.frequency == 1.0
