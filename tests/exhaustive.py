"""Brute-force oracles for small MDPs.

Enumerates every memoryless deterministic policy and evaluates the induced
Markov chain exactly (graph reachability plus a linear solve), so solver
results can be checked against an independent method with no iteration
tolerance of its own.
"""

import itertools

import numpy as np


def chain_values(rows, target, avoid, n):
    """Absorption probabilities into `target` for a chain given as rows[s] = [(t, p)].

    Target and avoid states are absorbing. States that cannot reach the
    target get the exact value 0, the rest come from solving the linear
    system restricted to states with a path to the target.
    """
    pre = [set() for _ in range(n)]
    for s in range(n):
        if s in target or s in avoid:
            continue
        for t, _ in rows[s]:
            pre[t].add(s)
    can = set(target)
    stack = list(target)
    while stack:
        t = stack.pop()
        for s in pre[t]:
            if s not in can:
                can.add(s)
                stack.append(s)
    inner = sorted(s for s in can if s not in target)
    values = [0.0] * n
    for s in target:
        values[s] = 1.0
    if inner:
        idx = {s: i for i, s in enumerate(inner)}
        mat = np.zeros((len(inner), len(inner)))
        rhs = np.zeros(len(inner))
        for s in inner:
            for t, p in rows[s]:
                if t in target:
                    rhs[idx[s]] += p
                elif t in idx:
                    mat[idx[s], idx[t]] += p
        sol = np.linalg.solve(np.eye(len(inner)) - mat, rhs)
        for s, i in idx.items():
            values[s] = float(sol[i])
    return values


def policy_rows(mdp, policy):
    """Chain rows induced by a policy dict mapping state to action index."""
    rows = []
    for s in range(mdp.num_states):
        picked = None
        if s in policy:
            for c in mdp.choices[s]:
                if c.action == policy[s]:
                    picked = c
                    break
        rows.append(list(picked.outcomes) if picked else [])
    return rows


def evaluate_policy(mdp, policy, target, avoid=()):
    return chain_values(policy_rows(mdp, policy), set(target), set(avoid), mdp.num_states)


def enumerate_best(mdp, target, avoid=()):
    """Per-state maximal reach probabilities over all memoryless policies."""
    target = set(target)
    avoid = set(avoid)
    n = mdp.num_states
    menus = [mdp.choices[s] if mdp.choices[s] else [None] for s in range(n)]
    best = [0.0] * n
    for picks in itertools.product(*menus):
        rows = [list(c.outcomes) if c else [] for c in picks]
        vals = chain_values(rows, target, avoid, n)
        for s in range(n):
            if vals[s] > best[s]:
                best[s] = vals[s]
    for s in target:
        best[s] = 1.0
    return best
