"""Seeded generators for small deterministic-or-fail test instances."""

import numpy as np

from teamplan.ltl import Mission, parse_formula
from teamplan.mdp import Choice

from rows import from_rows


def graph_model(nodes, edges, failpoints, pfail, atom_nodes):
    """Deterministic-or-fail movement model on an undirected graph.

    One action per destination node (action index == destination); edges
    leaving a failure point split with the designated failure state, which
    is the last index and has no actions.
    """
    fail = nodes
    adj = [set() for _ in range(nodes)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    choices = []
    for u in range(nodes):
        row = []
        for v in sorted(adj[u]):
            if u in failpoints:
                outs = ((v, 1.0 - pfail), (fail, pfail))
            else:
                outs = ((v, 1.0),)
            row.append(Choice(v, outs, None))
        choices.append(row)
    choices.append([])
    by_node = {}
    for atom, node in atom_nodes.items():
        by_node.setdefault(node, set()).add(atom)
    return from_rows(
        nodes + 1,
        0,
        [f"go{v}" for v in range(nodes)],
        choices,
        atoms=tuple(sorted(atom_nodes)),
        labels=by_node,
        failure_state=fail,
    )


def random_connected_edges(rng, nodes, extra=0):
    edges = [(int(rng.integers(0, v)), v) for v in range(1, nodes)]
    have = {frozenset(e) for e in edges}
    tries = 0
    while extra > 0 and tries < 20:
        u, v = (int(x) for x in rng.choice(nodes, size=2, replace=False))
        if frozenset((u, v)) not in have:
            edges.append((u, v))
            have.add(frozenset((u, v)))
            extra -= 1
        tries += 1
    return edges


def random_team_instance(rng, max_nodes=8, max_tasks=2):
    """A small map plus a reachability mission. Task atoms never label the
    start node: a switch hands the automaton vector over verbatim, so an
    atom at an entry state would never be credited to the entering robot."""
    nodes = int(rng.integers(4, max_nodes + 1))
    edges = random_connected_edges(rng, nodes, extra=int(rng.integers(0, 3)))
    k = min(int(rng.integers(1, 3)), nodes - 1)
    failpoints = {int(x) for x in rng.choice(range(1, nodes), size=k, replace=False)}
    m = int(rng.integers(1, max_tasks + 1))
    task_nodes = rng.choice(range(1, nodes), size=min(m, nodes - 1), replace=False)
    atom_nodes = {f"p{i + 1}": int(node) for i, node in enumerate(task_nodes)}
    pfail = float(rng.uniform(0.05, 0.35))
    model = graph_model(nodes, edges, failpoints, pfail, atom_nodes)
    tasks = tuple(parse_formula(f"F p{i + 1}") for i in range(len(task_nodes)))
    return model, Mission(tasks=tasks, safety=None)


def guarded_tree_instance(rng, max_tasks=3):
    """Map whose task atoms sit on leaves behind dedicated failure guards.

    Every route from the shared trunk to a task atom passes that task's
    own guard node and nothing else that is labeled, so no robot's path
    to one task crosses another task's atom. On such maps splitting the
    tasks and replanning after each breakdown loses nothing against
    planning over the joint model.
    """
    tasks = int(rng.integers(1, max_tasks + 1))
    trunk = int(rng.integers(1, 3))
    edges = [(t - 1, t) for t in range(1, trunk)]
    failpoints = set()
    atom_nodes = {}
    nxt = trunk
    for k in range(tasks):
        anchor = int(rng.integers(0, trunk))
        guard, leaf = nxt, nxt + 1
        nxt += 2
        edges.append((anchor, guard))
        edges.append((guard, leaf))
        failpoints.add(guard)
        atom_nodes[f"p{k + 1}"] = leaf
    pfail = float(rng.uniform(0.05, 0.35))
    model = graph_model(nxt, edges, failpoints, pfail, atom_nodes)
    mission = Mission(
        tasks=tuple(parse_formula(f"F p{k + 1}") for k in range(tasks)),
        safety=None,
    )
    return model, mission
