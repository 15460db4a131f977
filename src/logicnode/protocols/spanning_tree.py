"""Driver and oracle for the spanning-tree overlay program."""

from __future__ import annotations

import random
from collections import deque
from typing import Dict, List, Optional

from ..runtime import NodeConfig
from ..sim import SimNetwork
from ..terms import Atom
from ..reader import _atom_text, parse_term
from . import facts, load_asset


def run_spanning_tree(adjacency: Dict[str, List[str]], root: str,
                      seed: int = 0, kickoffs: int = 1) -> SimNetwork:
    """Build the graph in a simulator, kick off the wave, run to quiescence."""
    program = load_asset("spanning_tree")
    net = SimNetwork(seed=seed)
    for name, nbrs in adjacency.items():
        net.add_node(NodeConfig(
            address=name,
            program=program,
            facts=facts(*("neighbor(%s)" % _atom_text(n) for n in nbrs)),
        ))
    for k in range(kickoffs):
        net.inject_term(k, root, parse_term(
            "span_tree(%s, %s)" % (_atom_text(root), _atom_text(root))))
    net.run_to_idle()
    return net


def extract_tree(net: SimNetwork, root: str) -> Dict[str, Optional[str]]:
    """Per-node parent pointer for the given root, None when absent."""
    out: Dict[str, Optional[str]] = {}
    for name in net.nodes:
        rows = net.query_all(name, "tree(%s, P)" % _atom_text(root))
        if not rows:
            out[name] = None
        else:
            parent = rows[0]["P"]
            out[name] = parent.name if isinstance(parent, Atom) else str(parent)
        if len(rows) > 1:
            raise AssertionError("node %s holds %d parent facts" % (name, len(rows)))
    return out


def reachable_from(adjacency: Dict[str, List[str]], root: str) -> set:
    seen = {root}
    q = deque([root])
    while q:
        x = q.popleft()
        for y in adjacency.get(x, []):
            if y not in seen:
                seen.add(y)
                q.append(y)
    return seen


def check_tree(adjacency: Dict[str, List[str]], root: str,
               parents: Dict[str, Optional[str]]) -> List[str]:
    """Returns a list of invariant violations (empty = valid tree)."""
    problems = []
    reach = reachable_from(adjacency, root)
    for node, parent in parents.items():
        if node in reach and parent is None:
            problems.append("%s reachable but has no parent" % node)
        if node not in reach and parent is not None:
            problems.append("%s unreachable but has parent %s" % (node, parent))
        if parent is None:
            continue
        if node == root:
            if parent != root:
                problems.append("root parent is %s, not itself" % parent)
            continue
        if parent not in adjacency.get(node, []):
            problems.append("%s parent %s is not a link" % (node, parent))
    # every parent chain must terminate at the root
    for node, parent in parents.items():
        if parent is None:
            continue
        seen = set()
        x = node
        while x != root:
            if x in seen:
                problems.append("parent cycle through %s" % node)
                break
            seen.add(x)
            nxt = parents.get(x)
            if nxt is None:
                problems.append("parent chain from %s dangles at %s" % (node, x))
                break
            x = nxt
    return problems


def random_connected_graph(n: int, rng: random.Random,
                           extra_edge_prob: float = 0.08) -> Dict[str, List[str]]:
    names = ["v%d" % i for i in range(n)]
    adj: Dict[str, set] = {x: set() for x in names}
    for i in range(1, n):
        j = rng.randrange(i)
        adj[names[i]].add(names[j])
        adj[names[j]].add(names[i])
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < extra_edge_prob:
                adj[names[i]].add(names[j])
                adj[names[j]].add(names[i])
    return {k: sorted(v) for k, v in adj.items()}
