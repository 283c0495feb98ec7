"""Differential tests: the support-graph rounding against networkx.

networkx is a test-only dependency; the package itself never imports it.
``_reference_round_support_graph`` is the networkx-based rounding the
package shipped before its own traversal replaced it.  Its one flaw is that
a component with fewer than half the graph's nodes is traversed in ``set``
order (networkx's subgraph view iterates the node set when it is the
smaller side), so its result can change with ``PYTHONHASHSEED``.  The
package's rounding must agree with it everywhere else.
"""

from typing import Dict, List, Optional, Set, Tuple

import numpy as np
import pytest

from repro.algorithms.restricted import (
    RelaxedRAFlow,
    round_support_graph,
    solve_lp_relaxed_ra,
)
from repro.algorithms.restricted.pseudoforest import (
    INTEGRALITY_TOL,
    _add_edge,
    _find_cycle,
    support_graph,
)
from repro.core.bounds import makespan_bounds
from repro.generators import class_uniform_ptimes_instance, class_uniform_restrictions_instance

nx = pytest.importorskip("networkx")


# ---------------------------------------------------------------------------
# the reference: the networkx-based rounding, verbatim but for names
# ---------------------------------------------------------------------------
def _reference_support_graph(x: np.ndarray, tol: float = INTEGRALITY_TOL):
    graph = nx.Graph()
    m, num_classes = x.shape
    for i in range(m):
        for k in range(num_classes):
            value = x[i, k]
            if tol < value < 1.0 - tol:
                graph.add_edge(("machine", int(i)), ("class", int(k)), weight=float(value))
    return graph


def _reference_round_support_graph(x: np.ndarray, tol: float = INTEGRALITY_TOL):
    m, num_classes = x.shape
    integral: Dict[int, int] = {}
    kept_machines: Dict[int, List[int]] = {}
    dropped_machine: Dict[int, Optional[int]] = {}
    for k in range(num_classes):
        near_one = np.flatnonzero(x[:, k] >= 1.0 - tol)
        if near_one.size:
            integral[int(k)] = int(near_one[0])
    graph = _reference_support_graph(x, tol)
    if graph.number_of_edges() == 0:
        return integral, kept_machines, dropped_machine
    for component in nx.connected_components(graph):
        sub = graph.subgraph(component)
        if sub.number_of_edges() > sub.number_of_nodes():
            raise ValueError("support graph is not a pseudo-forest")

    kept_edges: Set[Tuple[Tuple[str, int], Tuple[str, int]]] = set()

    def normalise(u, v):
        return (u, v) if u <= v else (v, u)

    for component_nodes in nx.connected_components(graph):
        sub = graph.subgraph(component_nodes).copy()
        cycle_class_nodes: Set[Tuple[str, int]] = set()
        try:
            cycle = nx.find_cycle(sub)
        except nx.NetworkXNoCycle:
            cycle = []
        if cycle:
            cycle_class_nodes = {u for u, _v in cycle if u[0] == "class"}
            start_positions = [idx for idx, (u, _v) in enumerate(cycle) if u[0] == "class"]
            start = start_positions[0]
            ordered = cycle[start:] + cycle[:start]
            for idx, (u, v) in enumerate(ordered):
                if idx % 2 == 0:
                    sub.remove_edge(u, v)
        for tree_nodes in nx.connected_components(sub):
            tree = sub.subgraph(tree_nodes)
            class_roots = [node for node in tree_nodes if node[0] == "class"]
            if not class_roots:
                continue
            on_cycle = sorted(node for node in class_roots if node in cycle_class_nodes)
            root = on_cycle[0] if on_cycle else sorted(class_roots)[0]
            for parent, child in nx.bfs_edges(tree, root):
                if parent[0] == "class":
                    kept_edges.add(normalise(parent, child))

    for node in graph.nodes:
        if node[0] != "class":
            continue
        k = int(node[1])
        kept: List[int] = []
        dropped: Optional[int] = None
        for neighbour in graph.neighbors(node):
            i = int(neighbour[1])
            if normalise(node, neighbour) in kept_edges:
                kept.append(i)
            else:
                if dropped is not None:
                    raise ValueError(f"class {k} lost more than one supporting machine")
                dropped = i
        kept_machines[k] = sorted(kept)
        dropped_machine[k] = dropped
    return integral, kept_machines, dropped_machine


def _rounded(x: np.ndarray):
    result = round_support_graph(x)
    return result.integral_assignment, result.kept_machines, result.dropped_machine


def _hash_order_dependent(x: np.ndarray) -> bool:
    """Whether a cyclic component holds fewer than half the support graph's
    nodes: only there did the reference traverse a set in hash order."""
    graph = _reference_support_graph(x)
    return any(2 * len(nodes) < graph.number_of_nodes()
               and graph.subgraph(nodes).number_of_edges() == len(nodes)
               for nodes in nx.connected_components(graph))


# ---------------------------------------------------------------------------
# random inputs
# ---------------------------------------------------------------------------
def _random_graph_edges(rng: np.random.Generator) -> List[Tuple[int, int]]:
    """A few small random graphs side by side (trees, cycles, denser bits)."""
    edges: List[Tuple[int, int]] = []
    offset = 0
    for _ in range(rng.integers(1, 4)):
        size = int(rng.integers(1, 8))
        count = int(rng.integers(0, 2 * size))
        for _ in range(count):
            u, v = (int(a) + offset for a in rng.integers(0, size, 2))
            if u != v:
                edges.append((u, v))
        offset += size
    # Interleave the components' edges, so node order mixes them.
    return [edges[i] for i in rng.permutation(len(edges))]


def _random_pseudoforest_x(rng: np.random.Generator) -> np.ndarray:
    """An ``(m, K)`` matrix whose fractional support is a random pseudo-forest."""
    m, num_classes = (int(a) for a in rng.integers(2, 9, 2))
    x = np.zeros((m, num_classes))
    root = {}
    slack: Dict[object, int] = {}  # nodes minus edges per component root

    def find(node):
        while root.setdefault(node, node) != node:
            node = root[node]
        return node

    cells = [(i, k) for i in range(m) for k in range(num_classes)]
    for idx in rng.permutation(len(cells))[: int(rng.integers(1, m + num_classes + 2))]:
        i, k = cells[idx]
        a, b = find(("machine", i)), find(("class", k))
        if a != b:
            root[a] = b
            slack[b] = slack.get(a, 1) + slack.get(b, 1) - 1
        elif slack.get(a, 1) > 0:
            slack[a] = slack.get(a, 1) - 1
        else:
            continue  # a second cycle in this component
        x[i, k] = float(rng.uniform(0.05, 0.95))
    # Some integral entries, which the support graph leaves out.
    for k in rng.choice(num_classes, size=int(rng.integers(0, 3)), replace=True):
        if not x[:, k].any():
            x[int(rng.integers(0, m)), k] = 1.0
    return x


class TestFindCycle:
    def test_matches_networkx_on_random_graphs(self):
        rng = np.random.default_rng(7)
        cyclic = 0
        for _ in range(400):
            edges = _random_graph_edges(rng)
            graph, reference = {}, nx.Graph()
            for u, v in edges:
                _add_edge(graph, u, v, 1.0)
                reference.add_edge(u, v)
            try:
                expected = nx.find_cycle(reference)
            except nx.NetworkXNoCycle:
                expected = []
            assert _find_cycle(graph) == expected
            cyclic += bool(expected)
            for source in list(graph)[:3]:
                try:
                    expected = nx.find_cycle(reference, source=source)
                except nx.NetworkXNoCycle:
                    expected = []
                assert _find_cycle(graph, [source]) == expected
        assert 50 < cyclic < 400  # both outcomes exercised

    def test_empty_graph_has_no_cycle(self):
        assert _find_cycle({}) == []


def _has_cycle(x: np.ndarray) -> bool:
    graph = _reference_support_graph(x)
    return graph.number_of_edges() > 0 and not nx.is_forest(graph)


def _matches_reference(x: np.ndarray) -> bool:
    """Whether the rounding equals the reference's; a difference must come
    from a component the reference traversed in hash order."""
    if _rounded(x) == _reference_round_support_graph(x):
        return True
    assert _hash_order_dependent(x)
    return False


class TestRoundingMatchesReference:
    def test_lp_vertex_solutions(self):
        """LP-RelaxedRA vertices (constraint (16)) often have a cycle."""
        cyclic = 0
        for seed in range(6):
            inst = class_uniform_ptimes_instance(20, 5, 6, seed=seed)
            upper = makespan_bounds(inst).upper
            for guess in upper * np.geomspace(0.3, 1.0, 6):
                relax = solve_lp_relaxed_ra(inst, guess, variant="ptimes")
                if relax.feasible:
                    _matches_reference(relax.x)
                    cyclic += _has_cycle(relax.x)
        assert cyclic >= 5

    def test_flow_solutions(self):
        compared = 0
        for seed in range(16):
            n, m, k, most = ((16, 4, 5, 3), (30, 6, 8, 4))[seed % 2]
            inst = class_uniform_restrictions_instance(n, m, k, seed=seed,
                                                       min_eligible=1, max_eligible=most)
            flow = RelaxedRAFlow(inst)
            upper = makespan_bounds(inst).upper
            for guess in upper * np.geomspace(0.3, 1.0, 12):
                relax = flow.solve(guess)
                if not relax.feasible:
                    continue
                _matches_reference(relax.x)
                compared += 1
        assert compared > 50

    def test_random_pseudoforests(self):
        rng = np.random.default_rng(11)
        differing = cyclic = 0
        for _ in range(400):
            x = _random_pseudoforest_x(rng)
            differing += not _matches_reference(x)
            cyclic += _has_cycle(x)
        assert cyclic > 50
        assert differing < 40

    def test_support_graph_has_reference_order(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = _random_pseudoforest_x(rng)
            graph = support_graph(x)
            reference = _reference_support_graph(x)
            assert list(graph) == list(reference.nodes)
            assert all(list(graph[node]) == list(reference.adj[node]) for node in graph)
            assert all(graph[u][v] == data["weight"] for u, v, data in reference.edges(data=True))
