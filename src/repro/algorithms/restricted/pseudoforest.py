"""Support-graph rounding shared by the two Section 3.3 algorithms.

Given an extreme solution ``x̄*`` of LP-RelaxedRA, the bipartite *support
graph* has a node per fractional class and per machine, and an edge
``{i, k}`` whenever ``0 < x̄*_ik < 1``.  For a vertex of the LP each
connected component is a pseudo-tree (at most one cycle).  The rounding of
Correa et al. [5], restated in the paper, selects a subset ``Ẽ`` of edges
with the two properties of Lemma 3.8:

1. every machine is incident to at most one edge of ``Ẽ``;
2. every fractional class has at most one supporting machine whose edge was
   dropped (called ``i_k⁻``); all other supporting machines keep their edge
   (the ``i_k⁺`` candidates).

The construction: along each component's unique cycle (if any), starting at
a class node, drop every second edge; root the resulting trees at class
nodes; direct edges away from the roots; drop all edges leaving machine
nodes.  What remains (class → machine edges) is ``Ẽ``.

A graph here is an insertion-ordered dict of dicts: ``graph[u][v]`` is the
value on edge ``{u, v}``, stored under both ends.  Every traversal follows
insertion order — nodes in the order they were first added, a node's
neighbours in the order its edges were added — and never the order of a
``set``, so the rounding is a function of ``x`` alone, the same in every
process whatever its ``PYTHONHASHSEED``.  :func:`_find_cycle` is a
depth-first search over edges that returns the first cycle it closes, in
the edge order of the reference graph library's ``find_cycle`` on a graph
built in the same insertion order (the differential tests hold it to that).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Tuple

import numpy as np

__all__ = ["SupportRounding", "support_graph", "round_support_graph", "verify_pseudoforest"]

#: Tolerance below which an LP value is treated as 0 and above ``1 - tol`` as 1.
INTEGRALITY_TOL = 1e-6

#: An undirected graph as an insertion-ordered adjacency dict of dicts.
Graph = Dict[Hashable, Dict[Hashable, float]]


def _class_node(k: int) -> Tuple[str, int]:
    return ("class", int(k))


def _machine_node(i: int) -> Tuple[str, int]:
    return ("machine", int(i))


def _add_edge(graph: Graph, u: Hashable, v: Hashable, value: float) -> None:
    """Add edge ``{u, v}``, appending ``u`` then ``v`` to the nodes if new."""
    graph.setdefault(u, {})[v] = value
    graph.setdefault(v, {})[u] = value


def _components(graph: Graph) -> List[List[Hashable]]:
    """Connected components, each in BFS order from its first node in node order."""
    seen = set()
    components = []
    for start in graph:
        if start in seen:
            continue
        seen.add(start)
        component = [start]
        for node in component:  # grows while it is read: a BFS
            for neighbour in graph[node]:
                if neighbour not in seen:
                    seen.add(neighbour)
                    component.append(neighbour)
        components.append(component)
    return components


def _edge_dfs(graph: Graph, start: Hashable) -> Iterator[Tuple[Hashable, Hashable]]:
    """Every edge reachable from ``start`` once, in depth-first order.

    A node pushed again (over a non-tree edge) resumes its own neighbour
    iterator rather than starting a new one.
    """
    done = object()
    neighbours: Dict[Hashable, Iterator[Hashable]] = {}
    visited_edges = set()
    stack = [start]
    while stack:
        node = stack[-1]
        if node not in neighbours:
            neighbours[node] = iter(graph[node])
        neighbour = next(neighbours[node], done)
        if neighbour is done:
            stack.pop()
            continue
        edge_id = frozenset((node, neighbour))
        if edge_id not in visited_edges:
            visited_edges.add(edge_id)
            stack.append(neighbour)
            yield node, neighbour


def _find_cycle(graph: Graph,
                sources: Optional[Iterable[Hashable]] = None) -> List[Tuple[Hashable, Hashable]]:
    """The first cycle a DFS from ``sources`` (default: every node) meets.

    Returns its edges as ``(tail, head)`` pairs in traversal order, the
    first one leaving the node where the cycle closes, or ``[]`` when no
    cycle is reachable.
    """
    explored = set()
    for start in graph if sources is None else sources:
        if start in explored:
            continue
        path: List[Tuple[Hashable, Hashable]] = []
        seen = {start}
        active = {start}  # the nodes on the current path
        previous_head = None
        for tail, head in _edge_dfs(graph, start):
            if head in explored:
                continue
            if previous_head is not None and tail != previous_head:
                # Backtracked: cut the path back to the edge ending at ``tail``.
                while True:
                    if not path:
                        active = {tail}
                        break
                    active.remove(path.pop()[1])
                    if path and path[-1][1] == tail:
                        break
            path.append((tail, head))
            if head in active:
                first = next(idx for idx, (u, _v) in enumerate(path) if u == head)
                return path[first:]
            seen.add(head)
            active.add(head)
            previous_head = head
        explored.update(seen)
    return []


def support_graph(x: np.ndarray, *, tol: float = INTEGRALITY_TOL) -> Graph:
    """Bipartite support graph of the fractional part of ``x`` (shape ``(m, K)``).

    Edges are added machine by machine, classes in order within a machine;
    the value of edge ``{("machine", i), ("class", k)}`` is ``x[i, k]``.
    """
    graph: Graph = {}
    for i, k in zip(*np.nonzero((tol < x) & (x < 1.0 - tol))):
        _add_edge(graph, _machine_node(i), _class_node(k), float(x[i, k]))
    return graph


def verify_pseudoforest(graph: Graph) -> bool:
    """Whether every connected component has at most as many edges as nodes."""
    return all(sum(len(graph[node]) for node in component) <= 2 * len(component)
               for component in _components(graph))


@dataclass
class SupportRounding:
    """Result of rounding the support graph.

    Attributes
    ----------
    integral_assignment:
        ``{class: machine}`` for classes with ``x̄*_ik ≈ 1``.
    kept_machines:
        ``{class: [machines]}`` — the ``i_k⁺`` candidates (edges in ``Ẽ``).
    dropped_machine:
        ``{class: machine or None}`` — the ``i_k⁻`` machine whose edge was
        dropped (``None`` when every supporting edge was kept).
    """

    integral_assignment: Dict[int, int] = field(default_factory=dict)
    kept_machines: Dict[int, List[int]] = field(default_factory=dict)
    dropped_machine: Dict[int, Optional[int]] = field(default_factory=dict)


def round_support_graph(x: np.ndarray, *, tol: float = INTEGRALITY_TOL) -> SupportRounding:
    """Compute ``Ẽ`` and the ``i_k⁺ / i_k⁻`` structure from an LP solution ``x``.

    Raises ``ValueError`` if the support graph is not a pseudo-forest (which
    cannot happen for a true extreme point of LP-RelaxedRA; the check guards
    against passing in interior solutions).
    """
    m, num_classes = x.shape
    result = SupportRounding()

    # Integral part.
    for k in range(num_classes):
        column = x[:, k]
        near_one = np.flatnonzero(column >= 1.0 - tol)
        if near_one.size:
            result.integral_assignment[int(k)] = int(near_one[0])

    graph = support_graph(x, tol=tol)
    if not graph:
        return result
    if not verify_pseudoforest(graph):
        raise ValueError(
            "support graph is not a pseudo-forest; LP-RelaxedRA must be solved to a vertex "
            "(extreme point) solution")

    # The cycles are searched in a copy of the graph rebuilt edge by edge in
    # node order, so a node lists its earlier neighbours first (in node
    # order), then its later ones (in its own order).  This order fixes
    # which edges of a cycle are dropped; it is the one the rounding has
    # always used, so results stay what they were.
    forest: Graph = {node: {} for node in graph}
    for u, neighbours in graph.items():
        for v, value in neighbours.items():
            forest[u][v] = value
            forest[v][u] = value

    # Break each component's unique cycle (if any) by dropping every second
    # edge, starting with the edge leaving a class node.
    cycle_classes = set()
    for component in _components(graph):
        cycle = _find_cycle(forest, component[:1])
        if not cycle:
            continue
        cycle_classes.update(u for u, _v in cycle if u[0] == "class")
        start = next(idx for idx, (u, _v) in enumerate(cycle) if u[0] == "class")
        for u, v in (cycle[start:] + cycle[:start])[0::2]:
            del forest[u][v]
            del forest[v][u]

    # Root every remaining tree at a class node — preferring a class that
    # was on the cycle, as in the paper, so that no class loses a second
    # supporting edge through the orientation step — and keep only the
    # edges leaving class nodes (class → machine).
    kept_edges = set()
    for tree in _components(forest):
        class_roots = [node for node in tree if node[0] == "class"]
        if not class_roots:
            continue  # an isolated machine node: nothing to keep
        on_cycle = [node for node in class_roots if node in cycle_classes]
        root = min(on_cycle or class_roots)
        reached = {root}
        queue = [root]
        for parent in queue:  # grows while it is read: a BFS
            for child in forest[parent]:
                if child not in reached:
                    reached.add(child)
                    queue.append(child)
                    if parent[0] == "class":
                        kept_edges.add((parent, child))

    # Translate kept edges into the i_k^+ / i_k^- structure.
    for node, neighbours in graph.items():
        if node[0] != "class":
            continue
        k = int(node[1])
        kept: List[int] = []
        dropped: Optional[int] = None
        for neighbour in neighbours:
            i = int(neighbour[1])
            if (node, neighbour) in kept_edges:
                kept.append(i)
            else:
                if dropped is not None:
                    raise ValueError(
                        f"class {k} lost more than one supporting machine; the rounding "
                        "invariant of Lemma 3.8 is violated")
                dropped = i
        result.kept_machines[k] = sorted(kept)
        result.dropped_machine[k] = dropped
    return result
