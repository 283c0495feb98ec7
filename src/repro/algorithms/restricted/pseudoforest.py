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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import networkx as nx
import numpy as np

__all__ = ["SupportRounding", "support_graph", "round_support_graph", "verify_pseudoforest"]

#: Tolerance below which an LP value is treated as 0 and above ``1 - tol`` as 1.
INTEGRALITY_TOL = 1e-6


def _class_node(k: int) -> Tuple[str, int]:
    return ("class", int(k))


def _machine_node(i: int) -> Tuple[str, int]:
    return ("machine", int(i))


def support_graph(x: np.ndarray, *, tol: float = INTEGRALITY_TOL) -> nx.Graph:
    """Bipartite support graph of the fractional part of ``x`` (shape ``(m, K)``)."""
    graph = nx.Graph()
    m, num_classes = x.shape
    for i in range(m):
        for k in range(num_classes):
            value = x[i, k]
            if tol < value < 1.0 - tol:
                graph.add_edge(_machine_node(i), _class_node(k), weight=float(value))
    return graph


def verify_pseudoforest(graph: nx.Graph) -> bool:
    """Whether every connected component has at most as many edges as nodes."""
    for component in nx.connected_components(graph):
        sub = graph.subgraph(component)
        if sub.number_of_edges() > sub.number_of_nodes():
            return False
    return True


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
    if graph.number_of_edges() == 0:
        return result
    if not verify_pseudoforest(graph):
        raise ValueError(
            "support graph is not a pseudo-forest; LP-RelaxedRA must be solved to a vertex "
            "(extreme point) solution")

    kept_edges: Set[Tuple[Tuple[str, int], Tuple[str, int]]] = set()

    def normalise(u, v):
        return (u, v) if u <= v else (v, u)

    for component_nodes in nx.connected_components(graph):
        sub = graph.subgraph(component_nodes).copy()
        # Break the unique cycle (if any) by dropping every second edge,
        # starting with the edge leaving a class node.
        cycle_class_nodes: Set[Tuple[str, int]] = set()
        try:
            cycle = nx.find_cycle(sub)
        except nx.NetworkXNoCycle:
            cycle = []
        if cycle:
            cycle_class_nodes = {u for u, _v in cycle if u[0] == "class"}
            # Rotate the cycle so it starts at a class node.
            start_positions = [idx for idx, (u, _v) in enumerate(cycle) if u[0] == "class"]
            start = start_positions[0]
            ordered = cycle[start:] + cycle[:start]
            for idx, (u, v) in enumerate(ordered):
                if idx % 2 == 0:
                    sub.remove_edge(u, v)
        # Root every remaining tree at a class node — preferring a class
        # that was on the cycle, as in the paper, so that no class loses a
        # second supporting edge through the orientation step — and keep
        # only the edges leaving class nodes (class → machine).
        for tree_nodes in nx.connected_components(sub):
            tree = sub.subgraph(tree_nodes)
            class_roots = [node for node in tree_nodes if node[0] == "class"]
            if not class_roots:
                continue  # an isolated machine node: nothing to keep
            on_cycle = sorted(node for node in class_roots if node in cycle_class_nodes)
            root = on_cycle[0] if on_cycle else sorted(class_roots)[0]
            for parent, child in nx.bfs_edges(tree, root):
                if parent[0] == "class":
                    kept_edges.add(normalise(parent, child))

    # Translate kept edges into the i_k^+ / i_k^- structure.
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
                    raise ValueError(
                        f"class {k} lost more than one supporting machine; the rounding "
                        "invariant of Lemma 3.8 is violated")
                dropped = i
        result.kept_machines[k] = sorted(kept)
        result.dropped_machine[k] = dropped
    return result
