"""Constrained path finding over the topology graph.

The directory computes routes under client-selected objectives (§3:
"a route with particular properties, such as low delay, high bandwidth,
low cost and security"):

* ``LOW_DELAY`` — minimize propagation + per-hop serialization of a
  reference packet.
* ``HIGH_BANDWIDTH`` — maximize the bottleneck rate (widest path),
  breaking ties by delay.
* ``LOW_COST`` — minimize the administrative cost attribute.
* ``SECURE`` — low delay over secure-flagged links only.

Yen's algorithm provides the k-shortest loopless alternatives a client
caches to "switch between these routes based on … performance" (§6.3).

Every search runs over a :class:`GraphView`, whose per-objective
adjacency is built once and shared by all the searches given the view.
"""

from __future__ import annotations

import enum
import heapq
from typing import Dict, List, Optional, Sequence, Tuple

from repro.net.topology import Edge

#: Reference packet size for delay objectives (the paper's ~average).
REFERENCE_PACKET_BYTES = 576


class PathObjective(enum.Enum):
    """Type-of-service objectives a route query can name (§3)."""
    LOW_DELAY = "low_delay"
    HIGH_BANDWIDTH = "high_bandwidth"
    LOW_COST = "low_cost"
    SECURE = "secure"


def edge_weight(edge: Edge, objective: PathObjective) -> float:
    """Cost of one edge under the given objective."""
    if objective is PathObjective.LOW_COST:
        return edge.cost
    # Delay-flavoured objectives: propagation + serialization.
    return edge.propagation_delay + REFERENCE_PACKET_BYTES * 8.0 / edge.rate_bps


def edge_allowed(edge: Edge, objective: PathObjective) -> bool:
    """Whether the objective permits using this edge at all."""
    if objective is PathObjective.SECURE:
        return edge.secure
    return True


#: One adjacency entry: ``(dst, weight, (src, dst, port_id), edge)``.
Arc = Tuple[str, float, Tuple[str, str, int], Edge]


class GraphView:
    """A topology view's edges plus a pre-weighted adjacency per objective.

    ``adjacency(objective)`` maps each node to the :data:`Arc` of every
    edge leaving it that the objective allows, in edge order, with the
    edge's weight already computed.  It is built on first use and kept,
    so every search over the same view — Yen's spur searches, the
    replicated-service branch, and the directory's later queries while
    the view stays current — shares one build.  A view must not outlive
    a change to its edges: build a new one instead.
    """

    __slots__ = ("edges", "_arcs")

    def __init__(self, edges: Sequence[Edge]) -> None:
        self.edges = edges
        self._arcs: Dict[PathObjective, Dict[str, List[Arc]]] = {}

    def adjacency(self, objective: PathObjective) -> Dict[str, List[Arc]]:
        """Node -> its outgoing arcs under ``objective`` (built once)."""
        adj = self._arcs.get(objective)
        if adj is None:
            adj = {}
            for edge in self.edges:
                if edge_allowed(edge, objective):
                    adj.setdefault(edge.src, []).append((
                        edge.dst, edge_weight(edge, objective),
                        (edge.src, edge.dst, edge.port_id), edge,
                    ))
            self._arcs[objective] = adj
        return adj


def _walk_back(back: Dict[str, Edge], src: str, dst: str) -> Optional[List[Edge]]:
    if dst not in back and dst != src:
        return None
    path: List[Edge] = []
    node = dst
    while node != src:
        edge = back[node]
        path.append(edge)
        node = edge.src
    path.reverse()
    return path


def dijkstra(
    edges: Sequence[Edge],
    src: str,
    dst: str,
    objective: PathObjective = PathObjective.LOW_DELAY,
    banned_edges: Optional[set] = None,
    banned_nodes: Optional[set] = None,
    *,
    graph: Optional[GraphView] = None,
) -> Optional[List[Edge]]:
    """Best path as a list of edges, or None when unreachable.

    ``graph`` is a prebuilt view of ``edges``; without one the call
    builds its own.
    """
    if graph is None:
        graph = GraphView(edges)
    adj = graph.adjacency(objective)
    banned_edges = banned_edges or set()
    banned_nodes = banned_nodes or set()
    if objective is PathObjective.HIGH_BANDWIDTH:
        return _widest_path(adj, src, dst, banned_edges, banned_nodes)
    inf = float("inf")
    dist: Dict[str, float] = {src: 0.0}
    back: Dict[str, Edge] = {}
    heap: List[Tuple[float, int, str]] = [(0.0, 0, src)]
    seq = 0
    visited = set()
    while heap:
        d, _tie, node = heapq.heappop(heap)
        if node in visited:
            continue
        visited.add(node)
        if node == dst:
            break
        for nxt, weight, key, edge in adj.get(node, ()):
            if key in banned_edges or nxt in banned_nodes:
                continue
            nd = d + weight
            if nd < dist.get(nxt, inf):
                dist[nxt] = nd
                back[nxt] = edge
                seq += 1
                heapq.heappush(heap, (nd, seq, nxt))
    return _walk_back(back, src, dst)


def _widest_path(
    adj: Dict[str, List[Arc]],
    src: str,
    dst: str,
    banned_edges: set,
    banned_nodes: set,
) -> Optional[List[Edge]]:
    """Maximize bottleneck bandwidth; ties broken by low delay.

    ``adj`` is the ``HIGH_BANDWIDTH`` adjacency, whose weights are the
    edges' delays.
    """
    unset = (float("inf"), float("inf"))
    # label: (negative bottleneck, delay)
    best: Dict[str, Tuple[float, float]] = {src: (-float("inf"), 0.0)}
    back: Dict[str, Edge] = {}
    heap: List[Tuple[float, float, int, str]] = [(-float("inf"), 0.0, 0, src)]
    seq = 0
    visited = set()
    while heap:
        neg_width, delay, _tie, node = heapq.heappop(heap)
        if node in visited:
            continue
        visited.add(node)
        if node == dst:
            break
        for nxt, weight, key, edge in adj.get(node, ()):
            if key in banned_edges or nxt in banned_nodes:
                continue
            new_width = min(-neg_width, edge.rate_bps)
            new_delay = delay + weight
            label = (-new_width, new_delay)
            if label < best.get(nxt, unset):
                best[nxt] = label
                back[nxt] = edge
                seq += 1
                heapq.heappush(heap, (-new_width, new_delay, seq, nxt))
    return _walk_back(back, src, dst)


def path_weight(path: Sequence[Edge], objective: PathObjective) -> float:
    """Total weight of a path under the given objective."""
    return sum(edge_weight(e, objective) for e in path)


def _keys(path: Sequence[Edge]) -> Tuple[Tuple[str, str, int], ...]:
    return tuple((e.src, e.dst, e.port_id) for e in path)


def k_shortest_paths(
    edges: Sequence[Edge],
    src: str,
    dst: str,
    k: int,
    objective: PathObjective = PathObjective.LOW_DELAY,
    *,
    graph: Optional[GraphView] = None,
) -> List[List[Edge]]:
    """Yen's algorithm: up to ``k`` loopless paths, best first.

    ``graph`` is a prebuilt view of ``edges``; without one the call
    builds its own, which every spur search then shares.
    """
    if k <= 0:
        return []
    if graph is None:
        graph = GraphView(edges)
    first = dijkstra(edges, src, dst, objective, graph=graph)
    if first is None:
        return []
    found: List[List[Edge]] = [first]
    found_keys = [_keys(first)]
    # Keys of every path found or queued: a candidate seen before is
    # skipped.
    seen = set(found_keys)
    candidates: List[Tuple[float, int, List[Edge], Tuple]] = []
    seq = 0
    while len(found) < k:
        previous = found[-1]
        previous_keys = found_keys[-1]
        for i in range(len(previous)):
            spur_node = previous[i].src if i > 0 else src
            root = previous[:i]
            root_keys = previous_keys[:i]
            banned_edges = {
                keys[i] for keys in found_keys
                if i < len(keys) and keys[:i] == root_keys
            }
            banned_nodes = {e.src for e in root}
            spur = dijkstra(
                edges, spur_node, dst, objective,
                banned_edges=banned_edges, banned_nodes=banned_nodes,
                graph=graph,
            )
            if spur is None:
                continue
            candidate = root + spur
            key = root_keys + _keys(spur)
            if key in seen:
                continue
            seen.add(key)
            seq += 1
            heapq.heappush(candidates, (
                path_weight(candidate, objective), seq, candidate, key,
            ))
        if not candidates:
            break
        _w, _s, best_candidate, best_keys = heapq.heappop(candidates)
        found.append(best_candidate)
        found_keys.append(best_keys)
    return found
