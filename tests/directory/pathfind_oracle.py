"""Slow differential oracle for ``repro.directory.pathfind``.

This is the directory's original search code: it rebuilds the adjacency
from the edge list on every call and weighs every edge as it relaxes
it.  ``test_pathfind_oracle.py`` checks that the production searches,
which run over a prebuilt :class:`~repro.directory.pathfind.GraphView`,
return the same ``Edge`` objects in the same order.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple

from repro.directory.pathfind import (
    PathObjective,
    edge_allowed,
    edge_weight,
    path_weight,
)
from repro.net.topology import Edge


def _adjacency(edges: Sequence[Edge]) -> Dict[str, List[Edge]]:
    adj: Dict[str, List[Edge]] = {}
    for edge in edges:
        adj.setdefault(edge.src, []).append(edge)
    return adj


def dijkstra(
    edges: Sequence[Edge],
    src: str,
    dst: str,
    objective: PathObjective = PathObjective.LOW_DELAY,
    banned_edges: Optional[set] = None,
    banned_nodes: Optional[set] = None,
) -> Optional[List[Edge]]:
    """Best path as a list of edges, or None when unreachable."""
    if objective is PathObjective.HIGH_BANDWIDTH:
        return _widest_path(edges, src, dst, banned_edges, banned_nodes)
    adj = _adjacency(edges)
    banned_edges = banned_edges or set()
    banned_nodes = banned_nodes or set()
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
        for edge in adj.get(node, ()):
            if (edge.src, edge.dst, edge.port_id) in banned_edges:
                continue
            if edge.dst in banned_nodes:
                continue
            if not edge_allowed(edge, objective):
                continue
            nd = d + edge_weight(edge, objective)
            if nd < dist.get(edge.dst, float("inf")):
                dist[edge.dst] = nd
                back[edge.dst] = edge
                seq += 1
                heapq.heappush(heap, (nd, seq, edge.dst))
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


def _widest_path(
    edges: Sequence[Edge],
    src: str,
    dst: str,
    banned_edges: Optional[set],
    banned_nodes: Optional[set],
) -> Optional[List[Edge]]:
    """Maximize bottleneck bandwidth; ties broken by low delay."""
    adj = _adjacency(edges)
    banned_edges = banned_edges or set()
    banned_nodes = banned_nodes or set()
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
        for edge in adj.get(node, ()):
            if (edge.src, edge.dst, edge.port_id) in banned_edges:
                continue
            if edge.dst in banned_nodes:
                continue
            new_width = min(-neg_width, edge.rate_bps)
            new_delay = delay + edge_weight(edge, PathObjective.LOW_DELAY)
            label = (-new_width, new_delay)
            if label < best.get(edge.dst, (float("inf"), float("inf"))):
                best[edge.dst] = label
                back[edge.dst] = edge
                seq += 1
                heapq.heappush(heap, (-new_width, new_delay, seq, edge.dst))
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


def k_shortest_paths(
    edges: Sequence[Edge],
    src: str,
    dst: str,
    k: int,
    objective: PathObjective = PathObjective.LOW_DELAY,
) -> List[List[Edge]]:
    """Yen's algorithm: up to ``k`` loopless paths, best first."""
    if k <= 0:
        return []
    first = dijkstra(edges, src, dst, objective)
    if first is None:
        return []
    found: List[List[Edge]] = [first]
    candidates: List[Tuple[float, int, List[Edge]]] = []
    seq = 0
    while len(found) < k:
        previous = found[-1]
        for i in range(len(previous)):
            spur_node = previous[i].src if i > 0 else src
            root = previous[:i]
            banned_edges = set()
            for path in found:
                if [
                    (e.src, e.dst, e.port_id) for e in path[:i]
                ] == [(e.src, e.dst, e.port_id) for e in root]:
                    if i < len(path):
                        e = path[i]
                        banned_edges.add((e.src, e.dst, e.port_id))
            banned_nodes = {e.src for e in root}
            spur = dijkstra(
                edges, spur_node, dst, objective,
                banned_edges=banned_edges, banned_nodes=banned_nodes,
            )
            if spur is None:
                continue
            candidate = root + spur
            key = [(e.src, e.dst, e.port_id) for e in candidate]
            if any(
                key == [(e.src, e.dst, e.port_id) for e in p]
                for p in found
            ):
                continue
            if any(key == [(e.src, e.dst, e.port_id) for e in c] for _w, _s, c in candidates):
                continue
            seq += 1
            heapq.heappush(
                candidates, (path_weight(candidate, objective), seq, candidate)
            )
        if not candidates:
            break
        _w, _s, best_candidate = heapq.heappop(candidates)
        found.append(best_candidate)
    return found
