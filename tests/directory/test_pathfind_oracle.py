"""Differential tests: the graph-view searches against the slow oracle.

``pathfind_oracle`` is the original search code, which rebuilds its
adjacency and weighs every edge on every call.  The production searches
must return the very same ``Edge`` objects, in the same order, for every
objective, every ``k`` and every ban set — ties included, which is what
the equal-weight Ethernet mesh is for.
"""

import random

import pytest

from repro.core.host import SirpentHost
from repro.core.router import SirpentRouter
from repro.directory.pathfind import (
    GraphView,
    PathObjective,
    dijkstra,
    k_shortest_paths,
)
from repro.net.topology import Topology
from repro.scenarios.builders import build_sirpent_random
from repro.sim.engine import Simulator
from tests.directory import pathfind_oracle as oracle

OBJECTIVES = list(PathObjective)
RANDOM_SEEDS = (1, 2, 3)


def ethernet_mesh(seed):
    """Routers on shared Ethernets plus p2p links of the same weight.

    Every p2p link matches the segments' rate and propagation delay, so
    equal-cost paths abound; a few links are faster, dearer or insecure
    so that every objective has something to choose between.
    """
    rng = random.Random(seed)
    sim = Simulator()
    topo = Topology(sim)
    routers = [topo.add_node(SirpentRouter(sim, f"r{i}")) for i in range(8)]
    for s in range(3):
        ether = topo.add_ethernet(f"eth{s}")
        for router in rng.sample(routers, 4):
            topo.attach_to_ethernet(router, ether, secure=rng.random() < 0.8)
    for i in range(8):
        a, b = rng.sample(routers, 2)
        topo.connect(
            a, b, name=f"p{i}", propagation_delay=5e-6,
            rate_bps=rng.choice([10e6, 10e6, 100e6]),
            cost=rng.choice([1.0, 1.0, 2.0]), secure=rng.random() < 0.8,
        )
    for i in range(6):
        host = topo.add_node(SirpentHost(sim, f"h{i}"))
        topo.connect(host, rng.choice(routers), propagation_delay=5e-6)
    return topo


def random_internetwork(seed):
    return build_sirpent_random(seed=seed).topology


TOPOLOGIES = [
    pytest.param(random_internetwork, seed, id=f"random-{seed}")
    for seed in RANDOM_SEEDS
] + [pytest.param(ethernet_mesh, 7, id="ethernet-mesh")]


def ids(path):
    return None if path is None else [id(edge) for edge in path]


def hosts_of(topo):
    return sorted(n for n in topo.nodes if n.startswith("h"))


@pytest.mark.parametrize("build, seed", TOPOLOGIES)
@pytest.mark.parametrize("objective", OBJECTIVES, ids=lambda o: o.value)
def test_dijkstra_matches_oracle_on_every_pair(build, seed, objective):
    topo = build(seed)
    edges = topo.edges()
    graph = GraphView(edges)
    nodes = sorted(topo.nodes)
    for src in nodes:
        for dst in nodes:
            expected = ids(oracle.dijkstra(edges, src, dst, objective))
            assert ids(dijkstra(edges, src, dst, objective)) == expected
            assert ids(dijkstra(
                edges, src, dst, objective, graph=graph
            )) == expected


@pytest.mark.parametrize("build, seed", TOPOLOGIES)
@pytest.mark.parametrize("objective", OBJECTIVES, ids=lambda o: o.value)
def test_k_shortest_paths_match_oracle_for_k_1_to_4(build, seed, objective):
    topo = build(seed)
    edges = topo.edges()
    graph = GraphView(edges)
    hosts = hosts_of(topo)
    for src in hosts:
        for dst in hosts:
            for k in range(1, 5):
                expected = [
                    ids(p) for p in
                    oracle.k_shortest_paths(edges, src, dst, k, objective)
                ]
                got = k_shortest_paths(edges, src, dst, k, objective)
                assert [ids(p) for p in got] == expected
                shared = k_shortest_paths(
                    edges, src, dst, k, objective, graph=graph
                )
                assert [ids(p) for p in shared] == expected


@pytest.mark.parametrize("build, seed", TOPOLOGIES)
@pytest.mark.parametrize("objective", OBJECTIVES, ids=lambda o: o.value)
def test_explicit_bans_match_oracle(build, seed, objective):
    topo = build(seed)
    edges = topo.edges()
    graph = GraphView(edges)
    hosts = hosts_of(topo)
    rng = random.Random(seed)
    keys = [(e.src, e.dst, e.port_id) for e in edges]
    nodes = sorted(topo.nodes)
    for src in hosts:
        for dst in hosts:
            best = oracle.dijkstra(edges, src, dst, objective) or []
            on_path = [(e.src, e.dst, e.port_id) for e in best]
            interior = [e.dst for e in best[:-1]]
            ban_sets = [
                (set(on_path[:1]), set()),
                (set(), set(interior[:1])),
                (set(on_path[1:2]), set(interior[1:])),
                (set(rng.sample(keys, 10)), set(rng.sample(nodes, 3))),
            ]
            for banned_edges, banned_nodes in ban_sets:
                expected = ids(oracle.dijkstra(
                    edges, src, dst, objective,
                    banned_edges=set(banned_edges),
                    banned_nodes=set(banned_nodes),
                ))
                got = dijkstra(
                    edges, src, dst, objective,
                    banned_edges=set(banned_edges),
                    banned_nodes=set(banned_nodes), graph=graph,
                )
                assert ids(got) == expected


def test_graph_view_builds_each_objective_once():
    edges = random_internetwork(1).edges()
    graph = GraphView(edges)
    low_delay = graph.adjacency(PathObjective.LOW_DELAY)
    assert graph.adjacency(PathObjective.LOW_DELAY) is low_delay
    secure = graph.adjacency(PathObjective.SECURE)
    assert secure is not low_delay
    arcs = sum(len(v) for v in low_delay.values())
    assert arcs == len(edges)
