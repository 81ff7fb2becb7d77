"""Unit tests for the directory service (§3)."""

import pytest

from repro.core.router import SirpentRouter
from repro.core.host import SirpentHost
from repro.directory import DirectoryService, RegionServer, RouteQuery
from repro.directory.pathfind import PathObjective
from repro.net.topology import Topology
from repro.sim.engine import Simulator
from repro.viper.portinfo import EthernetInfo


def build_network(refresh_interval=None):
    """h1 -(eth1)- r1 = r2 -(eth2)- h2 with an alternate r1-r3-r2 path."""
    sim = Simulator()
    topo = Topology(sim)
    h1 = topo.add_node(SirpentHost(sim, "h1"))
    h2 = topo.add_node(SirpentHost(sim, "h2"))
    r1 = topo.add_node(SirpentRouter(sim, "r1"))
    r2 = topo.add_node(SirpentRouter(sim, "r2"))
    r3 = topo.add_node(SirpentRouter(sim, "r3"))
    eth1 = topo.add_ethernet("eth1")
    eth2 = topo.add_ethernet("eth2")
    topo.attach_to_ethernet(h1, eth1)
    topo.attach_to_ethernet(r1, eth1)
    topo.attach_to_ethernet(h2, eth2)
    topo.attach_to_ethernet(r2, eth2)
    topo.connect(r1, r2, propagation_delay=1e-3, mtu=1200, name="main")
    topo.connect(r1, r3, propagation_delay=2e-3, name="alt-a")
    topo.connect(r3, r2, propagation_delay=2e-3, name="alt-b")
    root = RegionServer(sim)
    directory = DirectoryService(
        sim, topo, root_server=root, refresh_interval=refresh_interval
    )
    directory.register_host("h1", "h1.cs.stanford.edu")
    directory.register_host("h2", "h2.lcs.mit.edu")
    return sim, topo, directory


def test_query_returns_route_with_attributes():
    _sim, _topo, directory = build_network()
    routes = directory.query("h1", RouteQuery("h2.lcs.mit.edu"))
    assert len(routes) == 1
    route = routes[0]
    assert route.hop_count == 2
    assert route.mtu == 1200  # bottleneck on the main link
    assert route.bottleneck_bps == 10e6
    assert route.propagation_delay > 1e-3
    # Final segment addresses the destination's socket 0.
    assert route.segments[-1].port == 0


def test_unknown_destination_returns_empty():
    _sim, _topo, directory = build_network()
    assert directory.query("h1", RouteQuery("nobody.example.org")) == []


def test_k_routes_are_distinct_and_ordered():
    _sim, _topo, directory = build_network()
    routes = directory.query("h1", RouteQuery("h2.lcs.mit.edu", k=3))
    assert len(routes) == 2  # main and the r3 detour
    assert routes[0].hop_count < routes[1].hop_count


def test_ethernet_hops_carry_portinfo():
    _sim, _topo, directory = build_network()
    route = directory.query("h1", RouteQuery("h2.lcs.mit.edu"))[0]
    # First hop is h1's Ethernet toward r1: the Route addresses it.
    assert route.first_hop_mac is not None
    # r2's segment exits onto eth2: full 14-byte Ethernet portinfo.
    last_router_segment = route.segments[-2]
    info = EthernetInfo.from_bytes(last_router_segment.portinfo)
    assert info.dst is not None
    # r1's segment crosses the p2p link: VNT set, void portinfo.
    assert route.segments[0].vnt
    assert route.segments[0].portinfo == b""


def test_tokens_minted_per_router():
    _sim, topo, directory = build_network()
    route = directory.query(
        "h1", RouteQuery("h2.lcs.mit.edu", with_tokens=True, account=9)
    )[0]
    router_segments = route.segments[:-1]
    assert all(s.token for s in router_segments)
    # Each token verifies against its router's own mint.
    r1 = topo.node("r1")
    claims = r1.mint.verify(route.segments[0].token)
    assert claims.account == 9
    assert claims.authorizes_port(route.segments[0].port)
    assert directory.tokens_issued == 2


def test_stale_view_hides_recent_failure():
    """With a refresh interval, a just-failed link is still handed out —
    clients must cope via cached alternates (E6's premise)."""
    sim, topo, directory = build_network(refresh_interval=1.0)
    topo.fail_link("main")
    routes = directory.query("h1", RouteQuery("h2.lcs.mit.edu"))
    assert routes[0].hop_count == 2  # still the dead 2-hop path
    sim.run(until=1.5)  # refresh happens
    routes = directory.query("h1", RouteQuery("h2.lcs.mit.edu"))
    assert routes[0].hop_count == 3  # now via r3


def test_live_view_reacts_immediately():
    _sim, topo, directory = build_network(refresh_interval=None)
    topo.fail_link("main")
    routes = directory.query("h1", RouteQuery("h2.lcs.mit.edu"))
    assert routes[0].hop_count == 3


def test_load_reports_steer_low_cost_routes():
    _sim, _topo, directory = build_network()
    before = directory.query(
        "h1", RouteQuery("h2.lcs.mit.edu", objective=PathObjective.LOW_COST)
    )[0]
    assert before.hop_count == 2
    directory.record_load("main", 0.95)
    after = directory.query(
        "h1", RouteQuery("h2.lcs.mit.edu", objective=PathObjective.LOW_COST)
    )[0]
    assert after.hop_count == 3  # detour is now cheaper


# -- the kept graph view: reused while current, never a stale answer ---------

def hops(directory, objective=PathObjective.LOW_DELAY):
    return directory.query(
        "h1", RouteQuery("h2.lcs.mit.edu", objective=objective)
    )[0].hop_count


def test_graph_view_is_kept_but_answers_and_tokens_are_not():
    _sim, _topo, directory = build_network()
    query = RouteQuery("h2.lcs.mit.edu", with_tokens=True)
    first = directory.query("h1", query)[0]
    view = directory.graph_view()
    second = directory.query("h1", query)[0]
    assert directory.graph_view() is view
    assert second is not first
    assert directory.tokens_issued == 4  # two routers, minted twice
    assert second.segments == first.segments  # same route, fresh objects


def test_failed_and_restored_link_rebuild_the_view():
    _sim, topo, directory = build_network()
    assert hops(directory) == 2
    topo.fail_link("main")
    assert hops(directory) == 3
    topo.restore_link("main")
    assert hops(directory) == 2


def test_swapped_link_failures_rebuild_the_view():
    """As many live edges as before, but not the same ones."""
    _sim, topo, directory = build_network()
    topo.fail_link("main")
    assert hops(directory) == 3
    topo.restore_link("main")
    topo.fail_link("alt-a")
    assert hops(directory) == 2


def test_failed_segment_rebuilds_the_view():
    _sim, topo, directory = build_network()
    assert hops(directory) == 2
    topo.fail_link("eth2")
    assert directory.query("h1", RouteQuery("h2.lcs.mit.edu")) == []


def test_new_link_rebuilds_the_view():
    _sim, topo, directory = build_network()
    topo.fail_link("main")
    assert hops(directory) == 3
    topo.connect(topo.node("r1"), topo.node("r2"), name="express")
    assert hops(directory) == 2


def test_load_reports_rebuild_the_view_both_ways():
    _sim, _topo, directory = build_network()
    assert hops(directory, PathObjective.LOW_COST) == 2
    directory.record_load("main", 0.95)
    view = directory.graph_view()
    assert hops(directory, PathObjective.LOW_COST) == 3
    directory.record_load("main", 0.95)  # no change: the view is kept
    assert directory.graph_view() is view
    directory.record_load("main", 0.0)
    assert hops(directory, PathObjective.LOW_COST) == 2


def test_rebind_to_another_provider_changes_the_next_answer():
    _sim, _topo, directory = build_network()
    assert hops(directory) == 2
    view = directory.graph_view()
    directory.rebind_host("r3", "h2.lcs.mit.edu")
    assert hops(directory) == 1  # h1 -> r1 -> r3
    assert directory.graph_view() is view  # bindings are not in the graph


def test_snapshot_view_stays_stale_until_refresh():
    sim, topo, directory = build_network(refresh_interval=1.0)
    assert hops(directory) == 2
    topo.fail_link("main")
    assert hops(directory) == 2  # the snapshot still has the dead link
    sim.run(until=1.5)  # refresh happens
    assert hops(directory) == 3
    topo.restore_link("main")
    assert hops(directory) == 3
    directory.force_refresh()
    assert hops(directory) == 2


def test_query_latency_includes_region_walk():
    _sim, _topo, directory = build_network()
    latency = directory.query_latency("h1", "h2.lcs.mit.edu")
    assert latency > directory.query_rtt  # cross-region hops add cost
    # Cached second lookup: just the server round trip.
    latency2 = directory.query_latency("h1", "h2.lcs.mit.edu")
    assert latency2 == pytest.approx(directory.query_rtt)


def test_query_async_delivers_after_latency():
    sim, _topo, directory = build_network()
    results = []
    directory.query_async(
        "h1", RouteQuery("h2.lcs.mit.edu"),
        lambda routes: results.append((sim.now, routes)),
    )
    sim.run(until=1.0)
    assert results
    at, routes = results[0]
    assert at > 0 and routes


def test_advisory_fires_on_route_change():
    sim, topo, directory = build_network()
    advisories = []
    directory.subscribe(
        "h1", RouteQuery("h2.lcs.mit.edu"), advisories.append
    )
    sim.run(until=0.2)
    assert len(advisories) == 1  # initial advisory
    topo.fail_link("main")
    sim.run(until=0.5)
    assert len(advisories) == 2
    assert advisories[-1][0].hop_count == 3


def test_route_max_payload_and_expected_rtt():
    _sim, _topo, directory = build_network()
    route = directory.query("h1", RouteQuery("h2.lcs.mit.edu"))[0]
    assert 0 < route.max_payload() < route.mtu
    rtt = route.expected_rtt(500)
    assert rtt > 2 * route.propagation_delay
