"""The benchmark's three closed-loop workloads.

Every workload drives the unchanged ``repro.live`` code over loopback
sockets from one process and one asyncio loop.  Each of its workers
issues an operation, waits for the reply, checks it, and only then
issues the next one (a closed loop, like §4 transactions and directory
lookups).  Worker ``w`` draws its operations from its own generator,
seeded from the workload seed and ``w``, so two runs with one seed
issue the same sequence.

* ``fwd-small`` — 32 transactions in flight over a 3-router chain, a
  32 B request and a 32 B reply on one flow: per-datagram cost.
* ``fwd-flows`` — the same chain and window, round-robin over 4096
  distinct-token routes (4x the 1024-entry flow cache), requests of a
  seeded mix of 64/512/1400/4096 B echoed at the same size: cold
  decides, token-cache lookups, return-tail encodes, packet groups.
* ``dir-mix`` — two directory TCP connections with 16 requests in
  flight each: 90% ``routes(k=2, with_tokens=True)`` over a fixed
  seeded random internetwork, 10% ``rebind`` into a 4-shard, rf=2
  cluster.
"""

from __future__ import annotations

import asyncio
import bisect
import random
import resource
import time
from array import array
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.core.host import SirpentHost
from repro.core.router import SirpentRouter
from repro.directory.cluster import ClusterClient, DirectoryCluster
from repro.directory.service import RouteQuery
from repro.live import (
    DirectoryError,
    LiveDirectoryClient,
    LiveDirectoryServer,
    LiveOverlay,
    LiveTransactor,
    TransactorConfig,
    WallClock,
    as_live_route,
)
from repro.live.directory import ClusterDirectoryBackend
from repro.net.topology import Topology
from repro.scenarios.builders import build_sirpent_random
from repro.sim.engine import Simulator
from repro.tokens.capability import InvalidTokenError
from repro.transport.flowcontrol import split_into_group
from repro.transport.rebind import RouteManager
from repro.viper.errors import ViperDecodeError

from sirbench.hostspeed import SpeedProbe

#: Outcome of one operation.
OK, WRONG, ERROR = 0, 1, 2

#: Length of the sub-windows a measurement window is cut into.  Each
#: slice is normalised by the host's speed read during it, so short
#: slices follow the host's drift; a 30 s window yields 30 of them, and
#: their median absorbs the few percent by which the operation count of
#: one slice moves as the 32 workers complete in waves.
SLICE_S = 1.0
#: A warm-up that takes longer than this means the run is broken.
WARMUP_LIMIT_S = 90.0

#: Transactions in flight on the forwarding workloads (as l01).
FWD_WINDOW = 32
#: Client transaction timeout.  The library default (50 ms) is below
#: the queueing delay a window of 32 builds on one saturated loop
#: (p50 about 50 ms on fwd-flows), so it would fire on replies that are
#: merely queued and the run would measure the retransmission timer,
#: not forwarding cost.  Retries stay counted (``transport.retries``).
TX_TIMEOUT_S = 0.5
SMALL_BYTES = 32
FLOW_ROUTES = 4096
FLOW_SIZES = (64, 512, 1400, 4096)
#: Largest request or reply any workload sends (sizes the reply key).
MAX_BYTES = max(FLOW_SIZES)

DIR_CONNECTIONS = 2
DIR_WINDOW = 16
WRITE_SHARE = 0.10
ROUTES_K = 2
DIR_ROUTERS = 32
DIR_HOSTS = 16
DIR_CHORDS = 16
#: The internetwork is built from this fixed seed, so every run measures
#: the same network; the workload seed drives the request streams.  (A
#: network drawn per run seed changes pathfinding cost by about 20%.)
DIR_TOPOLOGY_SEED = 1
#: Names each dir-mix worker rebinds (its own, so the final state of
#: every name is known: the last rebind its one worker saw succeed).
NAMES_PER_WORKER = 8


class ReplyCodec:
    """The forwarding server's reply: the request XOR a seeded key.

    Every reply byte depends on the request byte at the same offset and
    on the seed, so the client can check each reply byte for byte.
    """

    def __init__(self, seed: int) -> None:
        key = random.Random(f"reply-key:{seed}").randbytes(MAX_BYTES)
        self._key = int.from_bytes(key, "big")

    def reply(self, request: bytes) -> bytes:
        n = len(request)
        key = self._key >> (8 * (MAX_BYTES - n))
        return (int.from_bytes(request, "big") ^ key).to_bytes(n, "big")


def _chain() -> Topology:
    """client — r1 — r2 — r3 — server."""
    sim = Simulator()
    topo = Topology(sim)
    nodes = [SirpentHost(sim, "client")]
    nodes += [SirpentRouter(sim, f"r{i}") for i in (1, 2, 3)]
    nodes.append(SirpentHost(sim, "server"))
    for a, b in zip(nodes, nodes[1:]):
        topo.connect(a, b)
    return topo


class Forwarding:
    """``fwd-small`` and ``fwd-flows``: transactions over the live overlay.

    ``serve`` replaces the server's reply function (the self-tests use
    it to prove a wrong reply is caught); ``store`` is the traced run's
    span store, which times the benchmark's own serve and check work.
    """

    workers = FWD_WINDOW

    def __init__(
        self,
        seed: int,
        routes: int,
        sizes: Tuple[int, ...],
        serve: Optional[Callable[[bytes], bytes]] = None,
        store=None,
    ) -> None:
        self.seed = seed
        self.route_count = routes
        #: Warm-up lasts until every worker has used each of its routes
        #: once, so every token is verified and cached before timing.
        self.warmup_ops = -(-routes // self.workers)
        self.sizes = sizes
        self.codec = ReplyCodec(seed)
        self.serve = serve if serve is not None else self.codec.reply
        self.check = self._check
        if store is not None:
            self.serve = store.wrap("app.serve", self.serve)
            self.check = store.wrap("app.check", self._check)
        self.overlay: Optional[LiveOverlay] = None
        self.client: Optional[LiveTransactor] = None
        self.managers: List[RouteManager] = []
        #: Running transport totals over completed transactions.
        self.transport = {"members": 0, "retries": 0, "switches": 0,
                          "probes": 0}

    async def setup(self) -> None:
        overlay = LiveOverlay(_chain())
        await overlay.start()
        self.overlay = overlay
        self.client = LiveTransactor(
            overlay.hosts["client"],
            TransactorConfig(base_timeout_s=TX_TIMEOUT_S),
        )
        server = LiveTransactor(overlay.hosts["server"])
        server.serve(self.serve)
        socket = self.client.config.socket
        routes = [
            as_live_route(route)
            for account in range(self.route_count)
            for route in overlay.directory.query("client", RouteQuery(
                destination="server", dest_socket=socket,
                with_tokens=True, account=account,
            ))
        ]
        if len(routes) != self.route_count:
            raise RuntimeError(
                f"directory gave {len(routes)} routes, "
                f"wanted {self.route_count}"
            )
        self.managers = [RouteManager(WallClock(), [r]) for r in routes]

    def teardown(self) -> None:
        if self.overlay is not None:
            self.overlay.stop()
            self.overlay = None

    def stream(self, worker: int) -> Iterator[Tuple[RouteManager, bytes]]:
        rng = random.Random(f"{self.seed}:{worker}")
        index = worker
        while True:
            size = rng.choice(self.sizes)
            yield self.managers[index % self.route_count], rng.randbytes(size)
            index += self.workers

    def _check(self, request: bytes, reply: bytes) -> bool:
        return reply == self.codec.reply(request)

    async def issue(self, item) -> Tuple[int, int, bool]:
        manager, request = item
        result = await self.client.transact(manager, request)
        totals = self.transport
        totals["retries"] += result.retries
        totals["switches"] += result.route_switches
        totals["probes"] += result.probes
        if not result.ok:
            return ERROR, 0, False
        totals["members"] += 2 * len(split_into_group(
            len(request), self.client.config.max_member_payload
        ))
        if not self.check(request, result.payload):
            return WRONG, 0, False
        return OK, 2 * len(request), False

    def nodes(self):
        overlay = self.overlay
        return [*overlay.routers.values(), *overlay.hosts.values()]

    def counters(self) -> Dict[str, float]:
        routers = list(self.overlay.routers.values())
        nodes = self.nodes()
        return {
            "frames_out": sum(n.metrics.frames_out for n in nodes),
            "rx_datagrams": sum(n.endpoint.rx_datagrams for n in nodes),
            "rx_batches": sum(n.endpoint.rx_batches for n in nodes),
            "acks_out": sum(n.metrics.acks_out for n in nodes),
            "retries": sum(n.metrics.retries for n in nodes),
            "drops": sum(n.metrics.total_drops() for n in nodes),
            "forwarded": sum(r.metrics.forwarded for r in routers),
            "flow_hits": sum(r.flow_cache.stats.hits for r in routers),
            "flow_misses": sum(r.flow_cache.stats.misses for r in routers),
            "flow_evictions": sum(
                r.flow_cache.stats.evictions for r in routers
            ),
            "token_hits": sum(r.token_cache.hits for r in routers),
            "token_misses": sum(r.token_cache.misses for r in routers),
            **{f"tx_{k}": v for k, v in self.transport.items()},
        }

    def tx_backlog(self) -> int:
        # The endpoint keeps no counter for its transmit backlog.
        return max(len(n.endpoint._tx_backlog) for n in self.nodes())


class DirectoryMix:
    """``dir-mix``: route lookups and rebinds over the live directory."""

    workers = DIR_CONNECTIONS * DIR_WINDOW
    warmup_ops = 0

    def __init__(self, seed: int, store=None) -> None:
        self.seed = seed
        self.store = store
        self.check_routes = self._check_routes
        if store is not None:
            self.check_routes = store.wrap("app.check", self._check_routes)
        self.scenario = None
        self.server: Optional[LiveDirectoryServer] = None
        self.clients: List[LiveDirectoryClient] = []
        self.cluster: Optional[DirectoryCluster] = None
        self._next: Dict[Tuple[str, int], str] = {}
        #: name -> the node its last rebind named, or None while that
        #: rebind failed (it may or may not have been applied).  One
        #: connection carries a worker's rebinds and the server applies
        #: them in order, so a later success settles the name again.
        self.expected: Dict[str, Optional[str]] = {}
        #: ``(client, destination, k)`` keys queried so far, and repeats.
        self._seen: set = set()
        self.queries = 0
        self.repeats = 0

    async def setup(self) -> None:
        scenario = build_sirpent_random(
            n_routers=DIR_ROUTERS, n_hosts=DIR_HOSTS,
            extra_edges=DIR_CHORDS, seed=DIR_TOPOLOGY_SEED,
        )
        self.scenario = scenario
        self._next = {
            (edge.src, edge.port_id): edge.dst
            for edge in scenario.topology.all_edges()
        }
        self.cluster = DirectoryCluster(shard_count=4, replication_factor=2)
        backend = ClusterDirectoryBackend(
            ClusterClient(self.cluster.execute_raw, name="dirserver")
        )
        query = scenario.directory.query
        if self.store is not None:
            query = self.store.wrap("directory.query", self._counted(query))
        self.server = LiveDirectoryServer(query, backend=backend)
        address = await self.server.start()
        self.clients = []
        for c in range(DIR_CONNECTIONS):
            client = LiveDirectoryClient(name=f"h{c}")
            await client.connect(address)
            self.clients.append(client)

    def _counted(self, query):
        def counted(client: str, q: RouteQuery):
            key = (client, q.destination, q.k)
            self.queries += 1
            if key in self._seen:
                self.repeats += 1
            else:
                self._seen.add(key)
            return query(client, q)
        return counted

    def teardown(self) -> None:
        for client in self.clients:
            client.close()
        self.clients = []
        if self.server is not None:
            self.server.stop()
            self.server = None

    def stream(self, worker: int) -> Iterator[tuple]:
        rng = random.Random(f"{self.seed}:dir-mix:{worker}")
        c = worker // DIR_WINDOW
        hosts = [f"h{i}" for i in range(DIR_HOSTS)]
        others = [h for h in hosts if h != f"h{c}"]
        while True:
            if rng.random() < WRITE_SHARE:
                name = f"n{rng.randrange(NAMES_PER_WORKER)}.w{worker}.bench"
                yield "rebind", c, name, rng.choice(hosts)
            else:
                yield "routes", c, rng.choice(others), None

    async def issue(self, item) -> Tuple[int, int, bool]:
        kind, c, target, node = item
        client = self.clients[c]
        if kind == "rebind":
            try:
                result = await client.rebind(target, node)
            except DirectoryError:
                self.expected[target] = None
                return ERROR, 0, True
            if result.get("name") != target or result.get("node") != node:
                return WRONG, 0, True
            self.expected[target] = node
            return OK, 0, True
        try:
            routes = await client.routes(
                f"{target}.lab.edu", k=ROUTES_K, with_tokens=True,
            )
        except DirectoryError:
            return ERROR, 0, False
        except (KeyError, TypeError, ValueError, ViperDecodeError):
            return WRONG, 0, False  # the answer did not decode
        if not self.check_routes(client.name, target, routes):
            return WRONG, 0, False
        return OK, 0, False

    def _check_routes(self, client: str, destination: str, routes) -> bool:
        """Each route leads hop by hop from ``client`` to ``destination``,
        every router hop carrying a token that router minted for it."""
        if not 1 <= len(routes) <= ROUTES_K:
            return False
        routers = self.scenario.routers
        for route in routes:
            node = self._next.get((client, route.first_hop_port))
            for segment in route.segments[:-1]:
                router = routers.get(node)
                if router is None or not segment.token:
                    return False
                try:
                    claims = router.mint.verify(segment.token)
                except InvalidTokenError:
                    return False
                if claims.port != segment.port:
                    return False
                node = self._next.get((node, segment.port))
            if node != destination or route.segments[-1].port != 0:
                return False
        return True

    def final_state(self) -> Tuple[int, int]:
        """``(names checked, names whose cluster binding is not the last
        rebind acknowledged for them)``."""
        reader = ClusterClient(self.cluster.execute_raw, name="verifier")
        checked = wrong = 0
        for name, node in sorted(self.expected.items()):
            if node is None:
                continue
            checked += 1
            if reader.lookup(name, use_cache=False).get("node") != node:
                wrong += 1
        return checked, wrong

    def counters(self) -> Dict[str, float]:
        server = self.server
        return {
            "errors": server.errors,
            "dedup_hits": server.dedup_hits,
            "connections_dropped": server.connections_dropped,
            "write_retries": sum(c.write_retries for c in self.clients),
            "cluster_retries": self.server.backend.client.retries,
            "mints": self.scenario.directory.tokens_issued,
            "queries": self.queries,
            "repeats": self.repeats,
        }


WORKLOADS = {
    "fwd-small": lambda seed, **kw: Forwarding(
        seed, routes=1, sizes=(SMALL_BYTES,), **kw),
    "fwd-flows": lambda seed, **kw: Forwarding(
        seed, routes=FLOW_ROUTES, sizes=FLOW_SIZES, **kw),
    "dir-mix": lambda seed, **kw: DirectoryMix(seed, **kw),
}


# -- the closed-loop harness ------------------------------------------------


class Snapshot:
    """Clocks, counters and the peak resident set (MB) at one instant."""

    def __init__(self, workload) -> None:
        self.wall = time.perf_counter()
        self.cpu = time.process_time()
        self.counters = workload.counters()
        self.peak_rss_mb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )


class Results:
    """Every completed operation, in completion order, kept in arrays.

    Arrays keep the benchmark's own memory small and flat, so the run's
    peak RSS is the program's, whatever the throughput.
    """

    def __init__(self) -> None:
        self.done = array("d")
        self.latency = array("d")
        self.outcome = array("b")
        self.nbytes = array("q")
        self.write = array("b")

    def add(self, done: float, latency: float, outcome: int,
            nbytes: int, write: bool) -> None:
        self.done.append(done)
        self.latency.append(latency)
        self.outcome.append(outcome)
        self.nbytes.append(nbytes)
        self.write.append(write)


class Slice:
    """One sub-window: its length, CPU, counter deltas, completions and
    the host's slowdown over it (:mod:`sirbench.hostspeed`)."""

    def __init__(self, start: Snapshot, end: Snapshot, results: Results,
                 speed: SpeedProbe) -> None:
        self.slowdown = speed.slowdown(start.wall, end.wall)
        self.elapsed = end.wall - start.wall
        self.cpu_s = end.cpu - start.cpu
        self.delta = {
            k: end.counters[k] - start.counters[k] for k in end.counters
        }
        lo = bisect.bisect_left(results.done, start.wall)
        hi = bisect.bisect_left(results.done, end.wall)
        outcome = results.outcome
        codes = outcome[lo:hi]
        self.attempted = hi - lo
        self.wrong = codes.count(WRONG)
        self.failed = self.attempted - codes.count(OK)
        good = [i for i in range(lo, hi) if outcome[i] == OK]
        self.completed = len(good)
        latency = results.latency
        self.latencies = sorted(latency[i] for i in good)
        self.write_latencies = sorted(
            latency[i] for i in good if results.write[i]
        )
        self.payload_bytes = sum(results.nbytes[i] for i in good)


class Window(Slice):
    """What one measurement window saw, whole and in slices.

    The machine's speed drifts by tens of percent from one second to
    the next, so the end-to-end metrics are medians over the slices, each
    normalised by its own slowdown.  The window's own slowdown (over all
    its readings) normalises the percentiles pooled over the window.
    """

    def __init__(self, snaps: List[Snapshot], results: Results,
                 speed: SpeedProbe) -> None:
        super().__init__(snaps[0], snaps[-1], results, speed)
        #: Taken as the window closes, before any analysis of the run.
        self.peak_rss_mb = snaps[-1].peak_rss_mb
        self.slices = [
            Slice(a, b, results, speed) for a, b in zip(snaps, snaps[1:])
        ]


class LoopProbe:
    """Loop lag and transmit backlog, sampled by a ``call_later`` chain.

    Each tick is due ``PERIOD`` after the previous one ran; how late it
    actually runs is the time ready work waited for the loop.
    """

    PERIOD = 0.005

    def __init__(self, backlog: Optional[Callable[[], int]] = None) -> None:
        self.lags: List[float] = []
        self.backlog_max = 0
        self._backlog = backlog
        self._loop = asyncio.get_running_loop()
        self._handle = None
        self._due = 0.0

    def start(self) -> None:
        self._due = self._loop.time() + self.PERIOD
        self._handle = self._loop.call_at(self._due, self._tick)

    def _tick(self) -> None:
        now = self._loop.time()
        self.lags.append(now - self._due)
        if self._backlog is not None:
            self.backlog_max = max(self.backlog_max, self._backlog())
        self._due = now + self.PERIOD
        self._handle = self._loop.call_at(self._due, self._tick)

    def stop(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None


async def measure(workload, warmup_s: float, seconds: float,
                  at_start: Optional[Callable[[], None]] = None,
                  at_end: Optional[Callable[[], None]] = None) -> Window:
    """Run the workload's closed loop; measure ``seconds`` after warm-up.

    Warm-up lasts ``warmup_s`` and until every worker has completed
    ``workload.warmup_ops`` operations.  A :class:`SpeedProbe` reads the
    host's speed throughout the window.

    ``at_start``/``at_end`` run right at the window's edges (the traced
    run resets and freezes its span store there).  Operations still in
    flight when the window closes finish before this returns, but only
    those that completed inside the window are counted.
    """
    results = Results()
    speed = SpeedProbe()
    done_per_worker = [0] * workload.workers
    stop = False

    async def worker(w: int) -> None:
        clock = time.perf_counter
        for item in workload.stream(w):
            if stop:
                return
            began = clock()
            outcome, nbytes, is_write = await workload.issue(item)
            done = clock()
            results.add(done, done - began, outcome, nbytes, is_write)
            done_per_worker[w] += 1

    loop = asyncio.get_running_loop()
    tasks = [loop.create_task(worker(w)) for w in range(workload.workers)]
    try:
        await asyncio.sleep(warmup_s)
        give_up = time.perf_counter() + WARMUP_LIMIT_S
        while min(done_per_worker) < workload.warmup_ops:
            if time.perf_counter() > give_up:
                raise RuntimeError(
                    f"warm-up incomplete after {WARMUP_LIMIT_S:g} s: "
                    f"slowest worker finished {min(done_per_worker)} "
                    f"of {workload.warmup_ops} operations"
                )
            await asyncio.sleep(0.05)
        if at_start is not None:
            at_start()
        speed.start()
        snaps = [Snapshot(workload)]
        slices = max(1, round(seconds / SLICE_S))
        for i in range(1, slices + 1):
            due = snaps[0].wall + seconds * i / slices
            await asyncio.sleep(max(0.0, due - time.perf_counter()))
            snaps.append(Snapshot(workload))
        if at_end is not None:
            at_end()
        speed.stop()
        stop = True
        await asyncio.wait_for(asyncio.gather(*tasks), timeout=60.0)
    finally:
        speed.stop()
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
    return Window(snaps, results, speed)
