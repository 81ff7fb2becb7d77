"""Run one workload of the Sirpent benchmark and print its metrics.

Usage, from the repository root::

    python3 sirbench/run.py --workload fwd-small --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing traced, each
time and rate normalised by the host's speed (:mod:`sirbench.hostspeed`).
``--trace 1`` is the traced run: half the window untraced, then the
same workload rebuilt with every layer wrapped (:mod:`sirbench.tracing`)
for the other half; it prints the per-layer metrics, the per-datagram
(or per-operation) ledger and the tracing overhead between the halves,
and writes the spans to ``sirbench/out/``.

A readable report goes to standard output first; the last line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  See
``sirbench/README.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import statistics
import sys
import time
from typing import Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: ``setup_s`` is the median of at least ``SETUP_REPEATS`` set-ups,
#: repeated until they took ``SETUP_MIN_S`` in all (cheap set-ups get
#: more samples), but never more than ``SETUP_MAX`` of them.
SETUP_REPEATS = 7
SETUP_MIN_S = 0.5
SETUP_MAX = 50
#: Closed-loop warm-up before each window (caches fill, loop settles).
WARMUP_S = 1.0

Metrics = Dict[str, Tuple[float, str]]


def quantile(ordered: List[float], q: float) -> float:
    """Nearest-rank quantile of sorted samples (0.0 when empty)."""
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


async def _set_up(make, repeats: int = 1, min_seconds: float = 0.0):
    """Build the workload ``repeats`` times or more, until the builds took
    ``min_seconds`` (at most ``SETUP_MAX``); keep the last build.

    Returns the workload, every build's duration normalised by the host's
    slowdown read before and after it, and every build's raw duration.
    """
    from sirbench.hostspeed import kernel_s, slowdown

    times: List[float] = []
    raw: List[float] = []
    while True:
        workload = make()
        before = kernel_s()
        began = time.perf_counter()
        await workload.setup()
        raw.append(time.perf_counter() - began)
        times.append(raw[-1] / slowdown(before, kernel_s()))
        enough = len(raw) >= repeats and sum(raw) >= min_seconds
        if enough or len(raw) >= SETUP_MAX:
            return workload, times, raw
        workload.teardown()
        await asyncio.sleep(0.01)
        # Free each discarded build (its buffer rings sit in reference
        # cycles) before the next, so peak RSS reflects one live build.
        gc.collect()


def _finish(workload, window) -> None:
    """Post-run correctness: dir-mix also checks the cluster's final state."""
    if hasattr(workload, "final_state"):
        checked, mismatches = workload.final_state()
        window.attempted += checked
        window.wrong += mismatches
        window.failed += mismatches


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(window, setup_s: float) -> Tuple[Metrics, Metrics]:
    """``(bounded, reported)``: the metrics in BENCHMARK.json, then the rest.

    Every time and rate is normalised by the host's slowdown
    (:mod:`sirbench.hostspeed`).  Rates, CPU per operation and the p50/p90
    latencies are medians over the window's slices, each normalised by
    its own slowdown; p99 and the write p90 pool the whole window, which
    they need for enough samples beyond the percentile, and are
    normalised by the window's slowdown.  The ``raw_`` metrics are the
    same medians before normalisation.
    """
    slices = window.slices

    def per_slice(fn, exponent: int = 0) -> float:
        # exponent 1 for a rate, -1 for a time, 0 to leave it raw.
        return _median([fn(s) * s.slowdown ** exponent
                        for s in slices if s.completed])

    def ops(s) -> float:
        return s.completed / s.elapsed

    def p50_ms(s) -> float:
        return quantile(s.latencies, 0.50) * 1e3

    def p90_ms(s) -> float:
        return quantile(s.latencies, 0.90) * 1e3

    def cpu_us(s) -> float:
        return s.cpu_s * 1e6 / s.completed

    bounded: Metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (per_slice(ops, 1), "1/s"),
        "latency_p50_ms": (per_slice(p50_ms, -1), "ms"),
        "latency_p90_ms": (per_slice(p90_ms, -1), "ms"),
        "cpu_us_per_op": (per_slice(cpu_us, -1), "us"),
        "peak_rss_mb": (window.peak_rss_mb, "MB"),
    }
    pooled = 1e3 / window.slowdown
    reported: Metrics = {
        "latency_p99_ms": (quantile(window.latencies, 0.99) * pooled, "ms"),
        "failed_share": (_ratio(window.failed, window.attempted), "ratio"),
    }
    if "frames_out" in window.delta:
        reported["datagrams_per_s"] = (
            per_slice(lambda s: s.delta["frames_out"] / s.elapsed, 1), "1/s")
        reported["goodput_mbit_s"] = (
            per_slice(lambda s: s.payload_bytes * 8 / 1e6 / s.elapsed, 1),
            "Mbit/s")
        reported["transport_retries"] = (window.delta["tx_retries"], "count")
        reported["link_retries"] = (window.delta["retries"], "count")
    else:
        reported["write_latency_p90_ms"] = (
            quantile(window.write_latencies, 0.90) * pooled, "ms")
    reported["host_slowdown"] = (window.slowdown, "ratio")
    reported["raw_ops_per_s"] = (per_slice(ops), "1/s")
    reported["raw_latency_p50_ms"] = (per_slice(p50_ms), "ms")
    reported["raw_latency_p90_ms"] = (per_slice(p90_ms), "ms")
    reported["raw_cpu_us_per_op"] = (per_slice(cpu_us), "us")
    return bounded, reported


def per_layer(base, traced, summary, probe) -> Tuple[Metrics, list]:
    """The traced run's per-layer metrics and its ledger rows."""
    from sirbench.tracing import ledger_rows

    d = traced.delta
    s = summary
    fwd = "frames_out" in d
    dgrams = d.get("frames_out", 0)
    units = dgrams if fwd else traced.completed
    base_cpu = _ratio(base.cpu_s * 1e6, base.completed)
    traced_cpu = _ratio(traced.cpu_s * 1e6, traced.completed)
    rows = ledger_rows(s, units, traced.cpu_s * 1e6)
    residual_us, residual_share = rows[-1][4], rows[-1][5]
    flow = d.get("flow_hits", 0) + d.get("flow_misses", 0)
    tokens = d.get("token_hits", 0) + d.get("token_misses", 0)
    m: Metrics = {
        "link.rx_self_us": (
            _ratio(s.self_us("link.rx"), d.get("rx_datagrams", 0)), "us"),
        "link.rx_batch_fill": (
            _ratio(d.get("rx_datagrams", 0), d.get("rx_batches", 0)),
            "count"),
        "link.tx_us": (s.per_call_us("link.tx"), "us"),
        "link.acks_out_per_dgram": (
            _ratio(d.get("acks_out", 0), dgrams), "count"),
        "link.tx_backlog_max": (probe.backlog_max, "count"),
        "link.retries": (d.get("retries", 0), "count"),
        "link.drops": (d.get("drops", 0), "count"),
        "frames.parse_us": (s.per_call_us("frames.parse"), "us"),
        "frames.hop_move_us": (s.per_call_us("frames.hop_move"), "us"),
        "frames.fallback_share": (
            _ratio(s.counter("frames.fallbacks"), d.get("forwarded", 0)),
            "ratio"),
        "frames.host_decode_us": (
            s.per_call_us("frames.host_decode"), "us"),
        "dataplane.decide_warm_us": (
            s.per_call_us("dataplane.decide_warm"), "us"),
        "dataplane.decide_cold_us": (
            s.per_call_us("dataplane.decide_cold"), "us"),
        "dataplane.flow_cache_hit_rate": (
            _ratio(d.get("flow_hits", 0), flow), "ratio"),
        "dataplane.flow_cache_evictions": (
            d.get("flow_evictions", 0), "count"),
        "tokens.cache_hit_rate": (
            _ratio(d.get("token_hits", 0), tokens), "ratio"),
        "tokens.verifies": (d.get("token_misses", 0), "count"),
        "router.batch_self_us": (
            _ratio(s.self_us("router.batch"), d.get("forwarded", 0)), "us"),
        "host.send_us": (s.per_call_us("host.send"), "us"),
        "host.deliver_us": (s.per_call_us("host.deliver"), "us"),
        "transport.members_per_op": (
            _ratio(d.get("tx_members", 0), traced.completed), "count"),
        "transport.retries": (d.get("tx_retries", 0), "count"),
        "transport.route_switches": (d.get("tx_switches", 0), "count"),
        "transport.probes": (d.get("tx_probes", 0), "count"),
        "obs.recorder_us": (s.per_call_us("obs.recorder"), "us"),
        "obs.recorder_events_per_dgram": (
            _ratio(s.calls("obs.recorder"), dgrams), "count"),
        "loop.busy_share": (_ratio(base.cpu_s, base.elapsed), "ratio"),
        "loop.lag_p90_ms": (quantile(sorted(probe.lags), 0.90) * 1e3, "ms"),
        "loop.residual_us": (residual_us, "us"),
        "dirserver.self_us": (
            s.self_per_call_us("dirserver.command"), "us"),
        "dirserver.errors": (d.get("errors", 0), "count"),
        "dirserver.dedup_hits": (d.get("dedup_hits", 0), "count"),
        "dirserver.connections_dropped": (
            d.get("connections_dropped", 0), "count"),
        "dirclient.write_retries": (d.get("write_retries", 0), "count"),
        "directory.query_us": (s.per_call_us("directory.query"), "us"),
        "directory.pathfind_us": (
            s.per_call_us("directory.pathfind"), "us"),
        "directory.repeat_share": (
            _ratio(d.get("repeats", 0), d.get("queries", 0)), "ratio"),
        "directory.mints": (d.get("mints", 0), "count"),
        "cluster.execute_us": (s.per_call_us("cluster.execute"), "us"),
        "cluster.retries": (d.get("cluster_retries", 0), "count"),
        "trace.untraced_cpu_us_per_op": (base_cpu, "us"),
        "trace.traced_cpu_us_per_op": (traced_cpu, "us"),
        "trace.overhead_share": (_ratio(traced_cpu, base_cpu) - 1.0, "ratio"),
        "ledger.residual_share": (residual_share, "ratio"),
    }
    return m, rows


def _print_metrics(title: str, metrics: Metrics,
                   counts: Optional[Dict[str, str]] = None) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        note = ""
        if counts and name in counts:
            note = f"  ({counts[name]})"
        print(f"  {name:34s} {value:14.4f} {unit}{note}")


def _sample_counts(window, setups: int) -> Dict[str, str]:
    sliced = f"median of {len(window.slices)} slices, {window.completed} ops"
    return {
        "setup_s": f"median of {setups} set-ups",
        "ops_per_s": sliced, "latency_p50_ms": sliced,
        "latency_p90_ms": sliced, "cpu_us_per_op": sliced,
        "datagrams_per_s": sliced, "goodput_mbit_s": sliced,
        "latency_p99_ms": f"n={len(window.latencies)}",
        "write_latency_p90_ms": f"n={len(window.write_latencies)}",
        "host_slowdown": "median of readings every 100 ms",
        "raw_ops_per_s": sliced, "raw_latency_p50_ms": sliced,
        "raw_latency_p90_ms": sliced, "raw_cpu_us_per_op": sliced,
        "raw_setup_s": f"median of {setups} set-ups",
    }


async def run_untraced(name: str, seed: int, seconds: float) -> dict:
    from sirbench.workloads import WORKLOADS, measure

    make = WORKLOADS[name]
    workload, setups, raw_setups = await _set_up(
        lambda: make(seed), SETUP_REPEATS, SETUP_MIN_S,
    )
    try:
        window = await measure(workload, WARMUP_S, seconds)
        _finish(workload, window)
    finally:
        workload.teardown()
    bounded, reported = end_to_end(window, statistics.median(setups))
    reported["raw_setup_s"] = (statistics.median(raw_setups), "s")
    counts = _sample_counts(window, len(setups))
    _print_metrics(f"{name} seed={seed}: end-to-end ({seconds:g} s window)",
                   {**bounded, **reported}, counts)
    return {
        "correct": window.wrong == 0,
        "attempted": window.attempted,
        "failed": window.failed,
        "metrics": bounded,
    }


async def run_traced(name: str, seed: int, seconds: float) -> dict:
    from sirbench.tracing import SpanStore, install_layers
    from sirbench.workloads import WORKLOADS, LoopProbe, measure

    make = WORKLOADS[name]
    half = seconds / 2.0
    workload, _, _ = await _set_up(lambda: make(seed))
    probe = LoopProbe(getattr(workload, "tx_backlog", None))
    try:
        base = await measure(workload, WARMUP_S, half,
                             at_start=probe.start, at_end=probe.stop)
        _finish(workload, base)
    finally:
        probe.stop()
        workload.teardown()

    store = SpanStore()
    patches = install_layers(store)
    frozen: list = []
    try:
        workload, _, _ = await _set_up(
            lambda: make(seed, store=store))
        try:
            traced = await measure(
                workload, WARMUP_S, half, at_start=store.reset,
                at_end=lambda: frozen.append(store.snapshot()),
            )
            _finish(workload, traced)
        finally:
            workload.teardown()
    finally:
        patches.restore()
    summary = frozen[0]
    metrics, rows = per_layer(base, traced, summary, probe)
    unit = "datagram" if "frames_out" in traced.delta else "operation"
    print(f"{name} seed={seed}: traced run ({half:g} s untraced, "
          f"{half:g} s traced)")
    print(f"  untraced {base.completed / base.elapsed:10.1f} ops/s "
          f"{metrics['trace.untraced_cpu_us_per_op'][0]:9.1f} us CPU/op "
          f"(host slowdown {base.slowdown:.2f})")
    print(f"  traced   {traced.completed / traced.elapsed:10.1f} ops/s "
          f"{metrics['trace.traced_cpu_us_per_op'][0]:9.1f} us CPU/op "
          f"(host slowdown {traced.slowdown:.2f}; "
          f"overhead {metrics['trace.overhead_share'][0]:+.1%})")
    print(f"  ledger per {unit} (self time; rows sum to CPU per {unit}):")
    for layer, span, calls, per_call, per_unit, share in rows:
        print(f"    {layer:18s} {span:24s} {calls:9d} {per_call:9.2f} us/call"
              f" {per_unit:9.2f} us/{unit[:5]} {share:7.1%}")
    print(f"  spans stored {summary.stored} (dropped {summary.dropped}, "
          f"misnested {summary.misnested})")
    _print_metrics("  per-layer metrics:", metrics)
    path = os.path.join(ROOT, "sirbench", "out",
                        f"spans-{name}-seed{seed}.bin")
    store.write(path, summary.stored, {"workload": name, "seed": seed})
    return {
        "correct": base.wrong == 0 and traced.wrong == 0,
        "attempted": base.attempted + traced.attempted,
        "failed": base.failed + traced.failed,
        "metrics": metrics,
    }


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    for entry in (ROOT, os.path.join(ROOT, "src")):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    try:
        import repro  # noqa: F401  (the program under test, from src/)
    except ImportError as exc:
        print(f"sirbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    from sirbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"sirbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    runner = run_traced if args.trace else run_untraced
    result = asyncio.run(runner(args.workload, args.seed, args.seconds))
    result["metrics"] = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in result["metrics"].items()
    }
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
