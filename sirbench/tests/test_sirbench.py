"""Self-tests of the benchmark: short runs of every workload, the
correctness checks, seeding and the span store.

Run from the repository root::

    python3 -m pytest sirbench/tests -q
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for _entry in (ROOT, os.path.join(ROOT, "src")):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

from repro.directory.service import RouteQuery  # noqa: E402
from repro.live import as_live_route  # noqa: E402

from sirbench import run  # noqa: E402
from sirbench.hostspeed import REFERENCE_S, SpeedProbe, kernel_s  # noqa: E402
from sirbench.tracing import SpanStore, _traced_decide, ledger_rows  # noqa: E402
from sirbench.workloads import (  # noqa: E402
    WORKLOADS,
    DirectoryMix,
    Forwarding,
    measure,
)

WORKLOAD_NAMES = sorted(WORKLOADS)


def _declared(kind: str):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.fixture(autouse=True)
def _one_setup(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "SETUP_MIN_S", 0.0)
    monkeypatch.setattr(run, "WARMUP_S", 0.2)


def test_declared_workloads_are_the_ones_that_run():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert sorted(w["name"] for w in spec["workloads"]) == WORKLOAD_NAMES


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_untraced_run_prints_every_end_to_end_metric(name):
    result = asyncio.run(run.run_untraced(name, seed=7, seconds=1.0))
    declared = _declared("end_to_end")
    assert {k: u for k, (_v, u) in result["metrics"].items()} == declared
    assert all(v > 0 for v, _u in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_traced_run_prints_every_per_layer_metric(name):
    result = asyncio.run(run.run_traced(name, seed=7, seconds=2.0))
    declared = _declared("per_layer")
    assert {k: u for k, (_v, u) in result["metrics"].items()} == declared
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v for k, (v, _u) in result["metrics"].items()}
    if name.startswith("fwd"):
        assert metrics["link.rx_self_us"] > 0
        assert metrics["dataplane.decide_warm_us"] > 0
    else:
        assert metrics["directory.pathfind_us"] > 0
        assert metrics["cluster.execute_us"] > 0


def test_result_line_is_the_last_line_of_output():
    out = subprocess.run(
        [sys.executable, "sirbench/run.py", "--workload", "fwd-small",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "sirbench"), tmp_path / "sirbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "sirbench/run.py", "--workload", "fwd-small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


async def _short(workload, seconds: float = 1.0):
    await workload.setup()
    try:
        return await measure(workload, 0.2, seconds)
    finally:
        workload.teardown()


@pytest.mark.parametrize("bad", [
    lambda request: bytes(len(request)),
    lambda request: request,
])
def test_wrong_reply_handler_is_caught(bad):
    window = asyncio.run(_short(Forwarding(1, 1, (32,), serve=bad)))
    assert window.attempted > 0
    assert window.wrong == window.attempted == window.failed


def test_one_flipped_reply_byte_is_caught():
    good = Forwarding(1, 1, (32,)).codec.reply

    def flip_last(request: bytes) -> bytes:
        reply = bytearray(good(request))
        reply[-1] ^= 1
        return bytes(reply)

    window = asyncio.run(_short(Forwarding(1, 1, (32,), serve=flip_last)))
    assert window.wrong == window.attempted > 0


def test_route_check_rejects_bad_routes():
    async def check():
        mix = DirectoryMix(5)
        await mix.setup()
        try:
            query = mix.scenario.directory.query
            good = [as_live_route(r) for r in query("h0", RouteQuery(
                destination="h3.lab.edu", k=2, with_tokens=True))]
            assert mix._check_routes("h0", "h3", good)
            assert not mix._check_routes("h0", "h4", good)
            assert not mix._check_routes("h1", "h3", good)
            assert not mix._check_routes("h0", "h3", [])
            forged = as_live_route(query("h0", RouteQuery(
                destination="h3.lab.edu", with_tokens=True))[0])
            token = bytearray(forged.segments[0].token)
            token[-1] ^= 1
            forged.segments[0] = forged.segments[0].copy(token=bytes(token))
            assert not mix._check_routes("h0", "h3", [forged])
            bare = as_live_route(query("h0", RouteQuery(
                destination="h3.lab.edu"))[0])
            assert not mix._check_routes("h0", "h3", [bare])
        finally:
            mix.teardown()

    asyncio.run(check())


def test_dir_mix_outcomes_and_final_state():
    mix = DirectoryMix(2)
    window = asyncio.run(_short(mix))
    assert window.completed > 0 and window.failed == 0
    assert window.write_latencies
    checked, wrong = mix.final_state()
    assert checked > 0 and wrong == 0
    some = next(name for name, node in mix.expected.items() if node)
    mix.expected[some] = "h99"
    assert mix.final_state() == (checked, 1)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_streams_are_seeded(name):
    def first(seed, worker):
        workload = WORKLOADS[name](seed)
        workload.managers = list(range(4096))
        stream = workload.stream(worker)
        return [next(stream) for _ in range(50)]

    assert first(3, 5) == first(3, 5)
    assert first(3, 5) != first(4, 5)
    assert first(3, 5) != first(3, 6)


def test_span_store_self_time_and_operations():
    store = SpanStore()
    leaf = store.wrap("leaf", lambda: sum(range(2000)))

    def middle():
        leaf()
        leaf()
    root = store.wrap("root", store.wrap("middle", middle))
    root()
    root()
    summary = store.snapshot()
    assert summary.calls("root", "middle", "leaf") == 2 + 2 + 4
    calls, total, self_ns = summary.spans["middle"]
    assert self_ns == total - summary.spans["leaf"][1]
    assert summary.spans["leaf"][2] == summary.spans["leaf"][1]
    assert list(store.span_op) == [1, 1, 1, 1, 2, 2, 2, 2]
    assert list(store.span_parent) == [-1, 0, 1, 1, -1, 4, 5, 5]
    # The ledger's rows sum to the CPU per unit, residual included.
    rows = ledger_rows(summary, 4, 1000.0)
    assert sum(row[4] for row in rows) == pytest.approx(250.0)


def test_span_store_keeps_aggregating_past_capacity():
    store = SpanStore(capacity=3)
    tick = store.wrap("tick", lambda: None)
    for _ in range(5):
        tick()
    summary = store.snapshot()
    assert summary.calls("tick") == 5
    assert summary.stored == 3 and summary.dropped == 2


def test_decide_spans_split_warm_and_cold():
    class Stats:
        hits = 0

    class FlowCache:
        stats = Stats()

    class Pipeline:
        flow_cache = FlowCache()

    def decide(pipeline, hop):
        if hop == "warm":
            pipeline.flow_cache.stats.hits += 1
        return hop

    store = SpanStore()
    traced = _traced_decide(store)(decide)
    for hop in ("warm", "cold", "warm"):
        assert traced(Pipeline(), hop) == hop
    summary = store.snapshot()
    assert summary.calls("dataplane.decide_warm") == 2
    assert summary.calls("dataplane.decide_cold") == 1
    assert [store.names[i] for i in store.span_name] == [
        "dataplane.decide_warm", "dataplane.decide_cold",
        "dataplane.decide_warm",
    ]


def test_speed_probe_slowdown_is_the_median_reading_in_the_interval():
    probe = SpeedProbe()
    probe.times.extend([0.0, 0.1, 0.2, 0.3])
    probe.readings.extend([r * REFERENCE_S for r in (1.0, 3.0, 2.0, 9.0)])
    assert probe.slowdown(0.0, 0.25) == pytest.approx(2.0)
    # No reading begun inside the interval: the nearest one.
    assert probe.slowdown(0.31, 0.32) == pytest.approx(9.0)
    assert kernel_s() > 0


def test_end_to_end_times_are_divided_by_the_slowdown():
    async def one_second():
        workload = WORKLOADS["fwd-small"](7)
        await workload.setup()
        try:
            return await measure(workload, 0.2, 1.0)
        finally:
            workload.teardown()

    window = asyncio.run(one_second())
    bounded, reported = run.end_to_end(window, setup_s=1.0)
    slowdown = window.slices[0].slowdown
    assert len(window.slices) == 1 and slowdown > 0
    assert bounded["ops_per_s"][0] == pytest.approx(
        reported["raw_ops_per_s"][0] * slowdown)
    assert bounded["latency_p50_ms"][0] == pytest.approx(
        reported["raw_latency_p50_ms"][0] / slowdown)
    assert bounded["cpu_us_per_op"][0] == pytest.approx(
        reported["raw_cpu_us_per_op"][0] / slowdown)
