"""Fixtures for the dataflow rules (SIR009/SIR010/SIR011) and the
suppression audit (SIR000).

Each rule gets the full triple: a positive snippet it must flag, a
negative it must stay silent on, and a suppressed variant.  The
SIR009 use-after-release fixture deliberately mirrors the runtime
contract pinned by ``tests/viper/test_ring_views.py`` (a released
slot's memory is the next datagram's) so the static rule and the
differential fuzz guard the same invariant from both sides.
"""

import textwrap

from sirlint.engine import analyze_source


def analyze(source, module_name, path="src/repro/live/fixture.py"):
    return analyze_source(textwrap.dedent(source), module_name, path=path)


def rules_fired(findings):
    return sorted({f.rule for f in findings})


def by_rule(findings, rule):
    return [f for f in findings if f.rule == rule]


# -- SIR009: ring-slot lifetime ----------------------------------------------


def test_sir009_fires_on_slot_leak_on_early_return():
    findings = analyze(
        """
        class Pump:
            def dispatch(self, wire):
                slot = self.ring.acquire()
                if not wire:
                    return None
                slot.write(wire)
                slot.release()
                return True
        """,
        "repro.live.fixture",
    )
    assert rules_fired(findings) == ["SIR009"]
    leak = by_rule(findings, "SIR009")[0]
    assert "leak" in leak.symbol
    assert "some path" in leak.message


def test_sir009_fires_on_leak_on_exception_path():
    findings = analyze(
        """
        class Pump:
            def dispatch(self, wire):
                slot = self.ring.acquire()
                try:
                    slot.write(wire)
                except ValueError:
                    self.decode_errors += 1
                    return None
                slot.release()
                return True
        """,
        "repro.live.fixture",
    )
    assert "SIR009" in rules_fired(findings)
    assert any("leak" in f.symbol for f in by_rule(findings, "SIR009"))


def test_sir009_fires_on_use_after_release():
    """Static twin of test_ring_views' released-views-die contract."""
    findings = analyze(
        """
        class Pump:
            def peek(self):
                slot = self.ring.acquire()
                header = slot.view.tobytes()
                slot.release()
                return slot.view
        """,
        "repro.live.fixture",
    )
    assert rules_fired(findings) == ["SIR009"]
    assert any(
        "use-after-release" in f.symbol for f in by_rule(findings, "SIR009")
    )


def test_sir009_fires_on_double_release():
    findings = analyze(
        """
        class Pump:
            def twice(self):
                slot = self.ring.acquire()
                try:
                    slot.release()
                finally:
                    slot.release()
        """,
        "repro.live.fixture",
    )
    assert rules_fired(findings) == ["SIR009"]
    assert any(
        "double-release" in f.symbol for f in by_rule(findings, "SIR009")
    )


def test_sir009_fires_on_raw_view_escape_onto_self():
    findings = analyze(
        """
        class Pump:
            def stash(self, view: PacketView):
                self.last_view = view
        """,
        "repro.live.fixture",
    )
    assert rules_fired(findings) == ["SIR009"]
    assert any("escape" in f.symbol for f in by_rule(findings, "SIR009"))


def test_sir009_socket_receive_borrows_the_slot():
    """Filling a slot with a socket receive keeps it owned: the probe
    that receives and returns without releasing leaks it."""
    findings = analyze(
        """
        def probe(ring, sock):
            slot = ring.acquire()
            sock.recv_into(slot.view)
            return
        """,
        "repro.live.fixture",
    )
    assert rules_fired(findings) == ["SIR009"]
    assert any("leak" in f.symbol for f in by_rule(findings, "SIR009"))


_DRAIN = """
class Endpoint:
    def drain(self):
        ring = self.ring
        buffers = self._recv_buffers
        batch = []
        for _ in range(self.rx_batch):
            slot = ring.acquire()
            buffers[0] = slot.view
            try:
                nbytes, _anc, flags, addr = self._sock.recvmsg_into(buffers)
            except BlockingIOError:
                ring.release(slot)
                break
            finally:
                buffers[0] = None
            data = slot.view[:nbytes]
            acked = decode_ack_seqs(data)
            if acked is not None:
                ring.release(slot)
                self._on_ack(acked)
                continue
            batch.append((PacketView.of_slot(slot, nbytes), addr))
        self.on_batch(batch)
"""


def test_sir009_receive_loop_balanced_is_clean():
    """The ``_on_readable`` shape: receive into a slot through the
    reused buffer list, release acks, hand data slots to views."""
    assert rules_fired(analyze(_DRAIN, "repro.live.fixture")) == []


def test_sir009_receive_loop_skipping_the_ack_release_leaks():
    """Dropping the ack branch's release leaks the slot even though
    the data branch of the same loop moves its slot into a view."""
    leaky = _DRAIN.replace(
        """            if acked is not None:
                ring.release(slot)
""",
        """            if acked is not None:
""",
    )
    assert leaky != _DRAIN
    findings = analyze(leaky, "repro.live.fixture")
    assert rules_fired(findings) == ["SIR009"]
    assert any("leak" in f.symbol for f in by_rule(findings, "SIR009"))


def test_sir009_silent_on_pin_or_release_split():
    """One branch pins the view in a table, the other releases it."""
    findings = analyze(
        """
        class Link:
            def send_view(self, view: PacketView, reliable):
                self._raw_send(view.mem)
                if reliable:
                    self._track(view.mem, view.slot)
                else:
                    view.release()
        """,
        "repro.live.fixture",
    )
    assert rules_fired(findings) == []


def test_sir009_silent_on_finally_release_and_tobytes_copy():
    findings = analyze(
        """
        class Pump:
            def dispatch(self, wire, view: PacketView):
                slot = self.ring.acquire()
                try:
                    if not wire:
                        return None
                    self.last_header = view.tobytes()
                    return len(wire)
                finally:
                    slot.release()
                    view.release()
        """,
        "repro.live.fixture",
    )
    assert rules_fired(findings) == []


def test_sir009_silent_on_ownership_transfer_to_send_view():
    findings = analyze(
        """
        class Pump:
            def fire(self, port):
                view = self.ring.acquire()
                self.link.send_view(view, port)
        """,
        "repro.live.fixture",
    )
    assert rules_fired(findings) == []


def test_sir009_inline_suppression():
    findings = analyze(
        """
        class Pump:
            def leaky(self):
                slot = self.ring.acquire()  # sirlint: disable=SIR009 -- fixture: slot pinned for the demo
                return slot.view
        """,
        "repro.live.fixture",
    )
    assert rules_fired(findings) == []


# -- SIR010: await-interleaving races ----------------------------------------


def test_sir010_fires_on_check_then_act_across_await():
    findings = analyze(
        """
        class Client:
            async def connect(self):
                if self._connected:
                    return
                await self._open()
                self._connected = True
        """,
        "repro.live.fixture",
    )
    assert rules_fired(findings) == ["SIR010"]
    finding = by_rule(findings, "SIR010")[0]
    assert finding.symbol.endswith("connect._connected")
    assert "stale" in finding.message


def test_sir010_fires_on_rmw_spanning_await():
    findings = analyze(
        """
        class Client:
            async def bump(self):
                self.total += await self._cost()
        """,
        "repro.live.fixture",
    )
    assert rules_fired(findings) == ["SIR010"]
    assert "spans the await" in by_rule(findings, "SIR010")[0].message


def test_sir010_silent_on_counter_bump_and_cache_fill():
    findings = analyze(
        """
        class Client:
            async def ping(self, key):
                reply = await self._send(key)
                self.requests += 1
                self.cache[key] = reply
                self.last_reply = reply
        """,
        "repro.live.fixture",
    )
    assert rules_fired(findings) == []


def test_sir010_silent_outside_shared_state_packages():
    findings = analyze(
        """
        class Client:
            async def connect(self):
                if self._connected:
                    return
                await self._open()
                self._connected = True
        """,
        "repro.tools.fixture",
        path="src/repro/tools/fixture.py",
    )
    assert "SIR010" not in rules_fired(findings)


def test_sir010_interleave_safe_marker_with_reason():
    findings = analyze(
        """
        class Overlay:
            async def start(self):  # sirlint: interleave-safe -- fixture: single-owner boot path
                if self._started:
                    return
                await self._boot()
                self._started = True
        """,
        "repro.live.fixture",
    )
    assert rules_fired(findings) == []


def test_sir010_bare_interleave_safe_marker_is_itself_a_finding():
    findings = analyze(
        """
        class Overlay:
            async def start(self):  # sirlint: interleave-safe
                await self._boot()
        """,
        "repro.live.fixture",
    )
    assert rules_fired(findings) == ["SIR010"]
    assert by_rule(findings, "SIR010")[0].symbol.endswith(":marker")


# -- SIR011: exception-safe effects ------------------------------------------


def test_sir011_fires_on_swallowed_failure():
    findings = analyze(
        """
        class Server:
            def handle(self, line):
                try:
                    self.table = parse(line)
                except ValueError:
                    pass
        """,
        "repro.live.fixture",
    )
    assert rules_fired(findings) == ["SIR011"]
    assert "ValueError" in by_rule(findings, "SIR011")[0].symbol


def test_sir011_silent_when_handler_bumps_a_counter():
    findings = analyze(
        """
        class Server:
            def handle(self, line):
                try:
                    self.table = parse(line)
                except ValueError:
                    self.decode_errors += 1
        """,
        "repro.live.fixture",
    )
    assert rules_fired(findings) == []


def test_sir011_silent_when_handler_reraises_or_uses_the_value():
    findings = analyze(
        """
        class Server:
            def handle(self, line, future):
                try:
                    self.table = parse(line)
                except KeyError as exc:
                    future.set_exception(exc)
                except ValueError:
                    raise ProtocolViolation(line)
        """,
        "repro.live.fixture",
    )
    assert rules_fired(findings) == []


def test_sir011_silent_on_sentinel_return():
    findings = analyze(
        """
        class Server:
            def owner_or_none(self, key):
                try:
                    return self.table[key]
                except KeyError:
                    return None
        """,
        "repro.live.fixture",
    )
    assert rules_fired(findings) == []


def test_sir011_fires_when_only_one_branch_of_handler_records():
    findings = analyze(
        """
        class Server:
            def handle(self, line, strict):
                try:
                    self.table = parse(line)
                except ValueError:
                    if strict:
                        self.decode_errors += 1
        """,
        "repro.live.fixture",
    )
    assert rules_fired(findings) == ["SIR011"]


def test_sir011_exempts_flow_control_exceptions():
    findings = analyze(
        """
        class Server:
            def pump(self):
                try:
                    self.step()
                except asyncio.CancelledError:
                    pass
                except BlockingIOError:
                    pass
        """,
        "repro.live.fixture",
    )
    assert rules_fired(findings) == []


def test_sir011_inline_suppression():
    findings = analyze(
        """
        class Server:
            def handle(self, line):
                try:
                    self.table = parse(line)
                except ValueError:  # sirlint: disable=SIR011 -- fixture: probe traffic is expendable
                    pass
        """,
        "repro.live.fixture",
    )
    assert rules_fired(findings) == []


# -- SIR000: suppression audit -----------------------------------------------


def test_suppression_without_reason_is_not_honoured_and_audited():
    findings = analyze(
        """
        import socket  # sirlint: disable=SIR001
        """,
        "repro.dataplane.fixture",
        path="src/repro/dataplane/fixture.py",
    )
    assert rules_fired(findings) == ["SIR000", "SIR001"]
    audit = by_rule(findings, "SIR000")[0]
    assert audit.symbol.startswith("suppression-reason:")


def test_suppression_of_unknown_rule_is_audited():
    findings = analyze(
        """
        VALUE = 1  # sirlint: disable=SIR999 -- fixture: no such rule
        """,
        "repro.live.fixture",
    )
    assert rules_fired(findings) == ["SIR000"]
    assert "unknown-suppression" in by_rule(findings, "SIR000")[0].symbol


def test_unused_suppression_is_audited():
    findings = analyze(
        """
        VALUE = 1  # sirlint: disable=SIR011 -- fixture: nothing here fires
        """,
        "repro.live.fixture",
    )
    assert rules_fired(findings) == ["SIR000"]
    assert "unused-suppression" in by_rule(findings, "SIR000")[0].symbol
