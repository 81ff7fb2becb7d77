"""The benchmark's traced run can find every entry point it wraps.

``sirbench.tracing.install_layers`` swaps named functions and methods of
the program for timing wrappers, looking each one up by name.  A renamed
or deleted entry point makes that lookup raise, and only the traced
benchmark run would notice.  This test installs and restores the layers
without opening a socket, so any Python running the unit tests catches
it.
"""

import repro.live.host as host_mod
import repro.live.link as link_mod
import repro.live.router as router_mod
from repro.live import LiveEndpoint, LiveHost, LiveRouter
from sirbench.tracing import SpanStore, install_layers

#: Module globals the router and link call by name at call time.
MODULE_GLOBALS = (
    (router_mod, "decode_preamble"),
    (router_mod, "parse_segment_view"),
    (router_mod, "hop_move_into"),
    (router_mod, "strip_and_append"),
    (router_mod, "slick_reroute_slow"),
    (link_mod, "decode_preamble"),
    (host_mod, "decode_live_frame"),
)

METHODS = (
    (LiveEndpoint, "_on_readable"),
    (LiveEndpoint, "send_view"),
    (LiveRouter, "_on_batch"),
    (LiveHost, "_on_batch"),
    (LiveHost, "_on_frame"),
)


def test_install_layers_finds_and_restores_every_patch_point():
    originals = {
        (owner, name): getattr(owner, name)
        for owner, name in MODULE_GLOBALS + METHODS
    }
    patches = install_layers(SpanStore())
    try:
        for (owner, name), original in originals.items():
            assert getattr(owner, name) is not original, name
    finally:
        patches.restore()
    for (owner, name), original in originals.items():
        assert getattr(owner, name) is original, name
