"""Shared plumbing for the stand-alone service entry points.

Every ``repro.tools.*_main`` runs the same way: build the service, print
a banner, signal readiness (tests attach ``ready_port``-style attributes
to the event and wait on it), then sit in a stoppable wait loop until
SIGINT or the caller's ``stop_event``, and finally tear down.  This
module keeps that loop in one place so the entry points only contain
what is genuinely theirs: the parser and the service wiring.
"""

from __future__ import annotations

import argparse
import signal
import threading
from typing import Callable, Optional


def add_io_arguments(parser: "argparse.ArgumentParser") -> None:
    """Add ``--gateway-port``, shared by every listening tool (see
    docs/GATEWAY.md)."""
    parser.add_argument("--gateway-port", type=int, default=None,
                        metavar="PORT",
                        help="also serve the HTTP/1.1 JSON gateway "
                             "(GET /segments/{name}, GET /stats) on this "
                             "port (0 = pick a free one)")


def make_server_transport(dispatcher, args, *, host=None, port=None,
                          gateway: bool = True, **kwargs):
    """Build the :class:`~repro.transport.TCPServerTransport` a listening
    tool serves on.  ``host``/``port`` default to ``args.host``/
    ``args.port``; multi-listener tools (cluster) pass them explicitly
    and set ``gateway=False`` where ``--gateway-port`` does not mount."""
    from repro.transport import TCPServerTransport

    host = args.host if host is None else host
    port = args.port if port is None else port
    gateway_port = getattr(args, "gateway_port", None) if gateway else None
    return TCPServerTransport(dispatcher, host=host, port=port,
                              gateway_port=gateway_port, **kwargs)


def gateway_note(transport, lead: str = ", ") -> str:
    """The banner's mention of the HTTP gateway, or "" without one."""
    if transport.gateway_port is None:
        return ""
    return (f"{lead}gateway at http://{transport.gateway_host}:"
            f"{transport.gateway_port}")


def run_service(banner: str,
                ready_event: Optional["threading.Event"] = None,
                stop_event: Optional["threading.Event"] = None,
                ready_attrs: Optional[dict] = None,
                cleanup: Optional[Callable[[], None]] = None) -> int:
    """Print ``banner``, publish readiness, wait for stop, tear down.

    ``ready_attrs`` are attached to ``ready_event`` before it is set —
    the handshake tests use to learn ephemeral ports (``ready_port``,
    ``ready_ports``...).  ``cleanup`` runs exactly once on the way out,
    whether the loop ended by SIGINT or by ``stop_event``.  Returns 0.
    """
    print(banner, flush=True)
    if ready_event is not None:
        for attr, value in (ready_attrs or {}).items():
            setattr(ready_event, attr, value)
        ready_event.set()
    stop = stop_event or threading.Event()
    try:
        signal.signal(signal.SIGINT, lambda *_: stop.set())
    except ValueError:
        pass  # not the main thread (tests)
    try:
        while not stop.wait(0.2):
            pass
    finally:
        if cleanup is not None:
            cleanup()
    return 0
