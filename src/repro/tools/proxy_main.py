"""Stand-alone caching proxy over TCP.

Usage::

    python -m repro.tools.proxy_main --origin-host H --origin-port P
        [--name NAME] [--host H] [--port P] [--max-staleness S]

Runs a :class:`~repro.proxy.CachingProxy` behind a
:class:`~repro.transport.TCPServerTransport`.  Downstream clients
connect with :class:`~repro.transport.TCPChannel` exactly as they
would to a server; upstream the proxy shares one connection to the
origin
(:class:`~repro.transport.MuxConnectionPool`) across all forwarded
traffic.  Plain TCP cannot push, so freshness comes from the
``--max-staleness`` window (see ``docs/PROTOCOL.md`` §"Relay tier").

In a cluster, ``--origin-server NAME=HOST:PORT`` (repeatable) teaches
the upstream pool the other origins so redirects can be chased, and
``--directory NAME`` attaches a
:class:`~repro.cluster.DirectoryResolver` so the relay re-resolves and
re-attaches when an origin fails over to a promoted backup (the
directory itself must be one of the ``--origin-server`` entries).
"""

from __future__ import annotations

import argparse
import sys
import threading

from repro.cluster import DirectoryResolver
from repro.proxy import CachingProxy
from repro.tools.common import (add_io_arguments, gateway_note,
                                make_server_transport, run_service)
from repro.transport import MuxConnectionPool, RetryPolicy


def _parse_origin_server(spec: str):
    name, separator, address = spec.partition("=")
    host, colon, port = address.rpartition(":")
    if not separator or not name or not colon or not host:
        raise argparse.ArgumentTypeError(
            f"expected NAME=HOST:PORT, got {spec!r}")
    try:
        return name, host, int(port)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"port in {spec!r} is not an integer")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-proxy",
        description="Relay InterWeave segments from an origin server.")
    parser.add_argument("--name", default="server",
                        help="server name clients address (segment names are "
                             "name/path; must match the origin's naming)")
    parser.add_argument("--host", default="127.0.0.1",
                        help="address to listen on for downstream clients")
    parser.add_argument("--port", type=int, default=0,
                        help="downstream TCP port (0 = pick a free one)")
    parser.add_argument("--origin-host", required=True,
                        help="origin server address")
    parser.add_argument("--origin-port", type=int, required=True,
                        help="origin server port")
    parser.add_argument("--max-staleness", type=float, default=0.05,
                        help="seconds the relay may serve coherence decisions "
                             "without contacting the origin")
    parser.add_argument("--diff-cache-mb", type=int, default=16,
                        help="relay diff cache capacity in MiB")
    parser.add_argument("--upstream-timeout", type=float, default=10.0,
                        help="origin request timeout in seconds")
    parser.add_argument("--origin-server", action="append", default=[],
                        type=_parse_origin_server, metavar="NAME=HOST:PORT",
                        help="additional upstream server (repeatable): other "
                             "cluster origins, promoted backups, and the "
                             "directory service")
    parser.add_argument("--directory", default=None, metavar="NAME",
                        help="directory server name for failover "
                             "re-resolution (must be reachable through "
                             "--origin-server)")
    add_io_arguments(parser)
    return parser


def serve(args, ready_event: "threading.Event" = None,
          stop_event: "threading.Event" = None) -> int:
    """Run the proxy until ``stop_event`` (or SIGINT).  Returns 0."""
    pool = MuxConnectionPool(
        {args.name: (args.origin_host, args.origin_port)},
        timeout=args.upstream_timeout, retry=RetryPolicy())
    for name, host, port in args.origin_server:
        pool.add_server(name, host, port)
    resolver = None
    if args.directory is not None:
        resolver = DirectoryResolver(pool.connect, directory=args.directory,
                                     client_id=f"{args.name}!resolver")
    proxy = CachingProxy(
        args.name, connector=pool.connect,
        diff_cache_bytes=args.diff_cache_mb * 1024 * 1024,
        max_staleness=args.max_staleness,
        resolver=resolver)
    transport = make_server_transport(proxy, args)

    def cleanup() -> None:
        transport.close()
        proxy.close()
        if resolver is not None:
            resolver.close()
        pool.close()

    return run_service(
        f"[repro-proxy] {args.name!r} listening on "
        f"{transport.host}:{transport.port}{gateway_note(transport)}, origin at "
        f"{args.origin_host}:{args.origin_port}",
        ready_event, stop_event,
        ready_attrs={"ready_port": transport.port,
                     "ready_gateway_port": transport.gateway_port},
        cleanup=cleanup)


def main(argv=None) -> int:
    return serve(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
