"""Stand-alone multi-origin cluster over TCP.

Usage::

    python -m repro.tools.cluster_main [--origins N] [--host H]
        [--directory-port P] [--diff-cache-mb M]

Runs a :class:`~repro.cluster.SegmentDirectory` plus ``N`` origin
servers (``origin-0`` ... ``origin-N-1``), each behind its own
:class:`~repro.transport.TCPServerTransport`, and a
:class:`~repro.cluster.ClusterCoordinator` wired to the directory so
``DIR_MIGRATE`` directory updates sent by clients trigger live
migrations.  Clients resolve segment names through the directory
(:class:`~repro.cluster.DirectoryResolver` over a connection pool that
maps each origin's name to its address) and chase WrongServer redirects
when segments move.

Ports default to 0 (pick a free one each); the banner lists the chosen
ports, and the readiness handshake exposes them as ``ready_port`` (the
directory) and ``ready_ports`` (name → port for every component).
"""

from __future__ import annotations

import argparse
import sys
import threading

from repro.cluster import ClusterCoordinator, SegmentDirectory
from repro.obs.metrics import MetricsRegistry
from repro.server import InterWeaveServer
from repro.tools.common import (add_io_arguments, gateway_note,
                                make_server_transport, run_service)
from repro.transport import MuxConnectionPool, RetryPolicy


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-cluster",
        description="Serve InterWeave segments from a sharded origin cluster.")
    parser.add_argument("--origins", type=int, default=2,
                        help="number of origin servers to run")
    parser.add_argument("--host", default="127.0.0.1",
                        help="address every component listens on")
    parser.add_argument("--directory-port", type=int, default=0,
                        help="directory TCP port (0 = pick a free one)")
    parser.add_argument("--diff-cache-mb", type=int, default=16,
                        help="per-origin diff cache capacity in MiB")
    parser.add_argument("--ring-replicas", type=int, default=64,
                        help="virtual ring points per origin")
    add_io_arguments(parser)
    return parser


def serve(args, ready_event: "threading.Event" = None,
          stop_event: "threading.Event" = None) -> int:
    """Run the cluster until ``stop_event`` (or SIGINT).  Returns 0."""
    if args.origins < 1:
        raise SystemExit("--origins must be at least 1")
    transports = []
    origin_names = [f"origin-{index}" for index in range(args.origins)]
    addresses = {}
    for name in origin_names:
        # each origin gets a private registry so GetStats reports
        # per-origin numbers instead of a process-wide mixture
        server = InterWeaveServer(
            name, metrics=MetricsRegistry(),
            diff_cache_bytes=args.diff_cache_mb * 1024 * 1024)
        # the gateway (if any) mounts on the directory below, the one
        # address clients already know
        transport = make_server_transport(server, args, host=args.host,
                                          port=0, gateway=False)
        transports.append(transport)
        addresses[name] = (transport.host, transport.port)

    directory = SegmentDirectory(origins=origin_names,
                                 replicas=args.ring_replicas,
                                 metrics=MetricsRegistry())
    directory_transport = make_server_transport(
        directory, args, host=args.host, port=args.directory_port)
    transports.append(directory_transport)

    pool = MuxConnectionPool(dict(addresses), retry=RetryPolicy())
    coordinator = ClusterCoordinator(directory, pool.connect)

    ports = {"directory": directory_transport.port,
             "origins": {name: port for name, (_host, port)
                         in addresses.items()}}
    listing = ", ".join(f"{name}={port}"
                        for name, port in ports["origins"].items())

    def cleanup() -> None:
        for transport in transports:
            transport.close()
        coordinator.close()
        pool.close()

    return run_service(
        f"[repro-cluster] directory on {directory_transport.host}:"
        f"{directory_transport.port}{gateway_note(directory_transport, '; ')}; "
        f"{args.origins} origin(s): {listing}",
        ready_event, stop_event,
        ready_attrs={"ready_port": directory_transport.port,
                     "ready_ports": ports,
                     "ready_gateway_port": directory_transport.gateway_port},
        cleanup=cleanup)


def main(argv=None) -> int:
    return serve(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
