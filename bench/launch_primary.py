#!/usr/bin/env python3
"""A replicating primary over TCP, for the ``replicated_relay`` workload.

No shipped CLI wires a :class:`~repro.ReplicationSender` over TCP (the
``repro-server --quorum-ack`` flag has no backup address to go with it),
so the benchmark carries this launcher: an :class:`InterWeaveServer`
with a fsync'd WAL and ``quorum_ack=True``, a sender shipping every
committed diff to the backup over a :class:`TCPChannel`, and the server
transport ``repro-server`` would pick — public API only, and the same
banner / SIGINT handshake as ``repro.tools.server_main``.

Usage::

    PYTHONPATH=src python bench/launch_primary.py --wal-dir DIR \
        --backup-port P [--name NAME] [--host H] [--port P]
"""

from __future__ import annotations

import argparse
import sys

from repro import (InterWeaveServer, ReplicationSender, RetryPolicy,
                   TCPChannel)
from repro.tools.common import (add_io_arguments, make_server_transport,
                                run_service)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="launch_primary",
        description="Serve InterWeave segments, replicating to a backup "
                    "with quorum-ack.")
    parser.add_argument("--name", default="server")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="TCP port (0 = pick a free one)")
    parser.add_argument("--wal-dir", required=True)
    parser.add_argument("--backup-host", default="127.0.0.1")
    parser.add_argument("--backup-port", type=int, required=True)
    # same transport selection as repro-server, so a changed default
    # server core is what this primary runs too
    add_io_arguments(parser)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    server = InterWeaveServer(args.name, wal_dir=args.wal_dir,
                              wal_fsync=True, quorum_ack=True)
    backup = TCPChannel(args.backup_host, args.backup_port,
                        f"{args.name}!replication", retry=RetryPolicy())
    sender = ReplicationSender(server, backup)
    server.attach_replicator(sender)
    transport = make_server_transport(server, args)

    def cleanup() -> None:
        transport.close()
        sender.close()
        backup.close()
        server.close()

    return run_service(
        f"[launch-primary] {args.name!r} (primary, quorum-ack) listening on "
        f"{transport.host}:{transport.port}, backup at "
        f"{args.backup_host}:{args.backup_port}",
        cleanup=cleanup)


if __name__ == "__main__":
    sys.exit(main())
