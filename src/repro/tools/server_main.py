"""Stand-alone InterWeave server over TCP.

Usage::

    python -m repro.tools.server_main [--host H] [--port P]
        [--checkpoint-dir DIR] [--checkpoint-every N] [--restore]
        [--wal-dir DIR] [--no-wal-fsync] [--role primary|backup]
        [--quorum-ack] [--gateway-port P]

Runs an :class:`~repro.server.InterWeaveServer` behind the server core,
:class:`~repro.transport.TCPServerTransport` (Linux: one epoll, no thread
per connection; ``--gateway-port`` adds the HTTP/1.1 gateway).  With
``--restore``, the server recovers its persistent segments before
serving: checkpoints from ``--checkpoint-dir``, then the diff write-ahead
log from ``--wal-dir`` replayed on top (torn tails truncated), so a
SIGKILL'd server resumes with every committed version.  ``--role backup`` starts the server as a
replication target: it only accepts the ReplicateAppend/ReplicateCatchup
stream (and stats) until a coordinator promotes it.  Clients connect
with :class:`~repro.transport.TCPChannel`; push notifications are
unavailable over TCP, so clients poll (the adaptive protocol handles
this automatically).
"""

from __future__ import annotations

import argparse
import sys
import threading

from repro.server import InterWeaveServer
from repro.tools.common import (add_io_arguments, gateway_note,
                                make_server_transport, run_service)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-server",
        description="Serve InterWeave segments over TCP.")
    parser.add_argument("--name", default="server",
                        help="server name (clients address segments as name/path)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="TCP port (0 = pick a free one)")
    parser.add_argument("--checkpoint-dir", default=None,
                        help="directory for periodic segment checkpoints")
    parser.add_argument("--checkpoint-every", type=int, default=16,
                        help="checkpoint a segment every N versions")
    parser.add_argument("--restore", action="store_true",
                        help="recover checkpoints (and replay the WAL) "
                             "before serving")
    parser.add_argument("--wal-dir", default=None,
                        help="directory for per-segment diff write-ahead "
                             "logs (commits become durable before they "
                             "are acknowledged)")
    parser.add_argument("--no-wal-fsync", action="store_true",
                        help="skip the per-append fsync (page-cache "
                             "durability only; survives process crashes, "
                             "not power loss)")
    parser.add_argument("--role", choices=("primary", "backup"),
                        default="primary",
                        help="'backup' only accepts the replication stream "
                             "until promoted")
    parser.add_argument("--quorum-ack", action="store_true",
                        help="answer a write release only after the backup "
                             "acked the replicated diff (RPO=0 across "
                             "machine loss; degrades to async replication "
                             "after --quorum-timeout)")
    parser.add_argument("--quorum-timeout", type=float, default=1.0,
                        help="seconds a quorum-ack release waits for the "
                             "backup before degrading to async")
    parser.add_argument("--diff-cache-mb", type=int, default=16,
                        help="diff cache capacity in MiB")
    add_io_arguments(parser)
    return parser


def serve(args, ready_event: "threading.Event" = None,
          stop_event: "threading.Event" = None) -> int:
    """Run the server until ``stop_event`` (or SIGINT).  Returns 0."""
    server = InterWeaveServer(
        args.name,
        diff_cache_bytes=args.diff_cache_mb * 1024 * 1024,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every if args.checkpoint_dir else 0,
        wal_dir=args.wal_dir,
        wal_fsync=not args.no_wal_fsync,
        role=args.role,
        quorum_ack=args.quorum_ack,
        quorum_timeout=args.quorum_timeout)
    restored = 0
    replayed = 0
    if args.restore and (args.checkpoint_dir or args.wal_dir):
        recovery = server.recover_segments()
        restored = len(server.segments)
        replayed = sum(applied for applied, _skipped in recovery.values())
    transport = make_server_transport(server, args)

    def cleanup() -> None:
        transport.close()
        if args.checkpoint_dir:
            for name in list(server.segments):
                if server.segments[name].state.version > 0:
                    server.checkpoint_segment(name)
            print("[repro-server] final checkpoints written", flush=True)
        server.close()

    return run_service(
        f"[repro-server] {args.name!r} ({args.role}) listening on "
        f"{transport.host}:{transport.port}{gateway_note(transport)} "
        f"({restored} segment(s) restored, {replayed} WAL record(s) "
        f"replayed)",
        ready_event, stop_event,
        ready_attrs={"ready_port": transport.port,
                     "ready_gateway_port": transport.gateway_port},
        cleanup=cleanup)


def main(argv=None) -> int:
    return serve(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
