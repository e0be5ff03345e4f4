"""Query a live InterWeave server for its stats snapshot.

Usage::

    python -m repro.tools.stats_main [--host HOST] [--port PORT] [--json]

Connects over TCP, sends a :class:`GetStatsRequest`, and prints the reply
either as a human-readable table (default) or as the raw canonical JSON
payload (``--json``).  The snapshot covers the server's segment table and
every metric in its process-wide registry — which, for a server co-hosted
with client code, includes client-side metrics too (MMU faults, diff
collection, swizzling); see ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import TransportError
from repro.obs.export import render_table
from repro.transport import TCPChannel
from repro.wire.messages import (
    GetStatsReply,
    GetStatsRequest,
    decode_message,
    encode_message,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-stats",
        description="Print a live InterWeave server's stats snapshot.")
    parser.add_argument("--host", default="127.0.0.1",
                        help="server host (default: %(default)s)")
    parser.add_argument("--port", type=int, required=True,
                        help="server TCP port")
    parser.add_argument("--timeout", type=float, default=5.0,
                        help="connect/request timeout in seconds "
                             "(default: %(default)s)")
    parser.add_argument("--json", action="store_true",
                        help="print the raw JSON payload instead of a table")
    return parser


def fetch_snapshot(host: str, port: int, timeout: float = 5.0) -> GetStatsReply:
    channel = TCPChannel(host, port, client_id="stats-cli", timeout=timeout)
    try:
        raw = channel.request(encode_message(GetStatsRequest("stats-cli")))
    finally:
        channel.close()
    reply = decode_message(raw)
    if not isinstance(reply, GetStatsReply):
        raise TransportError(f"unexpected reply {type(reply).__name__}")
    return reply


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        reply = fetch_snapshot(args.host, args.port, timeout=args.timeout)
    except TransportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(reply.payload)
    else:
        print(render_table(reply.to_dict()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
