"""Transports: byte-accounting in-process channels and real TCP sockets,
plus the fault-tolerance toolkit (retry policies, reply deduplication,
and deterministic fault injection).  The one TCP client channel
pipelines: many requests, from many threads or channels, share a socket."""

from repro.transport.base import (
    Channel,
    Dispatcher,
    NetworkModel,
    NotificationSink,
    NullSink,
    ReplyCache,
    ReplyFuture,
)
from repro.transport.fault import FaultInjectingChannel, FaultPlan
from repro.transport.inproc import InProcChannel, InProcHub
from repro.transport.mux import MuxConnectionPool, TCPChannel
from repro.transport.retry import RetryingChannel, RetryPolicy, is_retryable
from repro.transport.tcp import TCPServerTransport

__all__ = [
    "Channel",
    "Dispatcher",
    "FaultInjectingChannel",
    "FaultPlan",
    "InProcChannel",
    "InProcHub",
    "MuxConnectionPool",
    "NetworkModel",
    "NotificationSink",
    "NullSink",
    "ReplyCache",
    "ReplyFuture",
    "RetryingChannel",
    "RetryPolicy",
    "TCPChannel",
    "TCPServerTransport",
    "is_retryable",
]
