"""InterWeave reproduction: distributed shared state for heterogeneous
machine architectures (Tang, Chen, Dwarkadas, Scott — ICDCS 2003).

Quick tour
----------
>>> from repro import InterWeaveClient, InterWeaveServer, InProcHub, arch
>>> from repro.types import INT
>>> hub = InProcHub()
>>> hub.register_server("host", InterWeaveServer("host", sink=hub))
>>> client = InterWeaveClient("c1", arch.X86_32, hub.connect)
>>> seg = client.open_segment("host/counters")
>>> client.wl_acquire(seg)
>>> counter = client.malloc(seg, INT, name="hits")
>>> counter.set(1)
>>> client.wl_release(seg)

See ``examples/`` for complete programs and ``DESIGN.md`` for the system
inventory.
"""


def _pin_malloc_policy() -> None:
    """Fix glibc malloc's thresholds instead of letting them adapt.

    The data plane allocates and frees MB-scale numpy temporaries in every
    critical section.  Left to adapt, glibc sets its mmap/trim thresholds
    from the first few frees and returns the top of the heap to the kernel
    whenever it happens to be free, so the same section pays for ~1000
    page faults per MB-scale diff in one process and none in the next
    (measured: 90 vs 107 sections/s on a 1 MiB array, chosen by chance at
    start-up).  Pinning the thresholds where the adaptation tops out
    (32 MiB mmap, 2x that trim) in one arena makes every process behave
    like the latter; larger buffers still go back to the kernel when
    freed.  A ``MALLOC_*`` / ``GLIBC_TUNABLES`` setting in the environment
    wins, and other allocators are left alone.
    """
    import ctypes
    import os

    if "GLIBC_TUNABLES" in os.environ:
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return  # not glibc
    for env, param, value in (("MALLOC_ARENA_MAX", -8, 1),
                              ("MALLOC_MMAP_THRESHOLD_", -3, 32 << 20),
                              ("MALLOC_TRIM_THRESHOLD_", -1, 64 << 20)):
        if env not in os.environ:
            mallopt(param, value)


_pin_malloc_policy()  # before numpy and any thread exist

from repro import arch, coherence, types, util, wire
from repro.client import ClientOptions, InterWeaveClient, Segment
from repro.client.routing import Resolver, StaticResolver
from repro.cluster import (
    ClusterCoordinator,
    DirectoryResolver,
    HashRing,
    SegmentDirectory,
)
from repro.client.api import (
    IW_free,
    IW_get_version,
    IW_set_coherence,
    IW_tx_abort,
    IW_tx_begin,
    IW_tx_commit,
    IW_malloc,
    IW_mip_to_ptr,
    IW_open_segment,
    IW_ptr_to_mip,
    IW_rl_acquire,
    IW_rl_release,
    IW_set_process,
    IW_wl_acquire,
    IW_wl_release,
)
from repro.coherence import delta, diff, full, temporal
from repro.obs import MetricsRegistry, Tracer, get_registry, set_registry
from repro.proxy import CachingProxy
from repro.replication import ReplicationSender
from repro.server import InterWeaveServer, WriteAheadLog
from repro.transport import (
    FaultInjectingChannel,
    FaultPlan,
    InProcHub,
    MuxConnectionPool,
    NetworkModel,
    ReplyCache,
    ReplyFuture,
    RetryingChannel,
    RetryPolicy,
    TCPChannel,
    TCPServerTransport,
)
from repro.util.clock import VirtualClock, WallClock

__version__ = "1.0.0"

__all__ = [
    "CachingProxy",
    "ClientOptions",
    "ClusterCoordinator",
    "DirectoryResolver",
    "HashRing",
    "FaultInjectingChannel",
    "FaultPlan",
    "InProcHub",
    "InterWeaveClient",
    "InterWeaveServer",
    "IW_free",
    "IW_get_version",
    "IW_set_coherence",
    "IW_tx_abort",
    "IW_tx_begin",
    "IW_tx_commit",
    "IW_malloc",
    "IW_mip_to_ptr",
    "IW_open_segment",
    "IW_ptr_to_mip",
    "IW_rl_acquire",
    "IW_rl_release",
    "IW_set_process",
    "IW_wl_acquire",
    "IW_wl_release",
    "MetricsRegistry",
    "MuxConnectionPool",
    "NetworkModel",
    "ReplicationSender",
    "ReplyCache",
    "ReplyFuture",
    "Resolver",
    "RetryPolicy",
    "RetryingChannel",
    "Segment",
    "SegmentDirectory",
    "StaticResolver",
    "TCPChannel",
    "TCPServerTransport",
    "Tracer",
    "VirtualClock",
    "WallClock",
    "WriteAheadLog",
    "arch",
    "coherence",
    "delta",
    "diff",
    "full",
    "get_registry",
    "set_registry",
    "temporal",
    "types",
    "util",
    "wire",
]
