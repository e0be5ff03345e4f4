"""repro.proxy — a caching relay tier for read fan-out.

Readers connect to a :class:`CachingProxy` exactly as they would to an
:class:`~repro.server.InterWeaveServer`; the proxy answers what its
cached version metadata and encoded diffs can prove coherent, and
forwards the rest to the origin.  See ``docs/PROTOCOL.md`` §"Relay
tier" and ``python -m repro.tools.proxy_main``.
"""

from repro.proxy.proxy import CachingProxy

__all__ = ["CachingProxy"]
