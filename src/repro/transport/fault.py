"""Deterministic fault injection for transports.

Wraps any :class:`~repro.transport.Channel` and, driven by a seeded RNG,
injects the faults a flaky network produces: requests dropped before
delivery, replies dropped after the server processed them, truncated
reply frames, injected latency, and connection drops.  Tests and
benchmarks use it to exercise the retry/reconnect machinery without real
packet loss; the same seed always yields the same fault schedule.

Fault semantics matter for idempotence:

- ``drop_request`` faults fire *before* the inner channel is touched —
  the server never saw the request, so a retry is always safe;
- ``drop_reply`` faults fire *after* the inner request returned — the
  server **did** process the request, so retrying is only safe through a
  transport with sequence-number deduplication (TCP) or for naturally
  idempotent requests;
- ``truncate_reply`` returns a garbled prefix, modelling a cut frame:
  the caller's decoder must fail cleanly (``WireFormatError``), which is
  fatal, not retryable;
- ``disconnect`` breaks the inner connection (via ``break_connection()``
  when the transport supports reconnection, else ``close()``) and raises
  :class:`~repro.errors.TransportDisconnected`.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Optional

from repro.errors import TransportDisconnected, TransportTimeout
from repro.obs.metrics import get_registry
from repro.transport.base import Channel


class FaultPlan:
    """Probabilities (per request) and a seeded RNG for injected faults."""

    def __init__(self, seed: int = 0, drop_request: float = 0.0,
                 drop_reply: float = 0.0, truncate_reply: float = 0.0,
                 disconnect: float = 0.0, delay_probability: float = 0.0,
                 delay: float = 0.0):
        for name, probability in (("drop_request", drop_request),
                                  ("drop_reply", drop_reply),
                                  ("truncate_reply", truncate_reply),
                                  ("disconnect", disconnect),
                                  ("delay_probability", delay_probability)):
            if not 0.0 <= probability <= 1.0:
                raise ValueError(f"{name} must be a probability, got {probability}")
        if delay < 0:
            raise ValueError("delay must be >= 0")
        self.seed = seed
        self.drop_request = drop_request
        self.drop_reply = drop_reply
        self.truncate_reply = truncate_reply
        self.disconnect = disconnect
        self.delay_probability = delay_probability
        self.delay = delay
        self.rng = random.Random(seed)

    def __repr__(self):
        return (f"FaultPlan(seed={self.seed}, drop_request={self.drop_request}, "
                f"drop_reply={self.drop_reply}, truncate_reply={self.truncate_reply}, "
                f"disconnect={self.disconnect})")


class FaultInjectingChannel(Channel):
    """A channel wrapper that injects faults per a :class:`FaultPlan`.

    Byte accounting stays with the inner channel (``stats`` is aliased),
    so measured wire sizes are unchanged; the wrapper adds only
    ``fault.*`` counters recording what it injected.
    """

    def __init__(self, inner: Channel, plan: FaultPlan, clock=None):
        # _inner must exist before super().__init__(): the base class
        # assigns reconnect_listener, which delegates to the inner channel
        self._inner = inner
        super().__init__()
        self._plan = plan
        self._clock = clock
        self.stats = inner.stats  # the wrapper moves no bytes of its own
        metrics = get_registry()
        self._m_drops = metrics.counter(
            "fault.drops", "requests or replies dropped by the injector")
        self._m_truncations = metrics.counter(
            "fault.truncations", "replies truncated by the injector")
        self._m_disconnects = metrics.counter(
            "fault.disconnects", "connections broken by the injector")
        self._m_delays = metrics.counter(
            "fault.delays", "requests delayed by the injector")

    @property
    def can_push(self):  # type: ignore[override]
        return self._inner.can_push

    @property
    def reconnect_listener(self):  # type: ignore[override]
        """Delegated to the inner channel: it is the one that actually
        reconnects, while clients install their poller-reset callback on
        the outermost wrapper."""
        return self._inner.reconnect_listener

    @reconnect_listener.setter
    def reconnect_listener(self, callback: Optional[Callable[[], None]]) -> None:
        self._inner.reconnect_listener = callback

    def set_notification_handler(self, handler: Callable[[bytes], None]) -> None:
        self._inner.set_notification_handler(handler)

    def request(self, data: bytes) -> bytes:
        plan = self._plan
        rng = plan.rng
        if plan.disconnect and rng.random() < plan.disconnect:
            self._m_disconnects.inc()
            self._break_inner()
            raise TransportDisconnected("injected: connection dropped")
        if plan.delay_probability and rng.random() < plan.delay_probability:
            self._m_delays.inc()
            self._sleep(plan.delay)
        if plan.drop_request and rng.random() < plan.drop_request:
            self._m_drops.inc()
            raise TransportTimeout("injected: request dropped before delivery")
        reply = self._inner.request(data)
        if plan.drop_reply and rng.random() < plan.drop_reply:
            self._m_drops.inc()
            raise TransportTimeout("injected: reply dropped in flight")
        if (plan.truncate_reply and len(reply) > 1
                and rng.random() < plan.truncate_reply):
            self._m_truncations.inc()
            return reply[:rng.randrange(1, len(reply))]
        return reply

    def submit(self, data: bytes):
        """Pipelined submit with fault injection.

        A fault that would raise from :meth:`request` instead returns an
        already-failed future — modelling the waiter's eventual fate: a
        dropped request or reply never produces a matching reply frame,
        so the waiter would time out.  ``drop_reply`` still delivers the
        request to the inner channel first (the server *did* process
        it), which is what makes retry-dedup tests honest.  Truncation
        is not injected on this path (once submitted, the reply bytes
        reach the inner channel's future, not this wrapper).
        """
        from repro.transport.base import ReplyFuture

        plan = self._plan
        rng = plan.rng
        if plan.disconnect and rng.random() < plan.disconnect:
            self._m_disconnects.inc()
            self._break_inner()
            failed = ReplyFuture()
            failed.fail(TransportDisconnected("injected: connection dropped"))
            return failed
        if plan.delay_probability and rng.random() < plan.delay_probability:
            self._m_delays.inc()
            self._sleep(plan.delay)
        if plan.drop_request and rng.random() < plan.drop_request:
            self._m_drops.inc()
            failed = ReplyFuture()
            failed.fail(TransportTimeout("injected: request dropped before delivery"))
            return failed
        future = self._inner.submit(data)
        if plan.drop_reply and rng.random() < plan.drop_reply:
            self._m_drops.inc()
            failed = ReplyFuture()
            failed.fail(TransportTimeout("injected: reply dropped in flight"))
            return failed
        return future

    def _break_inner(self) -> None:
        breaker: Optional[Callable[[], None]] = getattr(
            self._inner, "break_connection", None)
        if breaker is not None:
            breaker()
        else:
            self._inner.close()

    def _sleep(self, seconds: float) -> None:
        advance = getattr(self._clock, "advance", None)
        if advance is not None:
            advance(seconds)
        elif seconds > 0:
            time.sleep(seconds)

    def health(self) -> dict:
        state = self._inner.health()
        state["transport"] = f"FaultInjecting({state.get('transport', '?')})"
        return state

    def close(self) -> None:
        self._inner.close()
