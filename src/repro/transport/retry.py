"""Retry policy and a generic retrying channel wrapper.

Transient transport faults (timeouts, resets, a server restarting) are
part of normal operation for a distributed shared-state system; the
paper's adaptive protocol already plans for degraded modes, and this
module supplies the client half of fault tolerance:

- :class:`RetryPolicy` — a typed classification of retryable vs. fatal
  errors plus an exponential-backoff-with-jitter schedule (seeded, so
  tests and simulations are deterministic);
- :class:`RetryingChannel` — wraps any :class:`~repro.transport.Channel`
  factory and transparently reconnects/retries requests that fail with a
  retryable error.

Retrying a request is only safe if re-delivery is idempotent.  The TCP
transport guarantees that with per-client sequence numbers and a
server-side reply cache (see ``repro.transport.tcp``); in-process
channels never duplicate delivery, so with them :class:`RetryingChannel`
is safe for faults injected *before* the request reaches the dispatcher
(see ``repro.transport.fault``).
"""

from __future__ import annotations

import random
import time
from typing import Callable, Optional

from repro.errors import (
    RetryExhausted,
    TransportDisconnected,
    TransportError,
    TransportTimeout,
)
from repro.obs.metrics import OwnerCounters, get_registry
from repro.transport.base import Channel

#: Error types a retry may safely follow (given idempotent re-delivery).
RETRYABLE_ERRORS = (TransportTimeout, TransportDisconnected)


def is_retryable(error: BaseException) -> bool:
    """Typed classification: may this failure be retried?

    Timeouts and disconnections are transient — the server may be slow,
    restarting, or the link flaky.  Everything else (wire-format
    corruption, server rejections, programming errors) is fatal: a retry
    would re-send the same poison.
    """
    return isinstance(error, RETRYABLE_ERRORS)


class RetryPolicy:
    """Exponential backoff with jitter over a bounded attempt budget.

    ``max_attempts`` counts total tries (first send included), so
    ``max_attempts=1`` disables retry.  Delays grow geometrically from
    ``base_delay`` by ``multiplier``, capped at ``max_delay``, and are
    scaled by a uniform ``±jitter`` fraction drawn from a seeded RNG so
    two policies built with the same seed produce identical schedules.
    """

    def __init__(self, max_attempts: int = 5, base_delay: float = 0.05,
                 max_delay: float = 2.0, multiplier: float = 2.0,
                 jitter: float = 0.1, seed: Optional[int] = None):
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if base_delay < 0 or max_delay < 0:
            raise ValueError("delays must be >= 0")
        if multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        self.max_attempts = max_attempts
        self.base_delay = base_delay
        self.max_delay = max_delay
        self.multiplier = multiplier
        self.jitter = jitter
        self._rng = random.Random(seed)

    is_retryable = staticmethod(is_retryable)

    def delay_for(self, failures: int) -> Optional[float]:
        """Backoff before the next try, or None when the budget is spent.

        ``failures`` is the number of attempts that have already failed
        (0 after the first failure).
        """
        if failures + 1 >= self.max_attempts:
            return None
        delay = min(self.max_delay, self.base_delay * self.multiplier ** failures)
        if self.jitter:
            delay *= 1.0 + self._rng.uniform(-self.jitter, self.jitter)
        return max(0.0, delay)

    def __repr__(self):
        return (f"RetryPolicy(max_attempts={self.max_attempts}, "
                f"base_delay={self.base_delay}, max_delay={self.max_delay})")


class RetryingChannel(Channel):
    """Reconnect-and-retry wrapper around a channel factory.

    On a retryable failure the inner channel is closed, the policy's
    backoff is slept (or advanced on a virtual clock), a fresh channel is
    obtained from the factory, and the request is re-sent.  Fatal errors
    and an exhausted budget propagate — the latter as
    :class:`~repro.errors.RetryExhausted` chaining the last failure.

    Byte/request accounting lives in the inner channel (``stats`` is a
    read-through property), so the wrapper adds no double counting.
    """

    def __init__(self, factory: Callable[[], Channel], policy: RetryPolicy,
                 clock=None):
        # deliberately no super().__init__(): stats delegate to the inner
        # channel, and the wrapper keeps only retry/reconnect instruments
        self._factory = factory
        self._policy = policy
        self._clock = clock
        self._handler = None
        self._listener: Optional[Callable[[], None]] = None
        self._counts = OwnerCounters(self, get_registry(), "transport", {
            "retries": "requests retried after a transient fault",
            "reconnects": "channel connections re-established",
        }).parts
        self._inner = factory()
        self._broken = False

    @property
    def can_push(self):  # type: ignore[override]
        return self._inner.can_push

    @property
    def retries(self) -> int:
        return self._counts.retries.value

    @property
    def reconnects(self) -> int:
        return self._counts.reconnects.value

    @property
    def stats(self):
        return self._inner.stats

    @property
    def reconnect_listener(self) -> Optional[Callable[[], None]]:
        """The poller-reset callback; installing it on the wrapper also
        installs it on the inner channel, so a transport that reconnects
        internally (TCP with its own retry policy) still fires it."""
        return self._listener

    @reconnect_listener.setter
    def reconnect_listener(self, callback: Optional[Callable[[], None]]) -> None:
        self._listener = callback
        self._inner.reconnect_listener = callback

    def set_notification_handler(self, handler) -> None:
        self._handler = handler
        self._inner.set_notification_handler(handler)

    def submit(self, data: bytes):
        """Pipelined submits delegate to the inner channel unretried.

        A future-based retry loop would have to block on each future to
        observe its failure, defeating the pipelining; a
        :class:`~repro.transport.TCPChannel` built with a
        :class:`RetryPolicy` retries inside its futures' ``result()``,
        while this wrapper's own loop protects :meth:`request` callers.
        Each retry re-sends that one frame under its own sequence
        number, and the server's :class:`~repro.transport.ReplyCache`
        deduplicates any request that was actually processed (see
        ``docs/ROBUSTNESS.md``).
        """
        return self._inner.submit(data)

    def request(self, data: bytes) -> bytes:
        failures = 0
        while True:
            try:
                if self._broken:
                    # inside the try: the factory's own connect can fail
                    # with a retryable error (server still down), which
                    # must consume a retry and back off, not propagate
                    self._reopen()
                return self._inner.request(data)
            except TransportError as error:
                if not is_retryable(error):
                    raise
                self._broken = True
                delay = self._policy.delay_for(failures)
                if delay is None:
                    raise RetryExhausted(
                        f"request failed after {failures + 1} attempts: "
                        f"{error}") from error
                failures += 1
                self._counts.retries.inc()
                self._sleep(delay)

    def _reopen(self) -> None:
        try:
            self._inner.close()
        except TransportError:
            pass
        self._inner = self._factory()
        self._broken = False
        self._inner.reconnect_listener = self._listener
        if self._handler is not None and self._inner.can_push:
            self._inner.set_notification_handler(self._handler)
        self._counts.reconnects.inc()
        if self._listener is not None:
            self._listener()

    def _sleep(self, seconds: float) -> None:
        advance = getattr(self._clock, "advance", None)
        if advance is not None:
            advance(seconds)
        elif seconds > 0:
            time.sleep(seconds)

    def health(self) -> dict:
        state = self._inner.health()
        state.update({
            "transport": f"Retrying({state.get('transport', '?')})",
            "retries": self.retries,
            "reconnects": self.reconnects,
        })
        return state

    def close(self) -> None:
        self._inner.close()
