"""Process-wide metrics: counters, gauges, and fixed-bucket histograms.

The paper's evaluation is built on counting protocol events — diff runs,
bytes on the wire, twin creations, cache hits — so the library routes all
such counts through a :class:`MetricsRegistry`.  Components resolve their
instruments once (at construction) and increment them on the hot path;
resolution is a locked dict lookup, an increment is a per-instrument lock
plus an integer add, cheap enough for per-message (not per-byte) events.

One process-wide default registry (:func:`get_registry`) exists so that a
server, its co-located clients, and the transports between them all land
in a single snapshot without any plumbing.  Tests that need isolation
either construct their own :class:`MetricsRegistry` or swap the default
with :func:`set_registry`.

Snapshots are deterministic: instruments are reported in sorted name
order, and the capture timestamp comes from the registry's
:class:`~repro.util.clock.Clock` (a ``VirtualClock`` makes two identical
histories produce byte-identical snapshots).
"""

from __future__ import annotations

import threading
import weakref
from bisect import bisect_left
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.util.clock import Clock, WallClock

#: Default histogram buckets (seconds): 1 us .. ~65 s in powers of four,
#: chosen to straddle both in-process round trips and WAN-scale latency.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-6, 4e-6, 16e-6, 64e-6, 256e-6, 1e-3, 4e-3, 16e-3, 64e-3,
    0.256, 1.0, 4.0, 16.0, 65.0)


class Counter:
    """A monotonically increasing integer.

    Several instances of one component can share a process and a
    registry (two servers, a server and a relay), and experiments assert
    on one instance's counts.  Each instance therefore increments a
    *part* of the counter of its own (see :class:`OwnerCounters`): the
    counter's value is its own increments plus every part's, including
    the parts of owners since collected, so the total never drops.
    """

    __slots__ = ("name", "help", "_value", "_lock", "_parts", "_retired")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._value = 0
        self._lock = threading.Lock()
        self._parts: Set["Counter"] = set()
        #: parts whose owners were collected, not yet folded into _value
        self._retired: List["Counter"] = []

    @property
    def value(self) -> int:
        if not self._parts:
            return self._value
        with self._lock:
            self._fold()
            return self._value + sum(part._value for part in self._parts)

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        with self._lock:
            self._value += amount

    def reset(self) -> None:
        with self._lock:
            self._fold()
            self._value = 0
            for part in self._parts:
                part.reset()

    def _new_part(self) -> "Counter":
        part = Counter(self.name, self.help)
        with self._lock:
            self._fold()
            self._parts.add(part)
        return part

    def _fold(self) -> None:
        """Move retired parts' counts into this counter's own; the caller
        holds ``_lock``."""
        retired = self._retired
        while retired:
            part = retired.pop()
            # add before discarding: a lock-free read that finds no parts
            # left must find their counts in _value already
            self._value += part._value
            self._parts.discard(part)

    def __repr__(self):
        return f"Counter({self.name!r}={self.value})"


def _retire(parts: List[Tuple[Counter, Counter]]) -> None:
    # called by the garbage collector, possibly on a thread that holds
    # one of these counters' locks: take none, only queue the part for
    # the counter's next read to fold
    for counter, part in parts:
        counter._retired.append(part)


class OwnerCounters:
    """One component instance's own counts, summed in the registry.

    ``OwnerCounters(owner, registry, "server", {"diffs_applied": help})``
    gives ``owner`` a part of the registry counter ``server.diffs_applied``.
    The owner increments ``counters.parts.diffs_applied`` (keep ``parts``
    at hand: it is the hot path), ``counters.diffs_applied`` reads the
    owner's count, and the registry counter reads the sum over every
    owner, live or collected.  ``registry.reset()`` zeroes the parts too.
    """

    def __init__(self, owner: object, registry: "MetricsRegistry",
                 prefix: str, names: Dict[str, str]):
        pairs = []
        for name, help in names.items():
            counter = registry.counter(f"{prefix}.{name}", help)
            pairs.append((counter, counter._new_part()))
        self.parts = SimpleNamespace(
            **{name: part for name, (_, part) in zip(names, pairs)})
        weakref.finalize(owner, _retire, pairs).atexit = False

    def __getattr__(self, name: str) -> int:
        part = vars(self.__dict__.get("parts", SimpleNamespace())).get(name)
        if part is None:
            raise AttributeError(
                f"{type(self).__name__} has no count {name!r}")
        return part.value

    def __repr__(self):
        counts = ", ".join(f"{name}={part.value}"
                           for name, part in vars(self.parts).items())
        return f"{type(self).__name__}({counts})"


class Gauge:
    """A value that can move both ways (queue depths, modes, sizes)."""

    __slots__ = ("name", "help", "_value", "_lock")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._value = 0.0
        self._lock = threading.Lock()

    @property
    def value(self) -> float:
        return self._value

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0

    def __repr__(self):
        return f"Gauge({self.name!r}={self._value})"


class Histogram:
    """Fixed-bucket distribution tracking (cumulative, Prometheus-style).

    ``buckets`` is an increasing sequence of upper bounds; an implicit
    +inf bucket catches everything beyond the last bound.  ``observe``
    records one sample; ``count``/``sum`` give the totals and
    ``bucket_counts`` the non-cumulative per-bucket tallies.
    """

    __slots__ = ("name", "help", "buckets", "_counts", "_sum", "_count", "_lock")

    def __init__(self, name: str, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
                 help: str = ""):
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("histogram buckets must be strictly increasing")
        self.name = name
        self.help = help
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)  # trailing +inf bucket
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def bucket_counts(self) -> Tuple[int, ...]:
        return tuple(self._counts)

    def observe(self, value: float) -> None:
        index = bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value

    def reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self.buckets) + 1)
            self._sum = 0.0
            self._count = 0

    def __repr__(self):
        return f"Histogram({self.name!r} n={self._count} sum={self._sum:g})"


class MetricsRegistry:
    """Named instruments, get-or-create, with deterministic snapshots."""

    def __init__(self, clock: Optional[Clock] = None):
        self.clock = clock or WallClock()
        self._instruments: Dict[str, object] = {}
        self._lock = threading.Lock()

    # -- instrument resolution ------------------------------------------------

    def _get_or_create(self, name: str, cls, factory):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = factory()
                self._instruments[name] = instrument
            elif not isinstance(instrument, cls):
                raise TypeError(
                    f"metric {name!r} is a {type(instrument).__name__}, "
                    f"not a {cls.__name__}")
            return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(name, Counter, lambda: Counter(name, help))

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(name, Gauge, lambda: Gauge(name, help))

    def histogram(self, name: str,
                  buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
                  help: str = "") -> Histogram:
        return self._get_or_create(name, Histogram,
                                   lambda: Histogram(name, buckets, help))

    # -- snapshotting ---------------------------------------------------------

    def snapshot(self) -> dict:
        """All instruments as one JSON-ready dict, sorted by name."""
        counters, gauges, histograms = {}, {}, {}
        with self._lock:
            items = sorted(self._instruments.items())
        for name, instrument in items:
            if isinstance(instrument, Counter):
                counters[name] = instrument.value
            elif isinstance(instrument, Gauge):
                gauges[name] = instrument.value
            elif isinstance(instrument, Histogram):
                histograms[name] = {
                    "count": instrument.count,
                    "sum": instrument.sum,
                    "buckets": [list(pair) for pair in zip(
                        list(instrument.buckets) + ["+inf"],
                        instrument.bucket_counts)],
                }
        return {
            "captured_at": self.clock.now(),
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def reset(self) -> None:
        """Zero every instrument (instruments themselves survive)."""
        with self._lock:
            instruments = list(self._instruments.values())
        for instrument in instruments:
            instrument.reset()

    def __len__(self):
        return len(self._instruments)

    def __bool__(self):
        # a registry with no instruments yet must not read as falsy, or the
        # common ``metrics or get_registry()`` default would discard it
        return True


_default_registry = MetricsRegistry()


class Instruments:
    """A hot path's instruments, resolved once per registry instead of
    by name on every call: ``Instruments(resolve)(registry)`` returns
    ``resolve(registry)``, kept for the last registry asked about.  The
    default registry is the current one, so a :func:`set_registry` swap
    is followed."""

    __slots__ = ("_resolve", "_cached")

    def __init__(self, resolve: Callable[[MetricsRegistry], object]):
        self._resolve = resolve
        self._cached: tuple = (None, None)

    def __call__(self, registry: Optional[MetricsRegistry] = None):
        registry = registry or _default_registry
        cached = self._cached
        if cached[0] is not registry:
            cached = self._cached = (registry, self._resolve(registry))
        return cached[1]


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide default; returns the previous one.

    Components resolve instruments at construction, so a swap affects
    objects created *afterwards* — swap first, then build the world.
    """
    global _default_registry
    previous = _default_registry
    _default_registry = registry
    return previous
