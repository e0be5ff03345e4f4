"""Tests for coherence policies, staleness decisions, and adaptive polling."""

import pytest

from repro.coherence import (
    AdaptivePoller,
    CoherencePolicy,
    SUBSCRIBE_AFTER,
    delta,
    diff,
    full,
    temporal,
    version_stale,
)
from repro.errors import CoherenceError
from repro.server.coherence import SegmentCoherence


class TestPolicyConstruction:
    def test_factories(self):
        assert full().name == "full"
        assert delta(3).param == 3.0
        assert temporal(1.5).param == 1.5
        assert diff(25).param == 25.0

    def test_validation(self):
        with pytest.raises(CoherenceError):
            delta(0)
        with pytest.raises(CoherenceError):
            temporal(-1)
        with pytest.raises(CoherenceError):
            diff(101)
        with pytest.raises(CoherenceError):
            CoherencePolicy(99)

    def test_str(self):
        assert str(full()) == "full"
        assert str(delta(2)) == "delta(2)"


class TestVersionStale:
    def test_nothing_cached_is_always_stale(self):
        assert version_stale(full(), 0, 0)
        assert version_stale(delta(100), 0, 5)

    def test_current_is_never_stale(self):
        assert not version_stale(full(), 5, 5)
        assert not version_stale(full(), 7, 5)

    def test_full_is_stale_when_behind(self):
        assert version_stale(full(), 4, 5)

    def test_delta_bound(self):
        # delta(2): update every second version
        assert not version_stale(delta(2), 4, 5)
        assert version_stale(delta(2), 3, 5)
        assert version_stale(delta(2), 1, 5)

    def test_delta_one_equals_full(self):
        assert version_stale(delta(1), 4, 5) == version_stale(full(), 4, 5)


class TestDiffCoherenceCounter:
    def make(self, percent, total_units=1000):
        coherence = SegmentCoherence()
        view = coherence.view("c")
        view.version = 1
        view.policy = diff(percent)
        return coherence, view, total_units

    def test_accumulates_until_threshold(self):
        coherence, view, total = self.make(10)
        coherence.on_new_version(50)  # 5%
        assert not coherence.is_stale(view, 2, total, 0.0, None)
        coherence.on_new_version(60)  # 11%
        assert coherence.is_stale(view, 3, total, 0.0, None)

    def test_counter_resets_on_update(self):
        coherence, view, total = self.make(10)
        coherence.on_new_version(500)
        coherence.on_client_updated("c", 2, diff(10))
        assert view.modified_units == 0
        assert not coherence.is_stale(view, 2, total, 0.0, None)

    def test_conservative_independent_updates(self):
        """Two writes to the same data still advance the counter twice."""
        coherence, view, total = self.make(10)
        coherence.on_new_version(60)
        coherence.on_new_version(60)  # same units in reality; server can't know
        assert coherence.is_stale(view, 3, total, 0.0, None)

    def test_exactly_at_the_bound_is_fresh(self):
        """``modified * 100 == x * total`` still meets Diff(x%); one unit
        more breaks it."""
        coherence, view, total = self.make(10)
        coherence.on_new_version(100)
        assert not coherence.is_stale(view, 2, total, 0.0, None)
        coherence.on_new_version(1)
        assert coherence.is_stale(view, 3, total, 0.0, None)

    def test_empty_segment_is_stale(self):
        coherence, view, _ = self.make(10)
        assert coherence.is_stale(view, 5, 0, 0.0, None)


class TestTemporalCoherence:
    def test_fresh_copy_ok(self):
        coherence = SegmentCoherence()
        view = coherence.view("c")
        view.version = 3
        view.policy = temporal(10.0)
        # superseded 5 units ago, bound is 10: still fine
        assert not coherence.is_stale(view, 5, 100, now=20.0, superseded_time=15.0)

    def test_expired_copy_stale(self):
        coherence = SegmentCoherence()
        view = coherence.view("c")
        view.version = 3
        view.policy = temporal(10.0)
        assert coherence.is_stale(view, 5, 100, now=30.0, superseded_time=15.0)

    def test_exactly_at_the_bound_is_fresh(self):
        """Superseded exactly ``t`` ago still meets Temporal(t); any
        later is past it."""
        coherence = SegmentCoherence()
        view = coherence.view("c")
        view.version = 3
        view.policy = temporal(2.5)
        assert not coherence.is_stale(view, 5, 100, now=17.5,
                                      superseded_time=15.0)
        assert coherence.is_stale(view, 5, 100, now=17.75,
                                  superseded_time=15.0)

    def test_never_superseded_not_stale(self):
        coherence = SegmentCoherence()
        view = coherence.view("c")
        view.version = 3
        view.policy = temporal(0.0)
        assert not coherence.is_stale(view, 5, 100, now=99.0, superseded_time=None)


class TestSubscriptions:
    def test_stale_subscribers_selected_once(self):
        coherence = SegmentCoherence()
        view = coherence.view("c")
        view.version = 1
        view.policy = full()
        coherence.subscribe("c", True)
        stale = coherence.stale_subscribers(2, 100, 0.0, lambda v: None)
        assert [v.client_id for v in stale] == ["c"]
        stale[0].notified = True
        assert coherence.stale_subscribers(3, 100, 0.0, lambda v: None) == []

    def test_unsubscribed_not_notified(self):
        coherence = SegmentCoherence()
        view = coherence.view("c")
        view.version = 1
        coherence.subscribe("c", True)
        coherence.subscribe("c", False)
        assert coherence.stale_subscribers(5, 100, 0.0, lambda v: None) == []

    def test_delta_subscriber_notified_only_past_bound(self):
        coherence = SegmentCoherence()
        view = coherence.view("c")
        view.version = 4
        view.policy = delta(3)
        coherence.subscribe("c", True)
        assert coherence.stale_subscribers(5, 100, 0.0, lambda v: None) == []
        assert coherence.stale_subscribers(6, 100, 0.0, lambda v: None) == []
        assert len(coherence.stale_subscribers(7, 100, 0.0, lambda v: None)) == 1


class TestAdaptivePoller:
    def test_initial_state_polls(self):
        poller = AdaptivePoller(can_push=True)
        assert poller.must_contact_server()

    def test_subscribe_after_redundant_polls(self):
        poller = AdaptivePoller(can_push=True)
        for _ in range(SUBSCRIBE_AFTER):
            assert not poller.wants_subscription()
            poller.on_validated(1, had_update=False, now=0.0)
        assert poller.wants_subscription()

    def test_updates_reset_redundancy(self):
        poller = AdaptivePoller(can_push=True)
        for _ in range(SUBSCRIBE_AFTER - 1):
            poller.on_validated(1, had_update=False, now=0.0)
        poller.on_validated(2, had_update=True, now=0.0)
        assert not poller.wants_subscription()

    def test_no_push_never_subscribes(self):
        poller = AdaptivePoller(can_push=False)
        for _ in range(10):
            poller.on_validated(1, had_update=False, now=0.0)
        assert not poller.wants_subscription()

    def test_subscribed_skips_until_notify(self):
        poller = AdaptivePoller(can_push=True)
        poller.on_validated(3, had_update=False, now=0.0)
        poller.on_subscribed()
        assert not poller.must_contact_server()
        poller.on_notify(4)
        assert poller.must_contact_server()
        poller.on_validated(4, had_update=True, now=1.0)
        assert not poller.must_contact_server()

    def test_temporal_short_circuit(self):
        poller = AdaptivePoller(can_push=False)
        poller.on_validated(1, had_update=True, now=100.0)
        assert not poller.must_contact_server(temporal_bound=5.0, now=104.0)
        assert poller.must_contact_server(temporal_bound=5.0, now=106.0)

    def test_own_write_validates(self):
        poller = AdaptivePoller(can_push=True)
        poller.on_subscribed()
        poller.on_notify(2)
        poller.on_local_write(3, now=1.0)
        assert not poller.must_contact_server()


class TestAdaptiveUnsubscribe:
    def subscribe(self):
        from repro.coherence.polling import UNSUBSCRIBE_AFTER

        poller = AdaptivePoller(can_push=True)
        poller.on_validated(1, had_update=False, now=0.0)
        poller.on_subscribed()
        return poller, UNSUBSCRIBE_AFTER

    def test_notification_storm_triggers_unsubscribe(self):
        poller, threshold = self.subscribe()
        for version in range(2, 2 + threshold):
            poller.on_notify(version)
            poller.on_validated(version, had_update=True, now=float(version))
        assert poller.wants_unsubscription()
        poller.on_unsubscribed()
        assert not poller.subscribed
        assert poller.must_contact_server()  # back to polling

    def test_mode_transitions_are_counted(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        poller = AdaptivePoller(can_push=True, metrics=registry)
        for _ in range(SUBSCRIBE_AFTER):
            poller.on_validated(1, had_update=False, now=0.0)
        poller.on_subscribed()
        from repro.coherence.polling import UNSUBSCRIBE_AFTER
        for version in range(2, 2 + UNSUBSCRIBE_AFTER):
            poller.on_notify(version)
            poller.on_validated(version, had_update=True, now=float(version))
        poller.on_unsubscribed()
        counters = registry.snapshot()["counters"]
        assert counters["poller.subscribes"] == 1
        assert counters["poller.unsubscribes"] == 1
        assert counters["poller.invalidations"] == UNSUBSCRIBE_AFTER
        assert counters["poller.redundant_polls"] == SUBSCRIBE_AFTER

    def test_quiet_interval_resets_streak(self):
        poller, threshold = self.subscribe()
        for version in range(2, 1 + threshold):
            poller.on_notify(version)
            poller.on_validated(version, had_update=True, now=float(version))
        # one redundant poll (no update) breaks the storm
        poller.on_validated(1 + threshold, had_update=False, now=99.0)
        poller.on_notify(2 + threshold)
        assert not poller.wants_unsubscription()

    def test_end_to_end_unsubscribe(self):
        from repro import InProcHub, InterWeaveClient, InterWeaveServer, VirtualClock
        from repro.arch import X86_32
        from repro.types import INT

        clock = VirtualClock()
        hub = InProcHub(clock=clock)
        server = InterWeaveServer("h", sink=hub, clock=clock)
        hub.register_server("h", server)
        writer = InterWeaveClient("w", X86_32, hub.connect, clock=clock)
        reader = InterWeaveClient("r", X86_32, hub.connect, clock=clock)
        seg = writer.open_segment("h/s")
        writer.wl_acquire(seg)
        value = writer.malloc(seg, INT, name="v")
        value.set(0)
        writer.wl_release(seg)
        seg_r = reader.open_segment("h/s")
        # quiet phase: reader polls its way into a subscription
        for _ in range(6):
            reader.rl_acquire(seg_r)
            reader.rl_release(seg_r)
        assert seg_r.poller.subscribed
        # write storm: every read is preceded by an invalidation
        for step in range(1, 10):
            writer.wl_acquire(seg)
            writer.accessor_for(seg, "v").set(step)
            writer.wl_release(seg)
            reader.rl_acquire(seg_r)
            reader.rl_release(seg_r)
        assert not seg_r.poller.subscribed
        # correctness unaffected
        reader.rl_acquire(seg_r)
        assert reader.accessor_for(seg_r, "v").get() == 9
        reader.rl_release(seg_r)


class TestBoundsAtTheServer:
    """The same bounds decided by a server read validation; past the
    bound, the update comes from the diff cache."""

    def setup_method(self):
        from repro import InProcHub, InterWeaveClient, InterWeaveServer, VirtualClock
        from repro.arch import X86_32
        from repro.client import ClientOptions
        from repro.obs.metrics import MetricsRegistry
        from repro.types import INT, ArrayDescriptor

        self.clock = VirtualClock(100.0)
        self.server = InterWeaveServer("h", clock=self.clock,
                                       metrics=MetricsRegistry())
        hub = InProcHub(clock=self.clock)
        hub.register_server("h", self.server)
        self.writer = InterWeaveClient(
            "w", X86_32, hub.connect, clock=self.clock,
            options=ClientOptions(enable_notifications=False))
        self.seg = self.writer.open_segment("h/s")
        self.writer.wl_acquire(self.seg)
        self.array = self.writer.malloc(self.seg, ArrayDescriptor(INT, 200),
                                        name="a")
        self.array.write_values(list(range(200)))
        self.writer.wl_release(self.seg)

    def write(self, indices):
        self.writer.wl_acquire(self.seg)
        for index in indices:
            self.array[index] = -1 - index
        self.writer.wl_release(self.seg)

    def validate(self, client_version, kind, param):
        from repro.wire.messages import (LOCK_READ, LockAcquireRequest,
                                         decode_message, encode_message)

        reply = decode_message(self.server.dispatch("r", encode_message(
            LockAcquireRequest("h/s", LOCK_READ, "r", client_version,
                               kind, param))))
        assert reply.granted
        return reply

    def served_from_cache(self):
        return self.server.stats.updates_served_from_cache

    def test_diff_percent(self):
        from repro.wire.messages import COHERENCE_DIFF

        assert self.validate(0, COHERENCE_DIFF, 5.0).version == 1
        self.write(range(10))  # 10 of 200 units: exactly 5 %
        reply = self.validate(1, COHERENCE_DIFF, 5.0)
        assert (reply.version, reply.diff) == (2, None)
        served = self.served_from_cache()
        self.write([100])
        reply = self.validate(1, COHERENCE_DIFF, 5.0)
        assert (reply.diff.from_version, reply.diff.to_version) == (1, 3)
        assert self.served_from_cache() == served + 1

    def test_temporal(self):
        from repro.wire.messages import COHERENCE_TEMPORAL

        assert self.validate(0, COHERENCE_TEMPORAL, 2.5).version == 1
        self.write([0])  # version 2 supersedes the reader's at t = 100
        self.clock.advance(2.5)
        reply = self.validate(1, COHERENCE_TEMPORAL, 2.5)
        assert (reply.version, reply.diff) == (2, None)
        served = self.served_from_cache()
        self.clock.advance(0.25)
        reply = self.validate(1, COHERENCE_TEMPORAL, 2.5)
        assert (reply.diff.from_version, reply.diff.to_version) == (1, 2)
        assert self.served_from_cache() == served + 1
