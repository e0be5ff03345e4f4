"""Server-side coherence bookkeeping.

For Delta coherence a comparison of version numbers suffices, but Diff
coherence requires the server to track, per client, how much of the
segment has been modified since the last update it sent that client.  To
keep that cheap the server is conservative: it assumes all updates touch
independent data and simply accumulates each write's size (in primitive
data units) into a single counter; when the counter exceeds x% of the
segment's total size, the client's copy is no longer recent enough.

The same per-client view records subscriptions for the notification half
of the adaptive polling/notification protocol: after every new version the
server evaluates each subscriber's policy and pushes an invalidation to
those whose bound broke.

Thread-safety: requests on one segment run under that segment's
reader-writer lock, so several *validations* (read-side) execute at once.
Each one only mutates its own client's view, but view creation inserts
into the shared table, and the write-side paths (`on_new_version`,
`stale_subscribers`) iterate it — a plain dict would intermittently raise
"dictionary changed size during iteration".  A small internal lock guards
table membership and iteration snapshots; per-view field updates need no
lock because a view is only written by its own client's requests (read
side) or under the segment write lock (write side).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.coherence import CoherencePolicy, full, version_stale
from repro.wire.messages import COHERENCE_DIFF, COHERENCE_TEMPORAL


@dataclass
class ClientView:
    """What the server knows about one client's cache of one segment."""

    client_id: str
    version: int = 0  # version of the client's cached copy
    policy: CoherencePolicy = field(default_factory=full)
    #: primitive units modified since the client's last update (Diff coherence)
    modified_units: int = 0
    subscribed: bool = False
    notified: bool = False  # invalidation pushed since last validation


class SegmentCoherence:
    """Per-segment map of client views + the staleness decision."""

    def __init__(self):
        self.views: Dict[str, ClientView] = {}
        #: guards table membership and iteration (see module docstring)
        self._lock = threading.Lock()

    def view(self, client_id: str) -> ClientView:
        view = self.views.get(client_id)
        if view is None:
            with self._lock:
                view = self.views.get(client_id)
                if view is None:
                    view = ClientView(client_id)
                    self.views[client_id] = view
        return view

    def _snapshot(self) -> list:
        with self._lock:
            return list(self.views.values())

    # -- events ------------------------------------------------------------------

    def on_new_version(self, modified_units: int) -> None:
        """A write committed: advance every client's conservative counter."""
        for view in self._snapshot():
            view.modified_units += modified_units

    def on_client_updated(self, client_id: str, version: int,
                          policy: CoherencePolicy) -> None:
        """The client validated (and possibly updated) its copy."""
        view = self.view(client_id)
        view.version = version
        view.policy = policy
        view.modified_units = 0
        view.notified = False

    def subscribe(self, client_id: str, enable: bool) -> None:
        view = self.view(client_id)
        view.subscribed = enable
        view.notified = False

    def subscriber_count(self) -> int:
        return sum(1 for view in self._snapshot() if view.subscribed)

    # -- the decision ----------------------------------------------------------------

    def is_stale(self, view: ClientView, current_version: int,
                 total_units: int, now: float,
                 superseded_time: Optional[float]) -> bool:
        """Is this client's cached copy no longer "recent enough"?

        ``superseded_time`` is when the client's version stopped being
        current (creation time of version+1), or None if still current.
        """
        if view.version >= current_version:
            return False
        if view.version == 0:
            return True  # nothing cached: every policy needs a first copy
        policy = view.policy
        if policy.kind == COHERENCE_DIFF:
            if total_units == 0:
                return True
            return view.modified_units * 100.0 > policy.param * total_units
        if policy.kind == COHERENCE_TEMPORAL:
            if superseded_time is None:
                return False
            return now - superseded_time > policy.param
        return version_stale(policy, view.version, current_version)

    def subscribers(self) -> list:
        """Every currently subscribed view, regardless of staleness —
        migration eviction notifies all of them unconditionally."""
        return [view for view in self._snapshot() if view.subscribed]

    def stale_subscribers(self, current_version: int, total_units: int,
                          now: float, superseded_time_of) -> list:
        """Subscribed clients whose bound just broke and who have not been
        notified yet.  ``superseded_time_of(version)`` resolves times."""
        broken = []
        for view in self._snapshot():
            if not view.subscribed or view.notified:
                continue
            if self.is_stale(view, current_version, total_units, now,
                             superseded_time_of(view.version)):
                broken.append(view)
        return broken
