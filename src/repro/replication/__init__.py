"""Primary-backup replication (docs/PROTOCOL.md §11, docs/ROBUSTNESS.md).

A primary :class:`~repro.server.InterWeaveServer` announces its commits
and write-lease transitions to a :class:`ReplicationSender`, which ships
what the backup lacks to it over any ordinary
:class:`~repro.transport.Channel`.  The backup applies the stream via the
``ReplicateAppend``/``ReplicateCatchup`` handlers built into the server;
promotion (``repro.cluster.ClusterCoordinator.promote_backup``) turns it
into a serving primary that honors the failed primary's outstanding
leases.
"""

from repro.replication.sender import ReplicationSender

__all__ = ["ReplicationSender"]
