"""Server-side process topology for the release-path benchmark.

Every server the benchmark measures is a real child process reached over
real TCP on an ephemeral port: ``repro.tools.server_main`` (the
``repro-server`` entry point), ``repro.tools.proxy_main`` and
``bench/launch_primary.py``, started with their default flags apart from
the ones each workload names (WAL directory, role, quorum-ack).  This
module owns their lifetime: launch, ready handshake on the stdout
banner, ``GetStats`` pulls, peak-RSS reads and a teardown that reaps
every child on every exit path.
"""

from __future__ import annotations

import os
import queue
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

from repro.transport import TCPChannel
from repro.wire.messages import (GetStatsReply, GetStatsRequest,
                                 decode_message, encode_message)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(REPO_ROOT, "src")

#: the name clients address segments under; the relay and both replicas
#: must agree on it
SERVER_NAME = "bench"
HOST = "127.0.0.1"
#: a server that does not answer within this many seconds fails the run
#: (``TransportTimeout``) instead of hanging it
CLIENT_TIMEOUT = 5.0
READY_TIMEOUT = 20.0

_BANNER = re.compile(r"listening on [\d.]+:(\d+)")


class ServerProcess:
    """One child server: argv, captured output, ready port."""

    def __init__(self, role: str, argv: List[str]):
        self.role = role
        self.lines: List[str] = []
        self._banner: "queue.Queue[Optional[int]]" = queue.Queue()
        env = dict(os.environ, PYTHONPATH=SRC_DIR, PYTHONUNBUFFERED="1")
        self.proc = subprocess.Popen(
            [sys.executable] + argv, cwd=REPO_ROOT, env=env,
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)
        self._drain = threading.Thread(target=self._drain_output,
                                       name=f"drain-{role}", daemon=True)
        try:
            self._drain.start()
            self.port = self._wait_ready()
        except BaseException:
            self.kill()  # never leave a half-started child behind
            raise

    def _drain_output(self) -> None:
        announced = False
        for line in self.proc.stdout:
            self.lines.append(line)
            match = None if announced else _BANNER.search(line)
            if match:
                announced = True
                self._banner.put(int(match.group(1)))
        if not announced:
            self._banner.put(None)  # exited before the banner

    def _wait_ready(self) -> int:
        try:
            port = self._banner.get(timeout=READY_TIMEOUT)
        except queue.Empty:
            port = None
        if port is None:
            raise RuntimeError(
                f"{self.role} server did not come up:\n{''.join(self.lines)}")
        return port

    def peak_rss_mib(self) -> float:
        """``VmHWM`` of the live process, in MiB."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError(f"no VmHWM for {self.role} (pid {self.proc.pid})")

    def interrupt(self) -> None:
        """Ask for a clean shutdown (SIGINT, as the tools expect)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)

    def reap(self) -> None:
        """Wait for the exit, SIGKILL after a grace period; no child
        outlives the call."""
        try:
            self.proc.wait(timeout=5.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._drain.join(timeout=2.0)
        self.proc.stdout.close()

    def kill(self) -> None:
        """No grace period (deadline and last-sweep paths)."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


class Topology:
    """The processes behind one workload and the port clients dial.

    ``relay=False``: one ``repro-server`` with a fsync'd WAL.
    ``relay=True``: backup ← primary (quorum-ack, WAL) ← caching relay;
    clients only ever talk to the relay.
    """

    def __init__(self, workdir: str, relay: bool, tag: str):
        #: role → process, in launch order (the last is what clients dial)
        self.hops: Dict[str, ServerProcess] = {}
        self._stats_channels: Dict[str, TCPChannel] = {}
        #: WAL directories of this instance (removed by :meth:`stop`)
        self.wal_root = os.path.join(workdir, f"wal-{tag}")
        os.makedirs(self.wal_root)
        try:
            if relay:
                self._launch_relayed()
            else:
                self._launch("origin", [
                    "-m", "repro.tools.server_main", "--name", SERVER_NAME,
                    "--wal-dir", os.path.join(self.wal_root, "origin")])
        except BaseException:
            self.stop()
            raise
        self.client_port = list(self.hops.values())[-1].port

    def _launch(self, role: str, argv: List[str]) -> ServerProcess:
        process = ServerProcess(role, argv)
        self.hops[role] = process
        return process

    def _launch_relayed(self) -> None:
        backup = self._launch("backup", [
            "-m", "repro.tools.server_main", "--name", SERVER_NAME,
            "--role", "backup",
            "--wal-dir", os.path.join(self.wal_root, "backup")])
        origin = self._launch("origin", [
            os.path.join(BENCH_DIR, "launch_primary.py"),
            "--name", SERVER_NAME,
            "--wal-dir", os.path.join(self.wal_root, "origin"),
            "--backup-port", str(backup.port)])
        self._launch("relay", [
            "-m", "repro.tools.proxy_main", "--name", SERVER_NAME,
            "--origin-host", HOST, "--origin-port", str(origin.port)])

    def connector(self, server_name: str, client_id: str) -> TCPChannel:
        return TCPChannel(HOST, self.client_port, client_id,
                          timeout=CLIENT_TIMEOUT)

    def stats(self) -> Dict[str, dict]:
        """One ``GetStats`` snapshot per hop, over a dedicated channel."""
        snapshots = {}
        for role, process in self.hops.items():
            channel = self._stats_channels.get(role)
            if channel is None:
                channel = TCPChannel(HOST, process.port, "bench-stats",
                                     timeout=CLIENT_TIMEOUT)
                self._stats_channels[role] = channel
            reply = decode_message(channel.request(
                encode_message(GetStatsRequest("bench-stats"))))
            if not isinstance(reply, GetStatsReply):
                raise RuntimeError(f"{role}: unexpected stats reply {reply!r}")
            snapshots[role] = reply.to_dict()
        return snapshots

    def peak_rss_mib(self) -> float:
        return sum(process.peak_rss_mib() for process in self.hops.values())

    def stop(self) -> None:
        for channel in self._stats_channels.values():
            channel.close()
        self._stats_channels.clear()
        try:
            # no client traffic is left, so all hops shut down at once
            for process in self.hops.values():
                process.interrupt()
            for process in self.hops.values():
                process.reap()
        finally:
            # an interrupted stop must not leave the others running
            self.kill()

    def kill(self) -> None:
        for process in self.hops.values():
            process.kill()
        shutil.rmtree(self.wal_root, ignore_errors=True)


def filesystem_type(path: str) -> str:
    """The filesystem type holding ``path`` (longest mount-point match)."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    with open("/proc/mounts", encoding="utf-8") as mounts:
        for line in mounts:
            fields = line.split()
            mount = fields[1]
            if (path == mount or path.startswith(mount.rstrip("/") + "/")) \
                    and len(mount) > len(best):
                best, fstype = mount, fields[2]
    return fstype


class Reaper:
    """Owns every live :class:`Topology` of one invocation.

    Two jobs: a per-run hard deadline (a run that overruns it has every
    child killed, the work directory removed, and the command exits
    non-zero instead of hanging), and a last sweep on the way out that
    kills whatever an interrupted teardown left running.
    """

    def __init__(self, workdir: str):
        self.topologies: List[Topology] = []
        self._workdir = workdir
        self._timer: Optional[threading.Timer] = None

    def arm(self, seconds: float) -> None:
        self._timer = threading.Timer(seconds, self._expire, (seconds,))
        self._timer.daemon = True
        self._timer.start()

    def disarm(self) -> None:
        if self._timer is not None:
            self._timer.cancel()

    def _expire(self, seconds: float) -> None:
        sys.stderr.write(f"bench: run passed its {seconds:.0f}s deadline; "
                         "killing servers\n")
        self.sweep()
        sys.stderr.flush()
        os._exit(3)

    def sweep(self) -> None:
        """Kill and reap every child still registered; remove the work
        directory."""
        for topology in self.topologies:
            topology.kill()
        shutil.rmtree(self._workdir, ignore_errors=True)


def wait_until(predicate, timeout: float, what: str) -> None:
    """Poll ``predicate`` (a cheap callable) until true or fail loudly."""
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise RuntimeError(f"timed out after {timeout:g}s waiting for {what}")
        time.sleep(0.005)
