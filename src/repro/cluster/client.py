"""The cluster executor: resident shards hosted on socket-connected nodes.

:class:`ClusterExecutor` implements the executor contract of
:mod:`repro.mapreduce.executor` over TCP.  The driver listens on a
configurable address; node processes (auto-spawned localhost subprocesses
by default, or started on other machines with ``python -m
repro.cluster.node --connect host:port``) dial in and host the resident
shards.  Every command and result crosses the wire as one length-prefixed
frame in the integrity envelope of :mod:`repro.cluster.protocol` —
CRC-checked, sequence-numbered, and HMAC-SHA256-authenticated whenever a
``cluster_secret`` is configured (mandatory for non-loopback listeners).
The payload blob is encoded by the shard codec — the same columnar delta
frames the process backend ships through shared memory, so the
three-round tick protocol, the replica-delta shipping and the
bit-identical results carry over unchanged.

Placement is cost-model-driven (:mod:`repro.cluster.placement`): shards
land on nodes in contiguous strip blocks scored with the
:class:`~repro.cluster.network.NetworkModel`, and
:meth:`ClusterExecutor.rebalance_shards` physically migrates shards
between nodes when the observed load makes a different composition
cheaper.

Liveness is heartbeat-based, and node death is *supervised* rather than
fatal: when a node dies or stops heartbeating the executor retires it,
resynchronizes the survivors (their resident shard state stays put),
tries to refill the slot — respawning the subprocess in spawned mode, or
holding the listener open for ``readmission_timeout`` seconds so an
external replacement can dial in — and otherwise rehomes the lost
shards' *assignments* onto the survivors.  Either way the lost shard
*state* is gone and must be re-seeded, so the round still raises a
:class:`~repro.core.errors.NodeLossError` ("recover from the last
checkpoint") that routes the caller into checkpoint recovery; the BRACE
runtime answers with :meth:`reseed_shards` for just the lost shards
while the survivors rewind in place.  Only when no node survives does
the executor give up its resident state entirely.
"""
from __future__ import annotations

import atexit
import os
import pickle
import secrets
import select
import socket
import subprocess
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster.auth import (
    SECRET_ENV_VAR,
    TOKEN_ENV_VAR,
    derive_session_key,
    is_loopback,
    issue_challenge,
    verify_hello,
)
from repro.cluster.network import NetworkModel
from repro.cluster._simnode import SimulatedNode
from repro.cluster.placement import plan_placement
from repro.cluster.protocol import (
    ConnectionLostError,
    FrameChannel,
    ProtocolError,
)
from repro.cluster.retry import RetryPolicy
from repro.core.errors import ExecutorError, NodeLossError
from repro.ipc.frames import ColumnarCodec
from repro.mapreduce.executor import (
    Executor,
    ShardTaskResult,
    TaskResult,
    _is_pickling_error,
)

__all__ = ["ClusterExecutor"]

#: Grace between ``terminate`` and ``kill`` when reaping spawned nodes
#: at interpreter exit.
_REAP_GRACE_SECONDS = 3.0

_REAPER_LOCK = threading.Lock()
_SPAWNED_NODES: "set[subprocess.Popen]" = set()
_REAPER_INSTALLED = False


def _register_spawned(process: subprocess.Popen) -> None:
    """Track a spawned node so a crashed driver cannot orphan it."""
    global _REAPER_INSTALLED
    with _REAPER_LOCK:
        _SPAWNED_NODES.add(process)
        if not _REAPER_INSTALLED:
            atexit.register(_reap_spawned_nodes)
            _REAPER_INSTALLED = True


def _unregister_spawned(process: Optional[subprocess.Popen]) -> None:
    if process is None:
        return
    with _REAPER_LOCK:
        _SPAWNED_NODES.discard(process)


def _reap_spawned_nodes() -> None:
    """atexit backstop: terminate every still-registered node process,
    escalating to SIGKILL after a grace period.  A clean ``shutdown()``
    unregisters its processes first, so this only fires for drivers that
    crashed or were interrupted mid-run."""
    with _REAPER_LOCK:
        processes = [p for p in _SPAWNED_NODES if p.poll() is None]
        _SPAWNED_NODES.clear()
    for process in processes:
        try:
            process.terminate()
        except OSError:
            pass
    deadline = time.monotonic() + _REAP_GRACE_SECONDS
    for process in processes:
        try:
            process.wait(timeout=max(0.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            try:
                process.kill()
                process.wait()
            except OSError:
                pass


class _NodeConnection:
    """One connected node: its socket, enveloped channel and identity."""

    def __init__(
        self,
        index: int,
        sock: socket.socket,
        channel: FrameChannel,
        pid: int,
        address: Tuple[str, int],
        process: Optional[subprocess.Popen] = None,
    ) -> None:
        self.index = index
        self.sock = sock
        self.channel = channel
        self.pid = pid
        self.address = address
        self.process = process

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


class ClusterExecutor(Executor):
    """Socket-based multi-node backend for resident shards.

    ``num_nodes`` node processes host the shards; with ``spawn=True``
    (the default) they are started as localhost subprocesses, otherwise
    the executor waits for externally started nodes to connect to
    ``listen``.  ``secret`` arms HMAC authentication of every frame and
    is required for non-loopback listen addresses; ``retry`` carries the
    connect/accept/stall/backoff policy (defaults preserve the historic
    constants); ``readmission_timeout`` bounds how long a degraded run
    waits for an external replacement node before rehoming lost shards
    onto survivors.  ``network``/``sim_nodes`` parameterize the
    placement cost model (they default to the stock
    :class:`NetworkModel` and homogeneous nodes).
    """

    name = "cluster"
    shares_memory = False
    supports_partial_recovery = True

    def __init__(
        self,
        max_workers: Optional[int] = None,
        *,
        num_nodes: int = 2,
        listen: str = "127.0.0.1:0",
        spawn: bool = True,
        heartbeat_interval: float = 0.5,
        heartbeat_timeout: float = 10.0,
        secret: Optional[str] = None,
        retry: Optional[RetryPolicy] = None,
        readmission_timeout: Optional[float] = None,
        network: Optional[NetworkModel] = None,
        sim_nodes: Optional[Sequence[SimulatedNode]] = None,
    ) -> None:
        super().__init__(max_workers)
        if num_nodes < 1:
            raise ExecutorError("the cluster executor needs at least one node")
        if heartbeat_interval <= 0 or heartbeat_timeout <= 0:
            raise ExecutorError("heartbeat interval and timeout must be positive")
        if heartbeat_timeout <= heartbeat_interval:
            raise ExecutorError(
                "heartbeat_timeout must exceed heartbeat_interval, or every "
                "slow phase reads as a dead node"
            )
        self.num_nodes = int(num_nodes)
        self.listen_address = listen
        self.spawn = bool(spawn)
        self.heartbeat_interval = float(heartbeat_interval)
        self.heartbeat_timeout = float(heartbeat_timeout)
        self.secret = secret
        self.retry = (
            retry
            if retry is not None
            else RetryPolicy(send_stall_seconds=float(heartbeat_timeout))
        )
        self.readmission_timeout = (
            float(readmission_timeout)
            if readmission_timeout is not None
            else self.retry.readmission_timeout_seconds
        )
        self.network = network if network is not None else NetworkModel()
        self.sim_nodes: List[SimulatedNode] = (
            list(sim_nodes)
            if sim_nodes is not None
            else [SimulatedNode(index) for index in range(self.num_nodes)]
        )
        if len(self.sim_nodes) != self.num_nodes:
            raise ExecutorError(
                f"sim_nodes describes {len(self.sim_nodes)} nodes but "
                f"num_nodes is {self.num_nodes}"
            )
        self._listener: Optional[socket.socket] = None
        self._token = secrets.token_hex(16) if self.spawn else None
        self._nodes: Dict[int, _NodeConnection] = {}
        #: pid -> Popen for every node subprocess this executor spawned.
        #: Connections are matched to their process by the pid the hello
        #: reports — nodes dial in *arrival* order, not spawn order, so
        #: pairing them positionally would tie a socket to the wrong
        #: process and make supervision kill a healthy node.
        self._spawned_by_pid: Dict[int, subprocess.Popen] = {}
        self._shard_to_node: Dict[int, int] = {}
        self._shard_factory: Optional[Callable[[int, Any], Any]] = None
        self._codec = ColumnarCodec()
        self._reset_nonce = 0
        #: Lost shard -> node chosen to host its re-seeded state.
        self._lost_assignment: Dict[int, int] = {}
        #: Supervision log: one dict per death/readmission/rehoming.
        self.fault_events: List[dict] = []

    # ------------------------------------------------------------------
    # Node lifecycle
    # ------------------------------------------------------------------
    def _ensure_listener(self) -> Tuple[str, int]:
        if self._listener is None:
            host, _, port = self.listen_address.rpartition(":")
            if not host or not port.isdigit():
                raise ExecutorError(
                    f"cluster listen address must be HOST:PORT, got {self.listen_address!r}"
                )
            if self.secret is None and not is_loopback(host):
                raise ExecutorError(
                    f"refusing to listen on non-loopback address "
                    f"{self.listen_address!r} without a cluster secret: remote "
                    "peers would be unauthenticated. Configure cluster_secret "
                    "(and give each node the same secret via "
                    f"{SECRET_ENV_VAR} or --secret-file)."
                )
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            try:
                listener.bind((host, int(port)))
            except OSError as error:
                listener.close()
                raise ExecutorError(
                    f"cluster executor could not bind {self.listen_address!r}: {error}"
                ) from error
            listener.listen(self.num_nodes)
            self._listener = listener
        return self._listener.getsockname()[:2]

    def _spawn_node(self, address: Tuple[str, int]) -> subprocess.Popen:
        command = [
            sys.executable,
            "-m",
            "repro.cluster.node",
            "--connect",
            f"{address[0]}:{address[1]}",
            "--heartbeat-interval",
            str(self.heartbeat_interval),
        ]
        env = dict(os.environ)
        # Mirror multiprocessing's spawn semantics: the node must be able to
        # unpickle callables and agent classes from any module the driver can
        # import (test modules, user scripts on sys.path), not just installed
        # packages.
        env["PYTHONPATH"] = os.pathsep.join(entry for entry in sys.path if entry)
        # Credentials travel in the environment, never on the command line —
        # argv is world-readable via ps on shared hosts.
        if self._token is not None:
            env[TOKEN_ENV_VAR] = self._token
        if self.secret is not None:
            env[SECRET_ENV_VAR] = self.secret
        process = subprocess.Popen(command, env=env)
        _register_spawned(process)
        self._spawned_by_pid[process.pid] = process
        return process

    def _ensure_nodes(self) -> None:
        """Bring the node set up to ``num_nodes`` live connections."""
        if len(self._nodes) == self.num_nodes:
            return
        address = self._ensure_listener()
        missing = [index for index in range(self.num_nodes) if index not in self._nodes]
        processes: List[Optional[subprocess.Popen]] = []
        for _ in missing:
            processes.append(self._spawn_node(address) if self.spawn else None)
        try:
            for index in missing:
                self._nodes[index] = self._accept_node(
                    index, self.retry.accept_timeout_seconds
                )
        except socket.timeout:
            raise ExecutorError(
                f"cluster executor expected {self.num_nodes} nodes but only "
                f"{len(self._nodes)} connected within "
                f"{self.retry.accept_timeout_seconds:.0f}s; start the missing "
                "nodes with "
                f"'python -m repro.cluster.node --connect {address[0]}:{address[1]}'"
            ) from None

    def _accept_node(self, index: int, timeout: float) -> _NodeConnection:
        """Accept, challenge and authenticate the next node for one slot.

        Peers that fail any handshake step — no hello, wrong token,
        missing or wrong HMAC proof — are closed and ignored; only an
        authenticated peer becomes a node.  Raises ``socket.timeout``
        when no acceptable peer arrives within ``timeout`` seconds.
        """
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise socket.timeout(f"no node connected within {timeout:.1f}s")
            self._listener.settimeout(remaining)
            sock, peer = self._listener.accept()
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(max(remaining, 1.0))
            channel = FrameChannel(sock, role="driver")
            nonce = issue_challenge()
            try:
                channel.send_message(
                    "challenge",
                    {"nonce": nonce, "auth_required": self.secret is not None},
                )
                message = channel.recv_message()
            except (ProtocolError, OSError):
                sock.close()
                continue
            if message is None or message[0] != "hello":
                sock.close()
                continue
            meta = message[1] or {}
            if self._token is not None and meta.get("token") != self._token:
                sock.close()
                continue
            if self.secret is not None:
                if not verify_hello(self.secret, nonce, meta.get("proof")):
                    sock.close()
                    continue
                channel.enable_auth(derive_session_key(self.secret, nonce))
            sock.settimeout(None)
            pid = int(meta.get("pid", -1))
            # The socket belongs to whichever process dialed it — resolve
            # by the hello's pid, never by spawn order (``process`` is only
            # the fallback for a peer we did not spawn ourselves).
            return _NodeConnection(
                index, sock, channel, pid, peer, self._spawned_by_pid.get(pid)
            )

    def _node(self, index: int) -> _NodeConnection:
        try:
            return self._nodes[index]
        except KeyError:
            raise ExecutorError(f"cluster node {index} is not connected") from None

    # ------------------------------------------------------------------
    # Supervision: node death, re-admission, degradation
    # ------------------------------------------------------------------
    def _node_failed(self, connection: _NodeConnection, error: BaseException) -> NodeLossError:
        """A node died or timed out: supervise the loss and build the
        error that routes the caller into checkpoint recovery."""
        return self._supervise_loss(connection, error)

    def _retire(self, connection: _NodeConnection, dead: Dict[int, _NodeConnection]) -> None:
        """Remove a connection from the live set and reap its process."""
        dead[connection.index] = connection
        self._nodes.pop(connection.index, None)
        connection.close()
        if connection.process is not None:
            self._spawned_by_pid.pop(connection.process.pid, None)
            try:
                connection.process.kill()
                connection.process.wait(timeout=5)
            except (OSError, subprocess.TimeoutExpired):
                pass
            _unregister_spawned(connection.process)

    def _resync_survivors(self, dead: Dict[int, _NodeConnection]) -> None:
        """Drain every surviving stream to a clean frame boundary.

        An aborted round leaves queued replies on the survivors; the
        nonce-tagged ``sync`` drains each stream up to its ack *without*
        touching the node's resident shard state (that is the difference
        from ``reset``).  A survivor that fails the sync is dead too.
        """
        self._reset_nonce += 1
        nonce = self._reset_nonce
        for index, connection in sorted(list(self._nodes.items())):
            try:
                connection.channel.send_message("sync", {"nonce": nonce})
                connection.sock.settimeout(self.heartbeat_timeout)
                while True:
                    message = connection.channel.recv_message()
                    if message is None:
                        raise ConnectionLostError("node closed during resync")
                    if message[0] == "ok" and (message[1] or {}).get("nonce") == nonce:
                        break
                connection.sock.settimeout(None)
            except (ProtocolError, OSError):
                self._retire(connection, dead)

    def _acquire_replacement(self, index: int) -> Optional[_NodeConnection]:
        """One attempt to refill a dead slot.

        Spawned mode starts a fresh subprocess and waits the accept
        window for it; external mode holds the listener open for
        ``readmission_timeout`` seconds so a replacement started by an
        operator (or a supervisor script) can dial in.  Returns ``None``
        when no authenticated replacement arrives.
        """
        if self._listener is None:
            return None
        process: Optional[subprocess.Popen] = None
        if self.spawn:
            timeout = self.retry.accept_timeout_seconds
            process = self._spawn_node(self._listener.getsockname()[:2])
        else:
            timeout = self.readmission_timeout
            if timeout <= 0:
                return None
        try:
            return self._accept_node(index, timeout)
        except (socket.timeout, OSError):
            if process is not None:
                self._spawned_by_pid.pop(process.pid, None)
                try:
                    process.kill()
                    process.wait(timeout=5)
                except (OSError, subprocess.TimeoutExpired):
                    pass
                _unregister_spawned(process)
            return None

    def _emptiest_node(self) -> int:
        """Survivor with the fewest (current + already assigned) shards;
        lowest index breaks ties — deterministic rehoming."""
        counts = {index: 0 for index in self._nodes}
        for node_index in self._shard_to_node.values():
            if node_index in counts:
                counts[node_index] += 1
        for node_index in self._lost_assignment.values():
            if node_index in counts:
                counts[node_index] += 1
        return min(sorted(counts), key=lambda index: (counts[index], index))

    def _supervise_loss(self, first: _NodeConnection, error: BaseException) -> NodeLossError:
        """Handle one detected node death end to end.

        Retire the dead node, resync the survivors (retiring any that
        fail), refill each dead slot (respawn / re-admit) or fall back
        to rehoming onto survivors, and record where every lost shard's
        re-seeded state should land (claimed later by
        :meth:`reseed_shards`).  Surviving nodes keep their resident
        state throughout — there is no teardown.
        """
        started = time.monotonic()
        dead: Dict[int, _NodeConnection] = {}
        self._retire(first, dead)
        self._resync_survivors(dead)
        # Which shards lost their state: everything hosted on a dead node,
        # plus anything still awaiting a reseed from an earlier loss.
        origin: Dict[int, int] = {
            shard_id: node_index
            for shard_id, node_index in self._shard_to_node.items()
            if node_index in dead
        }
        for shard_id, node_index in self._lost_assignment.items():
            origin.setdefault(shard_id, node_index)
        for shard_id in origin:
            self._shard_to_node.pop(shard_id, None)
        self._lost_assignment = {}

        actions: Dict[int, str] = {}
        for index in sorted(dead):
            replacement = self._acquire_replacement(index)
            if replacement is not None:
                self._nodes[index] = replacement
                actions[index] = "respawned" if self.spawn else "readmitted"
            else:
                actions[index] = "rehomed" if self._nodes else "lost"

        if not self._nodes:
            # Total loss: no resident state survives anywhere.
            self._shard_to_node = {}
            self._shards = None
            action = "lost"
        else:
            for shard_id in sorted(origin):
                home = origin[shard_id]
                self._lost_assignment[shard_id] = (
                    home if home in self._nodes else self._emptiest_node()
                )
            action = actions[first.index]

        described = {
            "respawned": "a replacement process was spawned into its slot",
            "readmitted": "a replacement node was re-admitted into its slot",
            "rehomed": "no replacement arrived, so its shards were rehomed "
            "onto the surviving nodes",
            "lost": "no node survives",
        }[action]
        self.fault_events.append(
            {
                "event": "node_loss",
                "node": first.index,
                "pid": first.pid,
                "lost_shards": tuple(sorted(origin)),
                "action": action,
                "survivors": tuple(sorted(self._nodes)),
                "wall_seconds": time.monotonic() - started,
                "error": f"{type(error).__name__}: {error}",
            }
        )
        return NodeLossError(
            f"cluster node {first.index} (pid {first.pid}) died or stopped "
            f"heartbeating; {described}. The lost resident shard state must "
            "be re-seeded (for BRACE runs: recover from the last checkpoint). "
            f"Original error: {type(error).__name__}: {error}",
            node_index=first.index,
            lost_shards=sorted(origin),
            action=action,
        )

    def drain_fault_events(self) -> List[dict]:
        """Hand the accumulated supervision log to the caller (and clear it)."""
        events, self.fault_events = self.fault_events, []
        return events

    def lost_shards(self) -> Tuple[int, ...]:
        """Shards whose state was lost and awaits :meth:`reseed_shards`."""
        return tuple(sorted(self._lost_assignment))

    def reseed_shards(self, payloads: Dict[int, Any]) -> None:
        """Re-install lost shards on their supervision-assigned nodes.

        The counterpart of :meth:`init_shards` for partial recovery:
        only the shards a node death lost are re-built (through the
        original factory), on the replacement node or the
        survivors the supervisor picked — the other shards' resident
        state is never touched.
        """
        if self._shard_factory is None:
            raise ExecutorError(
                "no resident shard round is active; use init_shards() first"
            )
        unknown = sorted(set(payloads) - set(self._lost_assignment))
        if unknown:
            raise ExecutorError(f"shards {unknown} are not awaiting a reseed")
        missing = sorted(set(self._lost_assignment) - set(payloads))
        if missing:
            raise ExecutorError(
                f"reseed_shards must cover every lost shard; missing {missing}"
            )
        sent: List[Tuple[int, _NodeConnection]] = []
        for shard_id in sorted(payloads):
            connection = self._node(self._lost_assignment[shard_id])
            self._send(
                connection,
                "init_shard",
                {"shard_id": shard_id, "factory": self._shard_factory},
                self._encode_payload(payloads[shard_id]),
            )
            sent.append((shard_id, connection))
        first_error: Optional[BaseException] = None
        for shard_id, connection in sent:
            kind, meta, _ = self._recv_reply(connection)
            if kind == "error":
                if first_error is None:
                    first_error = self._remote_error(meta)
                continue
            self._shard_to_node[shard_id] = connection.index
            self._lost_assignment.pop(shard_id, None)
        if first_error is not None:
            raise first_error

    # ------------------------------------------------------------------
    # Wire helpers
    # ------------------------------------------------------------------
    def _encode_payload(self, payload) -> bytes:
        """Encode a shard payload as one columnar frame, classifying failures."""
        try:
            return self._codec.encode(payload)
        except (pickle.PickleError, AttributeError, TypeError) as error:
            if not _is_pickling_error(error):
                raise
            raise ExecutorError(
                f"the cluster executor could not serialize a shard payload: {error}. "
                "Everything crossing the node boundary must be picklable "
                "(module-level functions and importable classes)."
            ) from error

    def _send(self, connection: _NodeConnection, kind: str, meta, blob: bytes = b"") -> int:
        """Send one message, draining the node's replies while blocked.

        Commands go out before replies are collected, so a large command
        can fill the kernel buffers while the node is itself blocked
        sending a large reply — a classic both-sides-sending deadlock.
        Draining incoming frames into the connection's channel whenever
        the send would block breaks the cycle; the drained frames surface
        on the next :meth:`_recv_reply`.
        """
        data = memoryview(connection.channel.seal_message(kind, meta, blob))
        payload_bytes = len(data) - 8  # minus the length prefix
        sock = connection.sock
        stall_seconds = self.retry.send_stall_seconds
        try:
            sock.setblocking(False)
            try:
                while data:
                    readable, writable, _ = select.select(
                        [sock], [sock], [], stall_seconds
                    )
                    if not readable and not writable:
                        raise socket.timeout(
                            f"send stalled for {stall_seconds:.1f}s"
                        )
                    if readable:
                        chunk = sock.recv(1 << 16)
                        if not chunk:
                            raise ConnectionLostError("node closed while receiving a command")
                        connection.channel.absorb(chunk)
                    if writable:
                        try:
                            sent = sock.send(data)
                        except BlockingIOError:
                            sent = 0
                        data = data[sent:]
            finally:
                sock.setblocking(True)
        except (ProtocolError, OSError) as error:
            raise self._node_failed(connection, error) from error
        return payload_bytes

    def _recv_reply(self, connection: _NodeConnection) -> Tuple[str, Any, bytes]:
        """Next non-heartbeat message; any frame resets the liveness clock.

        ``"error"`` replies are *returned*, not raised: a round with many
        outstanding commands must keep collecting the other replies so the
        stream stays in sync (a mid-collection raise would leave stale
        results queued for the next round to misread).  Callers pass the
        reply through :meth:`_check_reply` once their batch is drained.
        Envelope violations (corruption, bad MAC, sequence gaps) are
        fail-stop node deaths — a stream that cannot be trusted is
        indistinguishable from a dead node, and is handled the same way.
        """
        connection.sock.settimeout(self.heartbeat_timeout)
        try:
            while True:
                message = connection.channel.recv_message()
                if message is None:
                    raise self._node_failed(
                        connection, ConnectionLostError("node closed its connection")
                    )
                if message[0] == "heartbeat":
                    continue
                return message
        except socket.timeout as error:
            raise self._node_failed(
                connection,
                TimeoutError(
                    f"no frame from the node for {self.heartbeat_timeout:.1f}s "
                    f"(heartbeat interval {self.heartbeat_interval:.1f}s)"
                ),
            ) from error
        except (ProtocolError, OSError) as error:
            raise self._node_failed(connection, error) from error
        finally:
            try:
                connection.sock.settimeout(None)
            except OSError:
                pass

    def _check_reply(self, reply: Tuple[str, Any, bytes]) -> Tuple[str, Any, bytes]:
        """Raise the rebuilt remote exception if ``reply`` is an error."""
        if reply[0] == "error":
            raise self._remote_error(reply[1])
        return reply

    @staticmethod
    def _remote_error(meta: dict) -> BaseException:
        """Rebuild a task exception shipped back from a node."""
        blob = meta.get("exception")
        if blob is not None:
            try:
                return pickle.loads(blob)
            except Exception:  # noqa: BLE001 - fall back to the formatted text
                pass
        return ExecutorError(
            "a cluster shard task failed on its node:\n" + meta.get("traceback", "")
        )

    # ------------------------------------------------------------------
    # Stateless tasks
    # ------------------------------------------------------------------
    def run_tasks(self, tasks: Sequence[Callable[[], Any]]) -> List[TaskResult]:
        """Round-robin the callables across the nodes (pickled whole)."""
        if not tasks:
            return []
        self._ensure_nodes()
        order = sorted(self._nodes)
        per_node: Dict[int, List[int]] = {index: [] for index in order}
        for position, task in enumerate(tasks):
            node_index = order[position % len(order)]
            blob = self._dumps_task(task)
            self._send(self._nodes[node_index], "call", None, blob)
            per_node[node_index].append(position)
        results: List[Optional[TaskResult]] = [None] * len(tasks)
        first_error: Optional[BaseException] = None
        for node_index in order:
            connection = self._nodes[node_index]
            for position in per_node[node_index]:
                kind, meta, blob = self._recv_reply(connection)
                if kind == "error":
                    if first_error is None:
                        first_error = self._remote_error(meta)
                    continue
                results[position] = TaskResult(
                    position, pickle.loads(blob), meta["wall_seconds"]
                )
        if first_error is not None:
            raise first_error
        return results  # type: ignore[return-value]

    @staticmethod
    def _dumps_task(task: Callable[[], Any]) -> bytes:
        try:
            return pickle.dumps(task, pickle.HIGHEST_PROTOCOL)
        except (pickle.PickleError, AttributeError, TypeError) as error:
            if not _is_pickling_error(error):
                raise
            raise ExecutorError(
                f"the cluster executor could not serialize a task: {error}. "
                "Tasks must be picklable (module-level functions, "
                "functools.partial over importable callables)."
            ) from error

    # ------------------------------------------------------------------
    # Resident shards
    # ------------------------------------------------------------------
    def init_shards(
        self,
        factory: Callable[[int, Any], Any],
        payloads: Dict[int, Any],
    ) -> None:
        if self._shard_to_node:
            raise ExecutorError(
                "resident shards are already initialized; call teardown_shards() first"
            )
        if not payloads:
            raise ExecutorError("init_shards needs at least one shard payload")
        self._ensure_nodes()
        self._shard_factory = factory
        self._lost_assignment = {}
        weights = {
            shard_id: float(len(getattr(payload, "agents", ()) or ()) or 1)
            for shard_id, payload in payloads.items()
        }
        placement = plan_placement(
            sorted(payloads), weights, self.sim_nodes, self.network
        )
        try:
            sent: List[Tuple[int, _NodeConnection]] = []
            for shard_id in sorted(payloads):
                connection = self._node(placement[shard_id])
                self._send(
                    connection,
                    "init_shard",
                    {"shard_id": shard_id, "factory": factory},
                    self._encode_payload(payloads[shard_id]),
                )
                sent.append((shard_id, connection))
            first_error: Optional[BaseException] = None
            for shard_id, connection in sent:
                kind, meta, _ = self._recv_reply(connection)
                if kind == "error":
                    if first_error is None:
                        first_error = self._remote_error(meta)
                    continue
                self._shard_to_node[shard_id] = connection.index
        except NodeLossError:
            # A half-seeded shard set is unusable: wipe what did install so
            # the recovery path can re-init from scratch on the (possibly
            # refilled) node set.
            self.teardown_shards()
            raise
        if first_error is not None:
            self.teardown_shards()  # drop the shards that did install
            raise first_error
        self._shards = None  # the base-class in-process map stays unused

    def has_shards(self) -> bool:
        return bool(self._shard_to_node)

    def run_sharded_tasks(
        self,
        tasks: Sequence[Tuple[int, Callable[[Any, Any], Any], Any]],
    ) -> List[ShardTaskResult]:
        """Ship ``(shard_id, fn, payload)`` tasks to the shards' nodes.

        All commands go out first (each node then works through its batch
        sequentially, preserving per-shard serialization), replies are
        collected per node afterwards — the round's wall clock is the
        slowest node, not the sum.
        """
        if not self._shard_to_node:
            raise ExecutorError("no resident shards are initialized; call init_shards() first")
        if self._lost_assignment:
            raise ExecutorError(
                f"resident shards {sorted(self._lost_assignment)} were lost to "
                "a node death and must be re-seeded (reseed_shards) before the "
                "next round"
            )
        if not tasks:
            return []
        pending: List[dict] = []
        for index, (shard_id, fn, payload) in enumerate(tasks):
            node_index = self._shard_to_node.get(shard_id)
            if node_index is None:
                raise ExecutorError(f"unknown resident shard {shard_id!r}")
            connection = self._node(node_index)
            start = time.perf_counter()
            blob = self._encode_payload(payload)
            encode_seconds = time.perf_counter() - start
            start = time.perf_counter()
            self._send(
                connection,
                "run_task",
                {"shard_id": shard_id, "fn": fn},
                blob,
            )
            send_seconds = time.perf_counter() - start
            pending.append(
                {
                    "index": index,
                    "shard_id": shard_id,
                    "node": node_index,
                    "payload_bytes": len(blob),
                    "serialize": encode_seconds,
                    "transport": send_seconds,
                }
            )
        results: List[Optional[ShardTaskResult]] = [None] * len(tasks)
        first_error: Optional[BaseException] = None
        for node_index in sorted(self._nodes):
            connection = self._nodes[node_index]
            for entry in pending:
                if entry["node"] != node_index:
                    continue
                kind, meta, blob = self._recv_reply(connection)
                if kind == "error":
                    # Keep draining the other replies so the streams stay
                    # in sync; raise once the round is fully collected.
                    if first_error is None:
                        first_error = self._remote_error(meta)
                    continue
                start = time.perf_counter()
                value = self._codec.decode(blob)
                decode_seconds = time.perf_counter() - start
                results[entry["index"]] = ShardTaskResult(
                    entry["shard_id"],
                    value,
                    meta["wall_seconds"],
                    payload_bytes=entry["payload_bytes"],
                    result_bytes=len(blob),
                    serialize_seconds=entry["serialize"]
                    + meta["codec_seconds"]
                    + decode_seconds,
                    transport_seconds=entry["transport"],
                )
        if first_error is not None:
            raise first_error
        return results  # type: ignore[return-value]

    def teardown_shards(self) -> None:
        """Drop every node's shard state; connections and processes stay up.

        The reset is a nonce-tagged synchronization point: an aborted
        round (a node died mid-collection) can leave queued replies on
        the surviving nodes, so each node's stream is drained until the
        ``"ok"`` echoing this reset's nonce — anything older is stale and
        discarded.  A node that fails to acknowledge is disconnected (and
        respawned by the next :meth:`_ensure_nodes`), so teardown always
        leaves a clean slate even mid-failure.
        """
        self._shard_to_node = {}
        self._shard_factory = None
        self._lost_assignment = {}
        self._reset_nonce += 1
        nonce = self._reset_nonce
        for index in sorted(self._nodes):
            connection = self._nodes[index]
            try:
                connection.channel.send_message("reset", {"nonce": nonce})
                connection.sock.settimeout(self.heartbeat_timeout)
                while True:
                    message = connection.channel.recv_message()
                    if message is None:
                        raise ConnectionLostError("node closed during reset")
                    if message[0] == "ok" and (message[1] or {}).get("nonce") == nonce:
                        break
                connection.sock.settimeout(None)
            except (ProtocolError, OSError):
                connection.close()
                if connection.process is not None:
                    self._spawned_by_pid.pop(connection.process.pid, None)
                    connection.process.kill()
                    connection.process.wait()
                    _unregister_spawned(connection.process)
                del self._nodes[index]
        self._shards = None

    def migrate_shard(self, shard_id: int, node_index: int) -> int:
        """Physically re-home one shard onto another node; returns the
        bytes of shard state that crossed the wire.

        The shard's owned agents travel as one codec-encoded seed frame
        (collect on the source, re-build via the original factory on the
        destination).  Replica caches and delta send histories do **not**
        travel — the caller must follow up with a full
        ``adopt_partitioning`` round so every shard reships its replicas
        from scratch (the BRACE runtime's
        ``_apply_new_partitioning_resident`` does exactly that).
        """
        source_index = self._shard_to_node.get(shard_id)
        if source_index is None:
            raise ExecutorError(f"unknown resident shard {shard_id!r}")
        if node_index not in self._nodes:
            raise ExecutorError(f"cluster node {node_index} is not connected")
        if source_index == node_index:
            return 0
        source = self._node(source_index)
        self._send(source, "collect_shard", {"shard_id": shard_id})
        kind, meta, blob = self._check_reply(self._recv_reply(source))
        if kind != "shard_state":
            raise ExecutorError(
                f"cluster node {source_index} answered a shard collection with {kind!r}"
            )
        destination = self._node(node_index)
        try:
            # States with a migration_seed() hook rebuild through the original
            # factory; plain states install verbatim (factory=None).
            self._send(
                destination,
                "init_shard",
                {"shard_id": shard_id,
                 "factory": self._shard_factory if meta.get("reseed") else None},
                blob,
            )
            self._check_reply(self._recv_reply(destination))
        except NodeLossError as error:
            # The shard's state left its source and never landed: it is
            # lost with the destination, whatever the supervisor decided
            # about the destination's other shards.
            self._shard_to_node.pop(shard_id, None)
            if self._nodes:
                self._lost_assignment.setdefault(shard_id, self._emptiest_node())
            error.lost_shards = tuple(sorted(set(error.lost_shards) | {shard_id}))
            raise
        self._shard_to_node[shard_id] = node_index
        return len(blob)

    def rebalance_shards(self, weights: Dict[int, float]) -> Tuple[List[Tuple[int, int, int]], int]:
        """Re-place the shards for the observed load and migrate the diff.

        Returns ``(moves, bytes)`` where each move is ``(shard_id,
        from_node, to_node)``.  Placement is planned over the *live*
        nodes only — a degraded cluster rebalances across its survivors.
        The caller owns protocol correctness: a full adopt round must
        follow any non-empty move list.
        """
        if not self._shard_to_node:
            return [], 0
        live = sorted(self._nodes)
        positions = plan_placement(
            sorted(self._shard_to_node),
            weights,
            [self.sim_nodes[index] for index in live],
            self.network,
        )
        placement = {shard_id: live[position] for shard_id, position in positions.items()}
        moves: List[Tuple[int, int, int]] = []
        moved_bytes = 0
        for shard_id in sorted(placement):
            target = placement[shard_id]
            current = self._shard_to_node[shard_id]
            if target != current:
                moved_bytes += self.migrate_shard(shard_id, target)
                moves.append((shard_id, current, target))
        return moves, moved_bytes

    # ------------------------------------------------------------------
    # Introspection (tests, provenance, benchmarks)
    # ------------------------------------------------------------------
    def shard_node(self, shard_id: int) -> int:
        """Index of the node currently hosting ``shard_id``."""
        try:
            return self._shard_to_node[shard_id]
        except KeyError:
            raise ExecutorError(f"unknown resident shard {shard_id!r}") from None

    def shard_host_pid(self, shard_id: int) -> int:
        """Pid of the node process hosting ``shard_id`` (affinity probe)."""
        return self._node(self.shard_node(shard_id)).pid

    def node_pids(self) -> Dict[int, int]:
        """Node index -> node process pid, for every connected node."""
        return {index: connection.pid for index, connection in sorted(self._nodes.items())}

    def node_topology(self) -> Tuple[dict, ...]:
        """Resolved topology for provenance: one record per connected node."""
        return tuple(
            {
                "node": index,
                "address": f"{connection.address[0]}:{connection.address[1]}",
                "pid": connection.pid,
                "spawned": connection.process is not None,
                "authenticated": connection.channel.authenticated,
                "shards": tuple(
                    shard_id
                    for shard_id, node in sorted(self._shard_to_node.items())
                    if node == index
                ),
            }
            for index, connection in sorted(self._nodes.items())
        )

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Stop every node process and release the listener (idempotent)."""
        nodes, self._nodes = self._nodes, {}
        self._shard_to_node = {}
        self._shard_factory = None
        self._lost_assignment = {}
        for connection in nodes.values():
            try:
                connection.channel.send_message("shutdown", None)
                connection.sock.settimeout(self.heartbeat_timeout)
                while True:
                    message = connection.channel.recv_message()
                    if message is None or message[0] != "heartbeat":
                        break
            except (ProtocolError, OSError):
                pass
            connection.close()
            if connection.process is not None:
                self._spawned_by_pid.pop(connection.process.pid, None)
                try:
                    connection.process.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    connection.process.kill()
                    connection.process.wait()
                _unregister_spawned(connection.process)
        # Spawned processes that never completed a handshake (stragglers
        # from a failed cluster formation) have no connection to ask nicely
        # through; kill them so shutdown never leaks a child.
        stragglers, self._spawned_by_pid = self._spawned_by_pid, {}
        for process in stragglers.values():
            try:
                process.kill()
                process.wait(timeout=5)
            except (OSError, subprocess.TimeoutExpired):
                pass
            _unregister_spawned(process)
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
            self._listener = None
        super().shutdown()
