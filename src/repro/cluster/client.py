"""The wire executors: resident shards hosted on node processes.

:class:`ClusterExecutor` implements the executor contract of
:mod:`repro.mapreduce.executor` for every backend that does not share the
driver's memory.  Node processes run the one shard host
(:mod:`repro.cluster.server`) and the driver speaks to each over a
:class:`~repro.cluster.protocol.FrameChannel`; every command and result
crosses as one length-prefixed frame in the integrity envelope of
:mod:`repro.cluster.protocol` — CRC-checked and sequence-numbered — whose
payload blob is a columnar delta frame of the shard codec.  The round
logic, supervision, migration and fault log below are shared; how a node
is *attached* is the one thing that varies:

* ``executor="cluster"`` (:class:`ClusterExecutor`) — the driver listens on
  a configurable address and nodes dial in over TCP: auto-spawned localhost
  subprocesses by default, or started on other machines with ``python -m
  repro.cluster.node --connect host:port``.  Frames are additionally
  HMAC-SHA256-authenticated whenever a ``cluster_secret`` is configured
  (mandatory for non-loopback listeners).
* ``executor="process"`` (:class:`ProcessExecutor`) — the zero-configuration
  local case: ``max_workers`` nodes forked over private socketpairs, with
  no listener, token or handshake.

Placement is cost-model-driven (:mod:`repro.cluster.placement`): shards
land on nodes in contiguous strip blocks scored with the
:class:`~repro.cluster.network.NetworkModel`, and
:meth:`ClusterExecutor.rebalance_shards` physically migrates shards
between nodes when the observed load makes a different composition
cheaper.

Liveness is heartbeat-based, and node death is *supervised* rather than
fatal: when a node dies or stops heartbeating the executor retires it,
resynchronizes the survivors (their resident shard state stays put),
tries to refill the slot — starting a fresh node process when it starts
its own, or holding the listener open for ``readmission_timeout`` seconds
so an external replacement can dial in — and otherwise rehomes the lost
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
import multiprocessing
import os
import pickle
import secrets
import select
import socket
import subprocess
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

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
from repro.cluster.server import serve_socketpair
from repro.core.errors import ExecutorError, NodeLossError
from repro.ipc.frames import ColumnarCodec
from repro.mapreduce.executor import (
    Executor,
    ShardTaskResult,
    TaskResult,
    _is_pickling_error,
    default_worker_count,
)

__all__ = ["ClusterExecutor", "ProcessExecutor"]

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


def _unregister_spawned(process) -> None:
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


class _ForkedNode:
    """A forked node process behind the slice of :class:`subprocess.Popen`
    that supervision uses (``pid``, ``kill``, ``wait``)."""

    def __init__(self, process) -> None:
        self._process = process
        self.pid = process.pid

    def kill(self) -> None:
        self._process.kill()

    def wait(self, timeout: Optional[float] = None) -> None:
        self._process.join(timeout)
        if self._process.is_alive():
            raise subprocess.TimeoutExpired(f"forked node {self.pid}", timeout)


class _NodeConnection:
    """One attached node: its socket, enveloped channel and identity.

    ``process`` is set for nodes this executor started itself (a spawned
    ``Popen`` or a :class:`_ForkedNode`) and ``None`` for external ones.
    """

    def __init__(
        self,
        index: int,
        sock: socket.socket,
        channel: FrameChannel,
        pid: int,
        address: str,
        process=None,
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
    """The wire executor: resident shards on node processes, nodes dial in.

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
        missing = [index for index in range(self.num_nodes) if index not in self._nodes]
        if not missing:
            return
        try:
            self._attach(missing, self.retry.accept_timeout_seconds)
        except socket.timeout:
            host, port = self._listener.getsockname()[:2]
            raise ExecutorError(
                f"cluster executor expected {self.num_nodes} nodes but only "
                f"{len(self._nodes)} connected within "
                f"{self.retry.accept_timeout_seconds:.0f}s; start the missing "
                f"nodes with 'python -m repro.cluster.node --connect {host}:{port}'"
            ) from None

    def _attach(self, indices: Sequence[int], timeout: float) -> None:
        """Attach one node per slot in ``indices`` — the dial-in way.

        Every missing node process is started first (spawned mode), then
        each slot admits the next authenticated peer, so fresh
        interpreters start in parallel.  Raises ``socket.timeout`` when a
        slot stays empty for ``timeout`` seconds.
        """
        address = self._ensure_listener()
        if self.spawn:
            for _ in indices:
                self._spawn_node(address)
        for index in indices:
            self._nodes[index] = self._accept_node(index, timeout)

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
                index, sock, channel, pid, f"{peer[0]}:{peer[1]}", self._spawned_by_pid.get(pid)
            )

    def _node(self, index: int) -> _NodeConnection:
        try:
            return self._nodes[index]
        except KeyError:
            raise ExecutorError(f"{self.name} node {index} is not connected") from None

    # ------------------------------------------------------------------
    # Supervision: node death, re-admission, degradation
    # ------------------------------------------------------------------
    def _reap(self, process, grace: float = 0.0) -> None:
        """Stop a node process this executor started, and wait for it.

        The process gets ``grace`` seconds to exit on its own (it was asked
        to, or its socket is already closed), then SIGKILL.
        """
        self._spawned_by_pid.pop(process.pid, None)
        try:
            process.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            try:
                process.kill()
                process.wait(timeout=5)
            except (OSError, subprocess.TimeoutExpired):
                pass
        _unregister_spawned(process)

    def _retire(self, connection: _NodeConnection) -> None:
        """Remove a connection from the live set and reap its process."""
        self._nodes.pop(connection.index, None)
        connection.close()
        if connection.process is not None:
            self._reap(connection.process)

    def _barrier(self, kind: str) -> List[_NodeConnection]:
        """Drain every live node's stream to a clean frame boundary.

        An aborted round leaves queued replies on the nodes that outlived
        it.  Each node acknowledges the nonce-tagged ``kind`` — ``"sync"``
        keeps its resident shard state, ``"reset"`` drops it — and
        everything that arrives before that ack is stale and discarded.  A
        node that fails the barrier is dead too: it is retired, and
        returned.
        """
        self._reset_nonce += 1
        nonce = self._reset_nonce
        failed = []
        for _, connection in sorted(self._nodes.items()):
            try:
                connection.channel.send_message(kind, {"nonce": nonce})
                connection.sock.settimeout(self.heartbeat_timeout)
                while True:
                    message = connection.channel.recv_message()
                    if message is None:
                        raise ConnectionLostError(f"node closed during {kind}")
                    if message[0] == "ok" and message[1].get("nonce") == nonce:
                        break
                connection.sock.settimeout(None)
            except (ProtocolError, OSError):
                self._retire(connection)
                failed.append(connection)
        return failed

    def _acquire_replacement(self, index: int) -> bool:
        """One attempt to refill a dead slot; true when a node now fills it.

        An executor that starts its own nodes starts a fresh one and waits
        the accept window for it; external mode holds the listener open
        for ``readmission_timeout`` seconds so a replacement started by an
        operator (or a supervisor script) can dial in.
        """
        timeout = (
            self.retry.accept_timeout_seconds if self.spawn else self.readmission_timeout
        )
        if timeout <= 0:
            return False
        try:
            self._attach([index], timeout)
        except (socket.timeout, OSError):
            self._reap_stragglers()
            return False
        return True

    def _reap_stragglers(self) -> None:
        """Kill spawned processes that never completed a handshake: they
        have no connection to ask nicely through."""
        attached = {connection.pid for connection in self._nodes.values()}
        for pid, process in list(self._spawned_by_pid.items()):
            if pid not in attached:
                self._reap(process)

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

        Retire the dead node, drain the survivors' streams (retiring any
        that fail), refill each dead slot (respawn / re-admit) or fall back
        to rehoming onto survivors, and record where every lost shard's
        re-seeded state should land (claimed later by
        :meth:`reseed_shards`).  Surviving nodes keep their resident
        state throughout — there is no teardown.
        """
        started = time.monotonic()
        self._retire(first)
        dead = {first.index} | {connection.index for connection in self._barrier("sync")}
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
            if self._acquire_replacement(index):
                actions[index] = "respawned" if self.spawn else "readmitted"
            else:
                actions[index] = "rehomed" if self._nodes else "lost"

        if not self._nodes:
            # Total loss: no resident state survives anywhere.
            self._shard_to_node = {}
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
            f"{self.name} node {first.index} (pid {first.pid}) died or stopped "
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
        homes = {shard_id: self._lost_assignment[shard_id] for shard_id in payloads}
        self._seed_round(homes, payloads)
        self._shard_to_node.update(homes)
        self._lost_assignment = {}

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
                f"the {self.name} executor could not serialize a shard payload: {error}. "
                "Everything crossing the node boundary must be picklable "
                "(module-level functions and importable classes)."
            ) from error

    def _send(self, connection: _NodeConnection, kind: str, meta, blob: bytes = b"") -> None:
        """Send one message, draining the node's replies while blocked.

        Commands go out before replies are collected, so a large command
        can fill the kernel buffers while the node is itself blocked
        sending a large reply — a classic both-sides-sending deadlock.
        Draining incoming frames into the connection's channel whenever
        the send would block breaks the cycle; the drained frames surface
        on the next :meth:`_recv_reply`.
        """
        data = memoryview(connection.channel.seal_message(kind, meta, blob))
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
            raise self._supervise_loss(connection, error) from error

    def _recv_reply(self, connection: _NodeConnection) -> Tuple[str, Any, bytes]:
        """Next non-heartbeat message; any frame resets the liveness clock.

        ``"error"`` replies are *returned*, not raised: a round with many
        outstanding commands must keep collecting the other replies so the
        stream stays in sync (a mid-collection raise would leave stale
        results queued for the next round to misread); :meth:`_round`
        raises the first one once its batch is drained.
        Envelope violations (corruption, bad MAC, sequence gaps) are
        fail-stop node deaths — a stream that cannot be trusted is
        indistinguishable from a dead node, and is handled the same way.
        """
        connection.sock.settimeout(self.heartbeat_timeout)
        try:
            while True:
                message = connection.channel.recv_message()
                if message is None:
                    raise self._supervise_loss(
                        connection, ConnectionLostError("node closed its connection")
                    )
                if message[0] == "heartbeat":
                    continue
                return message
        except socket.timeout as error:
            raise self._supervise_loss(
                connection,
                TimeoutError(
                    f"no frame from the node for {self.heartbeat_timeout:.1f}s "
                    f"(heartbeat interval {self.heartbeat_interval:.1f}s)"
                ),
            ) from error
        except (ProtocolError, OSError) as error:
            raise self._supervise_loss(connection, error) from error
        finally:
            try:
                connection.sock.settimeout(None)
            except OSError:
                pass

    def _round(
        self, commands: Iterable[Tuple[_NodeConnection, str, Any, bytes]]
    ) -> Tuple[List[Tuple[str, Any, bytes]], List[float]]:
        """One wire round: send every command, then collect one reply each.

        ``commands`` yields ``(connection, kind, meta, blob)`` and is
        consumed lazily — callers encode inside a generator, so a node
        already decodes and computes while the driver encodes the next
        frame.  Returns the replies in command order, with the seconds each
        send took.

        Whatever stops the round, every command that did go out has its
        reply collected first, so no stream is left holding a stale reply
        for the next round to misread: a command that cannot be produced
        (an unpicklable payload, an unknown shard) raises once the replies
        to its predecessors are in, and ``"error"`` replies raise — the
        first of them, rebuilt — once the whole batch is.  Only a node loss
        raises straight away: supervision has by then drained every
        surviving stream itself.
        """
        sent: List[_NodeConnection] = []
        send_seconds: List[float] = []
        failure: Optional[BaseException] = None
        try:
            for connection, kind, meta, blob in commands:
                start = time.perf_counter()
                self._send(connection, kind, meta, blob)
                send_seconds.append(time.perf_counter() - start)
                sent.append(connection)
        except NodeLossError:
            raise
        except Exception as error:  # noqa: BLE001 - re-raised below, after the drain
            failure = error
        replies = [self._recv_reply(connection) for connection in sent]
        if failure is not None:
            raise failure
        for kind, meta, _ in replies:
            if kind == "error":
                raise self._remote_error(meta)
        return replies, send_seconds

    def _seed_round(self, homes: Dict[int, int], payloads: Dict[int, Any]) -> None:
        """One round building shard ``s`` from ``payloads[s]``, through the
        shard factory, on node ``homes[s]``."""
        self._round(
            (
                self._node(homes[shard_id]),
                "init_shard",
                {"shard_id": shard_id, "factory": self._shard_factory},
                self._encode_payload(payloads[shard_id]),
            )
            for shard_id in sorted(homes)
        )

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
            "a shard task failed on its node:\n" + meta.get("traceback", "")
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
        replies, _ = self._round(
            (self._nodes[order[position % len(order)]], "call", None, self._dumps_task(task))
            for position, task in enumerate(tasks)
        )
        return [
            TaskResult(position, pickle.loads(blob), meta["wall_seconds"])
            for position, (_, meta, blob) in enumerate(replies)
        ]

    def _dumps_task(self, task: Callable[[], Any]) -> bytes:
        try:
            return pickle.dumps(task, pickle.HIGHEST_PROTOCOL)
        except (pickle.PickleError, AttributeError, TypeError) as error:
            if not _is_pickling_error(error):
                raise
            raise ExecutorError(
                f"the {self.name} executor could not serialize a task: {error}. "
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
            self._seed_round(placement, payloads)
        except BaseException:
            # A half-seeded shard set is unusable: wipe what did install so
            # the caller (or the recovery path, on the possibly refilled
            # node set) can re-init from scratch.
            self.teardown_shards()
            raise
        self._shard_to_node = placement

    def has_shards(self) -> bool:
        return bool(self._shard_to_node)

    def run_sharded_tasks(
        self,
        tasks: Sequence[Tuple[int, Callable[[Any, Any], Any], Any]],
    ) -> List[ShardTaskResult]:
        """Ship ``(shard_id, fn, payload)`` tasks to the shards' nodes.

        One :meth:`_round`: all commands go out first (each node then works
        through its batch sequentially, preserving per-shard
        serialization), replies are collected afterwards — the round's wall
        clock is the slowest node, not the sum.
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
        encoded: List[Tuple[int, float]] = []  # (payload bytes, encode seconds) per task

        def commands():
            for shard_id, fn, payload in tasks:
                node_index = self._shard_to_node.get(shard_id)
                if node_index is None:
                    raise ExecutorError(f"unknown resident shard {shard_id!r}")
                start = time.perf_counter()
                blob = self._encode_payload(payload)
                encoded.append((len(blob), time.perf_counter() - start))
                yield self._node(node_index), "run_task", {"shard_id": shard_id, "fn": fn}, blob

        replies, send_seconds = self._round(commands())
        results = []
        for (shard_id, _, _), (payload_bytes, encode_seconds), send, (_, meta, blob) in zip(
            tasks, encoded, send_seconds, replies
        ):
            start = time.perf_counter()
            value = self._codec.decode(blob)
            decode_seconds = time.perf_counter() - start
            results.append(
                ShardTaskResult(
                    shard_id,
                    value,
                    meta["wall_seconds"],
                    payload_bytes=payload_bytes,
                    result_bytes=len(blob),
                    serialize_seconds=encode_seconds + meta["codec_seconds"] + decode_seconds,
                    transport_seconds=send,
                )
            )
        return results

    def teardown_shards(self) -> None:
        """Drop every node's shard state; connections and processes stay up.

        The reset is a :meth:`_barrier`: whatever an aborted round left
        queued on a node is discarded, and a node that fails to acknowledge
        is retired (and replaced by the next :meth:`_ensure_nodes`), so
        teardown always leaves a clean slate even mid-failure.
        """
        self._shard_to_node = {}
        self._shard_factory = None
        self._lost_assignment = {}
        self._barrier("reset")

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
            raise ExecutorError(f"{self.name} node {node_index} is not connected")
        if source_index == node_index:
            return 0
        ((kind, meta, blob),), _ = self._round(
            [(self._node(source_index), "collect_shard", {"shard_id": shard_id}, b"")]
        )
        if kind != "shard_state":
            raise ExecutorError(
                f"{self.name} node {source_index} answered a shard collection with {kind!r}"
            )
        destination = self._node(node_index)
        try:
            # States with a migration_seed() hook rebuild through the original
            # factory; plain states install verbatim (factory=None).
            factory = self._shard_factory if meta.get("reseed") else None
            self._round(
                [(destination, "init_shard", {"shard_id": shard_id, "factory": factory}, blob)]
            )
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
                "address": connection.address,
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
                self._reap(connection.process, grace=5.0)
        self._reap_stragglers()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
            self._listener = None
        super().shutdown()


class ProcessExecutor(ClusterExecutor):
    """The wire executor's zero-configuration local case: forked nodes.

    ``max_workers`` node processes are started with ``multiprocessing``'s
    platform-default start method (fork on Linux), each over a private
    ``socket.socketpair()``.  Everything past the attachment — the command
    loop the node runs, the frame envelope, rounds, supervised node loss,
    migration — is :class:`ClusterExecutor`'s.
    """

    name = "process"

    def __init__(self, max_workers: Optional[int] = None, **options: Any) -> None:
        workers = default_worker_count() if max_workers is None else int(max_workers)
        options.setdefault("num_nodes", workers)
        super().__init__(max_workers, **options)

    def _attach(self, indices: Sequence[int], timeout: float) -> None:
        """Attach one node per slot in ``indices`` — the forked way.

        Nobody else can reach a private pair, so there is nothing to wait
        for (``timeout`` is unused) and nobody to authenticate.
        """
        context = multiprocessing.get_context()
        for index in indices:
            driver_end, node_end = socket.socketpair()
            process = context.Process(
                target=serve_socketpair,
                args=(
                    node_end,
                    [driver_end] + [node.sock for node in self._nodes.values()],
                    self.heartbeat_interval,
                ),
                # A driver that exits without shutdown() must not wait on
                # nodes that are themselves waiting for it.
                daemon=True,
            )
            process.start()
            node_end.close()
            self._nodes[index] = _NodeConnection(
                index,
                driver_end,
                FrameChannel(driver_end, role="driver"),
                process.pid,
                "socketpair",
                _ForkedNode(process),
            )
