"""The shard host: one command loop behind a :class:`FrameChannel`.

A *node* is a process that hosts resident shards for a driver and serves
its commands one at a time, in arrival order — shard seeding, the
per-tick delta rounds, whole-shard collection for migrations — replying
to each.  It runs shard commands and nothing else: there is no command
that executes a free-standing callable, and a shard is only ever built
by a shard factory.  :func:`serve_channel` is that loop and
:func:`_handle` the only place a framed shard command executes; every
wire executor talks to it.  A daemon thread emits ``heartbeat`` frames on
an interval so the driver can tell a slow shard from a dead node while a
long phase computes.

How a node gets its channel is the one thing that varies:

* **dial-in** (``executor="cluster"``) — ``python -m repro.cluster.node
  --connect host:port`` runs :func:`serve`: the node dials the driver
  over TCP (retrying while the driver is still binding its listener) and
  answers the driver's ``challenge`` with a ``hello`` carrying the join
  token and, when a cluster secret is configured, an HMAC-SHA256 proof
  over the challenge nonce.  Credentials never appear on the command
  line (``ps`` on a shared host would leak them): the token and secret
  come from the ``REPRO_CLUSTER_TOKEN`` / ``REPRO_CLUSTER_SECRET``
  environment variables or from files named by ``--token-file`` /
  ``--secret-file``.
* **forked** (``executor="process"``) — the driver starts the node with
  ``multiprocessing`` over a private ``socket.socketpair()`` and the
  child enters :func:`serve_socketpair` directly: nobody else can reach
  a private pair, so there is no listener, token or handshake.

Every frame travels in the integrity envelope of
:mod:`repro.cluster.protocol`; a corrupt, out-of-sequence or badly-MAC'd
frame is **fail-stop** — the node exits with the typed error rather than
executing a command it cannot trust, and the driver's supervision treats
the silence as a node death.

Shard states live in this process for its whole lifetime (the resident
contract); a shard is built from, and migrates as, its state image
(:func:`repro.brace.shards.encode_image`).  The codec is armed by importing
:mod:`repro.brace.shards`, which registers every protocol payload type with
the columnar wire.
"""
from __future__ import annotations

import argparse
import os
import pickle
import socket
import threading
import time
import traceback
from typing import Any, Dict, Optional

# Importing the shard protocol also registers its wire types with the codec.
from repro.brace.shards import decode_image, encode_image
from repro.cluster.auth import (
    SECRET_ENV_VAR,
    TOKEN_ENV_VAR,
    AuthenticationError,
    derive_session_key,
    hello_proof,
    load_credential,
)
from repro.cluster.protocol import (
    ConnectionLostError,
    FrameChannel,
    ProtocolError,
)
from repro.cluster.retry import RetryPolicy
from repro.core.executor import materialized_rows
from repro.ipc.frames import ColumnarCodec

__all__ = ["serve", "serve_channel", "serve_socketpair", "main"]

#: Seconds the node keeps retrying its initial connect.  Long enough to
#: start nodes before the driver listens (the docs walkthrough does), short
#: enough that a typo'd address fails while a human is still watching.
CONNECT_RETRY_SECONDS = 30.0


class _NodeState:
    """Everything one node process holds between commands."""

    def __init__(self) -> None:
        self.shards: Dict[int, Any] = {}
        self.codec = ColumnarCodec()


def _heartbeat_loop(channel: FrameChannel, interval: float,
                    stop: threading.Event) -> None:
    """Emit heartbeat frames until told to stop or the socket dies."""
    while not stop.wait(interval):
        try:
            channel.send_message("heartbeat", {"pid": os.getpid()})
        except OSError:
            return


def _exception_reply(error: BaseException) -> dict:
    """Package an exception for the driver: the object when picklable,
    always the formatted traceback for the log."""
    formatted = "".join(traceback.format_exception(type(error), error, error.__traceback__))
    try:
        blob = pickle.dumps(error, pickle.HIGHEST_PROTOCOL)
        pickle.loads(blob)  # some exceptions pickle but refuse to rebuild
    except Exception:  # noqa: BLE001 - anything unpicklable falls back to text
        blob = None
    return {"exception": blob, "traceback": formatted}


def _handle(state: _NodeState, kind: str, meta: Any, blob: bytes) -> tuple:
    """Execute one command; returns ``(reply_kind, reply_meta, reply_blob)``."""
    if kind == "init_shard":
        shard_id = meta["shard_id"]
        factory = meta["factory"]
        if not callable(factory):
            raise TypeError(f"init_shard needs a shard factory, got {factory!r}")
        state.shards[shard_id] = factory(shard_id, decode_image(blob))
        return "ok", {"shard_id": shard_id, "pid": os.getpid()}, b""
    if kind == "run_task":
        shard_id = meta["shard_id"]
        if shard_id not in state.shards:
            raise KeyError(f"resident shard {shard_id!r} is not hosted on this node")
        start = time.perf_counter()
        payload = state.codec.decode(blob)
        codec_seconds = time.perf_counter() - start
        shard = state.shards[shard_id]
        materialized = materialized_rows(shard)
        start = time.perf_counter()
        value = meta["fn"](shard, payload)
        wall_seconds = time.perf_counter() - start
        materialized = max(0, materialized_rows(shard) - materialized)
        start = time.perf_counter()
        result_blob = state.codec.encode(value)
        codec_seconds += time.perf_counter() - start
        return (
            "result",
            {"shard_id": shard_id, "wall_seconds": wall_seconds,
             "codec_seconds": codec_seconds, "rows_materialized": materialized},
            result_blob,
        )
    if kind == "collect_shard":
        # A shard migrates as the image of its ``migration_seed()``, which
        # the driver rebuilds through the shard factory on the destination.
        # For the BRACE Worker that is a ShardSeed of the owned agents and
        # the run-wide settings only: retained replicas and the delta send
        # history are deliberately left behind, because the driver follows
        # every migration with an adopt_partitioning round that resets
        # them on all shards.  The shard leaves this node only once its
        # image is encoded.
        shard_id = meta["shard_id"]
        image = encode_image(state.shards[shard_id].migration_seed())
        del state.shards[shard_id]
        return "shard_state", {"shard_id": shard_id}, image
    if kind == "reset":
        # The echoed nonce lets the driver drain stale replies left over
        # from an aborted round: everything queued before this ack is old.
        state.shards.clear()
        return "ok", {"pid": os.getpid(), "nonce": (meta or {}).get("nonce")}, b""
    if kind == "sync":
        # Same stream-drain contract as reset, but the shard state stays:
        # the driver uses this to resynchronize *surviving* nodes after
        # another node died mid-round without discarding their residency.
        return "ok", {"pid": os.getpid(), "nonce": (meta or {}).get("nonce")}, b""
    if kind == "shutdown":
        return "bye", {"pid": os.getpid()}, b""
    raise ValueError(f"unknown command {kind!r}")


def _handshake(
    channel: FrameChannel, token: Optional[str], secret: Optional[str]
) -> None:
    """Answer the driver's challenge; arm frame MACs when a secret is set.

    The driver speaks first: a ``challenge`` carrying a fresh nonce and
    whether it requires authentication.  The node replies ``hello`` with
    its pid, the join token, and — when a secret is configured — the
    HMAC proof over the nonce; from that frame on both sides MAC every
    frame with the nonce-derived session key.  A driver that rejects the
    hello simply closes the connection.
    """
    message = channel.recv_message()
    if message is None:
        raise ConnectionLostError("driver closed before sending a challenge")
    kind, meta, _ = message
    if kind != "challenge":
        raise AuthenticationError(
            f"expected a challenge from the driver, received {kind!r}"
        )
    nonce = meta.get("nonce")
    if meta.get("auth_required") and secret is None:
        raise AuthenticationError(
            "the driver requires an authenticated hello but this node has "
            f"no cluster secret; set {SECRET_ENV_VAR} or pass --secret-file"
        )
    hello = {"pid": os.getpid(), "token": token}
    if secret is not None and nonce is not None:
        hello["proof"] = hello_proof(secret, nonce)
    channel.send_message("hello", hello)
    if secret is not None and nonce is not None:
        channel.enable_auth(derive_session_key(secret, nonce))


def serve(
    host: str,
    port: int,
    token: Optional[str] = None,
    heartbeat_interval: float = 0.5,
    retry_seconds: float = CONNECT_RETRY_SECONDS,
    secret: Optional[str] = None,
) -> None:
    """Dial the driver at ``host:port``, prove who we are, then serve.

    The dial-in attachment: connect (retrying for ``retry_seconds``),
    answer the handshake, and hand the channel to :func:`serve_channel`.
    """
    policy = RetryPolicy(connect_timeout_seconds=retry_seconds)
    sock = policy.retry(
        lambda: socket.create_connection((host, port)),
        describe=f"connecting to cluster driver at {host}:{port}",
    )
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    channel = FrameChannel(sock, role="node")
    try:
        _handshake(channel, token, secret)
    except ProtocolError:
        sock.close()
        raise
    serve_channel(channel, heartbeat_interval)


def serve_socketpair(sock, driver_sockets, heartbeat_interval: float) -> None:
    """Entry point of a node the driver forked over a private socketpair.

    A forked child holds a copy of every driver-side socket that was open
    at the fork — its own pair's included.  It closes them first: a node
    that kept one would hold a sibling's (or its own) stream open after
    the driver let go of it, and that node would never read the
    end-of-stream that tells it to exit.
    """
    for inherited in driver_sockets:
        inherited.close()
    serve_channel(FrameChannel(sock, role="node"), heartbeat_interval)


def serve_channel(channel: FrameChannel, heartbeat_interval: float) -> None:
    """Host shards behind ``channel`` until the driver lets go of it.

    Returns when the driver sends ``shutdown`` or closes the connection;
    raises the typed `ProtocolError` if the stream itself becomes
    untrustworthy (corruption, reordering, a failed MAC) — fail-stop, so
    a fault can never execute as a command.
    """
    state = _NodeState()
    stop = threading.Event()
    beat = threading.Thread(
        target=_heartbeat_loop, args=(channel, heartbeat_interval, stop), daemon=True
    )
    beat.start()
    try:
        while True:
            try:
                message = channel.recv_message()
            except (ConnectionLostError, OSError):
                return  # driver went away; nothing left to serve
            if message is None:
                return
            kind, meta, blob = message
            try:
                reply = _handle(state, kind, meta, blob)
            except BaseException as error:  # noqa: BLE001 - every task error travels back
                reply = ("error", _exception_reply(error), b"")
            channel.send_message(*reply)
            if kind == "shutdown":
                return
    finally:
        stop.set()
        try:
            channel.sock.close()
        except OSError:
            pass


def main(argv: Optional[list] = None) -> None:
    """CLI entry point: ``python -m repro.cluster.node --connect host:port``."""
    parser = argparse.ArgumentParser(
        prog="repro.cluster.node",
        description="Host BRACE resident shards on this machine for a cluster driver.",
    )
    parser.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="address of the driver's cluster listener",
    )
    parser.add_argument(
        "--token-file",
        default=None,
        metavar="PATH",
        help="file holding the handshake token expected by the driver "
        f"(default: the {TOKEN_ENV_VAR} environment variable)",
    )
    parser.add_argument(
        "--secret-file",
        default=None,
        metavar="PATH",
        help="file holding the shared cluster secret for authenticated "
        f"frames (default: the {SECRET_ENV_VAR} environment variable)",
    )
    parser.add_argument(
        "--heartbeat-interval",
        type=float,
        default=0.5,
        help="seconds between liveness frames (default 0.5)",
    )
    parser.add_argument(
        "--retry-seconds",
        type=float,
        default=CONNECT_RETRY_SECONDS,
        help="how long to keep retrying the initial connect (default 30)",
    )
    args = parser.parse_args(argv)
    host, _, port = args.connect.rpartition(":")
    if not host or not port.isdigit():
        parser.error(f"--connect expects HOST:PORT, got {args.connect!r}")
    serve(
        host,
        int(port),
        token=load_credential(TOKEN_ENV_VAR, args.token_file),
        heartbeat_interval=args.heartbeat_interval,
        retry_seconds=args.retry_seconds,
        secret=load_credential(SECRET_ENV_VAR, args.secret_file),
    )
