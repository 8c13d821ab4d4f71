"""Cluster authentication: challenge–response admission and frame MACs.

The driver issues a fresh nonce per connection; a node proves knowledge
of the shared ``cluster_secret`` with an HMAC over that nonce (the
secret never crosses the wire) and both sides then MAC every frame with
a per-connection session key.  These tests cover the primitives, the
policy (non-loopback listeners refuse to run unauthenticated) and the
live handshake: impostors with no proof, a wrong proof or a replayed
hello are closed and ignored while a legitimate node joins and runs.
"""

import os
import socket
import subprocess
import sys
import threading

import pytest

from repro.cluster.auth import (
    SECRET_ENV_VAR,
    derive_session_key,
    hello_proof,
    is_loopback,
    load_credential,
    verify_hello,
)
from repro.cluster.client import ClusterExecutor
from repro.cluster.protocol import FrameChannel
from repro.cluster.retry import RetryPolicy
from repro.core.errors import ExecutorError

SECRET = "orange-tabby-rehearsal"


class TestPrimitives:
    def test_proof_roundtrip(self):
        assert verify_hello(SECRET, "abcd", hello_proof(SECRET, "abcd"))

    def test_wrong_secret_or_nonce_rejected(self):
        proof = hello_proof(SECRET, "abcd")
        assert not verify_hello("other", "abcd", proof)
        assert not verify_hello(SECRET, "efgh", proof)

    def test_non_string_proof_rejected(self):
        for bogus in (None, 7, b"bytes", ["list"]):
            assert not verify_hello(SECRET, "abcd", bogus)

    def test_session_key_differs_from_proof_and_per_nonce(self):
        key = derive_session_key(SECRET, "abcd")
        assert len(key) == 32
        assert key.hex() != hello_proof(SECRET, "abcd")
        assert key != derive_session_key(SECRET, "efgh")

    def test_loopback_classification(self):
        assert is_loopback("127.0.0.1")
        assert is_loopback("::1")
        assert is_loopback("localhost")
        # Anything unrecognized must err on the side of requiring auth.
        assert not is_loopback("0.0.0.0")
        assert not is_loopback("10.1.2.3")
        assert not is_loopback("")
        assert not is_loopback("some-host.example")

    def test_load_credential_prefers_file_and_strips(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_CRED", "  from-env \n")
        assert load_credential("REPRO_TEST_CRED") == "from-env"
        path = tmp_path / "secret"
        path.write_text("from-file\n")
        assert load_credential("REPRO_TEST_CRED", str(path)) == "from-file"
        monkeypatch.delenv("REPRO_TEST_CRED")
        assert load_credential("REPRO_TEST_CRED") is None


class TestListenPolicy:
    def test_non_loopback_listen_requires_secret(self):
        executor = ClusterExecutor(
            1, spawn=False, listen="203.0.113.5:0"
        )
        try:
            with pytest.raises(ExecutorError, match="non-loopback"):
                executor._ensure_listener()
        finally:
            executor.shutdown()

    def test_config_validation_mirrors_the_policy(self):
        from repro.brace.config import BraceConfig
        from repro.core.errors import BraceError

        with pytest.raises(BraceError, match="cluster_secret"):
            BraceConfig(
                executor="cluster", cluster_listen="203.0.113.5:0"
            ).validate()
        BraceConfig(
            executor="cluster",
            cluster_listen="203.0.113.5:0",
            cluster_secret=SECRET,
        ).validate()


def make_box(shard_id, seed):
    return [seed]


def read_box(shard, _payload):
    return shard[0]


class TestHandshake:
    """Live driver with a secret: impostors are refused, members join."""

    def test_impostors_refused_then_legitimate_node_admitted(self):
        executor = ClusterExecutor(
            1,
            listen="127.0.0.1:0",
            spawn=False,
            secret=SECRET,
            heartbeat_interval=0.2,
            retry=RetryPolicy(accept_timeout_seconds=30.0),
        )
        node = None
        refusals = []

        def impostor(build_hello):
            """Dial the driver, answer its challenge with ``build_hello``'s
            meta, and record whether the driver hung up on us."""
            sock = socket.create_connection(executor._listener.getsockname()[:2], 5.0)
            sock.settimeout(5.0)
            channel = FrameChannel(sock, role="node")
            try:
                kind, meta, _ = channel.recv_message()
                assert kind == "challenge"
                assert meta["auth_required"] is True
                channel.send_message("hello", build_hello(meta["nonce"]))
                try:
                    refused = sock.recv(1) == b""
                except OSError:
                    refused = True
                refusals.append(refused)
            finally:
                sock.close()

        try:
            address = executor._ensure_listener()
            admitted = threading.Thread(target=executor._ensure_nodes)
            admitted.start()
            # 1: no proof at all.  2: a wrong-secret proof.  3: a proof
            # replayed from a different nonce (what an eavesdropper has).
            impostor(lambda nonce: {"pid": 1})
            impostor(lambda nonce: {"pid": 2, "proof": hello_proof("wrong", nonce)})
            impostor(lambda nonce: {"pid": 3, "proof": hello_proof(SECRET, "stale")})
            env = dict(os.environ)
            env[SECRET_ENV_VAR] = SECRET
            env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
            node = subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro.cluster.node",
                    "--connect",
                    f"{address[0]}:{address[1]}",
                    "--heartbeat-interval",
                    "0.2",
                ],
                env=env,
            )
            admitted.join(timeout=30)
            assert not admitted.is_alive()
            assert refusals == [True, True, True]
            executor.init_shards(make_box, {0: 9})
            (result,) = executor.run_sharded_tasks([(0, read_box, None)])
            assert result.value == 9
            (record,) = executor.node_topology()
            assert record["authenticated"] is True
        finally:
            executor.shutdown()
            if node is not None:
                node.kill()
                node.wait(timeout=10)

    def test_loopback_without_secret_is_unauthenticated(self):
        executor = ClusterExecutor(1, heartbeat_interval=0.2)
        try:
            executor.init_shards(make_box, {0: 1})
            (record,) = executor.node_topology()
            assert record["authenticated"] is False
        finally:
            executor.shutdown()
