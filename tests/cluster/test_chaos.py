"""The chaos harness: every injected transport fault is fail-stop.

A :class:`ChaosProxy` sits between a node and the driver and misbehaves
at frame granularity.  These tests assert the central robustness
invariant of the cluster backend: **no transport fault ever produces a
silently wrong frame** — every corruption, duplication, drop or
truncation surfaces as a typed :class:`ProtocolError` before any payload
past the fault is accepted, and a delay below the heartbeat timeout is
completely harmless.  The end-to-end tests drive a real
:class:`ClusterExecutor` with an external node dialing through the proxy
and check the driver degrades through supervision instead of computing
with corrupt state.
"""

import socket
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.chaos import (
    FAULT_ACTIONS,
    TO_DRIVER,
    TO_NODE,
    ChaosProxy,
    FrameFault,
)
from repro.cluster.client import ClusterExecutor
from repro.cluster.protocol import (
    ConnectionLostError,
    FrameChannel,
    FrameIntegrityError,
    FrameSequenceError,
    ProtocolError,
)
from repro.cluster.retry import RetryPolicy
from repro.core.errors import NodeLossError


def relay_pair(faults):
    """A driver/node FrameChannel pair whose wire runs through the proxy."""
    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    server.bind(("127.0.0.1", 0))
    server.listen(1)
    proxy = ChaosProxy("127.0.0.1", server.getsockname()[1], faults=tuple(faults))
    proxy.start()
    client = socket.create_connection(("127.0.0.1", proxy.port), timeout=10.0)
    upstream, _ = server.accept()
    server.close()
    for sock in (client, upstream):
        sock.settimeout(10.0)
    return proxy, FrameChannel(upstream, "driver"), FrameChannel(client, "node")


def close_pair(proxy, driver, node):
    for sock in (driver.sock, node.sock):
        try:
            sock.close()
        except OSError:
            pass
    proxy.close()


def endpoints(direction, driver, node):
    """(sender, receiver) channels for frames flowing in ``direction``."""
    return (node, driver) if direction == TO_DRIVER else (driver, node)


@pytest.mark.parametrize("direction", [TO_DRIVER, TO_NODE])
class TestFaultMatrix:
    """Each fault action maps onto exactly one typed failure."""

    def test_corrupt_is_integrity_error(self, direction):
        proxy, driver, node = relay_pair([FrameFault(direction, 2, "corrupt")])
        try:
            sender, receiver = endpoints(direction, driver, node)
            for i in range(4):
                sender.send_message("m", {"i": i})
            assert receiver.recv_message() == ("m", {"i": 0}, b"")
            assert receiver.recv_message() == ("m", {"i": 1}, b"")
            with pytest.raises(FrameIntegrityError):
                receiver.recv_message()
            assert proxy.events == [(direction, 2, "corrupt")]
        finally:
            close_pair(proxy, driver, node)

    def test_drop_is_sequence_error(self, direction):
        proxy, driver, node = relay_pair([FrameFault(direction, 1, "drop")])
        try:
            sender, receiver = endpoints(direction, driver, node)
            for i in range(3):
                sender.send_message("m", {"i": i})
            assert receiver.recv_message() == ("m", {"i": 0}, b"")
            # The dropped frame's successor arrives with a skipped number.
            with pytest.raises(FrameSequenceError):
                receiver.recv_message()
            assert proxy.events == [(direction, 1, "drop")]
        finally:
            close_pair(proxy, driver, node)

    def test_duplicate_is_sequence_error(self, direction):
        proxy, driver, node = relay_pair([FrameFault(direction, 1, "duplicate")])
        try:
            sender, receiver = endpoints(direction, driver, node)
            for i in range(2):
                sender.send_message("m", {"i": i})
            assert receiver.recv_message() == ("m", {"i": 0}, b"")
            assert receiver.recv_message() == ("m", {"i": 1}, b"")
            # The second copy re-uses a consumed sequence number.
            with pytest.raises(FrameSequenceError):
                receiver.recv_message()
            assert proxy.events == [(direction, 1, "duplicate")]
        finally:
            close_pair(proxy, driver, node)

    def test_truncate_is_connection_lost(self, direction):
        proxy, driver, node = relay_pair([FrameFault(direction, 1, "truncate")])
        try:
            sender, receiver = endpoints(direction, driver, node)
            for i in range(2):
                sender.send_message("m", {"i": i, "pad": "x" * 64})
            assert receiver.recv_message()[1]["i"] == 0
            with pytest.raises(ConnectionLostError):
                receiver.recv_message()
            assert proxy.events == [(direction, 1, "truncate")]
        finally:
            close_pair(proxy, driver, node)

    def test_delay_below_timeout_is_harmless(self, direction):
        proxy, driver, node = relay_pair(
            [FrameFault(direction, 0, "delay", delay_seconds=0.3)]
        )
        try:
            sender, receiver = endpoints(direction, driver, node)
            started = time.monotonic()
            sender.send_message("m", {"i": 0})
            sender.send_message("m", {"i": 1})
            assert receiver.recv_message() == ("m", {"i": 0}, b"")
            assert receiver.recv_message() == ("m", {"i": 1}, b"")
            assert time.monotonic() - started >= 0.3
            assert proxy.events == [(direction, 0, "delay")]
        finally:
            close_pair(proxy, driver, node)


N_FRAMES = 6


class TestNoSilentDivergence:
    """Hypothesis-chosen fault placements never yield a wrong frame.

    Whatever single fault hits whatever frame offset, the receiver only
    ever accepts an exact prefix of the sent sequence — the fault always
    surfaces as a typed error (the one silent case is a drop of the very
    last frame, which shortens the prefix but corrupts nothing).
    """

    @given(
        action=st.sampled_from(["corrupt", "drop", "duplicate", "truncate"]),
        index=st.integers(min_value=0, max_value=N_FRAMES - 1),
        direction=st.sampled_from([TO_DRIVER, TO_NODE]),
    )
    @settings(max_examples=30, deadline=None)
    def test_receiver_sees_exact_prefix_then_typed_error(
        self, action, index, direction
    ):
        proxy, driver, node = relay_pair([FrameFault(direction, index, action)])
        try:
            sender, receiver = endpoints(direction, driver, node)
            sent = [("m", {"i": i}, b"payload-%d" % i) for i in range(N_FRAMES)]
            try:
                for message in sent:
                    sender.send_message(*message)
                sender.sock.shutdown(socket.SHUT_WR)
            except OSError:
                pass  # a truncate fault hard-closes the link mid-send
            received, error = [], None
            try:
                while True:
                    message = receiver.recv_message()
                    if message is None:
                        break
                    received.append(message)
            except ProtocolError as exc:
                error = exc
            # The exact-prefix property: nothing wrong was ever accepted.
            assert received == sent[: len(received)]
            if error is None:
                # Only a dropped final frame can pass silently — the
                # stream simply ends one frame short, at a frame boundary.
                assert action == "drop" and index == N_FRAMES - 1
                assert len(received) == N_FRAMES - 1
            else:
                assert len(received) <= index + (1 if action == "duplicate" else 0)
            assert proxy.events == [(direction, index, action)]
        finally:
            close_pair(proxy, driver, node)


def make_box(shard_id, seed):
    return [seed]


def read_box(shard, _payload):
    return shard[0]


def bump_box(shard, _payload):
    return shard[0] + 1


def _start_external_node(port, heartbeat_interval=0.2):
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cluster.node",
            "--connect",
            f"127.0.0.1:{port}",
            "--heartbeat-interval",
            str(heartbeat_interval),
            "--retry-seconds",
            "10",
        ],
    )


class TestExecutorUnderChaos:
    """A real driver + node with the proxy in the middle."""

    def test_corrupt_command_degrades_through_supervision(self):
        # Frame 0 driver->node is the challenge, 1 the shard init, 2 the
        # first task — corrupt the task command.  The node fail-stops on
        # the integrity error, the driver sees the death and supervises:
        # with a single node and no re-admission window the action is a
        # total loss, surfaced as NodeLossError — never a wrong result.
        executor = ClusterExecutor(
            1,
            listen="127.0.0.1:0",
            spawn=False,
            heartbeat_interval=0.2,
            heartbeat_timeout=3.0,
            readmission_timeout=0.0,
        )
        node = proxy = None
        try:
            address = executor._ensure_listener()
            proxy = ChaosProxy(
                address[0], address[1], faults=(FrameFault(TO_NODE, 2, "corrupt"),)
            ).start()
            node = _start_external_node(proxy.port)
            executor.init_shards(make_box, {0: 41})
            with pytest.raises(NodeLossError) as info:
                executor.run_sharded_tasks([(0, read_box, None)])
            assert info.value.action == "lost"
            assert info.value.lost_shards == (0,)
            assert not executor.has_shards()
            (event,) = executor.drain_fault_events()
            assert event["event"] == "node_loss"
            assert proxy.events == [(TO_NODE, 2, "corrupt")]
        finally:
            executor.shutdown()
            if proxy is not None:
                proxy.close()
            if node is not None:
                node.kill()
                node.wait(timeout=10)

    def test_delay_below_heartbeat_timeout_changes_nothing(self):
        executor = ClusterExecutor(
            1,
            listen="127.0.0.1:0",
            spawn=False,
            heartbeat_interval=0.2,
            heartbeat_timeout=5.0,
        )
        node = proxy = None
        try:
            address = executor._ensure_listener()
            proxy = ChaosProxy(
                address[0],
                address[1],
                faults=(FrameFault(TO_NODE, 2, "delay", delay_seconds=0.4),),
            ).start()
            node = _start_external_node(proxy.port)
            executor.init_shards(make_box, {0: 41})
            (result,) = executor.run_sharded_tasks([(0, bump_box, None)])
            assert result.value == 42
            assert proxy.events == [(TO_NODE, 2, "delay")]
            assert executor.drain_fault_events() == []
        finally:
            executor.shutdown()
            if proxy is not None:
                proxy.close()
            if node is not None:
                node.kill()
                node.wait(timeout=10)


def test_fault_validation():
    with pytest.raises(ValueError, match="direction"):
        FrameFault("sideways", 0, "drop")
    with pytest.raises(ValueError, match="action"):
        FrameFault(TO_DRIVER, 0, "explode")
    assert set(FAULT_ACTIONS) == {"drop", "duplicate", "corrupt", "truncate", "delay"}
