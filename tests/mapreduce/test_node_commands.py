"""A node executes shard commands and nothing else.

Drives a forked node's channel directly, below the wire executor, with the
frames no driver sends: a ``"call"`` carrying a pickled callable, and an
``init_shard`` without a shard factory.  Each gets an ``"error"`` reply and
has no effect — no file is created, no shard is installed — and the node
then serves an ordinary shard round.
"""

import multiprocessing
import pickle
import socket
from functools import partial
from pathlib import Path

import pytest

from repro.brace.shards import encode_image
from repro.cluster.protocol import FrameChannel
from repro.cluster.server import serve_socketpair
from repro.ipc.frames import ColumnarCodec

CODEC = ColumnarCodec()


def create_marker(path):
    Path(path).write_text("executed")
    return "executed"


def make_counter(shard_id, start):
    return {"shard_id": shard_id, "value": start}


def add_task(shard, amount):
    shard["value"] += amount
    return shard["value"]


def request(channel, kind, meta, blob=b""):
    """Send one command and return the node's reply, skipping heartbeats."""
    channel.send_message(kind, meta, blob)
    while True:
        reply = channel.recv_message()
        assert reply is not None, "the node closed its channel"
        if reply[0] != "heartbeat":
            return reply


@pytest.fixture
def node():
    driver_end, node_end = socket.socketpair()
    process = multiprocessing.get_context().Process(
        target=serve_socketpair, args=(node_end, [driver_end], 30.0), daemon=True
    )
    process.start()
    node_end.close()
    driver_end.settimeout(30.0)
    channel = FrameChannel(driver_end, role="driver")
    yield channel
    try:
        request(channel, "shutdown", None)
    finally:
        driver_end.close()
        process.join(10)
        if process.is_alive():
            process.kill()
            process.join()


def init_shard(channel, shard_id, factory, start):
    return request(
        channel, "init_shard", {"shard_id": shard_id, "factory": factory}, encode_image(start)
    )


def run_task(channel, shard_id, amount):
    return request(
        channel, "run_task", {"shard_id": shard_id, "fn": add_task}, CODEC.encode(amount)
    )


def test_a_call_frame_is_refused_and_runs_nothing(node, tmp_path):
    marker = tmp_path / "marker"
    kind, meta, _ = request(node, "call", None, pickle.dumps(partial(create_marker, marker)))
    assert kind == "error"
    assert "unknown command 'call'" in meta["traceback"]
    assert not marker.exists()
    # The node still serves an ordinary shard round.
    assert init_shard(node, 0, make_counter, 5)[0] == "ok"
    kind, _, blob = run_task(node, 0, 2)
    assert kind == "result" and CODEC.decode(blob) == 7


def test_init_shard_without_a_factory_is_refused_and_installs_nothing(node):
    kind, meta, _ = init_shard(node, 0, None, 5)
    assert kind == "error"
    assert "shard factory" in meta["traceback"]
    # Nothing was installed under shard 0...
    kind, meta, _ = run_task(node, 0, 1)
    assert kind == "error" and "not hosted" in meta["traceback"]
    # ...and the node still serves an ordinary shard round.
    assert init_shard(node, 0, make_counter, 5)[0] == "ok"
    kind, _, blob = run_task(node, 0, 2)
    assert kind == "result" and CODEC.decode(blob) == 7
