"""What only the dial-in attachment of the wire executor does.

The executor contract itself — resident shards, sharded tasks, migration,
remote errors, supervised node death — is checked once for both wire
executors in ``tests/mapreduce/test_shard_contract.py``.  Left here is what
is specific to nodes that *dial in* over TCP: the recorded peer address,
and externally started nodes (``python -m repro.cluster.node --connect``)
joining a driver that did not spawn them.
"""

import socket
import subprocess
import sys

from repro.cluster.client import ClusterExecutor

from tests.mapreduce.test_shard_contract import add_task, make_counter


def test_dial_in_nodes_record_their_tcp_peer_address():
    executor = ClusterExecutor(2, num_nodes=2, heartbeat_interval=0.1)
    try:
        executor.init_shards(make_counter, {0: 0, 1: 0})
        for record in executor.node_topology():
            host, _, port = record["address"].rpartition(":")
            assert host == "127.0.0.1" and port.isdigit()
    finally:
        executor.shutdown()


class TestExternalNodes:
    def test_externally_started_nodes_join(self):
        # Pick a free port for the driver, start one external node against
        # it (the connect loop retries until the driver listens), and run.
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        node = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cluster.node",
                "--connect",
                f"127.0.0.1:{port}",
                "--heartbeat-interval",
                "0.1",
            ],
        )
        executor = ClusterExecutor(
            1, num_nodes=1, listen=f"127.0.0.1:{port}", spawn=False
        )
        try:
            executor.init_shards(make_counter, {0: 5})
            (result,) = executor.run_sharded_tasks([(0, add_task, 2)])
            assert result.value == (0, 7, 1)
            (record,) = executor.node_topology()
            assert record["spawned"] is False
        finally:
            executor.shutdown()
            node.wait(timeout=10)
