"""Tests for the simulated cluster: network model, nodes and cost model."""

import pytest

from repro.cluster.costmodel import ClusterCostModel, WorkerTickCost
from repro.cluster.network import NetworkModel
from repro.cluster.node import SimulatedNode


class TestNetworkModel:
    def test_same_node_transfers_are_free_and_tracked_as_local(self):
        network = NetworkModel()
        assert network.transfer_seconds(0, 0, 10_000) == 0.0
        assert network.totals.local_bytes == 10_000
        assert network.totals.bytes_sent == 0

    def test_transfer_time_scales_with_bytes(self):
        network = NetworkModel(latency_seconds=0.0, bandwidth_bytes_per_second=1000.0)
        assert network.transfer_seconds(0, 1, 500) == pytest.approx(0.5)
        assert network.transfer_seconds(0, 1, 1000) == pytest.approx(1.0)

    def test_latency_charged_per_message(self):
        network = NetworkModel(latency_seconds=0.01, bandwidth_bytes_per_second=1e12)
        assert network.transfer_seconds(0, 1, 10, messages=3) == pytest.approx(0.03)

    def test_switch_assignment(self):
        network = NetworkModel(nodes_per_switch=4)
        assert network.switch_of(3) == 0
        assert network.switch_of(4) == 1
        assert network.same_switch(0, 3)
        assert not network.same_switch(0, 4)

    def test_inter_switch_penalty_applied(self):
        network = NetworkModel(
            latency_seconds=0.0,
            bandwidth_bytes_per_second=1000.0,
            nodes_per_switch=2,
            inter_switch_penalty=2.0,
        )
        same_switch = network.transfer_seconds(0, 1, 1000)
        across_switches = network.transfer_seconds(0, 2, 1000)
        assert across_switches == pytest.approx(2.0 * same_switch)

    def test_totals_and_reset(self):
        network = NetworkModel(latency_seconds=0.0, bandwidth_bytes_per_second=1000.0)
        seconds = sum(network.transfer_seconds(0, dst, 1000) for dst in (1, 2))
        assert seconds == pytest.approx(2.0)
        assert network.totals.messages == 2
        network.reset_totals()
        assert network.totals.messages == 0


class TestSimulatedNode:
    def test_compute_seconds(self):
        node = SimulatedNode(0, work_units_per_second=100.0)
        assert node.compute_seconds(50) == pytest.approx(0.5)
        assert node.compute_seconds(0) == 0.0

    def test_checkpoint_seconds(self):
        node = SimulatedNode(0, checkpoint_bytes_per_second=1000.0)
        assert node.checkpoint_seconds(500) == pytest.approx(0.5)
        assert node.checkpoint_seconds(0) == 0.0


class TestClusterCostModel:
    def _model(self, workers=2):
        network = NetworkModel(latency_seconds=0.0, bandwidth_bytes_per_second=1e6)
        nodes = [SimulatedNode(i, work_units_per_second=1000.0) for i in range(workers)]
        return ClusterCostModel(network=network, nodes=nodes, barrier_seconds=0.001)

    def test_tick_time_is_slowest_worker_plus_barriers(self):
        model = self._model()
        costs = [
            WorkerTickCost(0, work_units=1000, agents_owned=10),
            WorkerTickCost(1, work_units=100, agents_owned=10),
        ]
        breakdown = model.tick_cost(0, costs, num_passes=2)
        assert breakdown.max_worker_seconds == pytest.approx(1.0)
        assert breakdown.total_seconds == pytest.approx(1.0 + 2 * 0.001)
        assert breakdown.agents_processed == 20
        assert breakdown.imbalance == pytest.approx(10.0)

    def test_comm_seconds_from_network_model_take_precedence(self):
        model = self._model()
        cost = WorkerTickCost(0, work_units=0, agents_owned=1)
        cost.add_send(1000, remote=True, seconds=0.25)
        breakdown = model.tick_cost(0, [cost], num_passes=1)
        assert breakdown.communication_seconds == pytest.approx(0.25)

    def test_throughput_and_reset(self):
        model = self._model()
        for tick in range(4):
            model.tick_cost(tick, [WorkerTickCost(0, work_units=100, agents_owned=5)], 1)
        assert model.total_agent_ticks() == 20
        assert model.throughput() > 0
        assert model.throughput(skip_ticks=2) > 0
        model.reset()
        assert model.history == []
        assert model.total_virtual_seconds() == 0.0
