"""Tests for the successive-shortest-path min-cost-flow kernel."""

import math

import pytest

from emd_oracle import MinCostFlow, transport


class TestMinCostFlow:
    def test_single_edge(self):
        net = MinCostFlow(2)
        net.add_edge(0, 1, cap=5.0, cost=2.0)
        flow, cost = net.solve(0, 1, 5.0)
        assert flow == pytest.approx(5.0)
        assert cost == pytest.approx(10.0)

    def test_prefers_cheap_path(self):
        net = MinCostFlow(4)
        net.add_edge(0, 1, 10.0, 1.0)
        net.add_edge(1, 3, 10.0, 1.0)
        net.add_edge(0, 2, 10.0, 5.0)
        net.add_edge(2, 3, 10.0, 5.0)
        flow, cost = net.solve(0, 3, 5.0)
        assert flow == pytest.approx(5.0)
        assert cost == pytest.approx(10.0)  # all on the cheap path

    def test_splits_when_cheap_path_saturates(self):
        net = MinCostFlow(4)
        net.add_edge(0, 1, 3.0, 1.0)
        net.add_edge(1, 3, 3.0, 1.0)
        net.add_edge(0, 2, 10.0, 4.0)
        net.add_edge(2, 3, 10.0, 4.0)
        flow, cost = net.solve(0, 3, 5.0)
        assert flow == pytest.approx(5.0)
        assert cost == pytest.approx(3 * 2 + 2 * 8)

    def test_partial_flow_when_capacity_limited(self):
        net = MinCostFlow(2)
        net.add_edge(0, 1, 2.0, 1.0)
        flow, cost = net.solve(0, 1, 10.0)
        assert flow == pytest.approx(2.0)
        assert cost == pytest.approx(2.0)

    def test_zero_request(self):
        net = MinCostFlow(2)
        net.add_edge(0, 1, 2.0, 1.0)
        flow, cost = net.solve(0, 1, 0.0)
        assert flow == 0.0
        assert cost == 0.0

    def test_disconnected_sink(self):
        net = MinCostFlow(3)
        net.add_edge(0, 1, 2.0, 1.0)
        flow, _ = net.solve(0, 2, 1.0)
        assert flow == 0.0

    def test_rejects_negative_capacity(self):
        net = MinCostFlow(2)
        with pytest.raises(ValueError):
            net.add_edge(0, 1, -1.0, 1.0)

    def test_rejects_bad_node_index(self):
        net = MinCostFlow(2)
        with pytest.raises(IndexError):
            net.add_edge(0, 5, 1.0, 1.0)

    def test_rejects_empty_network(self):
        with pytest.raises(ValueError):
            MinCostFlow(0)

    def test_multi_path_optimality(self):
        # Diamond with asymmetric costs; optimum mixes paths.
        net = MinCostFlow(5)
        net.add_edge(0, 1, 4.0, 0.0)
        net.add_edge(0, 2, 4.0, 0.0)
        net.add_edge(1, 3, 2.0, 1.0)
        net.add_edge(1, 4, 4.0, 6.0)
        net.add_edge(2, 3, 2.0, 2.0)
        net.add_edge(3, 4, 3.0, 0.0)
        flow, cost = net.solve(0, 4, 4.0)
        assert flow == pytest.approx(4.0)
        # best: 2 units via 1-3 (cost 2), 1 unit via 2-3 (cost 2),
        # 1 unit via 1-4 (cost 6) = 10
        assert cost == pytest.approx(10.0)


class TestTransport:
    def test_identity_transport_is_free(self):
        cost = transport([0.5, 0.5], [0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]])
        assert cost == pytest.approx(0.0)

    def test_full_move(self):
        cost = transport([1.0, 0.0], [0.0, 1.0], [[0.0, 3.0], [3.0, 0.0]])
        assert cost == pytest.approx(3.0)

    def test_partial_move(self):
        cost = transport([0.8, 0.2], [0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]])
        assert cost == pytest.approx(0.3)

    def test_unbalanced_rejected(self):
        with pytest.raises(ValueError):
            transport([1.0], [0.5], [[0.0]])

    def test_negative_supply_rejected(self):
        with pytest.raises(ValueError):
            transport([-0.1, 1.1], [0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            transport([], [], [])

    def test_rectangular_problem(self):
        cost = transport(
            [0.6, 0.4],
            [0.2, 0.3, 0.5],
            [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]],
        )
        # Optimal assignment: supply0 -> d0 (0.2@1) + d1 (0.3@2) + d2 (0.1@3),
        # supply1 -> d2 (0.4@6).
        assert cost == pytest.approx(0.2 + 0.6 + 0.3 + 2.4)

    def test_cost_bounded_by_max_ground(self):
        cost = transport([0.3, 0.7], [0.7, 0.3], [[0.0, 0.9], [0.9, 0.0]])
        assert 0.0 <= cost <= 0.9
