"""Tests for the synthetic road network."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datagen import SPEED_LIMITS_MS, RoadNetwork
from repro.exceptions import DataGenError


@pytest.fixture
def net() -> RoadNetwork:
    rng = np.random.default_rng(7)
    return RoadNetwork.grid(
        8, 10, 500.0, rng, jitter_frac=0.2, arterial_every=4, highway_rows=(0,)
    )


def each_road(net: RoadNetwork) -> list:
    """Every road once, though both of its ends list it."""
    return [road for u, near in net.roads.items() for v, road in near.items() if u < v]


class TestGrid:
    def test_node_and_edge_counts(self, net):
        assert len(net.roads) == 80
        # 4-neighbour lattice: rows*(cols-1) + cols*(rows-1) edges.
        assert len(each_road(net)) == 8 * 9 + 10 * 7

    def test_connected(self, net):
        start = next(iter(net.roads))
        reached, frontier = {start}, [start]
        while frontier:
            for neighbour in net.roads[frontier.pop()]:
                if neighbour not in reached:
                    reached.add(neighbour)
                    frontier.append(neighbour)
        assert reached == set(net.roads)

    def test_positions_jittered_but_near_lattice(self, net):
        pos = net.node_position((3, 4))
        nominal = np.array([4 * 500.0, 3 * 500.0])
        assert np.all(np.abs(pos - nominal) <= 0.2 * 500.0 + 1e-9)

    def test_road_classes_and_limits(self, net):
        classes = {road.road_class for road in each_road(net)}
        assert classes == {"local", "arterial", "highway"}
        for road in each_road(net):
            assert road.speed_limit == SPEED_LIMITS_MS[road.road_class]
            assert road.travel_time == pytest.approx(road.length / road.speed_limit)

    def test_highway_row_edges_are_highways(self, net):
        for c in range(9):
            assert net.roads[(0, c)][(0, c + 1)].road_class == "highway"

    def test_arterial_spacing(self, net):
        # Row 4 is arterial (4 % 4 == 0 and not a highway row).
        assert net.roads[(4, 0)][(4, 1)].road_class == "arterial"
        assert net.roads[(1, 0)][(1, 1)].road_class == "local"

    def test_deterministic_under_seed(self):
        a = RoadNetwork.grid(5, 5, 400.0, np.random.default_rng(3))
        b = RoadNetwork.grid(5, 5, 400.0, np.random.default_rng(3))
        for node in a.roads:
            np.testing.assert_allclose(a.node_position(node), b.node_position(node))

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(DataGenError):
            RoadNetwork.grid(1, 5, 500.0, rng)
        with pytest.raises(DataGenError):
            RoadNetwork.grid(5, 5, -1.0, rng)
        with pytest.raises(DataGenError):
            RoadNetwork.grid(5, 5, 500.0, rng, jitter_frac=0.7)


class TestQueries:
    def test_random_node_in_range(self, net):
        rng = np.random.default_rng(1)
        for _ in range(20):
            r, c = net.random_node(rng)
            assert 0 <= r < 8
            assert 0 <= c < 10

    def test_nodes_near_distance(self, net):
        origin = (0, 0)
        found = net.nodes_near_distance(origin, 2_000.0, 300.0)
        assert found
        origin_pos = net.node_position(origin)
        for node in found:
            d = float(np.hypot(*(net.node_position(node) - origin_pos)))
            assert abs(d - 2_000.0) <= 300.0

    def test_extent(self, net):
        assert net.extent_m == pytest.approx(np.hypot(9, 7) * 500.0)
