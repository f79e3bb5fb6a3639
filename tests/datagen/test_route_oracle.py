"""Golden oracle for the route planner's choice among equal-cost paths.

On a lattice many travel-time shortest paths tie, exactly so when the
lattice is unjittered, and which one ``plan_route`` returns is decided
by the search's order of expansion alone. Every generated trip depends
on that choice, so this module pins it: about fifty seeded
``plan_route`` calls and a few ``random_route`` calls on nine lattices
must give the routes in ``tests/data/golden/routes.json``.

The lattices are the URBAN, RURAL and HIGHWAY networks as
:class:`TrajectoryGenerator` builds them (two seeds each) and three
unjittered ones. A route is stored as one line, ``"row,col moves roads"``:
its first intersection, one compass move per leg (rows grow northwards,
columns eastwards) and one road-class initial per leg. Each vertex maps back to its intersection
by rounding to the nearest lattice point, which is unambiguous because
the jitter stays under half a spacing. Regenerate with
``pytest --regen-golden`` only when a change is meant to alter which
routes are planned.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.datagen import (
    HIGHWAY,
    RURAL,
    SPEED_LIMITS_MS,
    URBAN,
    RoadNetwork,
    TrajectoryGenerator,
    plan_route,
    random_route,
)

ORACLE_PATH = Path(__file__).resolve().parents[1] / "data" / "golden" / "routes.json"

PLANNED_ROUTES = 50
#: ``random_route`` target lengths as fractions of the lattice's extent.
RANDOM_ROUTE_FRACTIONS = (0.3, 0.5, 0.7, 0.9)

MOVES = {(1, 0): "N", (-1, 0): "S", (0, 1): "E", (0, -1): "W"}
ROAD_INITIALS = {limit: name[0] for name, limit in SPEED_LIMITS_MS.items()}


def profile_network(profile, seed: int) -> RoadNetwork:
    """The network a fresh generator builds for its first ``profile`` trip."""
    return TrajectoryGenerator(seed)._network_for(profile)


def unjittered(rows: int, cols: int, spacing_m: float, arterial_every: int) -> RoadNetwork:
    return RoadNetwork.grid(
        rows, cols, spacing_m, np.random.default_rng(3),
        jitter_frac=0.0, arterial_every=arterial_every,
    )


LATTICES = {
    "urban-seed-7": lambda: profile_network(URBAN, 7),
    "urban-seed-2004": lambda: profile_network(URBAN, 2004),
    "rural-seed-7": lambda: profile_network(RURAL, 7),
    "rural-seed-2004": lambda: profile_network(RURAL, 2004),
    "highway-seed-7": lambda: profile_network(HIGHWAY, 7),
    "highway-seed-2004": lambda: profile_network(HIGHWAY, 2004),
    "flat-9x9-arterial-4": lambda: unjittered(9, 9, 500.0, 4),
    "flat-12x12-local": lambda: unjittered(12, 12, 300.0, 0),
    "flat-10x7-arterial-3": lambda: unjittered(10, 7, 400.0, 3),
}


def lattice_node(network: RoadNetwork, point: np.ndarray) -> tuple[int, int]:
    """The intersection whose nominal lattice point is nearest ``point``."""
    col, row = np.rint(point / network.spacing_m).astype(int)
    return (int(row), int(col))


def record(network: RoadNetwork, route) -> str:
    """``route`` as its start, its compass moves and its road classes."""
    nodes = [lattice_node(network, point) for point in route.points]
    np.testing.assert_array_equal(
        route.points, [network.node_position(node) for node in nodes]
    )
    moves = "".join(
        MOVES[(b[0] - a[0], b[1] - a[1])] for a, b in zip(nodes, nodes[1:])
    )
    roads = "".join(ROAD_INITIALS[float(limit)] for limit in route.speed_limits)
    (row, col) = nodes[0]
    return f"{row},{col} {moves} {roads}"


def lattice_routes(name: str) -> dict:
    network = LATTICES[name]()
    rng = np.random.default_rng(sum(map(ord, name)))
    planned = []
    for _ in range(PLANNED_ROUTES):
        origin = network.random_node(rng)
        destination = network.random_node(rng)
        while destination == origin:
            destination = network.random_node(rng)
        planned.append(record(network, plan_route(network, origin, destination)))
    wandering = [
        record(network, random_route(network, rng, fraction * network.extent_m))
        for fraction in RANDOM_ROUTE_FRACTIONS
    ]
    return {"plan_route": planned, "random_route": wandering}


@pytest.fixture(scope="module")
def routes() -> dict:
    return {name: lattice_routes(name) for name in LATTICES}


def test_routes_cover_every_road_class(routes):
    """The oracle sees thousands of legs and every road class."""
    legs = "".join(
        route.split()[-1] for lattice in routes.values()
        for kind in lattice.values() for route in kind
    )
    assert len(legs) > 5_000
    assert set(legs) == {"l", "a", "h"}


@pytest.mark.parametrize("name", list(LATTICES))
def test_routes_match_the_golden_file(routes, name, regen_golden):
    if regen_golden:
        ORACLE_PATH.write_text(json.dumps(routes, indent=1, sort_keys=True) + "\n")
    assert routes[name] == json.loads(ORACLE_PATH.read_text())[name]
