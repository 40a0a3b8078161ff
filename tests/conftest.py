"""Shared fixtures: the twin-branch system, its synthesis pipeline, and the
seed-2023 pool with its solvable plants."""
from __future__ import annotations

import random

import pytest

import faultiso as fi
from faultiso import modelio
from faultiso.gallery import twin_branch

from plantgen import random_plant


@pytest.fixture(scope="session")
def twin():
    aut, table = twin_branch()
    return aut


@pytest.fixture(scope="session")
def colliding_loop_text():
    """A model whose closed loop would have two states with one name: plant
    state aF1 under estimate {bF1@{cF1}} and plant state aF1@{bF1 under {cF1}
    both render as aF1@{bF1@{cF1}.  The grammar rejects it at line 8."""
    return ("event f fault=1\nevent u\nevent o1 obs\nevent o2 obs\nevent o3 obs\n"
            "init s\ntrans s f t\ntrans t o1 bF1@{c\ntrans t o2 c\n"
            "trans bF1@{c u a\ntrans c u aF1@{b\ntrans a o3 a\n"
            "trans aF1@{b o3 aF1@{b\n")


@pytest.fixture(scope="session")
def comma_collision_text():
    """A model whose closed loop would have two states with one name, from
    commas alone: after o1 the estimate has members aN and yN,zN, after o2
    members aN, yN and zN, and both render as {aN,yN,zN}.  Plant state a
    under either is named aN@{aN,yN,zN}."""
    return ("event u1\nevent u2\nevent u3\nevent f fault=1\n"
            "event o1 obs\nevent o2 obs\nevent o3 obs\nevent o4 obs\ninit s\n"
            "trans s u1 p1\ntrans s u2 p2\ntrans s u3 p3\n"
            "trans p1 o1 a\ntrans p2 o1 yN,z\ntrans p1 o2 a\ntrans p2 o2 y\n"
            "trans p3 o2 z\ntrans a f d\ntrans d o4 d\ntrans a o3 a\n"
            "trans y o3 y\ntrans z o3 z\ntrans yN,z o3 yN,z\n")


@pytest.fixture(scope="session")
def twin_plant(twin):
    return fi.build_labeled_plant(twin)


@pytest.fixture(scope="session")
def twin_diagnoser(twin_plant):
    return fi.build_diagnoser(twin_plant)


@pytest.fixture(scope="session")
def twin_bts(twin_plant):
    return fi.build_bts(twin_plant)


@pytest.fixture(scope="session")
def twin_pipeline(twin_plant):
    run = fi.synthesize(twin_plant)
    return run.deadlocks, run.live, run.result, run.policy


@pytest.fixture(scope="session")
def pool():
    """The seed-2023 pool of 2,000 random plants, as automata."""
    rng = random.Random(2023)
    return [random_plant(rng) for _ in range(2000)]


@pytest.fixture(scope="session")
def solvable_pool():
    """``(model document, plant, synthesis)`` for each plant of the seed-2023
    pool of 2,000 that ``synthesize`` solves: 603 of the 1,511 diagnosable
    ones, 556 of them passively isolatable."""
    rng, found = random.Random(2023), []
    for _ in range(2000):
        aut = random_plant(rng)
        plant = fi.build_labeled_plant(aut)
        if plant.diagnosability.diagnosable and (run := fi.synthesize(plant)).result.solvable:
            doc = modelio.ModelDocument(
                None, None, aut.table.events, tuple(sorted(aut.states)), aut.initial,
                tuple((src, ev, dst) for (src, ev), dst in sorted(aut.transitions.items())))
            found.append((doc, plant, run))
    assert len(found) == 603
    return found


def estimate(plant, *rendered):
    """Build a StateEstimate from 'base:label' strings."""
    members = []
    for item in rendered:
        base, label = item.rsplit(":", 1)
        members.append(fi.LabeledState(base, label))
    return fi.StateEstimate.of(members)


def names(items):
    return sorted(str(x) for x in items)
