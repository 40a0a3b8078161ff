"""Shared fixtures: the twin-branch system and its synthesis pipeline."""
from __future__ import annotations

import pytest

import faultiso as fi
from faultiso.gallery import twin_branch


@pytest.fixture(scope="session")
def twin():
    aut, table = twin_branch()
    return aut


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


def estimate(plant, *rendered):
    """Build a StateEstimate from 'base:label' strings."""
    members = []
    for item in rendered:
        base, label = item.rsplit(":", 1)
        members.append(fi.LabeledState(base, label))
    return fi.StateEstimate.of(members)


def names(items):
    return sorted(str(x) for x in items)
