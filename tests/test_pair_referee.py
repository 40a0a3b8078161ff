"""The pair-product referee against both isolatability checks.

``oracles.pair_isolatable`` decides isolatability from pairs of runs and
reads no estimate, so it shares no code with ``check_isolatability`` or with
``verify_closed_loop``, which runs that check on the closed loop.
"""
from __future__ import annotations

import pytest

import faultiso as fi
from faultiso.gallery import lamps, twin_branch
from faultiso.synthesis import NO_CONTROL, policy_graph

from oracles import pair_isolatable


@pytest.mark.parametrize("n", range(9), ids=lambda n: f"lamps{n}" if n else "twin")
def test_pair_referee_agrees_on_the_gallery(n):
    plant = fi.build_labeled_plant(lamps(n) if n else twin_branch()[0])
    got = pair_isolatable(plant)
    assert got == fi.check_isolatability(plant).isolatable
    assert got == (n in (1, 2))  # twin and lamps 3-8: no


def test_pair_referee_agrees_on_the_pool(pool):
    plants = [p for aut in pool if (p := fi.build_labeled_plant(aut)).diagnosability.diagnosable]
    answers = [(pair_isolatable(p), fi.check_isolatability(p).isolatable) for p in plants]
    assert len(plants) == 1511
    assert [i for i, (a, b) in enumerate(answers) if a != b] == []
    assert sum(b for _, b in answers) == 556  # the passively isolatable ones


def test_pair_referee_agrees_on_solvable_closed_loops(solvable_pool):
    for _, plant, run in solvable_pool:
        cl = fi.build_closed_loop(plant, run.policy)
        assert fi.verify_closed_loop(cl).isolatable
        assert pair_isolatable(cl.as_labeled_plant())


def test_pair_referee_agrees_on_closed_loops_with_a_decision_dropped(solvable_pool):
    # each reachable decision that acts, one at a time, replaced by NO_CONTROL:
    # most of these loops lose isolatability, so both answers are met
    answers = []
    for _, plant, run in solvable_pool:
        policy = run.policy
        for est in policy_graph(plant, policy):
            if policy.decision_for(est) != NO_CONTROL:
                dropped = fi.SupervisorPolicy(policy.initial_frontier,
                                              {**policy.decisions, est: NO_CONTROL})
                cl = fi.build_closed_loop(plant, dropped)
                answers.append((pair_isolatable(cl.as_labeled_plant()),
                                fi.verify_closed_loop(cl).isolatable))
    assert [i for i, (a, b) in enumerate(answers) if a != b] == []
    assert (len(answers), sum(b for _, b in answers)) == (83, 6)
