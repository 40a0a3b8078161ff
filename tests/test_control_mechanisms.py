"""What each control mechanism buys: a metamorphic test.

A supervisor may enforce a forcible event and disable controllable ones.
Rewriting the event table so that no event is forcible (disable only) or
none is controllable (enforce only) removes one mechanism.  Less control can
never make an unsolvable plant solvable, nor isolate faster, so the
isolation bound of a restricted plant is never below the bound with both
mechanisms.  The counts on the seed-2023 pool of 2,000 random plants and the
bounds on the gallery are pinned.
"""
from __future__ import annotations

import random
from collections import Counter
from dataclasses import replace

import faultiso as fi
from faultiso.automata import Automaton, EventTable
from faultiso.gallery import lamps, twin_branch

from plantgen import random_plant

MECHANISMS = {"both": (True, True), "disable": (True, False), "enforce": (False, True)}


def restricted(aut: Automaton, disable: bool, enforce: bool) -> Automaton:
    """``aut`` with no event controllable unless ``disable`` and none
    forcible unless ``enforce``."""
    events = tuple(replace(e, controllable=e.controllable and disable,
                           forcible=e.forcible and enforce) for e in aut.table.events)
    return Automaton(EventTable(events), aut.states, aut.initial, aut.transitions)


def bounds(aut: Automaton) -> dict[str, object]:
    """Per mechanism set, the isolation bound (``None``: unsolvable)."""
    plants = {name: fi.build_labeled_plant(restricted(aut, *kept))
              for name, kept in MECHANISMS.items()}
    return {name: fi.synthesize(plant).result.isolation_bound for name, plant in plants.items()}


def assert_less_control_never_helps(found: dict[str, object]) -> None:
    for name in ("disable", "enforce"):
        if found[name] is not None:
            assert found["both"] is not None and found["both"] <= found[name], found


def test_removing_a_mechanism_never_helps_on_the_pool():
    rng = random.Random(2023)
    tally: Counter = Counter()
    for _ in range(2000):
        aut = random_plant(rng)
        plant = fi.build_labeled_plant(aut)
        if not plant.diagnosability.diagnosable:
            tally["not diagnosable"] += 1
            continue
        if fi.check_isolatability(plant).isolatable:
            tally["passive"] += 1
            continue
        found = bounds(aut)
        assert_less_control_never_helps(found)
        solved = tuple(name for name, bound in found.items() if bound is not None)
        tally[solved or "unsolvable"] += 1
        for name in ("disable", "enforce"):
            tally[f"slower by {name}"] += found[name] is not None and found[name] > found["both"]
    assert tally == {
        "not diagnosable": 489, "passive": 556, "unsolvable": 908,
        ("both",): 4, ("both", "disable"): 22, ("both", "enforce"): 18,
        ("both", "disable", "enforce"): 3,
        "slower by disable": 1, "slower by enforce": 2,
    }


def test_removing_a_mechanism_never_helps_on_the_gallery():
    gallery = {"twin_branch": twin_branch()[0], "three lamps": lamps(3), "four lamps": lamps(4)}
    found = {name: bounds(aut) for name, aut in gallery.items()}
    for row in found.values():
        assert_less_control_never_helps(row)
    assert found == {
        "twin_branch": {"both": 3, "disable": None, "enforce": 3},
        "three lamps": {"both": 1, "disable": 1, "enforce": 4},
        "four lamps": {"both": 1, "disable": 1, "enforce": 6},
    }
