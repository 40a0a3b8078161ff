#!/usr/bin/env python3
"""What each control mechanism buys.

An isolation supervisor may enforce a forcible event and disable
controllable ones.  The paper combines the two "to synthesize a more
powerful supervisor".  Here each plant's event table is rewritten twice --
no event forcible (disable only) and no event controllable (enforce only)
-- and each version is synthesised: first the bundled models, then the
seed-2023 pool of 2,000 random plants from ``tests/plantgen.py``.
"""
import random
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import faultiso as fi
from faultiso.automata import Automaton, EventTable
from faultiso.gallery import lamps, twin_branch

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from plantgen import random_plant  # noqa: E402

MECHANISMS = {"both": (True, True), "disable only": (True, False),
              "enforce only": (False, True)}


def restricted(aut, disable, enforce):
    events = tuple(replace(e, controllable=e.controllable and disable,
                           forcible=e.forcible and enforce) for e in aut.table.events)
    return Automaton(EventTable(events), aut.states, aut.initial, aut.transitions)


def bounds(aut):
    """Per mechanism set, the isolation bound (None: unsolvable)."""
    plants = {name: fi.build_labeled_plant(restricted(aut, *kept))
              for name, kept in MECHANISMS.items()}
    return {name: fi.synthesize(plant).result.isolation_bound for name, plant in plants.items()}


print("isolation bound: observations from detection to isolation (-: unsolvable)")
print(f"{'model':<12}" + "".join(f"{name:>14}" for name in MECHANISMS))
for name, aut in (("twin_branch", twin_branch()[0]), ("three lamps", lamps(3)),
                  ("four lamps", lamps(4))):
    row = bounds(aut)
    print(f"{name:<12}" + "".join(f"{'-' if b is None else b:>14}" for b in row.values()))
print()

rng = random.Random(2023)
tally = Counter()  # per outcome, how many plants
solved_by = Counter()  # per set of mechanism sets that solve a plant, how many
for _ in range(2000):
    aut = random_plant(rng)
    plant = fi.build_labeled_plant(aut)
    if not plant.diagnosability.diagnosable:
        tally["not diagnosable"] += 1
    elif fi.check_isolatability(plant).isolatable:
        tally["isolatable without control"] += 1
    else:
        row = bounds(aut)
        solved = frozenset(name for name, b in row.items() if b is not None)
        solved_by[solved] += 1
        tally["less control helped"] += any(
            b is not None and (row["both"] is None or b < row["both"]) for b in row.values())

print("seed-2023 pool of 2,000 random plants")
rows = [
    ("not diagnosable", tally["not diagnosable"]),
    ("isolatable without control", tally["isolatable without control"]),
    ("unsolvable under both mechanisms", solved_by[frozenset()]),
    ("solvable under both mechanisms", sum(n for k, n in solved_by.items() if "both" in k)),
    ("  only with both", solved_by[frozenset({"both"})]),
    ("  also by disabling alone", solved_by[frozenset({"both", "disable only"})]),
    ("  also by enforcing alone", solved_by[frozenset({"both", "enforce only"})]),
    ("  also by either alone", solved_by[frozenset(MECHANISMS)]),
    ("solvable, or isolated sooner, with less control", tally["less control helped"]),
]
for label, count in rows:
    print(f"{label:<48}{count:>6}")
