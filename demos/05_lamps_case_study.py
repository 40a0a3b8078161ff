#!/usr/bin/env python3
"""Office lighting case study.

Three lamps can break down silently while switched on; an intensity sensor
reports how many are actually shining, and a polling cycle forces a reading
after every switching action or failure.  A drop between two consecutive
readings reveals *that* a lamp died -- but when several lamps were on, not
*which one*.  The synthesised supervisor separates the candidates actively.

Run with ``--write`` to regenerate models/three_lamps.des from this builder.
"""
import sys
import time
from pathlib import Path

import faultiso as fi
from faultiso.gallery import lamps, three_lamps_text

aut = lamps(3)
print(f"composed plant: {len(aut.states)} states, {len(aut.table.events)} events, "
      f"{len(aut.transitions)} transitions")
print("fault classes: left lamp (F1), right lamp (F2), floor lamp (F3)")
print()

plant = fi.build_labeled_plant(aut)
print("diagnosable?", fi.check_diagnosability(plant).diagnosable)
print("isolatable without control?", fi.check_isolatability(plant).isolatable)
print()

t0 = time.time()
run = fi.synthesize(plant)
policy = run.policy
print(f"synthesis: {len(run.bts.y_states)} estimates, {len(run.bts.z_states)} decision "
      f"nodes, {len(run.deadlocks)} deadlocked decisions pruned, "
      f"{time.time() - t0:.2f}s")
print("solvable?", run.result.solvable)
print()

ambiguous = max((y for y in policy.initial_frontier), key=len)
print(f"worst ambiguity at detection: {ambiguous}")
print(f"supervisor's move there: {policy.decisions[ambiguous]}")
print("  every switch command is withheld except each suspect lamp's redundant")
print("  ON command; only the dead lamp can accept its own, so the very next")
print("  observation names the culprit.")
print()

closed = fi.build_closed_loop(plant, policy)
report = fi.verify_closed_loop(closed)
print(f"closed loop: {len(closed.automaton.states)} states; "
      f"live={report.live} isolatable={report.isolatable}")

print()
print("a run where the right ceiling lamp dies while both ceiling lamps are on:")
print("(after the telltale double reading, only the dead lamp's ON command")
print("is allowed through -- watch the verdict snap to F2)")
script = ["a_on", "e1", "b_on", "e2", "b_f", "e1", "b_on", "e1"]
trace = fi.simulate(closed, 10, script=script)
print(trace)

if "--write" in sys.argv[1:]:
    target = Path(__file__).resolve().parent.parent / "models" / "three_lamps.des"
    target.write_text(three_lamps_text(), encoding="utf-8")
    print(f"model written to {target}")
