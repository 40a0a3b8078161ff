#!/usr/bin/env python3
"""Run the closed loop: detect, switch, isolate.

The engine consumes one observation at a time.  Before certainty it tracks
the uncontrolled estimate; at the moment certainty is reached it switches to
the supervisor and starts emitting decisions.  The same behaviour is also
materialised as an automaton and model-checked.
"""
import faultiso as fi
from faultiso.gallery import twin_branch

aut, _ = twin_branch()
plant = fi.build_labeled_plant(aut)
policy = fi.synthesize(plant).policy

print("observation-by-observation replay of o2 o3 o1:")
for st in fi.replay(plant, policy, ["o2", "o3", "o1"])[1:]:
    dec = f" decision {st.active_decision}" if st.active_decision else ""
    print(f"  obs {st.observation}: {st.phase:<9} estimate {st.estimate}"
          f"{dec} verdict {st.verdict}")
print()

closed = fi.build_closed_loop(plant, policy)
report = fi.verify_closed_loop(closed)
print(f"closed loop: {len(closed.automaton.states)} states")
print(f"model check: live={report.live} isolatable={report.isolatable} "
      f"mixed-run bound={report.bound}")
print()

print("scripted run (fault sf2 injected):")
print(fi.simulate(closed, 8, script=["sf2", "o2", "o3", "o2"]))

print("seeded random run (reproducible):")
print(fi.simulate(closed, 10, seed=2026))
