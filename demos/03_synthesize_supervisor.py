#!/usr/bin/env python3
"""Synthesise an isolation supervisor and look at what each stage produced.

The decision graph alternates estimates (awaiting a decision) with
(estimate, decision) pairs (awaiting an observation).  Deadlocked decisions
are pruned, then a backward fixpoint finds the estimates from which some
decision policy forces a fault-class-pure estimate.  ``fi.synthesize`` runs
these stages in order and keeps each one's output.
"""
from pathlib import Path

import faultiso as fi
from faultiso.dotexport import export_bts_dot
from faultiso.gallery import twin_branch

aut, _ = twin_branch()
plant = fi.build_labeled_plant(aut)

frontier = fi.fault_frontier(plant)
print("supervision switches on at:", " ".join(sorted(map(str, frontier))))
for y in sorted(frontier, key=str):
    decs = fi.feasible_decisions(plant, y)
    print(f"  {y}: {len(decs)} feasible decisions:",
          " ".join(str(d) for d in decs))
print()

run = fi.synthesize(plant)
bts, deadlocks, liv, result = run.bts, run.deadlocks, run.live, run.result
print(f"decision graph: {len(bts.y_states)} estimates, {len(bts.z_states)} decision nodes")
print("fault-class-pure (marked):", " ".join(sorted(map(str, bts.marked))))

print("deadlocked decisions:", " ".join(str(z) for z in deadlocks))
print("  (disabling o3 inside the trap would freeze the plant entirely)")

print()
print("good estimates:", " ".join(sorted(map(str, result.good_y))))
print("solvable?", result.solvable, "| worst-case observations to isolation:",
      result.isolation_bound)
print()

policy = run.policy
print("extracted supervisor:")
for y in sorted(policy.decisions, key=str):
    print(f"  at {y}: apply {policy.decisions[y]}")
print()
print("the key move: at {2F1,7F2} the supervisor forces o3, cutting the")
print("silent drift through `a` into the trap where isolation is hopeless.")

out = Path(__file__).resolve().parent / "supervisor.dot"
out.write_text(export_bts_dot(liv, result=result), encoding="utf-8")
print(f"\npruned decision graph rendered to {out}")
