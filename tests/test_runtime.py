"""Runtime engine, closed-loop construction, verification, simulation."""
from __future__ import annotations

import copy
import dataclasses
import gc
import json
import os
import pickle
import random
import re
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import pytest

import faultiso as fi
from faultiso import diagnosis, modelio, runtime, synthesis
from faultiso.errors import ProtocolError, SchedulerError, SupervisorIntegrityError
from faultiso.gallery import lamps, lamps_text, twin_branch, twin_branch_text
from faultiso.synthesis import TIE_BREAK_MODES
from faultiso.modelio import parse_model

from oracles import closed_loop_estimates, closed_loop_language, enumerate_language
from plantgen import random_plant


@pytest.fixture(scope="module")
def closed(twin_plant, twin_pipeline):
    _, _, _, policy = twin_pipeline
    return fi.build_closed_loop(twin_plant, policy)


def none_policy(bts):
    return fi.SupervisorPolicy(bts.initial, {})


def trap_disabling_policy(bts):
    y4 = next(y for y in bts.y_states if str(y) == "{5F1,9F2}")
    return fi.SupervisorPolicy(bts.initial,
                               {y4: fi.ControlDecision(None, frozenset({"o3"}))})


def test_closed_loop_rejects_colliding_state_names():
    # the model grammar rejects these names; built in code, they reach the
    # closed loop's own check: plant state aF1 under estimate {bF1@{cF1}} and
    # plant state aF1@{bF1 under {cF1} both render as aF1@{bF1@{cF1}
    table = fi.EventTable((fi.Event("f", fault_type=1), fi.Event("u"),
                           *(fi.Event(f"o{i}", observable=True) for i in (1, 2, 3))))
    trans = {("s", "f"): "t", ("t", "o1"): "bF1@{c", ("t", "o2"): "c", ("bF1@{c", "u"): "a",
             ("c", "u"): "aF1@{b", ("a", "o3"): "a", ("aF1@{b", "o3"): "aF1@{b"}
    plant = fi.build_labeled_plant(fi.Automaton(table, frozenset({"s", *trans.values()}),
                                                "s", trans))
    with pytest.raises(fi.ModelError, match=re.escape("aF1@{bF1@{cF1}")):
        fi.build_closed_loop(plant, fi.synthesize(plant).policy)


def test_closed_loop_state_cap(twin_plant, twin_pipeline, closed):
    _, _, _, policy = twin_pipeline
    n = len(closed.automaton.states)
    capped = fi.build_closed_loop(twin_plant, policy, max_states=n)
    assert capped.automaton.states == closed.automaton.states
    with pytest.raises(fi.ResourceLimitError) as exc:
        fi.build_closed_loop(twin_plant, policy, max_states=n - 1)
    assert exc.value.stats == {"states": n - 1}


def test_engine_initial(twin_plant):
    st = fi.initial_engine_state(twin_plant)
    assert st.phase == "detection"
    assert str(st.estimate) == "{0N}"
    assert (st.verdict.detection, st.verdict.isolation) == ("N", "FU")
    assert st.active_decision is None


def test_engine_replay_examples(twin_plant, twin_pipeline):
    _, _, _, policy = twin_pipeline
    states = fi.replay(twin_plant, policy, ["o2", "o3", "o1"])
    assert [s.phase for s in states] == ["detection", "isolation", "isolation", "isolation"]
    assert str(states[1].estimate) == "{2F1,7F2}"
    assert str(states[1].active_decision) == "<o3,{}>"
    assert str(states[3].estimate) == "{3F1}"
    assert states[3].verdict.isolation == "F1"
    # the switch happened exactly at the first fault-certain verdict
    assert states[1].verdict.detection == "F"


def test_engine_rejects_disabled_and_unenforced(twin_plant, twin_bts, twin_pipeline):
    _, _, _, policy = twin_pipeline
    st = fi.replay(twin_plant, policy, ["o2"])[-1]  # decision <o3,{}> active
    with pytest.raises(ProtocolError):
        fi.engine_step(twin_plant, policy, st, "o4")  # only o3 can occur
    y4 = trap_disabling_policy(twin_bts)
    st2 = fi.replay(twin_plant, y4, ["o2"])[-1]
    # under the no-control default, o4 leads to the trap; o3 is then disabled
    st3 = fi.engine_step(twin_plant, y4, st2, "o4")
    with pytest.raises(ProtocolError):
        fi.engine_step(twin_plant, y4, st3, "o3")


def test_engine_rejects_unobservable_and_infeasible(twin_plant, twin_pipeline):
    _, _, _, policy = twin_pipeline
    st = fi.initial_engine_state(twin_plant)
    with pytest.raises(ProtocolError):
        fi.engine_step(twin_plant, policy, st, "a")
    with pytest.raises(ProtocolError):
        fi.engine_step(twin_plant, policy, st, "o3")  # infeasible at start


def test_engine_verdict_monotone(twin_plant, twin_pipeline):
    _, _, _, policy = twin_pipeline
    for obs in (["o1", "o2", "o3", "o1", "o1"], ["o2", "o3", "o2", "o2"]):
        states = fi.replay(twin_plant, policy, obs)
        seen_f = False
        fixed = None
        for st in states:
            if seen_f:
                assert st.verdict.detection == "F"
            seen_f = seen_f or st.verdict.detection == "F"
            if fixed is not None:
                assert st.verdict.isolation == fixed
            if st.verdict.isolation != "FU":
                fixed = st.verdict.isolation


def test_engine_estimates_match_literal_enumeration(twin_plant, twin_pipeline):
    _, _, _, policy = twin_pipeline
    oracle = closed_loop_estimates(twin_plant, policy, 5)
    for t, expected in sorted(oracle.items()):
        if not t:
            continue
        states = fi.replay(twin_plant, policy, list(t))
        assert states[-1].estimate == expected, t


def test_replay_memory_is_linear_in_the_observations():
    # each state holds the last observation and the decision in force, not
    # the run so far, so 2,000 states stay small (copied logs took ~32 MB)
    plant = fi.build_labeled_plant(lamps(3))
    policy = fi.synthesize(plant).policy
    trace = fi.simulate(fi.build_closed_loop(plant, policy), 6000, seed=11)
    observations = [line[4:] for line in trace.splitlines()
                    if line.startswith("OBS ")][:2000]
    assert len(observations) == 2000
    fi.replay(plant, policy, observations[:50])  # warm the plant's caches
    tracemalloc.start()
    try:
        states = fi.replay(plant, policy, observations)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000, f"replay of 2,000 observations peaked at {peak} bytes"
    folded = fi.initial_engine_state(plant)
    for obs in observations:
        folded = fi.engine_step(plant, policy, folded, obs)
    assert states[-1] == folded
    assert states[0].observation is None
    assert [st.observation for st in states[1:]] == observations
    assert any(st.phase == "detection" for st in states[1:])
    assert any(st.phase == "isolation" for st in states)
    for st in states:
        assert (st.active_decision is None) == (st.phase == "detection")


def test_each_estimate_is_released_once_per_plant(monkeypatch):
    # every estimate step, with or without a decision in force, reads the
    # admitted steps kept on plant.index per (estimate, decision): the
    # four-lamp closed loop asks for 332 steps but releases each of its 107
    # pairs once (75 fault-certain, 32 before certainty), and on three lamps
    # neither a 10,000-observation replay nor the policy graph releases more
    asked, released = [], []
    real_reach, real_release = runtime.observable_reach, synthesis._release

    def reach(plant, est, dec, obs):
        asked.append(obs)
        return real_reach(plant, est, dec, obs)

    def release(plant, est, dec):
        released.append((est, dec, asked[-1]))
        return real_release(plant, est, dec)

    monkeypatch.setattr(runtime, "observable_reach", reach)
    monkeypatch.setattr(synthesis, "_release", release)
    plant = fi.build_labeled_plant(lamps(4))
    fi.build_closed_loop(plant, fi.synthesize(plant).policy)
    assert len(asked) == 332
    assert len({(est, dec) for est, dec, _ in released}) == len(released) == 107
    assert sum(fi.classify(est).detection == "F" for est, _, _ in released) == 75

    plant = fi.build_labeled_plant(lamps(3))
    policy = fi.synthesize(plant).policy
    trace = fi.simulate(fi.build_closed_loop(plant, policy), 11_000, seed=19)
    observations = [line[4:] for line in trace.splitlines()
                    if line.startswith("OBS ")][:10_000]
    assert len(observations) == 10_000
    before, state = len(released), fi.initial_engine_state(plant)
    for obs in observations:
        state = fi.engine_step(plant, policy, state, obs)
    graph = fi.policy_graph(plant, policy)
    assert len(released) == before
    assert len(plant.index._steps) == before - 107 == 44
    assert {est for est, _ in plant.index._steps
            if fi.classify(est).detection == "F"} == set(graph)


# -- the engine memo: one transition per (policy, estimate, decision, observation)

def referee_step(plant, policy, state, obs):
    """The engine's transition from its two rules, with no memo and no checks."""
    return runtime._engine_state(policy, runtime._next_estimate(plant, state, obs), obs)


def referee_replay(plant, policy, observations):
    states = [fi.initial_engine_state(plant)]
    for obs in observations:
        states.append(referee_step(plant, policy, states[-1], obs))
    return states


def lamp_observations(plant, policy, count, seed):
    trace = fi.simulate(fi.build_closed_loop(plant, policy), count + 1000, seed=seed)
    observations = [line[4:] for line in trace.splitlines() if line.startswith("OBS ")]
    assert len(observations) >= count
    return observations[:count]


def twin_variant_plant():
    # twin_branch with one transition changed: at plant state 5, o3 -> o1, so
    # o3 after o2, o4 leaves {5F1,9F2} for {9F2} instead of staying
    text = twin_branch_text()
    assert "trans 5 o3 5\n" in text
    aut, _ = parse_model(text.replace("trans 5 o3 5\n", "trans 5 o1 5\n"))
    return fi.build_labeled_plant(aut)


@pytest.mark.parametrize("case", ["twin", "lamps3", "lamps4"])
def test_engine_memo_matches_its_rules_on_every_closed_loop_step(case, twin, twin_pipeline):
    # every (estimate, observation) pair of the closed loop, stepped twice
    # through engine_step on one plant (a miss, then a hit on the same entry),
    # against the two rules applied on a fresh plant
    if case == "twin":
        aut, policy = twin, twin_pipeline[3]
    else:
        aut = lamps(int(case[-1]))
        policy = fi.synthesize(fi.build_labeled_plant(aut)).policy
    plant, fresh = fi.build_labeled_plant(aut), fi.build_labeled_plant(aut)
    cl = fi.build_closed_loop(plant, policy)
    admitted = {}
    for src, ev in cl.automaton.transitions:
        if ev in plant.table.observable_events:
            admitted.setdefault(cl.engine_of[src].estimate, set()).add(ev)
    start = fi.initial_engine_state(plant)
    seen, todo, checked = {start.estimate}, [start], 0
    while todo:
        state = todo.pop()
        for obs in sorted(admitted.get(state.estimate, ())):
            got = fi.engine_step(plant, policy, state, obs)
            assert fi.engine_step(plant, policy, state, obs) is got
            assert got == referee_step(fresh, policy, state, obs), (state.estimate, obs)
            checked += 1
            if got.estimate not in seen:
                seen.add(got.estimate)
                todo.append(got)
    assert seen == {engine.estimate for engine in cl.engine_of.values()}
    assert checked == sum(map(len, admitted.values())) == len(plant.index._engine)


def test_engine_memo_keeps_no_error(twin_plant, twin_bts, twin_pipeline):
    # each failing observation raises the same line again: nothing is stored
    policy, trap = twin_pipeline[3], trap_disabling_policy(twin_bts)
    start = fi.initial_engine_state(twin_plant)
    after_o2 = fi.engine_step(twin_plant, policy, start, "o2")  # <o3,{}> in force
    trapped = fi.replay(twin_plant, trap, ["o2", "o4"])[-1]  # <~,{o3}> in force
    cases = [(policy, start, "zz", "unknown event: zz"),
             (policy, start, "a", "event a is not observable"),
             (trap, trapped, "o3", "disabled event o3 was observed under <~,{o3}>"),
             (policy, after_o2, "o4", "decision <o3,{}> enforces o3 but o4 was observed"),
             (policy, start, "o3", "observation o3 is infeasible at {0N}")]
    memo = twin_plant.index._engine
    for pol, state, obs, message in cases:
        size = len(memo)
        for _ in range(2):
            with pytest.raises(ProtocolError) as exc:
                fi.engine_step(twin_plant, pol, state, obs)
            assert str(exc.value) == message
            assert len(memo) == size


def test_engine_memo_keys_on_the_decision_in_force(twin, twin_pipeline):
    # at {2F1,7F2} a state built with no decision in force admits o4; the
    # engine's own state there, with <o3,{}> in force, still rejects it
    plant, policy = fi.build_labeled_plant(twin), twin_pipeline[3]
    state = fi.replay(plant, policy, ["o2"])[-1]
    free = dataclasses.replace(state, active_decision=None)
    assert str(fi.engine_step(plant, policy, free, "o4").estimate) == "{5F1,9F2}"
    with pytest.raises(ProtocolError, match="enforces o3 but o4 was observed"):
        fi.engine_step(plant, policy, state, "o4")


def interleaved_replays(plant, policies, runs):
    """Each policy's run on one plant, the policies taking turns per observation."""
    states = [[fi.initial_engine_state(plant)] for _ in policies]
    for j in range(max(map(len, runs))):
        for policy, run, out in zip(policies, runs, states):
            if j < len(run):
                out.append(fi.engine_step(plant, policy, out[-1], run[j]))
    return states


def test_engine_memo_keeps_policies_apart(twin, twin_bts, twin_pipeline):
    # both tie-breaks on three lamps (they differ on 12 reachable estimates),
    # and the synthesised and the trap policy on the twin, interleaved on one
    # plant, each get the states their own fresh plant gives
    plant = fi.build_labeled_plant(lamps(3))
    policies = [fi.synthesize(plant, tie_break).policy
                for tie_break in ("default", "paper-example")]
    runs = [lamp_observations(plant, policy, 2000, seed)
            for policy, seed in zip(policies, (3, 4))]
    twin_runs = [["o2", "o3", "o1", "o1"], ["o2", "o4"]]  # the trap then disables o3
    for aut, pols, obs in ((lamps(3), policies, runs),
                           (twin, [twin_pipeline[3], trap_disabling_policy(twin_bts)],
                            twin_runs)):
        wants = [referee_replay(fi.build_labeled_plant(aut), policy, run)
                 for policy, run in zip(pols, obs)]
        assert wants[0] != wants[1]
        assert interleaved_replays(fi.build_labeled_plant(aut), pols, obs) == wants


def test_engine_memo_keeps_plants_apart(twin, twin_bts):
    # one policy, valid on both, stepped on two plants whose models differ in
    # one transition: each plant keeps its own entries
    plant, variant = fi.build_labeled_plant(twin), twin_variant_plant()
    shared = fi.SupervisorPolicy(twin_bts.initial, {})
    run = ["o2", "o4", "o3", "o3"]
    got = [fi.replay(p, shared, run) for p in (plant, variant, plant, variant)]
    assert [str(states[3].estimate) for states in got] == ["{5F1,9F2}", "{9F2}"] * 2
    assert got[0] == got[2] == referee_replay(fi.build_labeled_plant(twin), shared, run)
    assert got[1] == got[3] == referee_replay(twin_variant_plant(), shared, run)


def test_engine_computes_each_distinct_step_once(monkeypatch):
    # a 10,000-observation three-lamp replay meets 26 distinct transitions and
    # computes each once; a second replay on the same plant computes none
    plant = fi.build_labeled_plant(lamps(3))
    policy = fi.synthesize(plant).policy
    observations = lamp_observations(plant, policy, 10_000, seed=19)
    computed, real = [], runtime._next_estimate

    def spy(plant, state, obs):
        computed.append((state.estimate, state.active_decision, obs))
        return real(plant, state, obs)

    monkeypatch.setattr(runtime, "_next_estimate", spy)
    first = fi.replay(plant, policy, observations)
    assert len(computed) == len(set(computed)) == len(plant.index._engine) == 26
    assert fi.replay(plant, policy, observations) == first
    assert len(computed) == 26


# -- the engine rows: each stepped state keeps its successors, weakly

class CountingDict(dict):
    """A memo that counts its lookups."""

    reads = 0

    def get(self, key, default=None):
        self.reads += 1
        return super().get(key, default)

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


def test_repeated_replay_reads_the_engine_memo_once():
    # a second 10,000-observation three-lamp replay under the same plant and
    # policy finds every step in its states' rows; only the fresh initial
    # state, which has no row yet, reads the memo
    plant = fi.build_labeled_plant(lamps(3))
    policy = fi.synthesize(plant).policy
    observations = lamp_observations(plant, policy, 10_000, seed=23)
    memo = plant.index._engine = CountingDict()
    first = fi.replay(plant, policy, observations)
    memo.reads = 0
    second = fi.replay(plant, policy, observations)
    assert memo.reads == 1
    assert all(a is b for a, b in zip(first[1:], second[1:])) and first == second


def test_engine_rows_follow_the_plant_and_the_policy(twin):
    # a state stepped on another plant, or under another policy (equal but
    # distinct, or unequal), gets the referee's successor there, and stepped
    # back it gets the engine's own successor again
    variant, fresh_variant = twin_variant_plant(), twin_variant_plant()
    plant = fi.build_labeled_plant(twin)
    shared = fi.SupervisorPolicy(fi.synthesize(plant).bts.initial, {})
    cases = [(plant, shared, ["o2", "o4", "o3", "o3"], [(variant, shared, fresh_variant)])]
    lamp_plant = fi.build_labeled_plant(lamps(3))
    default, paper = (fi.synthesize(lamp_plant, tb).policy for tb in TIE_BREAK_MODES)
    copy = fi.SupervisorPolicy(default.initial_frontier, dict(default.decisions))
    assert copy == default and copy is not default and paper != default
    fresh = fi.build_labeled_plant(lamps(3))
    cases.append((lamp_plant, default, lamp_observations(lamp_plant, default, 300, seed=2),
                   [(lamp_plant, copy, fresh), (lamp_plant, paper, fresh)]))
    for home, policy, run, others in cases:
        states = fi.replay(home, policy, run)
        for other, other_policy, referee in others:
            for state, obs, after in zip(states, run, states[1:]):
                got = fi.engine_step(other, other_policy, state, obs)
                assert got == referee_step(referee, other_policy, state, obs), (state, obs)
                assert fi.engine_step(other, other_policy, state, obs) is got
                assert fi.engine_step(home, policy, state, obs) is after
    assert fi.engine_step(lamp_plant, copy, states[5], run[5]) is states[6]  # equal: one entry


def test_engine_row_keeps_no_error(twin_plant, twin_pipeline):
    # a step that raises leaves nothing in the stepped state's row
    policy, start = twin_pipeline[3], fi.initial_engine_state(twin_plant)
    fi.engine_step(twin_plant, policy, start, "o2")
    for obs in ("zz", "a", "o3"):
        with pytest.raises(ProtocolError):
            fi.engine_step(twin_plant, policy, start, obs)
    assert list(start.__dict__["_row"][2]) == ["o2"]


def test_stepped_engine_state_pickles_by_its_fields(twin_plant, twin_pipeline):
    states = fi.replay(twin_plant, twin_pipeline[3], ["o2", "o3", "o1"])
    assert all("_row" in state.__dict__ for state in states[:-1])
    for state in states:
        loaded = pickle.loads(pickle.dumps(state))
        assert loaded == state and hash(loaded) == hash(state)
        assert "_row" not in loaded.__dict__
        assert copy.copy(state) == state and "_row" not in copy.copy(state).__dict__


def test_stepped_engine_states_are_freed_with_their_plant():
    # the rows hold the index and the successors weakly: dropping the plant
    # frees it, its index and every state at once
    gc.disable()
    try:
        plant = fi.build_labeled_plant(lamps(3))
        policy = fi.synthesize(plant).policy
        states = fi.replay(plant, policy, lamp_observations(plant, policy, 500, seed=4))
        refs = [weakref.ref(x) for x in (plant, plant.index, states[0], states[1], states[-1])]
        del plant, states
        assert [ref() for ref in refs] == [None] * 5
    finally:
        gc.enable()


@pytest.mark.parametrize("text", [lamps_text(3, "lamps3", "3 lamps"), twin_branch_text()],
                         ids=["lamps3", "twin"])
def test_estimates_stay_plain_values(text):
    # the whole pipeline runs on one plant, and no stage keeps anything on
    # the estimates it interns: each holds its members and its hash
    doc = modelio.parse_model_document(text)
    plant = fi.build_labeled_plant(modelio.to_system(doc)[0])
    run = fi.synthesize(plant)
    payload = modelio.supervisor_document(run.policy, doc, "default", run.result.isolation_bound)
    policy = modelio.load_supervisor(modelio.serialize_supervisor(payload), plant, doc)
    cl = fi.build_closed_loop(plant, policy)
    assert fi.verify_closed_loop(cl).isolatable
    fi.replay(plant, policy, lamp_observations(plant, policy, 2000, seed=6))
    estimates = list(plant.index._estimates.values())
    assert len(estimates) >= 7
    for est in estimates:
        assert sorted(est.__dict__) == ["_hash", "members"], est


# -- the policy is a value: read-only, hashed by its decisions, pickled by value

def test_policy_cannot_change_after_it_is_stepped(twin):
    # the twin's o2 puts <o3,{}> in force; the policy then refuses to change,
    # and a caller's own dict, changed after it built a policy, does not
    # change that policy's replay
    plant = fi.build_labeled_plant(twin)
    policy = fi.synthesize(plant).policy
    start = fi.initial_engine_state(plant)
    assert str(fi.engine_step(plant, policy, start, "o2").active_decision) == "<o3,{}>"
    with pytest.raises(AttributeError):
        policy.decisions.clear()
    with pytest.raises(TypeError):
        policy.decisions[start.estimate] = fi.NO_CONTROL
    assert str(fi.engine_step(plant, policy, start, "o2").active_decision) == "<o3,{}>"
    own = dict(policy.decisions)
    copy = fi.SupervisorPolicy(policy.initial_frontier, own)
    own.clear()
    assert copy == policy and hash(copy) == hash(policy)
    want = fi.replay(fi.build_labeled_plant(twin), policy, ["o2", "o3"])
    assert fi.replay(fi.build_labeled_plant(twin), copy, ["o2", "o3"]) == want
    assert str(want[1].active_decision) == "<o3,{}>"


def test_equal_policies_share_engine_entries(monkeypatch):
    # two loads of one three-lamp document are equal, hash alike and share
    # the engine's entries on one plant: a replay under the second computes
    # no step
    doc = modelio.parse_model_document(lamps_text(3, "lamps3", "3 lamps"))
    plant = fi.build_labeled_plant(modelio.to_system(doc)[0])
    run = fi.synthesize(plant)
    text = modelio.serialize_supervisor(modelio.supervisor_document(
        run.policy, doc, "default", run.result.isolation_bound))
    first, second = (modelio.load_supervisor(text, plant, doc) for _ in range(2))
    assert first is not second
    assert first == second and hash(first) == hash(second)
    observations = lamp_observations(plant, first, 2000, seed=5)
    want = fi.replay(plant, first, observations)
    size = len(plant.index._engine)
    computed, real = [], runtime._next_estimate

    def spy(plant, state, obs):
        computed.append(obs)
        return real(plant, state, obs)

    monkeypatch.setattr(runtime, "_next_estimate", spy)
    assert fi.replay(plant, second, observations) == want
    assert computed == [] and len(plant.index._engine) == size


def test_closed_loop_bound_is_the_isolation_bound_less_one(solvable_pool):
    # the solver counts observations to isolation, the closed loop the mixed
    # estimates on the way in the observations between them: on the gallery,
    # lamps 3-6 and the 603 solvable plants of the seed-2023 pool, under
    # both tie-breaks
    plants = [fi.build_labeled_plant(aut) for aut in (twin_branch()[0], *map(lamps, (3, 4, 5, 6)))]
    runs = [(plant, fi.synthesize(plant)) for plant in plants]
    pairs = set()
    for plant, run in runs + [(plant, run) for _, plant, run in solvable_pool]:
        for tie_break in TIE_BREAK_MODES:
            result = fi.good_fixpoint(run.live, run.deadlocks, tie_break)
            cl = fi.build_closed_loop(plant, fi.extract_supervisor(result, run.live))
            report = fi.verify_closed_loop(cl)
            assert report.bound == max(result.isolation_bound - 1, 0)
            pairs.add((result.isolation_bound, report.bound))
    assert pairs == {(0, 0), (1, 0), (2, 1), (3, 2), (4, 3), (5, 4), (6, 5)}


def test_closed_loop_takes_each_engine_state_once(monkeypatch):
    # build_closed_loop takes the engine state once per distinct estimate and
    # keeps it per closed-loop state; simulate and the liveness check read it
    plant = fi.build_labeled_plant(lamps(3))
    policy = fi.synthesize(plant).policy
    taken, real = [], runtime._engine_state

    def spy(policy, est, obs=None):
        taken.append(est)
        return real(policy, est, obs)

    monkeypatch.setattr(runtime, "_engine_state", spy)
    cl = fi.build_closed_loop(plant, policy)
    assert len(taken) == len(set(taken)) == len({e.estimate for e in cl.engine_of.values()})
    assert set(cl.engine_of) == cl.automaton.states
    assert all(engine == real(policy, engine.estimate) for engine in cl.engine_of.values())
    taken.clear()
    trace = fi.simulate(cl, 2000, seed=3)
    fi.simulate(cl, 50, script=[line[4:] for line in trace.splitlines()
                                if line.startswith("EVT ")][:50])
    assert fi.verify_closed_loop(cl).live
    assert taken == []


PICKLE_SIDES = """
import json, pickle, sys
import faultiso as fi
from faultiso.errors import ProtocolError
from faultiso.gallery import lamps

path, side = sys.argv[1:]
fresh = fi.synthesize(fi.build_labeled_plant(lamps(3))).policy
if side == "dump":
    with open(path, "wb") as out:
        pickle.dump((fresh, fi.NO_CONTROL), out)
    sys.exit()
with open(path, "rb") as src:
    loaded, no_control = pickle.load(src)
cl = fi.build_closed_loop(fi.build_labeled_plant(lamps(3)), fresh)
runs = [[line[4:] for line in fi.simulate(cl, 40, seed=seed).splitlines()
         if line.startswith("OBS ")] for seed in range(30)]


def replay(policy):
    plant = fi.build_labeled_plant(lamps(3))
    try:
        return [fi.replay(plant, policy, run) for run in runs]
    except ProtocolError as exc:
        return str(exc)


want = replay(fresh)
print(json.dumps({"equal": loaded == fresh, "decisions": len(fresh.decisions),
                  "found": sum(est in loaded.decisions for est in fresh.decisions),
                  "no_control": len({no_control, fi.NO_CONTROL}), "replay": replay(loaded) == want,
                  "met": len({state.active_decision for states in want for state in states})}))
"""


@pytest.mark.parametrize("seeds", [("1", "2"), ("1", "1")])
def test_pickled_policy_hashes_where_it_is_loaded(seeds, tmp_path):
    # pickled in one process and loaded in another, under different hash
    # seeds and under one (hash(None) still differs per process before 3.12):
    # estimates, decisions and the policy hash where they are loaded
    path = tmp_path / "policy.pickle"
    src = str(Path(fi.__file__).parents[1])
    for seed, side in zip(seeds, ("dump", "load")):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        done = subprocess.run([sys.executable, "-c", PICKLE_SIDES, str(path), side], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"equal": True, "decisions": 52, "found": 52,
                                       "no_control": 1, "replay": True, "met": 6}

def assert_uncontrolled_step_is_the_diagnosers(plant):
    diag = fi.build_diagnoser(plant)
    for est in diag.states:
        for obs in sorted(plant.table.observable_events):
            assert fi.observable_reach(plant, est, fi.NO_CONTROL, obs) \
                is diag.transitions.get((est, obs)), (est, obs)


def test_uncontrolled_step_is_the_diagnosers(twin_plant):
    # the runtime steps detection through observable_reach under NO_CONTROL,
    # which must give the diagnoser's own estimate objects
    assert_uncontrolled_step_is_the_diagnosers(twin_plant)
    for n in (3, 4, 5):
        assert_uncontrolled_step_is_the_diagnosers(fi.build_labeled_plant(lamps(n)))
    rng, checked = random.Random(2023), 0
    for _ in range(2000):
        plant = fi.build_labeled_plant(random_plant(rng))
        if plant.diagnosability.diagnosable:
            assert_uncontrolled_step_is_the_diagnosers(plant)
            checked += 1
    assert checked == 1511


def test_closed_loop_cuts_unobserved_branch(twin_plant, closed):
    lang = enumerate_language(closed.automaton, 4)
    assert ("sf1", "o2", "o3") in lang
    assert ("sf1", "o2", "a") not in lang  # o3 is enforced at {2F1,7F2}


def test_closed_loop_no_control_is_plant(twin_plant, twin_bts):
    cl = fi.build_closed_loop(twin_plant, none_policy(twin_bts))
    assert enumerate_language(cl.automaton, 6) \
        == enumerate_language(twin_plant.automaton, 6)


def test_closed_loop_language_matches_literal_rules(twin_plant, twin_bts, twin_pipeline):
    _, _, _, policy = twin_pipeline
    for pol in (policy, none_policy(twin_bts), trap_disabling_policy(twin_bts)):
        expected = closed_loop_language(twin_plant, pol, 6)
        cl = fi.build_closed_loop(twin_plant, pol)
        assert enumerate_language(cl.automaton, 6) == expected


def test_closed_loop_uncontrolled_before_certainty(twin_plant, closed):
    # strings whose observation is not yet fault-certain pass through freely
    plant_lang = enumerate_language(twin_plant.automaton, 4)
    cl_lang = enumerate_language(closed.automaton, 4)
    diag = fi.build_diagnoser(twin_plant)
    for s in plant_lang:
        t = fi.project(twin_plant.table, s)
        est = diag.walk(t)
        if fi.classify(est).detection != "F":
            assert s in cl_lang


def test_closed_loop_infeasible_enforcement_rejected(twin_plant, twin_bts):
    y1 = next(y for y in twin_bts.y_states if str(y) == "{1F1,6F2}")
    bad = fi.SupervisorPolicy(twin_bts.initial,
                              {y1: fi.ControlDecision("o3", frozenset())})
    with pytest.raises(SupervisorIntegrityError):
        fi.build_closed_loop(twin_plant, bad)


def test_verify_closed_loop_good(closed):
    report = fi.verify_closed_loop(closed)
    assert report.live
    assert report.isolatable
    assert report.bound == 2


def test_verify_closed_loop_no_control(twin_plant, twin_bts):
    cl = fi.build_closed_loop(twin_plant, none_policy(twin_bts))
    report = fi.verify_closed_loop(cl)
    assert report.live
    assert not report.isolatable


def test_verify_closed_loop_deadlock(twin_plant, twin_bts):
    cl = fi.build_closed_loop(twin_plant, trap_disabling_policy(twin_bts))
    report = fi.verify_closed_loop(cl)
    assert not report.live
    assert report.nonlive_states


def test_liveness_agrees_with_deadlock_analysis(twin_plant, twin_bts, twin_pipeline):
    # a policy is live exactly when it never selects a deadlock decision
    deadlocks, bts_liv, _, policy = twin_pipeline
    cases = [(policy, True), (none_policy(twin_bts), True),
             (trap_disabling_policy(twin_bts), False)]
    for pol, _ in cases:
        graph = fi.policy_graph(twin_plant, pol)
        hits = any(fi.ZState(y, pol.decision_for(y)) in deadlocks for y in graph)
        live = fi.verify_closed_loop(fi.build_closed_loop(twin_plant, pol)).live
        assert live == (not hits)


def test_simulate_scripted_enforcement(twin_plant, closed):
    trace = fi.simulate(closed, 6, script=["sf1", "o2", "o3", "o1"])
    lines = trace.splitlines()
    assert "EVT sf1" in lines
    assert "DEC enforce=o3 disable={}" in lines
    assert lines[-1] == "VERDICT det=F iso=F1"
    # after o2 the only admissible plant event is the enforced o3
    with pytest.raises(SchedulerError):
        fi.simulate(closed, 6, script=["sf1", "o2", "a"])


def test_simulate_seeded_deterministic(closed):
    t1 = fi.simulate(closed, 12, seed=99)
    t2 = fi.simulate(closed, 12, seed=99)
    assert t1 == t2
    assert t1.startswith("SEED 99\n")


def test_simulate_single_step(closed):
    trace = fi.simulate(closed, 1, seed=3)
    events = [l for l in trace.splitlines() if l.startswith("EVT")]
    assert len(events) == 1


def test_simulate_argument_validation(closed):
    with pytest.raises(ValueError):
        fi.simulate(closed, 0, seed=1)
    with pytest.raises(ValueError):
        fi.simulate(closed, 5)
    with pytest.raises(ValueError):
        fi.simulate(closed, 5, script=["sf1"], seed=1)


def test_simulate_stops_at_deadlock(twin_plant, twin_bts):
    cl = fi.build_closed_loop(twin_plant, trap_disabling_policy(twin_bts))
    trace = fi.simulate(cl, 50, script=["sf1", "o2", "a", "o4"])
    events = [l for l in trace.splitlines() if l.startswith("EVT")]
    assert len(events) == 4  # nothing is admissible afterwards


def trace_records(trace):
    """Per ``OBS`` line of a simulate trace: the observation, the ``DEC``
    line after it (``None`` when there is none) and its ``VERDICT`` line."""
    lines, records = trace.splitlines(), []
    for i, line in enumerate(lines):
        if line.startswith("OBS "):
            dec = lines[i + 1] if lines[i + 1].startswith("DEC ") else None
            records.append((line[4:], dec, lines[i + 1 + (dec is not None)]))
    return records


@pytest.mark.parametrize("case", ["twin-synthesised", "twin-none", "twin-trap", "lamps3"])
def test_simulate_agrees_with_replay(case, twin_plant, twin_bts, twin_pipeline):
    # each DEC and VERDICT record is what the engine says after that observation
    if case == "lamps3":
        plant = fi.build_labeled_plant(lamps(3))
        policy = fi.synthesize(plant).policy
    else:
        plant = twin_plant
        policy = {"twin-synthesised": lambda bts: twin_pipeline[3], "twin-none": none_policy,
                  "twin-trap": trap_disabling_policy}[case](twin_bts)
    cl = fi.build_closed_loop(plant, policy)
    for seed in range(1, 6):
        records = trace_records(fi.simulate(cl, 200, seed=seed))
        assert records, seed
        states = fi.replay(plant, policy, [obs for obs, _, _ in records])
        for (obs, dec_line, verdict_line), st in zip(records, states[1:]):
            dec, verdict = st.active_decision, st.verdict
            assert dec_line == (None if dec is None else
                                f"DEC enforce={dec.enforce or '~'} "
                                f"disable={{{','.join(sorted(dec.disable))}}}"), (seed, obs)
            assert verdict_line == f"VERDICT det={verdict.detection} iso={verdict.isolation}"


def test_bts_walk_matches_engine(twin_plant, twin_bts, twin_pipeline):
    # the bipartite graph's edge relation reproduces the engine estimates
    _, bts_liv, _, policy = twin_pipeline
    for observations in (["o2", "o3", "o1"], ["o1", "o2", "o3", "o2"]):
        states = fi.replay(twin_plant, policy, observations)
        switched = [st for st in states if st.phase == "isolation"]
        y = switched[0].estimate
        for st in switched[1:]:
            obs = st.observation
            y = bts_liv.zy_edges[(fi.ZState(y, policy.decision_for(y)), obs)]
            assert y == st.estimate


def test_verify_closed_loop_deep_mixed_chain():
    # two fault classes stay confusable along 1,500 observations; the mixed
    # chain is far deeper than the interpreter's recursion limit
    n = 1500
    lines = ["event sf1 fault=1", "event sf2 fault=2",
             "event o obs", "event p obs", "event q obs", "init s",
             "trans s sf1 a00000", "trans s sf2 b00000"]
    for side in "ab":
        lines += [f"trans {side}{i:05d} o {side}{i + 1:05d}" for i in range(n)]
    lines += [f"trans a{n:05d} p a{n:05d}", f"trans b{n:05d} q b{n:05d}"]
    aut, _ = parse_model("\n".join(lines))
    plant = fi.build_labeled_plant(aut)
    policy = fi.SupervisorPolicy(fi.fault_frontier(plant), {})
    report = fi.verify_closed_loop(fi.build_closed_loop(plant, policy))
    assert report.live and report.isolatable
    assert report.bound == n - 1


def test_closed_loop_keeps_its_labeled_plant(twin_plant, twin_pipeline, monkeypatch):
    _, _, _, policy = twin_pipeline
    cl = fi.build_closed_loop(twin_plant, policy)  # fresh: `closed` is shared
    assert cl.as_labeled_plant() is cl.as_labeled_plant()
    runs = []
    real = diagnosis._twin_construction

    def spy(plant):
        runs.append(plant)
        return real(plant)

    monkeypatch.setattr(diagnosis, "_twin_construction", spy)
    assert fi.verify_closed_loop(cl) == fi.verify_closed_loop(cl)
    assert len(runs) == 1 and runs[0] is cl.as_labeled_plant()


def test_library_argument_errors_are_typed(twin, twin_plant, closed):
    foreign = fi.StateEstimate.of([fi.LabeledState("zz", "N")])
    calls = [
        lambda: fi.observable_reach(twin_plant, foreign, fi.NO_CONTROL, "o1"),
        lambda: fi.feasible_decisions(twin_plant, foreign),
        lambda: fi.policy_graph(twin_plant, fi.SupervisorPolicy(frozenset({foreign}), {})),
        lambda: twin_plant.estimate_of(["nope"]),
        lambda: twin.table["zz"],
        lambda: fi.estimate_after(twin_plant, ["a"]),
        lambda: fi.classify(fi.StateEstimate(())),
        lambda: fi.unobservable_reach(twin, ["nowhere"]),
        lambda: fi.active_events(twin, "nowhere"),
        lambda: fi.StateEstimate((fi.LabeledState("2", "N"), fi.LabeledState("1", "N"))),
        lambda: fi.DiagnosisVerdict("X", "FU"),
        lambda: fi.simulate(closed, 0, seed=1),
        lambda: fi.simulate(closed, 5),
    ]
    for call in calls:
        with pytest.raises(fi.InvalidArgumentError):
            call()
