"""Cross-cutting invariants on random plants and random policies."""
from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

import faultiso as fi
from faultiso.diagnosis import NORMAL, LabeledState
from faultiso.synthesis import ControlDecision

from oracles import (
    closed_loop_estimates,
    closed_loop_language,
    enumerate_language,
    exact_uncontrolled_estimates,
    set_diagnoser,
    split_trace,
)
from plantgen import random_plant

SEED = 424242


@pytest.fixture(scope="module")
def sample():
    """A couple of dozen assumption-clean labelled plants."""
    rng = random.Random(SEED)
    plants = []
    while len(plants) < 24:
        aut = random_plant(rng, max_states=8)
        plants.append(fi.build_labeled_plant(aut))
    return plants


@pytest.fixture(scope="module")
def synthesised(sample):
    """Per diagnosable plant: the pruned graph plus a few policies to probe."""
    rng = random.Random(SEED + 1)
    rows = []
    for plant in sample:
        if not fi.check_diagnosability(plant).diagnosable:
            continue
        run = fi.synthesize(plant)
        bts, deadlocks, liv, result = run.bts, run.deadlocks, run.live, run.result
        policies = []
        if result.solvable:
            policies.append(run.policy)
        for source in (liv, bts):  # unpruned choices may hit deadlocks
            assignment = {y: rng.choice(source.decisions_of(y))
                          for y in source.y_states}
            policies.append(fi.SupervisorPolicy(bts.initial, assignment))
        rows.append((plant, bts, deadlocks, liv, result, policies))
    assert len(rows) >= 10
    return rows


def test_label_monotone_everywhere(sample):
    for plant in sample:
        for (src, _), dst in plant.automaton.transitions.items():
            lsrc, ldst = plant.label_of[src], plant.label_of[dst]
            assert lsrc == ldst or (lsrc == NORMAL and ldst != NORMAL)


def test_fault_certainty_absorbing(sample):
    for plant in sample:
        diag = fi.build_diagnoser(plant)
        for (src, _), dst in diag.transitions.items():
            if fi.classify(src).detection == "F":
                assert fi.classify(dst).detection == "F"


def test_labeled_language_preserved(sample):
    for plant in sample:
        base = {s for s in enumerate_language(plant.automaton, 4)}
        # strip the labelling by replaying on the automaton the labels wrap
        for s in base:
            assert fi.run(plant.automaton, s) is not None


def test_estimate_step_audit(sample):
    for plant in sample:
        diag = fi.build_diagnoser(plant)
        ref = set_diagnoser(plant).transitions
        for (src, obs), dst in diag.transitions.items():
            assert ref.get((src, obs)) == dst, (src, obs)
        assert len(ref) == len(diag.transitions)


def test_closed_loop_language_literal(synthesised):
    for plant, bts, deadlocks, liv, result, policies in synthesised:
        for policy in policies[:2]:
            expected = closed_loop_language(plant, policy, 6)
            cl = fi.build_closed_loop(plant, policy)
            assert enumerate_language(cl.automaton, 6) == expected


def test_engine_matches_literal_estimates(synthesised):
    # the recursive estimate update agrees with first-principles enumeration
    for plant, bts, deadlocks, liv, result, policies in synthesised[:6]:
        policy = policies[0]
        oracle = closed_loop_estimates(plant, policy, 5)
        for t, expected in sorted(oracle.items()):
            if not t:
                continue
            final = fi.replay(plant, policy, list(t))[-1]
            assert final.estimate == expected, t


def test_uncontrolled_strings_always_pass(synthesised):
    # before fault certainty the supervisor must not intervene
    for plant, bts, deadlocks, liv, result, policies in synthesised[:6]:
        unc = exact_uncontrolled_estimates(plant, 5)
        plant_lang = enumerate_language(plant.automaton, 5)
        for policy in policies[:2]:
            cl_lang = enumerate_language(
                fi.build_closed_loop(plant, policy).automaton, 5)
            for s in plant_lang:
                t = fi.project(plant.table, s)
                est = unc[t]
                if NORMAL in est.labels():
                    assert s in cl_lang, (s, str(est))


def test_liveness_matches_deadlock_prediction(synthesised):
    # a policy yields a live loop exactly when it never selects a deadlock
    for plant, bts, deadlocks, liv, result, policies in synthesised:
        for policy in policies:
            graph = fi.policy_graph(plant, policy)
            hits = any(fi.ZState(y, policy.decision_for(y)) in deadlocks
                       for y in graph)
            report = fi.verify_closed_loop(fi.build_closed_loop(plant, policy))
            assert report.live == (not hits)


def test_verdicts_never_revert(synthesised):
    rng = random.Random(SEED + 2)
    for plant, bts, deadlocks, liv, result, policies in synthesised[:6]:
        policy = policies[0]
        cl = fi.build_closed_loop(plant, policy)
        for _ in range(5):
            trace = fi.simulate(cl, 12, seed=rng.randrange(10 ** 6))
            verdicts = [line.split()[1:] for line in trace.splitlines()
                        if line.startswith("VERDICT")]
            seen_f = False
            iso = None
            for det, isol in verdicts:
                det, isol = det.split("=")[1], isol.split("=")[1]
                if seen_f:
                    assert det == "F"
                seen_f = seen_f or det == "F"
                if iso not in (None, "FU"):
                    assert isol == iso
                if isol != "FU":
                    iso = isol


# -- algebraic properties --------------------------------------------------------

@given(st.lists(st.sampled_from(["o1", "o2", "x", "y"]), max_size=10))
def test_split_trace_partition(tokens):
    trace = [ControlDecision("o1" if t == "x" else None) if t in ("x", "y") else t
             for t in tokens]
    decisions, observations = split_trace(trace)
    assert list(observations) == [t for t in trace if isinstance(t, str)]
    assert list(decisions) == [t for t in trace if isinstance(t, ControlDecision)]


@given(st.permutations([LabeledState("3", "F1"), LabeledState("8", "F2"),
                        LabeledState("1", "F1")]))
def test_estimate_canonical_under_permutation(members):
    est = fi.StateEstimate.of(members)
    assert str(est) == "{1F1,3F1,8F2}"
    assert est == fi.StateEstimate.of(list(reversed(members)))


def test_estimate_rejects_unsorted_tuple():
    with pytest.raises(ValueError):
        fi.StateEstimate((LabeledState("8", "F2"), LabeledState("1", "F1")))


def test_decision_canonicalisation(twin_plant):
    from faultiso.synthesis import canonical_decision
    dec = canonical_decision(twin_plant, "o3", {"o3"})
    assert dec.disable == frozenset()  # observable enforce clears the set
    dec = canonical_decision(twin_plant, "a", {"o3"})
    assert dec.disable == {"o3"}  # unobservable enforce keeps it
    with pytest.raises(ValueError):
        canonical_decision(twin_plant, "o4", set())  # o4 is not forcible
    with pytest.raises(ValueError):
        canonical_decision(twin_plant, None, {"o1"})  # o1 is not controllable


def test_verdict_validation():
    with pytest.raises(ValueError):
        fi.DiagnosisVerdict("N", "F1")
    with pytest.raises(ValueError):
        fi.DiagnosisVerdict("Z", "FU")
    assert str(fi.DiagnosisVerdict("F", "F2")) == "F/F2"
