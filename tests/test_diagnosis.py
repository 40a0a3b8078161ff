"""Labelled plant, estimates, diagnoser, diagnosability and isolatability."""
from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import faultiso as fi
from faultiso import diagnosis, modelio, synthesis
from faultiso.diagnosis import NORMAL
from faultiso.gallery import lamps, lamps_text, twin_branch
from faultiso.errors import AssumptionError, ModelError, NotDiagnosableError
from faultiso.graph import reach

from conftest import estimate, names
from oracles import (
    brute_estimates,
    composed_labeled_plant,
    enumerate_language,
    printed_witness,
    set_adjacency,
    set_diagnoser,
    set_frontier,
    set_isolatability,
)
from plantgen import random_plant


def small_plant(events, transitions, initial="0"):
    table = fi.EventTable(tuple(events))
    states = {initial} | {s for s, _, _ in transitions} | {d for _, _, d in transitions}
    return fi.Automaton(table, frozenset(states), initial,
                        {(s, e): d for s, e, d in transitions})


def test_label_automaton_no_faults():
    aut = small_plant([fi.Event("o", observable=True)], [("0", "o", "0")])
    with pytest.raises(ModelError, match="no fault events declared"):
        fi.build_labeled_plant(aut)


def assert_matches_composed_referee(g):
    """``build_labeled_plant`` agrees with the label automaton composed with
    ``g``, state for state and in the order of its table and transitions."""
    plant, ref = fi.build_labeled_plant(g), composed_labeled_plant(g)
    aut, want = plant.automaton, ref.automaton
    assert (aut.states, aut.initial) == (want.states, want.initial)
    assert list(aut.transitions.items()) == list(want.transitions.items())
    assert aut.table.events == want.table.events
    assert dict(plant.base_of) == dict(ref.base_of)
    assert dict(plant.label_of) == dict(ref.label_of)
    assert dict(plant.id_of) == dict(ref.id_of)


def test_labeled_plant_matches_composed_referee(twin):
    assert_matches_composed_referee(twin)
    assert_matches_composed_referee(lamps(3))
    rng = random.Random(2023)
    for _ in range(300):
        assert_matches_composed_referee(random_plant(rng))


def test_labeled_plant_names_never_collide():
    # plant states that look like labels or like labelled states
    aut = small_plant(
        [fi.Event("f1", fault_type=1), fi.Event("f2", fault_type=2),
         fi.Event("o", observable=True)],
        [("N", "f1", "F"), ("N", "f2", "1"), ("N", "o", "F1"), ("F1", "o", "F1"),
         ("F", "o", "FN"), ("FN", "o", "F"), ("1", "o", "1F1"), ("1F1", "o", "1")],
        initial="N")
    plant = fi.build_labeled_plant(aut)
    assert names(plant.automaton.states) == ["1F1F2", "1F2", "F1N", "FF1", "FNF1", "NN"]
    assert_matches_composed_referee(aut)


def test_labeled_plant_states(twin_plant):
    assert names(twin_plant.automaton.states) == [
        "0N", "11F2", "1F1", "2F1", "3F1", "4F1", "5F1", "6F2", "7F2", "8F2", "9F2"]


def test_labeled_plant_language_preserved(twin, twin_plant):
    assert enumerate_language(twin, 6) == enumerate_language(twin_plant.automaton, 6)


def test_labeled_plant_requires_assumptions():
    aut = small_plant(
        [fi.Event("f1", fault_type=1), fi.Event("f2", fault_type=2),
         fi.Event("o", observable=True)],
        [("0", "f1", "1"), ("1", "f2", "2"), ("2", "o", "2"),
         ("0", "o", "0"), ("1", "o", "1")])
    with pytest.raises(AssumptionError):
        fi.build_labeled_plant(aut)


def test_estimate_after_examples(twin_plant):
    assert str(fi.estimate_after(twin_plant, [])) == "{0N}"
    assert str(fi.estimate_after(twin_plant, ["o2"])) == "{2F1,7F2}"
    assert str(fi.estimate_after(twin_plant, ["o2", "o4"])) == "{5F1,9F2}"


def test_estimate_after_infeasible(twin_plant):
    assert fi.estimate_after(twin_plant, ["o3"]).empty
    with pytest.raises(ValueError):
        fi.estimate_after(twin_plant, ["a"])  # not an observable event


def test_estimate_after_matches_brute_force(twin_plant):
    brute, complete = brute_estimates(twin_plant, 6)
    checked = 0
    for t, expected in brute.items():
        if not complete(t):
            continue
        assert fi.estimate_after(twin_plant, t) == expected, t
        checked += 1
    assert checked >= 10


def test_diagnoser_states(twin_diagnoser):
    assert names(twin_diagnoser.states) == [
        "{0N}", "{1F1,6F2}", "{2F1,7F2}", "{3F1,8F2}", "{3F1}", "{5F1,9F2}", "{8F2}"]
    assert str(twin_diagnoser.initial) == "{0N}"


def test_diagnoser_edges_match_estimate_step(twin_plant, twin_diagnoser):
    # structural audit: every edge equals the set referee's closure-then-step image
    ref = set_diagnoser(twin_plant).transitions
    for (src, obs), dst in twin_diagnoser.transitions.items():
        assert ref.get((src, obs)) == dst, (src, obs)
    assert len(ref) == len(twin_diagnoser.transitions)


def test_diagnoser_singleton_when_faults_immediately_visible():
    aut = small_plant(
        [fi.Event("f", fault_type=1), fi.Event("o1", observable=True),
         fi.Event("o2", observable=True)],
        [("0", "f", "1"), ("0", "o1", "0"), ("1", "o2", "1")])
    plant = fi.build_labeled_plant(aut)
    diag = fi.build_diagnoser(plant)
    assert all(len(est) == 1 for est in diag.states)
    assert len(diag.states) == len(plant.automaton.states)


def test_diagnoser_state_cap(twin_plant):
    with pytest.raises(fi.ResourceLimitError):
        fi.build_diagnoser(twin_plant, max_states=2)


def test_label_monotone_along_paths(twin_plant):
    aut = twin_plant.automaton
    for (src, ev), dst in aut.transitions.items():
        lsrc, ldst = twin_plant.label_of[src], twin_plant.label_of[dst]
        assert lsrc == ldst or (lsrc == NORMAL and ldst != NORMAL)


def test_classify_examples(twin_plant):
    v = fi.classify(fi.estimate_after(twin_plant, ["o2"]))
    assert (v.detection, v.isolation) == ("F", "FU")
    v = fi.classify(estimate(twin_plant, "0:N"))
    assert (v.detection, v.isolation) == ("N", "FU")
    v = fi.classify(estimate(twin_plant, "3:F1"))
    assert (v.detection, v.isolation) == ("F", "F1")
    v = fi.classify(estimate(twin_plant, "0:N", "1:F1"))
    assert (v.detection, v.isolation) == ("U", "FU")
    with pytest.raises(ValueError):
        fi.classify(fi.StateEstimate(()))


def test_classify_singletons(twin_plant):
    for q in twin_plant.automaton.states:
        est = twin_plant.estimate_of([q])
        v = fi.classify(est)
        label = twin_plant.label_of[q]
        if label == NORMAL:
            assert (v.detection, v.isolation) == ("N", "FU")
        else:
            assert (v.detection, v.isolation) == ("F", label)


def test_detection_absorbing_in_diagnoser(twin_diagnoser):
    for (src, _), dst in twin_diagnoser.transitions.items():
        if fi.classify(src).detection == "F":
            assert fi.classify(dst).detection == "F"


def test_diagnosable_fixture(twin_plant):
    assert fi.check_diagnosability(twin_plant).diagnosable


def test_not_diagnosable_shared_loop():
    aut = small_plant(
        [fi.Event("f", fault_type=1), fi.Event("o1", observable=True)],
        [("0", "f", "1"), ("0", "o1", "0"), ("1", "o1", "1")])
    plant = fi.build_labeled_plant(aut)
    report = fi.check_diagnosability(plant)
    assert not report.diagnosable
    faulty, normal = report.witness
    assert "f" in faulty
    assert "f" not in normal
    assert fi.project(plant.table, faulty) == fi.project(plant.table, normal)


def test_diagnosable_with_observable_surrogate():
    aut = small_plant(
        [fi.Event("f", fault_type=1), fi.Event("o1", observable=True),
         fi.Event("ofault", observable=True)],
        [("0", "f", "1"), ("0", "o1", "0"), ("1", "ofault", "1")])
    plant = fi.build_labeled_plant(aut)
    assert fi.check_diagnosability(plant).diagnosable


def test_isolatability_fixture(twin_plant):
    report = fi.check_isolatability(twin_plant)
    assert not report.isolatable
    assert report.witness_cycle is not None
    assert str(report.witness_cycle[0]) == "{5F1,9F2}"
    assert report.witness_cycle[1] == "o3"
    assert report.witness_cycle[2] == report.witness_cycle[0]


def test_isolatability_requires_diagnosable():
    aut = small_plant(
        [fi.Event("f", fault_type=1), fi.Event("o1", observable=True)],
        [("0", "f", "1"), ("0", "o1", "0"), ("1", "o1", "1")])
    plant = fi.build_labeled_plant(aut)
    with pytest.raises(NotDiagnosableError):
        fi.check_isolatability(plant)


def test_single_fault_type_isolatable_when_diagnosable():
    aut = small_plant(
        [fi.Event("f", fault_type=1), fi.Event("o1", observable=True),
         fi.Event("o2", observable=True)],
        [("0", "f", "1"), ("0", "o1", "0"), ("1", "o2", "1")])
    plant = fi.build_labeled_plant(aut)
    assert fi.check_diagnosability(plant).diagnosable
    assert fi.check_isolatability(plant).isolatable


def test_detection_agent(twin_plant, twin_diagnoser):
    assert fi.detection_agent(twin_diagnoser, []) == "N"
    assert fi.detection_agent(twin_diagnoser, ["o2"]) == "F"
    with pytest.raises(ValueError):
        fi.detection_agent(twin_diagnoser, ["o3"])


def test_detection_agent_uncertain():
    aut = small_plant(
        [fi.Event("f", fault_type=1), fi.Event("u"), fi.Event("o", observable=True),
         fi.Event("ogood", observable=True), fi.Event("obad", observable=True)],
        [("0", "f", "1"), ("0", "u", "2"), ("1", "o", "3"), ("2", "o", "4"),
         ("3", "obad", "3"), ("4", "ogood", "4")])
    plant = fi.build_labeled_plant(aut)
    diag = fi.build_diagnoser(plant)
    assert fi.detection_agent(diag, ["o"]) == "U"


def test_isolation_agent_uncontrolled(twin_diagnoser):
    assert fi.isolation_agent(twin_diagnoser, ["o2"]) == "FU"


def test_isolation_agent_closed_loop(twin_plant, twin_pipeline):
    _, _, _, policy = twin_pipeline

    def isolation(t):
        return fi.replay(twin_plant, policy, t)[-1].verdict.isolation

    assert isolation(["o2", "o3", "o1"]) == "F1"
    assert isolation(["o2", "o3", "o2"]) == "F2"
    assert isolation(["o2"]) == "FU"


def test_analyses_run_once_per_plant(monkeypatch):
    aut, _ = twin_branch()  # fresh objects: the session fixtures are shared
    assert fi.check_assumptions(aut) is fi.check_assumptions(aut)
    plant = fi.build_labeled_plant(aut)
    assert fi.require_assumptions(aut) is fi.check_assumptions(aut)
    assert fi.check_diagnosability(plant) is fi.check_diagnosability(plant)
    built = []

    def spy(p, *args, **kwargs):
        built.append(p)
        return real(p, *args, **kwargs)

    real = diagnosis.build_diagnoser
    monkeypatch.setattr(diagnosis, "build_diagnoser", spy)
    monkeypatch.setattr(synthesis, "build_diagnoser", spy, raising=False)
    fi.check_isolatability(plant)
    fi.build_bts(plant)
    assert built == []  # both step masks on plant.index; neither needs a diagnoser


def test_detection_agent_raises_typed_error(twin_diagnoser):
    with pytest.raises(fi.FaultIsoError, match="observation infeasible"):
        fi.detection_agent(twin_diagnoser, ["o3"])


def test_diagnoser_rejects_estimates_it_does_not_hold(twin_diagnoser):
    d = twin_diagnoser
    with pytest.raises(TypeError):  # only build_diagnoser makes a diagnoser
        fi.Diagnoser(d.states, d.alphabet, d.transitions, d.initial)


def assert_walk_fails(diag, t, message):
    """``walk`` and both agents that walk the diagnoser raise ``message``."""
    for call in (lambda: diag.walk(t), lambda: fi.detection_agent(diag, t),
                 lambda: fi.isolation_agent(diag, t)):
        with pytest.raises(fi.InvalidArgumentError) as info:
            call()
        assert str(info.value) == message


def test_walk_reports_unknown_event(twin_diagnoser):
    assert_walk_fails(twin_diagnoser, ["zzz"], "unknown event: zzz")


def test_walk_reports_unobservable_event(twin_diagnoser):
    assert_walk_fails(twin_diagnoser, ["o2", "a"], "event a is not observable")


def assert_walks_match_referee(plant, diag, ref):
    """``Diagnoser.walk`` and ``estimate_after`` agree with a walk of the
    referee's dict on 200 random feasible runs of up to 50 observations
    (fewer only at an estimate with no successor), and on the last run
    extended by an infeasible and by an unobservable event."""
    rng, adj = random.Random(2023), set_adjacency(ref)
    for _ in range(200):
        est, t = ref.initial, []
        while len(t) < 50 and adj[est]:
            t.append(rng.choice(adj[est])[0])
            est = ref.transitions[est, t[-1]]
        assert diag.walk(t) == est == fi.estimate_after(plant, t), t
    infeasible = sorted(ref.alphabet - {obs for obs, _ in adj[est]})
    if infeasible:
        bad = t + infeasible[:1]
        assert (est, bad[-1]) not in ref.transitions and fi.estimate_after(plant, bad).empty
        with pytest.raises(fi.InvalidArgumentError, match="observation infeasible"):
            diag.walk(bad)
    unobservable = t + [min(plant.table.unobservable_events)]
    for walk in (diag.walk, lambda u: fi.estimate_after(plant, u)):
        with pytest.raises(fi.InvalidArgumentError, match="is not observable"):
            walk(unobservable)


def assert_matches_set_referee(plant):
    """The mask-built diagnoser, its walks, fault frontier and isolatability
    test agree with the set-based referees, including their state-cap errors."""
    diag, ref = fi.build_diagnoser(plant), set_diagnoser(plant)
    assert diag.states == ref.states
    assert list(diag.transitions.items()) == list(ref.transitions.items())
    assert (diag.initial, diag.alphabet) == (ref.initial, ref.alphabet)
    assert_walks_match_referee(plant, diag, ref)
    n = len(ref.states)
    for cap in sorted(c for c in {1, n // 2, n - 1} if 0 < c < n):
        with pytest.raises(fi.ResourceLimitError) as got:
            fi.build_diagnoser(plant, max_states=cap)
        with pytest.raises(fi.ResourceLimitError) as want:
            set_diagnoser(plant, max_states=cap)
        assert str(got.value) == str(want.value)
        assert got.value.stats == want.value.stats
    if not plant.diagnosability.diagnosable:
        with pytest.raises(NotDiagnosableError):
            fi.check_isolatability(plant)
        return None
    assert fi.fault_frontier(plant) == set_frontier(plant, ref)
    report, want = fi.check_isolatability(plant), set_isolatability(plant, ref)
    assert report == want
    assert report.witness_text() == want.witness_text()
    return report


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_diagnoser_matches_set_referee(seed):
    assert_matches_set_referee(fi.build_labeled_plant(random_plant(random.Random(seed))))


def test_diagnoser_matches_set_referee_three_lamps():
    plant = fi.build_labeled_plant(lamps(3))
    assert len(fi.build_diagnoser(plant).states) == 68
    assert not assert_matches_set_referee(plant).isolatable


def test_diagnoser_matches_set_referee_six_lamps():
    plant = fi.build_labeled_plant(lamps(6))
    diag = fi.build_diagnoser(plant)
    assert (len(diag.states), len(diag.transitions)) == (2723, 9155)
    assert not assert_matches_set_referee(plant).isolatable


def test_estimate_after_interns_only_its_estimate():
    # the walk runs on the estimate graph's positions: of the 2,723 six-lamp
    # estimates, only the initial one and the answer are interned
    aut = lamps(6)
    diag, rng = fi.build_diagnoser(fi.build_labeled_plant(aut)), random.Random(2023)
    est, t = diag.initial, []
    for _ in range(50):
        t.append(rng.choice([obs for src, obs in diag.transitions if src is est]))
        est = diag.transitions[est, t[-1]]
    plant = fi.build_labeled_plant(aut)
    assert fi.estimate_after(plant, t) == est
    assert len(plant.index._estimates) <= 2


def witness_branch(plant, report):
    """The branch of ``check_isolatability`` that ``report`` came from, told
    by the set referee: the bound when isolatable, else whether the witness
    starts at a trapped estimate (no pure estimate reachable) or one that is
    only on a cycle."""
    if report.isolatable:
        return f"bound {report.bound}"
    adj = set_adjacency(set_diagnoser(plant))
    ahead = reach([report.witness_cycle[0]], adj.__getitem__)
    return "on cycle" if any(len(est.fault_labels()) == 1 for est in ahead) else "trapped"


def test_set_referee_covers_every_witness_branch(twin):
    # a trapped witness (twin branch), on-cycle witnesses with no trap
    # (lamps 3-6) and a bound of 2 (the twin branch's closed loop) each
    # agree with the referee; 200 random plants add to the tally
    plant = fi.build_labeled_plant(twin)
    loop = fi.build_closed_loop(plant, fi.synthesize(plant).policy).as_labeled_plant()
    cases = {"twin": plant, "twin loop": loop} | {
        f"lamps{n}": fi.build_labeled_plant(lamps(n)) for n in (3, 4, 5, 6)}
    got = {name: witness_branch(p, assert_matches_set_referee(p)) for name, p in cases.items()}
    assert got == {"twin": "trapped", "twin loop": "bound 2", "lamps3": "on cycle",
                   "lamps4": "on cycle", "lamps5": "on cycle", "lamps6": "on cycle"}
    rng, tally = random.Random(2023), Counter()
    for _ in range(200):
        p = fi.build_labeled_plant(random_plant(rng))
        report = assert_matches_set_referee(p)
        tally[None if report is None else witness_branch(p, report)] += 1
    assert {"trapped", "on cycle", "bound 0", "bound 2"} <= tally.keys(), tally


def test_mixed_is_one_mask_test():
    # a fault-certain mask meets two fault classes exactly when it has a bit
    # outside the class of its lowest bit, on lamps 3-6 and 200 random plants
    rng = random.Random(2023)
    auts = [lamps(n) for n in (3, 4, 5, 6)] + [random_plant(rng) for _ in range(200)]
    for aut in auts:
        plant = fi.build_labeled_plant(aut)
        index = plant.index
        for b, m in enumerate(index.class_of):  # the label masks are disjoint
            assert m >> b & 1 and m in (index.normal, *index.faults)
        for m in reach([index.mask_of(plant.initial_estimate)], index.after):
            if not m & index.normal:
                mixed = m & ~index.class_of[(m & -m).bit_length() - 1] != 0
                assert mixed == (sum(1 for f in index.faults if m & f) >= 2), m


def test_index_orders_states_as_labeled_states(pool):
    # the index sorts state ids by (base, label) keys, in LabeledState order
    for aut in [lamps(n) for n in (3, 4, 5, 6)] + pool:
        plant = fi.build_labeled_plant(aut)
        assert plant.index.members == tuple(sorted(map(plant.member_of, plant.automaton.states)))


def referee_after(index, mask):
    """The uncontrolled step as release, then observe."""
    return sorted(index.observe(index.release(mask)).items())


@pytest.mark.parametrize("aut", [twin_branch()[0], lamps(3), lamps(4), lamps(5)],
                         ids=["twin", "lamps3", "lamps4", "lamps5"])
def test_after_matches_release_then_observe(aut):
    # the step joined from per-state rows equals release-then-observe on
    # every mask reachable from a single state, asked on a fresh plant
    referee = fi.build_labeled_plant(aut).index
    masks = reach([1 << i for i in range(len(referee.members))],
                  lambda m: referee_after(referee, m))
    index = fi.build_labeled_plant(aut).index
    for mask in masks:
        assert index.after(mask) == referee_after(referee, mask), mask


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_after_matches_release_then_observe_random(seed):
    aut = random_plant(random.Random(seed))
    plant, referee = fi.build_labeled_plant(aut), fi.build_labeled_plant(aut).index
    for mask in reach([plant.index.mask_of(plant.initial_estimate)],
                      lambda m: referee_after(referee, m)):
        assert plant.index.after(mask) == referee_after(referee, mask), mask


class _Writes(dict):
    """A dict that counts how often each key is written."""

    def __init__(self):
        super().__init__()
        self.writes = Counter()

    def __setitem__(self, key, value):
        self.writes[key] += 1
        super().__setitem__(key, value)


def spy_steps(monkeypatch, index):
    """Count, on ``index``, the steps per mask and the row writes per bit."""
    steps, real = Counter(), diagnosis.StateIndex.after

    def after(self, mask):
        if self is index:
            steps[mask] += 1
        return real(self, mask)

    monkeypatch.setattr(diagnosis.StateIndex, "after", after)
    index._rows = _Writes()
    return steps, index._rows.writes


def test_check_flow_builds_each_row_once(monkeypatch):
    # the diagnoser and the isolatability test read one estimate graph that
    # steps each mask once, and the rows it joins are built once per state
    plant = fi.build_labeled_plant(lamps(4))
    steps, rows = spy_steps(monkeypatch, plant.index)
    diag = fi.build_diagnoser(plant)
    assert len(steps) == sum(steps.values()) == len(diag.states) == 237
    fi.check_isolatability(plant)
    assert set(steps.values()) == {1} and len(steps) == 237
    assert len(rows) == sum(rows.values()) == len(plant.index.members) == 96


def test_synthesis_and_load_build_each_row_once(monkeypatch):
    # build_bts finds the frontier once, on rows built once per state, and
    # load_supervisor reads it from plant.index
    doc = modelio.parse_model_document(lamps_text(4, "lamps4", "4 lamps"))
    plant = fi.build_labeled_plant(modelio.to_system(doc)[0])
    steps, rows = spy_steps(monkeypatch, plant.index)
    run = fi.synthesize(plant)
    text = modelio.serialize_supervisor(modelio.supervisor_document(
        run.policy, doc, "default", run.result.isolation_bound))
    assert set(steps.values()) == {1} and len(steps) == 32
    modelio.load_supervisor(text, plant, doc)
    assert set(steps.values()) == {1} and len(steps) == 32
    assert len(rows) == sum(rows.values()) == 32


def test_isolatability_is_one_pass(monkeypatch):
    # one walk of the estimate graph that steps each mask once, then one
    # component pass over all of its positions
    plant = fi.build_labeled_plant(lamps(6))
    steps, _ = spy_steps(monkeypatch, plant.index)
    passes, real = [], diagnosis.strongly_connected

    def strongly_connected(n, succ):
        passes.append(n)
        return real(n, succ)

    monkeypatch.setattr(diagnosis, "strongly_connected", strongly_connected)
    assert not fi.check_isolatability(plant).isolatable
    assert set(steps.values()) == {1} and len(steps) == 2723
    assert passes == [len(steps)]


@pytest.mark.parametrize("aut", [twin_branch()[0], lamps(3), lamps(4)],
                         ids=["twin", "lamps3", "lamps4"])
def test_check_and_diagnoser_share_one_walk_in_either_order(monkeypatch, aut):
    # the isolatability test before or after the diagnoser gives the same
    # report and the same diagnoser, and the estimate graph is walked once
    got = []
    for check_first in (False, True):
        plant = fi.build_labeled_plant(aut)
        steps, _ = spy_steps(monkeypatch, plant.index)
        report = fi.check_isolatability(plant) if check_first else None
        diag = fi.build_diagnoser(plant)
        report = report or fi.check_isolatability(plant)
        assert set(steps.values()) == {1} and len(steps) == len(diag.states)
        got.append((report, report.witness_text(), diag.states,
                    list(diag.transitions.items()), len(diag.transitions)))
    assert got[0] == got[1]


@pytest.mark.parametrize("aut", [twin_branch()[0], lamps(3), lamps(5)],
                         ids=["twin", "lamps3", "lamps5"])
def test_diagnoser_table_is_the_referees_dict(aut):
    # the read-only table copies into the set referee's dict, in its order
    plant = fi.build_labeled_plant(aut)
    table, ref = dict(fi.build_diagnoser(plant).transitions), set_diagnoser(plant).transitions
    assert table == ref and list(table) == list(ref)


def test_diagnoser_table_misses_return_none(twin_plant, twin_diagnoser):
    table = twin_diagnoser.transitions
    init, foreign = twin_diagnoser.initial, estimate(twin_plant, "0:N", "6:F2")
    assert foreign not in twin_diagnoser.states
    malformed = [(init, "o2", "z"), (init,), 5, "o2", None]
    for key in [(foreign, "o2"), (init, "zzz"), (init, "a"), (foreign, "zzz"), *malformed]:
        assert table.get(key) is None and key not in table
        with pytest.raises(KeyError):
            table[key]
    assert table.get((init, "o2")) == fi.estimate_after(twin_plant, ["o2"])


def test_check_sequence_interns_only_the_witness_cycle():
    # the benchmark's check reads the diagnoser's sizes and initial estimate,
    # then runs the isolatability test: of the 2,723 six-lamp estimates only
    # the initial one and the four on the witness cycle are interned, with or
    # without the diagnoser
    for build in (True, False):
        plant = fi.build_labeled_plant(lamps(6))
        if build:
            diag = fi.build_diagnoser(plant)
            assert (len(diag.states), len(diag.transitions)) == (2723, 9155)
            assert diag.initial == plant.initial_estimate
        report = fi.check_isolatability(plant)
        interned = set(plant.index._estimates.values())
        assert interned == {plant.initial_estimate, *report.witness_cycle[::2]}
        assert len(interned) == 5


def assert_states_view_is_the_tuple(aut):
    """``Diagnoser.states`` equals the set referee's tuple, built on a fresh
    plant, as a whole, by negative index and by slice, and holds exactly its
    estimates; a lookup keeps no estimate on the index."""
    plant = fi.build_labeled_plant(aut)
    states, ref = fi.build_diagnoser(plant).states, set_diagnoser(fi.build_labeled_plant(aut)).states
    n = len(ref)
    assert states == ref and ref == states and not states != ref and len(states) == n
    assert states != ref[:-1] and states != ref + ref[:1] and states != list(ref)
    assert list(states) == list(ref) and states[0] == ref[0]
    for i in range(-n, 0):
        assert states[i] == ref[i]
    for part in (slice(None), slice(1, None), slice(-2, None), slice(None, None, -1),
                 slice(n // 2, n // 2), slice(-n, n // 2 - n, 2)):
        got = states[part]
        assert type(got) is tuple and got == ref[part]
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            states[i]
    assert all(est in states for est in ref)  # equal, from a fresh plant
    foreign = [fi.StateEstimate(()), estimate(plant, "no such state:N"),
               fi.StateEstimate(plant.index.members)]
    for other in [est for est in foreign if est not in ref] + [
            5, None, "x", ref[0].members, list(ref[0].members), [ref[0]], (ref[0],), ref]:
        assert other not in states, other
    assert plant.index._mask_of.keys() == set(plant.index._estimates.values())  # lookups keep nothing


@pytest.mark.parametrize("aut", [twin_branch()[0], lamps(3), lamps(4), lamps(5)],
                         ids=["twin", "lamps3", "lamps4", "lamps5"])
def test_diagnoser_states_view_is_the_tuple(aut):
    assert_states_view_is_the_tuple(aut)


def test_diagnoser_states_view_is_the_tuple_on_the_pool(pool):
    checked = 0
    for aut in pool:
        if fi.build_labeled_plant(aut).diagnosability.diagnosable:
            assert_states_view_is_the_tuple(aut)
            checked += 1
    assert checked == 1511


def comma_witness_text(first, second):
    """A non-isolatable model whose two mixed cycles print alike: after
    ``first`` the estimate is {aF1, bF2, cF2}, after ``second`` it is {aF1,
    bF2,cF2} with the member ``bF2,c`` labelled F2, and each loops on o3."""
    return ("event f1 fault=1\nevent f2 fault=2\nevent u\n"
            "event o1 obs\nevent o2 obs\nevent o3 obs\ninit s\n"
            "trans s f1 a1\ntrans s f2 t\ntrans s u w\ntrans w f2 t2\n"
            f"trans a1 o1 a\ntrans a1 o2 a\ntrans t {first} b\ntrans t {second} bF2,c\n"
            f"trans t2 {first} c\ntrans a o3 a\ntrans b o3 b\ntrans c o3 c\n"
            "trans bF2,c o3 bF2,c\n")


@pytest.mark.parametrize("first,second", [("o1", "o2"), ("o2", "o1")])
def test_witness_of_estimates_that_print_alike_goes_by_position(first, second):
    doc = modelio.parse_model_document(comma_witness_text(first, second))
    plant = fi.build_labeled_plant(modelio.to_system(doc)[0])
    states = fi.build_diagnoser(plant).states
    assert len(states) == 3 and str(states[1]) == str(states[2]) and states[1] != states[2]
    report = fi.check_isolatability(plant)
    assert report.witness_cycle == (states[1], "o3", states[1]) == printed_witness(plant)


def test_witness_is_the_printed_rule(pool):
    # the witness picked on masks is the one picked by printing interned
    # estimates, on lamps 3-7 and on every diagnosable plant of the pool
    auts = [lamps(n) for n in (3, 4, 5, 6, 7)]
    auts += [aut for aut in pool if fi.build_labeled_plant(aut).diagnosability.diagnosable]
    cyclic = 0
    for aut in auts:
        plant = fi.build_labeled_plant(aut)
        report = fi.check_isolatability(plant)
        assert report.witness_cycle == printed_witness(plant)
        cyclic += not report.isolatable
    assert cyclic == 5 + 955  # the 1,511 diagnosable pool plants, 556 passively isolatable
