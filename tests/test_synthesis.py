"""Bipartite system construction, deadlock pruning, good-state fixpoint,
supervisor extraction."""
from __future__ import annotations

import gc
import random
import weakref
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import faultiso as fi
from faultiso.errors import InvalidArgumentError, NotDiagnosableError, SynthesisError
from faultiso import synthesis
from faultiso.dotexport import export_bts_dot
from faultiso.gallery import lamps, twin_branch
from faultiso.synthesis import TIE_BREAK_MODES, ZState

from conftest import estimate, names
from oracles import (
    brute_zstate_deadlock,
    enumerated_decisions,
    ids_of,
    old_enforceable,
    oracle_good_states,
    oracle_solvable,
    per_decision_bad_initials,
    per_decision_bts,
    per_decision_deadlocks,
    per_decision_prune,
    round_scan_fixpoint,
    set_observable_reach,
    set_released,
    split_trace,
)
from plantgen import random_plant


def variant_without_enforceable_o3(twin):
    events = tuple(
        fi.Event(e.name, e.observable, e.controllable, False if e.name == "o3" else e.forcible,
                 e.fault_type)
        for e in twin.table.events)
    return fi.Automaton(fi.EventTable(events), twin.states, twin.initial,
                        dict(twin.transitions))


def test_fault_frontier(twin_plant):
    assert names(fi.fault_frontier(twin_plant)) == ["{1F1,6F2}", "{2F1,7F2}"]


def test_fault_frontier_immediate_certainty():
    table = fi.EventTable((fi.Event("f", fault_type=1),
                           fi.Event("o1", observable=True),
                           fi.Event("o2", observable=True)))
    aut = fi.Automaton(table, frozenset({"0", "1"}), "0",
                       {("0", "f"): "1", ("0", "o1"): "0", ("1", "o2"): "1"})
    plant = fi.build_labeled_plant(aut)
    assert names(fi.fault_frontier(plant)) == ["{1F1}"]


def test_fault_frontier_requires_diagnosable():
    table = fi.EventTable((fi.Event("f", fault_type=1), fi.Event("o1", observable=True)))
    aut = fi.Automaton(table, frozenset({"0", "1"}), "0",
                       {("0", "f"): "1", ("0", "o1"): "0", ("1", "o1"): "1"})
    plant = fi.build_labeled_plant(aut)
    with pytest.raises(NotDiagnosableError):
        fi.fault_frontier(plant)


def test_feasible_decisions_frontier(twin_plant):
    est = estimate(twin_plant, "1:F1", "6:F2")
    decs = fi.feasible_decisions(twin_plant, est)
    assert [str(d) for d in decs] == ["<~,{}>", "<~,{o3}>", "<o1,{}>", "<o2,{}>"]
    assert len(decs) == 4


def test_feasible_decisions_trap_state(twin_plant):
    est = estimate(twin_plant, "5:F1", "9:F2")
    decs = fi.feasible_decisions(twin_plant, est)
    assert [str(d) for d in decs] == ["<~,{}>", "<~,{o3}>", "<o3,{}>"]


def test_feasible_decisions_nothing_available():
    table = fi.EventTable((fi.Event("f", fault_type=1),
                           fi.Event("o1", observable=True),
                           fi.Event("o2", observable=True)))
    aut = fi.Automaton(table, frozenset({"0", "1"}), "0",
                       {("0", "f"): "1", ("0", "o1"): "0", ("1", "o2"): "1"})
    plant = fi.build_labeled_plant(aut)
    est = estimate(plant, "1:F1")
    assert [str(d) for d in fi.feasible_decisions(plant, est)] == ["<~,{}>"]


def test_observable_reach_enforced_observable(twin_plant):
    est = estimate(twin_plant, "2:F1", "7:F2")
    dec = fi.ControlDecision("o3", frozenset())
    assert str(fi.observable_reach(twin_plant, est, dec, "o3")) == "{3F1,8F2}"
    assert fi.observable_reach(twin_plant, est, dec, "o1") is None


def test_observable_reach_self_loop(twin_plant):
    est = estimate(twin_plant, "1:F1", "6:F2")
    dec = fi.ControlDecision("o1", frozenset())
    assert fi.observable_reach(twin_plant, est, dec, "o1") == est


def test_observable_reach_no_control(twin_plant):
    est = estimate(twin_plant, "2:F1", "7:F2")
    assert str(fi.observable_reach(twin_plant, est, fi.NO_CONTROL, "o4")) == "{5F1,9F2}"


def test_observable_reach_enforced_unobservable(twin_plant):
    est = estimate(twin_plant, "2:F1", "7:F2")
    dec = fi.ControlDecision("a", frozenset())
    assert str(fi.observable_reach(twin_plant, est, dec, "o4")) == "{5F1,9F2}"
    assert fi.observable_reach(twin_plant, est, dec, "o3") is None


def test_observable_reach_infeasible_decision(twin_plant):
    est = estimate(twin_plant, "1:F1", "6:F2")
    with pytest.raises(ValueError):
        fi.observable_reach(twin_plant, est, fi.ControlDecision("o3", frozenset()), "o3")


def test_observable_reach_ignores_disable_under_observable_enforce(twin_plant):
    # canonicalisation soundness: with an observable enforced event the
    # disable set cannot change the reach
    est = estimate(twin_plant, "2:F1", "7:F2")
    plain = fi.ControlDecision("o3", frozenset())
    noisy = fi.ControlDecision("o3", frozenset({"o3"}))
    assert fi.observable_reach(twin_plant, est, plain, "o3") \
        == fi.observable_reach(twin_plant, est, noisy, "o3")


def test_observable_reach_checks_decision_events(twin_plant):
    # an unknown event is reported as such, whether enforced or disabled
    est = estimate(twin_plant, "2:F1", "7:F2")
    for dec in (fi.ControlDecision("o3", frozenset({"bogus"})), fi.ControlDecision("bogus")):
        with pytest.raises(InvalidArgumentError, match="^unknown event: bogus$"):
            fi.observable_reach(twin_plant, est, dec, "o3")


def outcome(step, *args):
    """What ``step(*args)`` returns, or the type and message it raises."""
    try:
        return step(*args)
    except InvalidArgumentError as exc:
        return type(exc), str(exc)


def assert_mask_step_matches_set_step(plant):
    """For every Y-state, feasible decision and observation: the released
    states and the observable reach equal the set-based referee's, also when
    asked again with a fresh copy of the Y-state, which reads the step kept on
    ``plant.index`` (a raise raises again).  The verdict kept on an interned
    estimate equals a fresh copy's and stays the same on a second call."""
    index, observable = plant.index, sorted(plant.table.observable_events)
    for y in fi.build_bts(plant).y_states:
        interned, copy = index.estimate(index.mask_of(y)), fi.StateEstimate.of(y)
        verdict = fi.classify(interned)
        assert fi.classify(copy) == verdict == fi.classify(interned)
        for dec in fi.feasible_decisions(plant, y):
            released = synthesis._released(index, index.mask_of(y), dec)
            assert ids_of(plant, index.estimate(released)) \
                == set_released(plant, ids_of(plant, y), dec)
            for obs in observable:
                assert outcome(fi.observable_reach, plant, y, dec, obs) \
                    == outcome(set_observable_reach, plant, y, dec, obs)
                again = outcome(fi.observable_reach, plant, copy, dec, obs)
                assert again == outcome(set_observable_reach, plant, y, dec, obs)


def test_mask_step_matches_set_step(twin_plant):
    assert_mask_step_matches_set_step(twin_plant)
    assert_mask_step_matches_set_step(fi.build_labeled_plant(lamps(3)))
    rng, checked = random.Random(2023), 0
    for _ in range(200):
        plant = fi.build_labeled_plant(random_plant(rng))
        if plant.diagnosability.diagnosable:
            assert_mask_step_matches_set_step(plant)
            checked += 1
    assert checked >= 100


def fifteenth_seed_2023_plant():
    rng = random.Random(2023)
    for _ in range(14):
        random_plant(rng)
    return random_plant(rng)  # control reaches 8 estimates the diagnoser never does


@pytest.mark.parametrize("aut, fresh", [(lamps(3), 0), (fifteenth_seed_2023_plant(), 8)],
                         ids=["three-lamps", "seed-2023-plant-15"])
def test_build_bts_builds_one_estimate_per_y_state(monkeypatch, aut, fresh):
    # every estimate is built once, by the diagnoser or by build_bts, and
    # build_bts builds Y-states only, none from state ids
    plant = fi.build_labeled_plant(aut)
    built = []
    real = fi.StateEstimate._of_sorted.__func__

    def spy(cls, members):
        built.append(real(cls, members))
        return built[-1]

    def forbidden(*args):
        raise AssertionError("build_bts builds no estimate from state ids")

    monkeypatch.setattr(fi.StateEstimate, "_of_sorted", classmethod(spy))
    known = set(fi.build_diagnoser(plant).states)
    before = len(built)
    monkeypatch.setattr(fi.LabeledPlant, "estimate_of", forbidden)
    bts = fi.build_bts(plant)
    assert len(set(built)) == len(built)
    assert {id(y) for y in bts.y_states} <= set(map(id, built))
    new = [y for y in bts.y_states if y not in known]
    assert len(new) == fresh and list(map(id, built[before:])) == list(map(id, new))


def test_policy_graph_releases_once_per_estimate(monkeypatch):
    plant = fi.build_labeled_plant(lamps(3))
    policy = fi.synthesize(plant).policy
    calls = []
    real = synthesis._release

    def spy(plant, est, dec):
        calls.append(est)
        return real(plant, est, dec)

    monkeypatch.setattr(synthesis, "_release", spy)
    graph = fi.policy_graph(plant, policy)
    assert sorted(calls, key=str) == sorted(graph, key=str)


def test_synthesised_plant_is_freed_without_the_cyclic_gc():
    # the mask tables live on the plant's index, which points back at
    # nothing: dropping the plant frees it at once
    gc.disable()
    try:
        plant = fi.build_labeled_plant(lamps(3))
        policy = fi.synthesize(plant).policy
        fi.policy_graph(plant, policy)
        cl = fi.build_closed_loop(plant, policy)
        fi.replay(plant, policy, ["a_on", "e1", "a_off", "e0"])
        diag = fi.build_diagnoser(plant)
        refs = weakref.ref(plant), weakref.ref(plant.index), weakref.ref(diag)
        del plant, diag
        assert [ref() for ref in refs] == [None, None, None]
        assert cl.policy is policy
    finally:
        gc.enable()


def test_synthesis_graphs_are_freed_without_the_cyclic_gc():
    # a view holds its graph and the graph holds its views weakly, so once
    # the sizes are read and the run is dropped the graphs are freed at once
    gc.disable()
    try:
        run = fi.synthesize(fi.build_labeled_plant(lamps(3)))
        views = run.bts.z_states, run.bts.zy_edges, run.deadlocks, run.live.z_states
        assert run.bts.z_states is views[0] and run.bts._deadlocks is views[2]
        assert [len(v) for v in views] == [3397, 5829, 91, 3306]
        refs = weakref.ref(run.bts), weakref.ref(run.live)
        del run, views
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def test_bts_shape(twin_bts):
    assert names(twin_bts.y_states) == [
        "{1F1,6F2}", "{2F1,7F2}", "{3F1,8F2}", "{3F1}", "{5F1,9F2}", "{8F2}"]
    assert names(twin_bts.initial) == ["{1F1,6F2}", "{2F1,7F2}"]
    assert names(twin_bts.marked) == ["{3F1}", "{8F2}"]
    assert len(twin_bts.z_states) == 20


def test_bts_structural_audit(twin_plant, twin_bts):
    for (z, obs), dst in twin_bts.zy_edges.items():
        assert obs not in z.decision.disable or obs == z.decision.enforce
        assert fi.observable_reach(twin_plant, z.estimate, z.decision, obs) == dst


def test_bts_y_states_fault_certain(twin_bts):
    for y in twin_bts.y_states:
        assert fi.classify(y).detection == "F"


def test_bts_frontier_already_marked():
    table = fi.EventTable((fi.Event("f", fault_type=1),
                           fi.Event("o1", observable=True),
                           fi.Event("o2", observable=True)))
    aut = fi.Automaton(table, frozenset({"0", "1"}), "0",
                       {("0", "f"): "1", ("0", "o1"): "0", ("1", "o2"): "1"})
    plant = fi.build_labeled_plant(aut)
    bts = fi.build_bts(plant)
    assert bts.initial <= bts.marked


def test_bts_collapses_without_control():
    # no forcible and no controllable events: one decision per estimate
    table = fi.EventTable((fi.Event("f", fault_type=1),
                           fi.Event("o1", observable=True),
                           fi.Event("o2", observable=True)))
    aut = fi.Automaton(table, frozenset({"0", "1"}), "0",
                       {("0", "f"): "1", ("0", "o1"): "0", ("1", "o2"): "1"})
    plant = fi.build_labeled_plant(aut)
    bts = fi.build_bts(plant)
    for y in bts.y_states:
        assert [str(d) for d in bts.decisions_of(y)] == ["<~,{}>"]


def test_bts_cap(twin_plant):
    with pytest.raises(fi.ResourceLimitError):
        fi.build_bts(twin_plant, max_states=3)


def test_deadlocks_exactly_one(twin_plant, twin_bts):
    deadlocks = fi.find_deadlocks(twin_plant, twin_bts)
    assert [str(z) for z in deadlocks] == ["({5F1,9F2},<~,{o3}>)"]


def test_deadlocks_match_brute_force(twin_plant, twin_bts):
    deadlocks = fi.find_deadlocks(twin_plant, twin_bts)
    for z in twin_bts.z_states:
        assert (z in deadlocks) == brute_zstate_deadlock(
            twin_plant, z.estimate, z.decision), str(z)


def test_no_control_never_deadlocks(twin_plant, twin_bts):
    deadlocks = fi.find_deadlocks(twin_plant, twin_bts)
    for z in twin_bts.z_states:
        if z.decision == fi.NO_CONTROL:
            assert z not in deadlocks


def test_prune_live(twin_plant, twin_bts):
    deadlocks = fi.find_deadlocks(twin_plant, twin_bts)
    liv = fi.prune_live(twin_bts, deadlocks)
    assert len(liv.z_states) == len(twin_bts.z_states) - 1
    assert set(liv.y_states) == set(twin_bts.y_states)


def test_prune_live_rejects_losing_every_decision():
    # built by hand, past the assumption check: state 2 has no event at all,
    # so even doing nothing deadlocks at {2F1}
    table = fi.EventTable((fi.Event("f", fault_type=1),
                           fi.Event("o1", observable=True),
                           fi.Event("o2", observable=True)))
    aut = fi.Automaton(table, frozenset({"0", "1", "2"}), "0",
                       {("0", "f"): "1", ("0", "o1"): "0", ("1", "o2"): "2"})
    label = {"0": "N", "1": "F1", "2": "F1"}
    plant = fi.LabeledPlant(aut, {q: q for q in label}, label,
                            {(q, lab): q for q, lab in label.items()})
    bts = fi.build_bts(plant)
    with pytest.raises(InvalidArgumentError, match="lost all decisions"):
        fi.prune_live(bts, fi.find_deadlocks(plant, bts))


def test_prune_removes_unreachable():
    # {3F1} arises only by disabling c, and that same decision strands the
    # plant at state 5, so the estimate disappears with the deadlock Z-state
    table = fi.EventTable((
        fi.Event("f", fault_type=1), fi.Event("u"),
        fi.Event("c", controllable=True),
        fi.Event("o0", observable=True), fi.Event("o1", observable=True),
    ))
    aut = fi.Automaton(table, frozenset({"0", "1", "2", "3", "5", "6", "7"}), "0", {
        ("0", "o0"): "0", ("0", "f"): "1", ("1", "o1"): "2",
        ("2", "u"): "5", ("2", "o1"): "3",
        ("5", "c"): "6", ("6", "o1"): "7",
        ("3", "o1"): "3", ("7", "o1"): "7",
    })
    plant = fi.build_labeled_plant(aut)
    bts = fi.build_bts(plant)
    deadlocks = fi.find_deadlocks(plant, bts)
    assert [str(z) for z in deadlocks] == ["({2F1},<~,{c}>)"]
    liv = fi.prune_live(bts, deadlocks)
    assert "{3F1}" in names(bts.y_states)
    assert "{3F1}" not in names(liv.y_states)


def test_good_fixpoint_fixture(twin_pipeline):
    deadlocks, bts_liv, result, policy = twin_pipeline
    assert names(result.good_y) == [
        "{1F1,6F2}", "{2F1,7F2}", "{3F1,8F2}", "{3F1}", "{8F2}"]
    assert "{5F1,9F2}" not in names(result.good_y)
    assert result.solvable
    assert len(result.good_z) == 13
    z_names = {str(z) for z in result.good_z}
    assert "({2F1,7F2},<o3,{}>)" in z_names
    assert "({3F1,8F2},<~,{}>)" in z_names


def test_good_fixpoint_rounds_monotone(twin_pipeline):
    _, bts_liv, result, _ = twin_pipeline
    # every good Y-state's chosen decision leads only to earlier-round states
    for y, dec in result.policy.items():
        for _, dst in bts_liv.observations_of(ZState(y, dec)):
            assert result.rounds[dst] <= max(result.rounds[y] - 1, 0)


def test_policy_reaches_marked_within_bound(twin_plant, twin_pipeline):
    _, bts_liv, result, policy = twin_pipeline
    graph = fi.policy_graph(twin_plant, policy)
    # along every branch, a marked estimate appears within isolation_bound steps
    def depth_to_marked(y, seen):
        if y in bts_liv.marked:
            return 0
        assert y not in seen, "cycle before reaching a marked estimate"
        return 1 + max(depth_to_marked(dst, seen | {y}) for _, dst in graph[y])
    for y0 in bts_liv.initial:
        assert depth_to_marked(y0, frozenset()) <= result.isolation_bound


def test_every_good_state_forces_marked_within_its_round(twin_pipeline):
    # soundness from anywhere good, not just the initial frontier: the chosen
    # decision reaches a marked estimate within the state's fixpoint round
    _, bts_liv, result, _ = twin_pipeline

    def depth_to_marked(y, seen):
        if y in bts_liv.marked:
            return 0
        assert y not in seen, "cycle before reaching a marked estimate"
        return 1 + max(depth_to_marked(dst, seen | {y})
                       for _, dst in bts_liv.observations_of(ZState(y, result.policy[y])))

    for y in result.good_y:
        assert depth_to_marked(y, frozenset()) <= result.rounds[y]


def test_good_states_match_policy_enumeration(twin_pipeline):
    _, bts_liv, result, _ = twin_pipeline
    oracle = oracle_good_states(bts_liv, cap=100000)
    assert oracle is not None
    assert oracle == set(result.good_y)


def test_unsolvable_variant(twin):
    aut = variant_without_enforceable_o3(twin)
    run = fi.synthesize(fi.build_labeled_plant(aut))
    result = run.result
    assert not result.solvable
    assert result.isolation_bound is None
    assert "{2F1,7F2}" not in names(result.good_y)
    with pytest.raises(SynthesisError) as exc:
        run.policy
    assert exc.value.bad_initials
    enumerated = oracle_solvable(run.live, cap=100000)
    assert enumerated is False


def test_solvability_flips_with_enforceability(twin, twin_pipeline):
    # the same plant is solvable exactly when o3 can be enforced
    _, _, result, _ = twin_pipeline
    assert result.solvable
    aut = variant_without_enforceable_o3(twin)
    assert not fi.synthesize(fi.build_labeled_plant(aut)).result.solvable


def test_extracted_policy_decisions(twin_pipeline):
    _, _, result, policy = twin_pipeline
    by_name = {str(y): str(d) for y, d in policy.decisions.items()}
    assert by_name["{2F1,7F2}"] == "<o3,{}>"
    assert by_name["{1F1,6F2}"] == "<o2,{}>"
    assert by_name["{3F1,8F2}"] == "<~,{}>"
    assert by_name["{3F1}"] == "<~,{}>"
    assert by_name["{8F2}"] == "<~,{}>"


def test_tie_break_paper_example_mode(twin_plant):
    run = fi.synthesize(twin_plant, tie_break="paper-example")
    by_name = {str(y): str(d) for y, d in run.result.policy.items()}
    assert by_name["{1F1,6F2}"] == "<o2,{}>"
    assert by_name["{3F1}"] == "<o1,{}>"  # prefers enforcing
    with pytest.raises(ValueError):
        fi.good_fixpoint(run.live, run.deadlocks, tie_break="nonsense")


def test_synthesize_rejects_unknown_tie_break_before_building(twin_plant, monkeypatch):
    def unreachable(plant):
        raise AssertionError("build_bts ran before the tie-break was checked")

    monkeypatch.setattr(synthesis, "build_bts", unreachable)
    with pytest.raises(InvalidArgumentError, match="nonsense"):
        fi.synthesize(twin_plant, "nonsense")


def test_absorbing_mixed_frontier_unsolvable():
    # both classes loop on the same observation with nothing to enforce or
    # disable: the frontier estimate is an absorbing mixed self-loop
    table = fi.EventTable((
        fi.Event("f1", fault_type=1), fi.Event("f2", fault_type=2),
        fi.Event("w", observable=True), fi.Event("o", observable=True),
    ))
    aut = fi.Automaton(table, frozenset({"0", "1", "2"}), "0", {
        ("0", "w"): "0", ("0", "f1"): "1", ("0", "f2"): "2",
        ("1", "o"): "1", ("2", "o"): "2",
    })
    run = fi.synthesize(fi.build_labeled_plant(aut))
    assert not run.result.solvable
    assert oracle_solvable(run.live, cap=1000) is False


def test_marked_frontier_zero_step():
    table = fi.EventTable((fi.Event("f", fault_type=1),
                           fi.Event("o1", observable=True),
                           fi.Event("o2", observable=True)))
    aut = fi.Automaton(table, frozenset({"0", "1"}), "0",
                       {("0", "f"): "1", ("0", "o1"): "0", ("1", "o2"): "1"})
    run = fi.synthesize(fi.build_labeled_plant(aut))
    assert run.result.solvable and run.result.isolation_bound == 0
    assert set(run.policy.decisions) >= set(run.bts.initial)


@pytest.mark.parametrize("mode", TIE_BREAK_MODES)
def test_synthesize_runs_the_stages_in_order(twin, mode):
    for aut in (twin, variant_without_enforceable_o3(twin), lamps(3)):
        plant = fi.build_labeled_plant(aut)
        run = fi.synthesize(plant, tie_break=mode)
        bts = fi.build_bts(plant)
        deadlocks = fi.find_deadlocks(plant, bts)
        live = fi.prune_live(bts, deadlocks)
        result = fi.good_fixpoint(live, deadlocks, tie_break=mode)
        assert (run.bts.y_states, tuple(run.bts.z_states)) == (bts.y_states, tuple(bts.z_states))
        assert run.deadlocks == deadlocks and run.result.deadlocks is run.deadlocks
        assert (run.live.y_states, tuple(run.live.z_states)) == (live.y_states,
                                                                 tuple(live.z_states))
        assert list(run.result.policy.items()) == list(result.policy.items())
        assert (run.result.good_y, run.result.rounds, run.result.isolation_bound) == (
            result.good_y, result.rounds, result.isolation_bound)
        if result.solvable:
            assert run.policy is run.policy
            assert run.policy == fi.extract_supervisor(result, live)
        else:
            with pytest.raises(SynthesisError) as exc:
                run.policy
            assert exc.value.bad_initials


def test_split_trace():
    d1 = fi.ControlDecision("o3", frozenset())
    d2 = fi.NO_CONTROL
    decisions, observations = split_trace([d1, "o3", d2, "o1"])
    assert decisions == (d1, d2)
    assert observations == ("o3", "o1")
    assert split_trace([]) == ((), ())
    assert split_trace(["o1", "o2"]) == ((), ("o1", "o2"))


def expanded_view(g):
    """The graph as its callers read it: the states in order, each Y-state's
    decisions and each Z-state's ``(obs, Y-state)`` edges."""
    return (tuple(g.y_states), tuple(g.z_states),
            [g.decisions_of(y) for y in g.y_states],
            [g.observations_of(z) for z in g.z_states])


def assert_index_matches_edge_maps(g):
    n_edges, n_z = len(g.zy_edges), len(g.z_states)
    zy = dict(g.zy_edges)
    assert n_edges == len(zy)
    assert n_z == len(set(g.z_states))
    view = expanded_view(g)
    listed = {}
    for z in g.z_states:
        assert z in g.z_states
        listed.setdefault(z.estimate, []).append(z.decision)
    # z_states lists each Y-state's Z-states in decision order
    assert {y: tuple(decs) for y, decs in listed.items()} == {
        y: decs for y, decs in zip(g.y_states, view[2]) if decs}
    for (z, obs), dst in zy.items():
        assert g.zy_edges[(z, obs)] == dst
    marked = with_marked(g, frozenset(g.y_states[::2]))
    assert expanded_view(marked) == view
    assert (len(marked.z_states), len(marked.zy_edges)) == (n_z, n_edges)


def with_marked(g, marked):
    """``g`` with another target set, built by the one constructor."""
    return fi.BTSGraph(g.y_states, g.initial, marked, g._y_effects, g._effects, g._live)


def assert_built_and_pruned_index_match(plant):
    bts = fi.build_bts(plant)
    assert_index_matches_edge_maps(bts)
    assert_index_matches_edge_maps(fi.prune_live(bts, fi.find_deadlocks(plant, bts)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_id_index_matches_edge_maps(seed):
    rng = random.Random(seed)
    while True:
        plant = fi.build_labeled_plant(random_plant(rng, max_states=8))
        if plant.diagnosability.diagnosable:
            break
    assert_built_and_pruned_index_match(plant)


def test_id_index_matches_edge_maps_three_lamps():
    assert_built_and_pruned_index_match(fi.build_labeled_plant(lamps(3)))


def test_synthesis_never_materialises_edge_maps(monkeypatch, twin):
    def refuse(self, *args):
        raise AssertionError("edge maps read on the synthesis path")

    monkeypatch.setattr(synthesis._ZYEdges, "__iter__", refuse)
    monkeypatch.setattr(synthesis._ZYEdges, "__getitem__", refuse)
    solved = []
    for aut in (twin, variant_without_enforceable_o3(twin)):
        run = fi.synthesize(fi.build_labeled_plant(aut))
        bts = run.bts
        assert len(bts.zy_edges) == sum(len(bts.observations_of(z)) for z in bts.z_states)
        export_bts_dot(run.live, result=run.result)
        try:
            run.policy
            solved.append(True)
        except SynthesisError as exc:
            assert exc.bad_initials
            solved.append(False)
    assert solved == [True, False]


def test_synthesis_builds_no_zstate(monkeypatch, twin):
    # the stages and the sizes the benchmark reads work on effects; a
    # Z-state object is built only when a caller iterates a view
    def refuse(self, *args):
        raise AssertionError("Z-state built on the synthesis path")

    monkeypatch.setattr(ZState, "__init__", refuse)
    solved = []
    for aut in (twin, variant_without_enforceable_o3(twin), lamps(3)):
        run = fi.synthesize(fi.build_labeled_plant(aut))
        bts, result = run.bts, run.result
        sizes = [len(bts.y_states), len(bts.z_states), len(bts.zy_edges), len(run.deadlocks),
                 len(run.live.z_states), len(result.good_y), len(result.good_z)]
        assert all(sizes[:2]) and sizes[1] >= sizes[4] >= sizes[6]
        try:
            run.policy
            solved.append(True)
        except SynthesisError as exc:
            assert exc.bad_initials
            solved.append(False)
    assert solved == [True, False, True]
    assert sizes[1] == 3397 and sizes[3] == 91  # three lamps
    for view in (bts.z_states, run.deadlocks, result.good_z):  # the guard is armed
        with pytest.raises(AssertionError, match="Z-state built"):
            next(iter(view))


def test_graph_rejects_states_it_does_not_hold(twin_plant, twin_pipeline):
    _, liv, _, _ = twin_pipeline
    outside = twin_plant.initial_estimate
    assert outside not in liv.y_states
    calls = [
        lambda: liv.decisions_of(outside),
        lambda: liv.observations_of(ZState(outside, fi.NO_CONTROL)),
    ]
    for call in calls:
        with pytest.raises(InvalidArgumentError):
            call()
    assert ZState(outside, fi.NO_CONTROL) not in liv.z_states


def _live_graph(plant):
    bts = fi.build_bts(plant)
    deadlocks = fi.find_deadlocks(plant, bts)
    return fi.prune_live(bts, deadlocks), deadlocks


def assert_matches_round_scan(bts_liv, deadlocks):
    for mode in TIE_BREAK_MODES:
        got = fi.good_fixpoint(bts_liv, deadlocks, tie_break=mode)
        want = round_scan_fixpoint(bts_liv, deadlocks, tie_break=mode)
        assert got.good_y == want.good_y
        assert got.good_z == want.good_z
        assert got.rounds == want.rounds
        assert list(got.policy.items()) == list(want.policy.items())
        assert got.solvable == want.solvable
        assert got.isolation_bound == want.isolation_bound


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_good_fixpoint_matches_round_scan(seed):
    rng = random.Random(seed)
    while True:
        plant = fi.build_labeled_plant(random_plant(rng, max_states=8))
        if plant.diagnosability.diagnosable:
            break
    bts_liv, deadlocks = _live_graph(plant)
    assert_matches_round_scan(bts_liv, deadlocks)
    # the game is defined on any graph, deadlocking decisions included
    assert_matches_round_scan(fi.build_bts(plant), deadlocks)
    # the game is defined for any target set; an arbitrary one also reaches
    # marked states whose decisions leave the marked set
    marked = frozenset(y for y in bts_liv.y_states if rng.random() < 0.3)
    assert_matches_round_scan(with_marked(bts_liv, marked), deadlocks)


def test_good_fixpoint_matches_round_scan_three_lamps():
    assert_matches_round_scan(*_live_graph(fi.build_labeled_plant(lamps(3))))


def assert_same_graph(g, ref):
    """The effect graph's expanded views equal the per-decision referee's."""
    assert g.y_states == ref.y_states
    assert (g.initial, g.marked) == (ref.initial, ref.marked)
    assert tuple(g.z_states) == ref.z_states and len(g.z_states) == len(ref.z_states)
    assert list(g.zy_edges.items()) == list(ref.zy_edges.items())
    assert len(g.zy_edges) == len(ref.zy_edges)
    for y in ref.y_states:
        assert g.decisions_of(y) == ref.decisions_of(y)
    for z in ref.z_states:
        assert z in g.z_states
        assert g.observations_of(z) == ref.observations_of(z)


def assert_same_fixpoint(g, ref, deadlocks, ref_deadlocks):
    for mode in TIE_BREAK_MODES:
        got = fi.good_fixpoint(g, deadlocks, tie_break=mode)
        want = round_scan_fixpoint(ref, ref_deadlocks, tie_break=mode)
        assert got.good_y == want.good_y
        assert got.good_z == want.good_z and len(got.good_z) == len(want.good_z)
        assert got.rounds == want.rounds
        assert list(got.policy.items()) == list(want.policy.items())
        assert (got.solvable, got.isolation_bound) == (want.solvable, want.isolation_bound)
        try:
            fi.extract_supervisor(got, g)
            assert got.solvable
        except SynthesisError as exc:
            bad = per_decision_bad_initials(ref, want.good_y)
            assert list(exc.bad_initials.items()) == list(bad.items())


def assert_matches_per_decision(plant, rng):
    """Build, deadlocks, pruning and fixpoint on effects against the
    per-decision referee; returns how many Y-states deadlock pruning
    dropped."""
    bts, ref = fi.build_bts(plant), per_decision_bts(plant)
    assert_same_graph(bts, ref)
    deadlocks, ref_deadlocks = fi.find_deadlocks(plant, bts), per_decision_deadlocks(plant, ref)
    assert deadlocks == ref_deadlocks and len(deadlocks) == len(ref_deadlocks)
    assert all((z in deadlocks) == (z in ref_deadlocks) for z in ref.z_states)
    live, ref_live = fi.prune_live(bts, deadlocks), per_decision_prune(ref, ref_deadlocks)
    assert_same_graph(live, ref_live)
    assert_same_fixpoint(live, ref_live, deadlocks, ref_deadlocks)
    marked = frozenset(y for y in ref_live.y_states if rng.random() < 0.3)
    assert_same_fixpoint(with_marked(live, marked), replace(ref_live, marked=marked),
                         deadlocks, ref_deadlocks)
    assert not any(z in live.z_states for z in deadlocks)
    return len(bts.y_states) - len(live.y_states)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_classes_match_per_decision_referee(seed):
    rng = random.Random(seed)
    while True:
        plant = fi.build_labeled_plant(random_plant(rng, max_states=8))
        if plant.diagnosability.diagnosable:
            break
    assert_matches_per_decision(plant, rng)


def test_classes_match_per_decision_referee_three_lamps():
    plant = fi.build_labeled_plant(lamps(3))
    assert len(fi.build_bts(plant)._effects) < len(per_decision_bts(plant).z_states)
    assert_matches_per_decision(plant, random.Random(3))


def test_deadlock_pruning_renumbers_y_states():
    # the first generated plant whose deadlock pruning drops Y-states
    # (9 in 2,240 random diagnosable plants do)
    plant = fi.build_labeled_plant(random_plant(random.Random(1016), max_states=8))
    assert plant.diagnosability.diagnosable
    assert assert_matches_per_decision(plant, random.Random(1016)) > 0
    assert_built_and_pruned_index_match(plant)


def assert_feasible_decisions_match(plant):
    """The solver's decision menu against the referee's own enumeration, on
    every Y-state the per-decision referee visits."""
    for y in per_decision_bts(plant).y_states:
        assert fi.feasible_decisions(plant, y) == enumerated_decisions(plant, y)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_feasible_decisions_match_enumeration(seed):
    rng = random.Random(seed)
    while True:
        plant = fi.build_labeled_plant(random_plant(rng, max_states=8))
        if plant.diagnosability.diagnosable:
            break
    assert_feasible_decisions_match(plant)


@pytest.mark.parametrize("model", ["twin_branch", "three_lamps", "random_1016"])
def test_feasible_decisions_match_enumeration_on_fixed_plants(model):
    aut = {"twin_branch": lambda: twin_branch()[0], "three_lamps": lambda: lamps(3),
           "random_1016": lambda: random_plant(random.Random(1016), max_states=8)}[model]()
    assert_feasible_decisions_match(fi.build_labeled_plant(aut))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 8).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(0, 2 ** n - 1), max_size=6),
    st.integers(0, 2 ** n - 1))))
def test_count_subsets_matches_enumeration(case):
    n, blockers, must = case
    subsets = [s for s in range(1 << n) if s & must == must]
    hit = sum(any(b & s == b for b in blockers) for s in subsets)
    assert synthesis._unblocked(n, (), must) == len(subsets)
    for family in (blockers, synthesis._antichain(blockers)):
        assert synthesis._unblocked(n, family, must) == len(subsets) - hit


def diagnosable_pool(n):
    """The diagnosable plants among the first ``n`` of the seed-2023 pool."""
    rng = random.Random(2023)
    plants = [fi.build_labeled_plant(random_plant(rng)) for _ in range(n)]
    return [p for p in plants if p.diagnosability.diagnosable]


def test_effect_counts_match_enumeration():
    # each effect's closed-form count of member decisions that disable at
    # least ``must`` (and, for live, do not deadlock), against enumerating
    # its masks, with ``must`` empty and each single bit
    plants = [fi.build_labeled_plant(lamps(n)) for n in (3, 4)] + diagnosable_pool(200)
    for plant in plants:
        for e in fi.build_bts(plant)._effects:
            n = len(e.bits)
            for must in [0] + [1 << k for k in range(n)]:
                members = [m for m in range(1 << n) if m & must == must]
                live = [m for m in members if not e.blocked(m)]
                assert e.count(must) == len(members) * 2 ** len(e.free)
                assert e.count(must, live=True) == len(live) * 2 ** len(e.free)


def test_marked_is_the_old_pure_test():
    # build_bts marks a Y-state exactly when its mask has no normal bit and
    # meets one fault class, on lamps 3-6 and the diagnosable pool plants
    plants = [fi.build_labeled_plant(lamps(n)) for n in (3, 4, 5, 6)] + diagnosable_pool(200)
    for plant in plants:
        index, bts = plant.index, fi.build_bts(plant)
        pure = [y for y in bts.y_states if not index.mask_of(y) & index.normal
                and sum(1 for f in index.faults if index.mask_of(y) & f) == 1]
        assert bts.marked == frozenset(pure)


def test_enforceable_is_the_old_all_rule():
    # the AND of per-state forcible-event bits gives the per-event all(...)
    # test's events, at every Y-state and every single state, on lamps 3-6
    # and the diagnosable pool plants; a plant that is only checked builds
    # no bits
    plants = [fi.build_labeled_plant(lamps(n)) for n in (3, 4, 5, 6)] + diagnosable_pool(200)
    for plant in plants:
        index = plant.index
        fi.check_isolatability(plant)
        assert index._forcible is None
        masks = [index.mask_of(y) for y in fi.build_bts(plant).y_states]
        for mask in masks + [1 << b for b in range(len(index.members))]:
            assert synthesis._enforceable(plant.table, index, mask) == old_enforceable(plant, mask)


# |Y|, |Z|, zy_edges, deadlocks, live Z and good Z on the lamp ladder, as
# the pipeline with one stored record per effect class counted them; four
# lamps are the synth_lamps4 known answers
LADDER_COUNTS = {
    3: (52, 3397, 5829, 91, 3306, 3306),
    4: (205, 52772, 102692, 671, 52101, 52101),
    5: (746, 765039, 1629295, 4651, 760388, 760388),
}


@pytest.mark.parametrize("n", sorted(LADDER_COUNTS))
def test_lamp_ladder_counts(n):
    run = fi.synthesize(fi.build_labeled_plant(lamps(n)))
    bts = run.bts
    assert (len(bts.y_states), len(bts.z_states), len(bts.zy_edges), len(run.deadlocks),
            len(run.live.z_states), len(run.result.good_z)) == LADDER_COUNTS[n]


def test_boundary_errors_are_typed(twin_plant, twin_bts, twin_pipeline):
    _, bts_liv, result, _ = twin_pipeline
    est = estimate(twin_plant, "1:F1", "6:F2")
    # an equal graph built again: views are tied to their graph by identity
    other_bts = fi.build_bts(twin_plant)
    other_deadlocks = fi.find_deadlocks(twin_plant, other_bts)
    other_result = fi.good_fixpoint(fi.prune_live(other_bts, other_deadlocks))
    calls = [
        lambda: fi.good_fixpoint(bts_liv, tie_break="nonsense"),
        lambda: fi.observable_reach(twin_plant, est,
                                    fi.ControlDecision("o3", frozenset()), "o3"),
        lambda: fi.prune_live(twin_bts, twin_bts.z_states),
        lambda: fi.prune_live(twin_bts, frozenset()),
        lambda: fi.prune_live(twin_bts, frozenset(fi.find_deadlocks(twin_plant, twin_bts))),
        lambda: fi.prune_live(bts_liv, fi.find_deadlocks(twin_plant, twin_bts)),
        lambda: fi.prune_live(bts_liv, result.good_z),
        lambda: fi.prune_live(twin_bts, other_deadlocks),
        lambda: export_bts_dot(bts_liv, result=other_result),
        lambda: export_bts_dot(twin_bts, result=result),
        lambda: export_bts_dot(bts_liv, result=round_scan_fixpoint(bts_liv)),
        lambda: twin_plant.table.require("zz"),
    ]
    for call in calls:
        with pytest.raises(InvalidArgumentError):
            call()
