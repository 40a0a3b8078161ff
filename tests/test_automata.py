"""Automaton core: attributes, composition, reachability, assumptions."""
from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

import faultiso as fi
from faultiso.errors import ModelError

from oracles import alphabet_scan_compose, enumerate_language


def test_active_events_on_fixture(twin):
    assert fi.active_events(twin, "2") == {"o3", "a"}
    assert fi.active_events(twin, "5") == {"o3"}


def test_active_events_empty():
    table = fi.EventTable((fi.Event("o", observable=True),))
    aut = fi.Automaton(table, frozenset({"s"}), "s", {})
    assert fi.active_events(aut, "s") == frozenset()


def test_active_events_unknown_state(twin):
    with pytest.raises(ValueError):
        fi.active_events(twin, "nope")


def test_run_on_fixture(twin):
    assert fi.run(twin, []) == "0"
    assert fi.run(twin, ["sf1", "o2"]) == "2"
    assert fi.run(twin, ["o3"]) is None
    with pytest.raises(ValueError):
        fi.run(twin, ["bogus"])


def test_project(twin):
    table = twin.table
    assert fi.project(table, ["sf1", "o2", "a", "o4", "o3"]) == ("o2", "o4", "o3")
    assert fi.project(table, []) == ()
    assert fi.project(table, ["o1", "o1"]) == ("o1", "o1")
    with pytest.raises(ValueError):
        fi.project(table, ["nope"])


def test_project_idempotent_on_fixture_strings(twin):
    for s in enumerate_language(twin, 5):
        once = fi.project(twin.table, s)
        assert fi.project(twin.table, once) == once


@given(st.lists(st.sampled_from(["sf1", "sf2", "a", "o1", "o2", "o3", "o4"]),
                max_size=12))
def test_project_idempotent_any_string(seq):
    aut, table = __import__("faultiso.gallery", fromlist=["g"]).twin_branch()
    once = fi.project(table, seq)
    assert fi.project(table, once) == tuple(once)


def test_unobservable_reach_fixture(twin):
    assert fi.unobservable_reach(twin, {"2", "7"}) == {"2", "7", "4", "11"}
    assert fi.unobservable_reach(twin, {"2", "7"}, {"a"}) == {"2", "7"}
    assert fi.unobservable_reach(twin, {"5"}) == {"5"}


def test_unobservable_reach_properties(twin):
    states = sorted(twin.states)
    singles = [frozenset({q}) for q in states]
    for x in singles:
        r = fi.unobservable_reach(twin, x)
        assert x <= r
        assert fi.unobservable_reach(twin, r) == r  # idempotent
    # monotone in the seed set, antitone in the disabled set
    assert fi.unobservable_reach(twin, {"2"}) <= fi.unobservable_reach(twin, {"2", "7"})
    assert fi.unobservable_reach(twin, {"2", "7"}, {"a"}) \
        <= fi.unobservable_reach(twin, {"2", "7"})


def test_parallel_compose_identity(twin):
    one = fi.Automaton(fi.EventTable(()), frozenset({"i"}), "i", {})
    prod = fi.parallel_compose(twin, one)
    lang_a = enumerate_language(twin, 6)
    lang_b = enumerate_language(prod, 6)
    assert lang_a == lang_b
    assert len(prod.states) == len(twin.states)


def test_parallel_compose_disjoint_counts():
    def lamp(i):
        table = fi.EventTable((
            fi.Event(f"on{i}", observable=True),
            fi.Event(f"off{i}", observable=True),
        ))
        return fi.Automaton(table, frozenset({"0", "1"}), "0",
                            {("0", f"on{i}"): "1", ("1", f"off{i}"): "0"})
    prod = fi.parallel_compose(fi.parallel_compose(lamp(1), lamp(2)), lamp(3))
    assert len(prod.states) == 8


def test_parallel_compose_attribute_conflict():
    t1 = fi.EventTable((fi.Event("e", observable=True),))
    t2 = fi.EventTable((fi.Event("e", observable=False),))
    a = fi.Automaton(t1, frozenset({"x"}), "x", {("x", "e"): "x"})
    b = fi.Automaton(t2, frozenset({"y"}), "y", {("y", "e"): "y"})
    with pytest.raises(ModelError):
        fi.parallel_compose(a, b)


def random_component(rng, pool, tag):
    """A small deterministic automaton over a random slice of ``pool``."""
    events = rng.sample(pool, rng.randint(1, len(pool)))
    states = [f"{tag}{i}" for i in range(rng.randint(1, 4))]
    trans = {(q, e.name): rng.choice(states) for q in states for e in events
             if rng.random() < 0.6}
    return fi.Automaton(fi.EventTable(tuple(events)), frozenset(states), states[0], trans)


def test_parallel_compose_matches_alphabet_scan_referee():
    # shared events synchronise, private ones interleave; one attribute
    # table for all, so the alphabets always merge
    pool = [fi.Event("o1", observable=True), fi.Event("o2", observable=True, controllable=True),
            fi.Event("u1"), fi.Event("u2", forcible=True), fi.Event("f", fault_type=1)]
    rng = random.Random(15)
    for _ in range(300):
        a, b = random_component(rng, pool, "a"), random_component(rng, pool, "b")
        got, want = fi.parallel_compose(a, b), alphabet_scan_compose(a, b)
        assert (got.table, got.states, got.initial) == (want.table, want.states, want.initial)
        assert list(got.transitions.items()) == list(want.transitions.items())


def test_compose_rejects_colliding_names():
    # pairs (x,y | z) and (x | y,z) both render as (x,y,z)
    a = fi.Automaton(fi.EventTable((fi.Event("p"),)), frozenset({"x,y", "x"}), "x,y",
                     {("x,y", "p"): "x"})
    b = fi.Automaton(fi.EventTable((fi.Event("q"),)), frozenset({"z", "y,z"}), "z",
                     {("z", "q"): "y,z"})
    with pytest.raises(ModelError, match=r"\(x,y,z\)"):
        fi.parallel_compose(a, b)


def test_prefix_closure(twin):
    lang = enumerate_language(twin, 6)
    for s in lang:
        for i in range(len(s)):
            assert s[:i] in lang


def test_check_assumptions_pass(twin):
    report = fi.check_assumptions(twin)
    assert report.passing
    assert report.live and not report.non_live_states
    assert report.unobservable_cycle is None
    assert report.multi_fault_witness is None


def test_assumption_a1_failure():
    table = fi.EventTable((fi.Event("o", observable=True),))
    aut = fi.Automaton(table, frozenset({"s", "t"}), "s", {("s", "o"): "t"})
    report = fi.check_assumptions(aut)
    assert not report.live
    assert report.non_live_states == ("t",)


def test_assumption_a2_self_loop():
    table = fi.EventTable((fi.Event("u"), fi.Event("o", observable=True)))
    aut = fi.Automaton(table, frozenset({"q"}), "q",
                       {("q", "u"): "q", ("q", "o"): "q"})
    report = fi.check_assumptions(aut)
    assert report.unobservable_cycle == ("q", "u", "q")


def test_assumption_a2_longer_cycle():
    table = fi.EventTable((fi.Event("u"), fi.Event("v"), fi.Event("o", observable=True)))
    aut = fi.Automaton(table, frozenset({"a", "b"}), "a",
                       {("a", "u"): "b", ("b", "v"): "a", ("a", "o"): "a"})
    report = fi.check_assumptions(aut)
    cycle = report.unobservable_cycle
    assert cycle is not None
    assert cycle[0] == cycle[-1]
    assert set(cycle[1::2]) == {"u", "v"}


def test_assumption_a3_two_types():
    table = fi.EventTable((
        fi.Event("f1", fault_type=1),
        fi.Event("f2", fault_type=2),
        fi.Event("o", observable=True),
    ))
    aut = fi.Automaton(table, frozenset({"a", "b", "c"}), "a",
                       {("a", "f1"): "b", ("b", "f2"): "c", ("c", "o"): "c"})
    report = fi.check_assumptions(aut)
    assert report.multi_fault_witness == ("f1", "f2")


def test_event_table_validation():
    with pytest.raises(ModelError):
        fi.EventTable((fi.Event("x"), fi.Event("x")))
    with pytest.raises(ModelError):
        fi.EventTable((fi.Event(""),))
    with pytest.raises(ModelError):
        fi.EventTable((fi.Event("f", observable=True, fault_type=1),))
    with pytest.raises(ModelError):
        fi.EventTable((fi.Event("f", fault_type=0),))


def test_automaton_validation():
    table = fi.EventTable((fi.Event("o", observable=True),))
    with pytest.raises(ModelError):
        fi.Automaton(table, frozenset({"s"}), "missing", {})
    with pytest.raises(ModelError):
        fi.Automaton(table, frozenset({"s"}), "s", {("s", "o"): "elsewhere"})
    with pytest.raises(ModelError):
        fi.Automaton(table, frozenset({"s"}), "s", {("s", "unknown"): "s"})


def test_transitions_stored_sorted(twin):
    assert list(twin.transitions) == sorted(twin.transitions)


@pytest.mark.parametrize("trans,message", [
    # an unknown event sorts first; a later unknown target is not the one named
    ({("t", "o"): "x", ("s", "bad"): "s", ("s", "o"): "t"},
     "transition s -bad-> s uses unknown event"),
    # unknown event and unknown target on one transition: the state is named
    ({("t", "zz"): "s", ("s", "p"): "s", ("s", "bad"): "x"},
     "transition s -bad-> x uses unknown state"),
    # an unknown source sorts before an unknown event
    ({("u", "o"): "s", ("t", "bad"): "t", ("a", "p"): "s"},
     "transition a -p-> s uses unknown state"),
    ({("t", "q"): "s", ("s", "o"): "t", ("s", "r"): "t"},
     "transition s -r-> t uses unknown event"),
])
def test_automaton_names_the_first_bad_transition_in_sorted_order(trans, message):
    table = fi.EventTable((fi.Event("o", observable=True), fi.Event("p")))
    with pytest.raises(ModelError) as caught:
        fi.Automaton(table, frozenset({"s", "t"}), "s", trans)
    assert str(caught.value) == message
