"""The DOT exporters against their referees in ``oracles``: byte-equal text,
with no estimate interned and no decision or Z-state built to write it."""
from __future__ import annotations

from dataclasses import replace

import pytest

import faultiso as fi
from faultiso import modelio, synthesis
from faultiso.dotexport import export_bts_dot, export_diagnoser_dot
from faultiso.gallery import lamps, twin_branch, twin_branch_document
from faultiso.synthesis import TIE_BREAK_MODES, ControlDecision

from oracles import decision_bts_dot, decision_members, printed_diagnoser_dot
from test_diagnosis import comma_witness_text


def odd_names_twin():
    """The twin-branch system with states and events whose names need
    escaping (a quote, a backslash) or are not ASCII."""
    states = {"1": 'q"1', "2": "q\\2", "3": "é3", "8": "☃8", "9": "😀9"}
    events = {"o4": 'o"4', "o3": "o\\3"}
    doc = twin_branch_document()
    doc = replace(doc, events=tuple(replace(e, name=events.get(e.name, e.name)) for e in doc.events),
                  transitions=tuple((states.get(s, s), events.get(ev, ev), states.get(d, d))
                                    for s, ev, d in doc.transitions))
    return modelio.to_system(doc)[0]


CASES = {"twin": twin_branch()[0], "odd_names": odd_names_twin(), "lamps3": lamps(3),
         "lamps4": lamps(4)}


def bts_renders(aut):
    """``(graph, result)`` for the unpruned graph, the live graph alone and
    the live graph with the result of each tie-break."""
    run = fi.synthesize(fi.build_labeled_plant(aut))
    yield run.bts, None
    yield run.live, None
    for mode in TIE_BREAK_MODES:
        yield run.live, fi.good_fixpoint(run.live, run.deadlocks, mode)


@pytest.mark.parametrize("name", list(CASES))
def test_bts_dot_is_the_referee(name):
    renders = list(bts_renders(CASES[name]))
    for graph, result in renders:
        assert export_bts_dot(graph, result=result) == decision_bts_dot(graph, result)
    assert "shape=box, color=red" in export_bts_dot(renders[0][0])  # the unpruned graph's deadlocks


@pytest.mark.parametrize("name", list(CASES))
def test_members_list_the_decisions_in_sort_key_order(name):
    run = fi.synthesize(fi.build_labeled_plant(CASES[name]))
    for graph in (run.bts, run.live):
        for i in range(len(graph.y_states)):
            assert [(ControlDecision(ev, frozenset(names)), e, mask)
                    for ev, names, e, mask in graph._members_of(i)] == decision_members(graph, i)


def test_bts_dot_is_the_referee_on_the_pool(pool):
    # every diagnosable, non-isolatable plant of the seed-2023 pool
    plants = 0
    for aut in pool:
        plant = fi.build_labeled_plant(aut)
        if plant.diagnosability.diagnosable and not fi.check_isolatability(plant).isolatable:
            plants += 1
            for graph, result in bts_renders(aut):
                assert export_bts_dot(graph, result=result) == decision_bts_dot(graph, result)
    assert plants == 955


def test_odd_names_are_escaped():
    # a quote and a backslash are escaped in state, event and decision text
    plant = fi.build_labeled_plant(CASES["odd_names"])
    run = fi.synthesize(plant)
    lines = export_bts_dot(run.live, result=run.result).splitlines()
    assert r'  "({7F2,q\\2F1},<o\\3,{}>)" [shape=box, style=filled, fillcolor=lightblue];' in lines
    assert (r'  "{6F2,q\"1F1}" -> "({6F2,q\"1F1},<~,{o\\3}>)" [label="<~,{o\\3}>"];'
            in lines)
    assert r'  "({5F1,😀9F2},<o\\3,{}>)" -> "{5F1,😀9F2}" [label="o\\3"];' in lines
    lines = export_diagnoser_dot(fi.build_diagnoser(plant)).splitlines()
    assert r'  "{7F2,q\\2F1}" -> "{5F1,😀9F2}" [label="o\"4"];' in lines
    assert r'  "{é3F1,☃8F2}" -> "{☃8F2}" [label="o2"];' in lines


def test_bts_dot_builds_no_decision_z_state_or_estimate(monkeypatch):
    def refuse(self, *args):
        raise AssertionError("built while rendering")

    plants = [fi.build_labeled_plant(CASES[name]) for name in ("twin", "odd_names", "lamps3")]
    runs = [fi.synthesize(plant) for plant in plants]
    interned = [dict(plant.index._estimates) for plant in plants]
    monkeypatch.setattr(synthesis.ZState, "__init__", refuse)
    monkeypatch.setattr(ControlDecision, "__post_init__", refuse)
    for plant, run, before in zip(plants, runs, interned):
        for graph, result in ((run.bts, None), (run.live, None), (run.live, run.result)):
            export_bts_dot(graph, result=result)
        assert plant.index._estimates == before


def diagnosable_automata(pool):
    auts = [CASES["twin"], CASES["odd_names"]] + [lamps(n) for n in (3, 4, 5, 6, 7)]
    return auts + [aut for aut in pool if fi.build_labeled_plant(aut).diagnosability.diagnosable]


def test_diagnoser_dot_is_the_referee_and_interns_nothing(pool):
    auts = diagnosable_automata(pool)
    for aut in auts:
        plant = fi.build_labeled_plant(aut)
        diag = fi.build_diagnoser(plant)
        interned = dict(plant.index._estimates)
        text = export_diagnoser_dot(diag)
        assert plant.index._estimates == interned
        assert text == printed_diagnoser_dot(diag)
    assert len(auts) == 7 + 1511


def alike_text(first, second):
    """A model with two estimates that print as {aF1,bF2,cF2}: after
    ``first`` its members are aF1, bF2 and cF2, which loop on o3, after
    ``second`` aF1 and the member ``bF2,c``, which moves on o4."""
    return ("event f1 fault=1\nevent f2 fault=2\nevent u\n"
            "event o1 obs\nevent o2 obs\nevent o3 obs\nevent o4 obs\ninit s\n"
            "trans s f1 a1\ntrans s f2 t\ntrans s u w\ntrans w f2 t2\n"
            f"trans a1 o1 a\ntrans a1 o2 a\ntrans t {first} b\ntrans t {second} bF2,c\n"
            f"trans t2 {first} c\ntrans a o3 a\ntrans b o3 b\ntrans c o3 c\n"
            "trans bF2,c o4 bF2,c\n")


@pytest.mark.parametrize("first,second", [("o1", "o2"), ("o2", "o1")])
def test_diagnoser_dot_of_estimates_that_print_alike(first, second):
    # each estimate that prints as {aF1,bF2,cF2} gets its node line, and their
    # edges follow their positions: the one reached on o1 comes first,
    # whichever mask is smaller
    dots = []
    for text in (alike_text(first, second), comma_witness_text(first, second)):
        doc = modelio.parse_model_document(text)
        diag = fi.build_diagnoser(fi.build_labeled_plant(modelio.to_system(doc)[0]))
        dots.append(export_diagnoser_dot(diag))
        assert dots[-1].count('  "{aF1,bF2,cF2}" [shape=ellipse];') == 2
        assert dots[-1] == printed_diagnoser_dot(diag)
    loop = ['  "{aF1,bF2,cF2}" -> "{aF1,bF2,cF2}" [label="o3"];']
    moves = ['  "{aF1,bF2,cF2}" -> "{aF1}" [label="o3"];',
             '  "{aF1,bF2,cF2}" -> "{bF2,cF2}" [label="o4"];']
    edges = [line for line in dots[0].splitlines() if line.startswith('  "{aF1,bF2,cF2}" ->')]
    assert edges == (loop + moves if first == "o1" else moves + loop)
