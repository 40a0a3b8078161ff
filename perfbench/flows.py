"""The user-level flows the workloads time, as sequences of public calls.

Every call into the package goes through ``tracer.call`` under the name
``<layer>.<function>``, so a traced run attributes time to layers.  Each
flow returns a dict of facts (verdicts, sizes, digests) that the workloads
compare with the committed known answers.
"""
from __future__ import annotations

import hashlib

import faultiso as fi
from faultiso import modelio
from faultiso.errors import SynthesisError


def _parse(text):
    doc = modelio.parse_model_document(text)
    aut, _ = modelio.to_system(doc)
    return doc, aut


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def parse(tracer, text):
    """Model text to its document and automaton."""
    return tracer.call("modelio.parse_model", _parse, text)


def check(tracer, aut) -> tuple[dict, "fi.LabeledPlant | None", bool]:
    """The three ``check`` verdicts plus the diagnoser size.

    Returns the facts, the labelled plant (None when the assumptions fail)
    and whether the plant is diagnosable but not passively isolatable, which
    is when synthesis is worth running.
    """
    call = tracer.call
    report = call("automata.check_assumptions", fi.check_assumptions, aut)
    facts = {"assumptions": report.passing}
    if not report.passing:
        return facts, None, False
    plant = call("diagnosis.build_labeled_plant", fi.build_labeled_plant, aut)
    facts["labeled_states"] = len(plant.automaton.states)
    tracer.count("diagnosis.labeled_states", len(plant.automaton.states))
    diag = call("diagnosis.check_diagnosability", fi.check_diagnosability, plant)
    facts["diagnosable"] = diag.diagnosable
    if not diag.diagnosable:
        return facts, plant, False
    diagnoser = call("diagnosis.build_diagnoser", fi.build_diagnoser, plant)
    facts["diagnoser_states"] = len(diagnoser.states)
    facts["diagnoser_transitions"] = len(diagnoser.transitions)
    tracer.count("diagnosis.diagnoser_states", len(diagnoser.states))
    tracer.count("diagnosis.diagnoser_transitions", len(diagnoser.transitions))
    iso = call("diagnosis.check_isolatability", fi.check_isolatability, plant)
    facts["isolatable"] = iso.isolatable
    facts["witness"] = iso.witness_text()
    return facts, plant, not iso.isolatable


def synthesize(tracer, plant, doc) -> dict:
    """Plant to a supervisor JSON that has been round-tripped and
    model-checked, or to the documented ``SynthesisError`` verdict."""
    call = tracer.call
    bts = call("synthesis.build_bts", fi.build_bts, plant)
    deadlocks = call("synthesis.find_deadlocks", fi.find_deadlocks, plant, bts)
    live = call("synthesis.prune_live", fi.prune_live, bts, deadlocks)
    result = call("synthesis.good_fixpoint", fi.good_fixpoint, live, deadlocks)
    max_round = max(result.rounds.values(), default=0)
    facts = {
        "y_states": len(bts.y_states),
        "z_states": len(bts.z_states),
        "zy_edges": len(bts.zy_edges),
        "deadlocks": len(deadlocks),
        "live_z_states": len(live.z_states),
        "good_y": len(result.good_y),
        "good_z": len(result.good_z),
        "max_round": max_round,
        "isolation_bound": result.isolation_bound,
    }
    for key in ("y_states", "z_states", "zy_edges", "deadlocks", "live_z_states",
                "good_y", "good_z"):
        tracer.count(f"synthesis.{key}", facts[key])
    tracer.count("synthesis.max_round", max_round)
    try:
        policy = call("synthesis.extract_supervisor", fi.extract_supervisor, result, live)
    except SynthesisError:
        facts["solvable"] = False
        return facts
    facts["solvable"] = True
    text = call("modelio.supervisor_io", _dump_supervisor, policy, doc,
                result.isolation_bound)
    facts["supervisor_sha256"] = sha256(text)
    loaded = call("modelio.supervisor_io", modelio.load_supervisor, text, plant, doc)
    facts.update(closed_loop(tracer, plant, loaded)[0])
    return facts


def _dump_supervisor(policy, doc, bound):
    sup = modelio.supervisor_document(policy, doc, "default", bound)
    return modelio.serialize_supervisor(sup)


def closed_loop(tracer, plant, policy):
    """Build and model-check the closed loop; returns its facts and itself."""
    call = tracer.call
    cl = call("runtime.build_closed_loop", fi.build_closed_loop, plant, policy)
    report = call("runtime.verify_closed_loop", fi.verify_closed_loop, cl)
    tracer.count("runtime.closed_loop_states", len(cl.automaton.states))
    return {"closed_loop_states": len(cl.automaton.states), "live": report.live,
            "cl_isolatable": report.isolatable, "cl_bound": report.bound}, cl
