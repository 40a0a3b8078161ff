"""Model grammar, canonical serialisation, digests, supervisor documents."""
from __future__ import annotations

import copy
import importlib.util
import json
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import faultiso as fi
from faultiso import cli, modelio
from faultiso.errors import InvalidArgumentError, ModelError
from faultiso.gallery import lamps, lamps_text, twin_branch_document, twin_branch_text
from faultiso.synthesis import TIE_BREAK_MODES

from oracles import json_supervisor

MODELS = Path(__file__).resolve().parent.parent / "models"


def test_parse_fixture_file():
    text = (MODELS / "twin_branch.des").read_text(encoding="utf-8")
    aut, table = modelio.parse_model(text)
    assert len(aut.states) == 11
    assert len(aut.transitions) == 16
    assert table.observable_events == {"o1", "o2", "o3", "o4"}
    assert table.controllable_events == {"o3"}
    assert table.enforceable_events == {"o1", "o2", "o3", "a"}
    assert table.fault_events == {"sf1", "sf2"}


def test_fixture_file_matches_builder():
    text = (MODELS / "twin_branch.des").read_text(encoding="utf-8")
    assert text == twin_branch_text()


def test_lamp_ladder_matches_benchmark_builder():
    # the benchmark keeps its own copy of the builder; both write the same text
    path = MODELS.parent / "perfbench" / "lamps.py"
    spec = importlib.util.spec_from_file_location("perfbench_lamps", path)
    ladder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ladder)
    for n in range(1, 7):
        assert lamps_text(n, f"lamps{n}", f"{n} lamps") == ladder.lamps_text(
            n, f"lamps{n}", f"{n} lamps"), n


def test_lamp_count_out_of_range():
    for n in (0, 9):
        with pytest.raises(fi.InvalidArgumentError, match="lamp count must be in 1..8"):
            lamps(n)


def test_determinism_rejected():
    text = "event e obs\ninit a\ntrans a e b\ntrans a e c\n"
    with pytest.raises(ModelError, match="line 4"):
        modelio.parse_model(text)


def test_fault_must_be_unobservable():
    assert modelio.parse_model("event f fault=1\nevent o obs\ninit a\ntrans a f a\n")
    with pytest.raises(ModelError):
        modelio.parse_model("event f obs fault=1\ninit a\ntrans a f a\n")


@pytest.mark.parametrize("flags, message", [
    ("fault=\u0663", "bad fault index in 'fault=\u0663'"),
    ("fault=1_0", "bad fault index in 'fault=1_0'"),
    ("fault=+1", "bad fault index in 'fault=+1'"),
    ("fault=1 fault=2", "event f gives its fault index twice"),
], ids=["arabic-indic-digit", "underscore", "sign", "twice"])
def test_fault_index_is_ascii_digits_given_once(capsys, tmp_path, flags, message):
    # int() reads all of these; the grammar takes none of them
    path = tmp_path / "m.des"
    path.write_text(f"event f {flags}\nevent o obs\ninit a\ntrans a f b\ntrans b o b\n",
                    encoding="utf-8")
    assert cli.main(["check", str(path)]) == cli.EXIT_MODEL
    assert capsys.readouterr() == ("", f"error: model: line 1: {message}\n")


@pytest.mark.parametrize("line, state, char", [
    ("state a@b", "a@b", "@"), ("init {a", "{a", "{"), ("trans a e b}", "b}", "}"),
], ids=["state", "init", "trans"])
def test_state_names_reject_reserved_characters(line, state, char):
    # estimate and closed-loop names are built from @, { and }; the
    # parentheses and commas of composed lamp states stay legal
    text = f"event e obs\n{line}\n" + ("" if line.startswith("init") else "init a\n")
    with pytest.raises(ModelError) as info:
        modelio.parse_model_document(text)
    assert str(info.value) == f"line 2: state {state} contains reserved character {char!r}"
    assert modelio.parse_model_document("event e obs\ninit ((a,b),c)\n").initial == "((a,b),c)"


@pytest.mark.parametrize("state, char", [("a}b@", "}"), ("x{@}", "{"), ("@a{", "@")])
def test_first_reserved_character_is_named(state, char):
    with pytest.raises(ModelError) as info:
        modelio.parse_model_document(f"event e obs\ntrans {state} e a\ninit a\n")
    assert str(info.value) == f"line 2: state {state} contains reserved character {char!r}"


@pytest.mark.parametrize("text, message", [
    ("event e obs\ninit a\ntrans a@ ghost b\n", "line 3: undeclared event ghost"),
    ("event e obs\ninit a\ntrans a e b\n# a comment\ntrans a e {b\n",
     "line 5: duplicate transition from a on e (first at line 3); "
     "automata are deterministic"),
], ids=["undeclared-before-reserved", "duplicate-before-reserved"])
def test_trans_line_checks_come_in_order(text, message):
    # a trans line that breaks two rules reports the one checked first
    with pytest.raises(ModelError) as info:
        modelio.parse_model_document(text)
    assert str(info.value) == message


def test_undeclared_event_rejected():
    with pytest.raises(ModelError, match="line 2"):
        modelio.parse_model("init a\ntrans a ghost b\n")


def test_syntax_errors_carry_line_numbers():
    for text, line in [
        ("event\ninit a\n", 1),
        ("event e obs wat\ninit a\n", 1),
        ("init a\ninit b\n", 2),
        ("bogus stuff\n", 1),
        ("event e obs\ntrans a e\ninit a\n", 2),
    ]:
        with pytest.raises(ModelError, match=f"line {line}"):
            modelio.parse_model_document(text)
    with pytest.raises(ModelError, match="no init"):
        modelio.parse_model_document("event e obs\n")


def test_comments_and_implicit_states():
    text = "# a comment\nevent e obs  # trailing\ninit a\ntrans a e b\n"
    doc = modelio.parse_model_document(text)
    assert doc.all_states() == ("a", "b")


def test_roundtrip_fixture_document():
    doc = twin_branch_document()
    again = modelio.parse_model_document(modelio.serialize_model(doc))
    assert again == doc


_names = st.text(alphabet="abcxyz123", min_size=1, max_size=4)


@st.composite
def _documents(draw):
    event_names = draw(st.lists(_names, min_size=1, max_size=5, unique=True))
    events = []
    fault_index = 0
    for name in event_names:
        is_fault = draw(st.booleans()) and fault_index < 2
        if is_fault:
            fault_index += 1
            events.append(fi.Event(name, False, draw(st.booleans()),
                                   draw(st.booleans()), fault_index))
        else:
            events.append(fi.Event(name, draw(st.booleans()), draw(st.booleans()),
                                   draw(st.booleans()), None))
    states = draw(st.lists(_names, min_size=1, max_size=5, unique=True))
    n_trans = draw(st.integers(0, 6))
    transitions = []
    used = set()
    for _ in range(n_trans):
        src = draw(st.sampled_from(states))
        ev = draw(st.sampled_from(event_names))
        if (src, ev) in used:
            continue
        used.add((src, ev))
        transitions.append((src, ev, draw(st.sampled_from(states))))
    return modelio.ModelDocument(
        draw(st.none() | _names), draw(st.none() | _names),
        tuple(events), tuple(states), states[0], tuple(transitions))


@given(_documents())
def test_roundtrip_random_documents(doc):
    assert modelio.parse_model_document(modelio.serialize_model(doc)) == doc


@given(_documents())
def test_digest_ignores_order(doc):
    digest = modelio.model_digest(doc)
    shuffled = modelio.ModelDocument(
        doc.name, doc.description, tuple(reversed(doc.events)),
        tuple(reversed(doc.explicit_states)), doc.initial,
        tuple(reversed(doc.transitions)))
    assert modelio.model_digest(shuffled) == digest


@pytest.fixture(scope="module")
def sup_doc(twin_pipeline):
    _, _, result, policy = twin_pipeline
    return modelio.supervisor_document(policy, twin_branch_document(),
                                       "default", result.isolation_bound)


def test_supervisor_roundtrip(twin_plant, sup_doc):
    text = modelio.serialize_supervisor(sup_doc)
    loaded = modelio.load_supervisor(text, twin_plant, twin_branch_document())
    again = modelio.supervisor_document(loaded, twin_branch_document(), sup_doc["tie_break"],
                                        sup_doc["isolation_bound"])
    assert modelio.serialize_supervisor(again) == text  # bit-exact


def test_supervisor_load(twin_plant, sup_doc, twin_pipeline):
    _, _, _, policy = twin_pipeline
    text = modelio.serialize_supervisor(sup_doc)
    loaded = modelio.load_supervisor(text, twin_plant, twin_branch_document())
    assert loaded.decisions == dict(policy.decisions)
    assert loaded.initial_frontier == policy.initial_frontier


def lamp_supervisor(n: int = 4):
    """A fresh ``n``-lamp plant, its supervisor's text and its model document."""
    doc = modelio.parse_model_document(lamps_text(n, f"lamps{n}", f"{n} lamps"))
    plant = fi.build_labeled_plant(modelio.to_system(doc)[0])
    synthesis = fi.synthesize(plant)
    text = modelio.serialize_supervisor(modelio.supervisor_document(
        synthesis.policy, doc, "default", synthesis.result.isolation_bound))
    return fi.build_labeled_plant(modelio.to_system(doc)[0]), text, doc


def _scrambled(text: str) -> str:
    """The document with its frontier and decisions reversed, and each
    estimate's members reversed and its first member listed again."""
    payload = json.loads(text)
    for entry in payload["frontier"]:
        entry[:] = entry[::-1] + entry[:1]
    for entry in payload["decisions"]:
        entry["estimate"] = entry["estimate"][::-1] + entry["estimate"][:1]
    payload["frontier"].reverse()
    payload["decisions"].reverse()
    return json.dumps(payload)


@pytest.mark.parametrize("model", ["twin", "lamps4"])
def test_scrambled_document_loads_to_the_canonical_policy(model, sup_doc):
    if model == "twin":
        doc, text = twin_branch_document(), modelio.serialize_supervisor(sup_doc)
    else:
        _, text, doc = lamp_supervisor()
    plant = fi.build_labeled_plant(modelio.to_system(doc)[0])
    scrambled = _scrambled(text)
    assert scrambled != text
    canonical = modelio.load_supervisor(text, plant, doc)
    policy = modelio.load_supervisor(scrambled, plant, doc)
    assert policy.decisions == canonical.decisions
    assert list(policy.decisions) == list(canonical.decisions)
    assert policy.initial_frontier == canonical.initial_frontier
    assert all(a is b for a, b in zip(policy.decisions, canonical.decisions))


def test_loading_builds_no_intermediate_estimate(monkeypatch):
    # each listed estimate is read straight onto the plant's masks: no
    # StateEstimate.of, and every key is the plant's interned estimate
    plant, text, doc = lamp_supervisor(5)
    calls, real = [], fi.StateEstimate.of

    def of(cls, members):
        calls.append(cls)
        return real(members)

    monkeypatch.setattr(fi.StateEstimate, "of", classmethod(of))
    policy = modelio.load_supervisor(text, plant, doc)
    assert calls == []
    index = plant.index
    assert len(policy.decisions) > 100
    for est in (*policy.decisions, *policy.initial_frontier):
        assert est is index.estimate(index.mask_of(est)), est


def test_loaded_supervisor_uses_the_plants_estimates():
    # every key and frontier estimate is the plant's interned estimate, so a
    # decision lookup is an identity hit
    plant, text, doc = lamp_supervisor()
    policy = modelio.load_supervisor(text, plant, doc)
    index = plant.index
    for est in (*policy.decisions, *policy.initial_frontier):
        assert est is index.estimate(index.mask_of(est)), est
    assert plant.initial_estimate is fi.build_diagnoser(plant).initial


def test_load_and_closed_loop_release_each_pair_once(monkeypatch):
    # load_supervisor's policy graph and the closed loop share the steps kept
    # on plant.index: the load releases the 75 fault-certain pairs, the closed
    # loop only the 32 before certainty
    plant, text, doc = lamp_supervisor()
    released, real = [], fi.synthesis._release

    def release(plant, est, dec):
        released.append((est, dec))
        return real(plant, est, dec)

    monkeypatch.setattr(fi.synthesis, "_release", release)
    policy = modelio.load_supervisor(text, plant, doc)
    assert len(released) == 75
    fi.build_closed_loop(plant, policy)
    assert len(set(released)) == len(released) == 107


def test_load_closed_loop_and_engine_build_no_diagnoser(monkeypatch):
    # supervision starts at the fault frontier, found on plant.index masks:
    # loading a five-lamp supervisor, building its closed loop and replaying
    # 1,000 observations never build the diagnoser
    plant, text, doc = lamp_supervisor(5)
    built, real = [], fi.diagnosis.build_diagnoser

    def spy(p, *args, **kwargs):
        built.append(p)
        return real(p, *args, **kwargs)

    monkeypatch.setattr(fi.diagnosis, "build_diagnoser", spy)
    policy = modelio.load_supervisor(text, plant, doc)
    trace = fi.simulate(fi.build_closed_loop(plant, policy), 2_500, seed=7)
    observations = [line[4:] for line in trace.splitlines() if line.startswith("OBS ")]
    assert len(observations) >= 1_000
    state = fi.initial_engine_state(plant)
    for obs in observations[:1_000]:
        state = fi.engine_step(plant, policy, state, obs)
    assert built == []
    assert "diagnoser" not in plant.__dict__


def test_supervisor_hash_mismatch(twin_plant, sup_doc):
    other = modelio.ModelDocument(
        None, None, twin_branch_document().events, (), "0",
        twin_branch_document().transitions[:-1])
    text = modelio.serialize_supervisor(sup_doc)
    with pytest.raises(ModelError, match="different model"):
        modelio.load_supervisor(text, twin_plant, other)


def test_supervisor_closure_check(twin_plant, twin_bts, sup_doc):
    # drop one reachable decision: the loader must refuse the document
    broken = dict(sup_doc, decisions=[
        d for d in sup_doc["decisions"] if d["estimate"] != [["3", "F1"], ["8", "F2"]]])
    assert len(broken["decisions"]) == len(sup_doc["decisions"]) - 1
    text = modelio.serialize_supervisor(broken)
    with pytest.raises(ModelError, match="not closed"):
        modelio.load_supervisor(text, twin_plant, twin_branch_document())


@pytest.mark.parametrize("missing", [("tie_break",), ("isolation_bound",),
                                     ("isolation_bound", "tie_break")])
def test_unread_keys_are_required(twin_plant, sup_doc, missing):
    # the loader does not read tie_break or isolation_bound, but a document
    # without them is malformed, and tie_break is named first
    payload = {k: v for k, v in sup_doc.items() if k not in missing}
    with pytest.raises(ModelError, match=r"^supervisor document is malformed: "
                                         rf"KeyError\('{max(missing)}'\)$"):
        modelio.load_supervisor(json.dumps(payload), twin_plant, twin_branch_document())


def test_supervisor_rejects_garbage(twin_plant):
    for text in ("not json at all", '{"format": "something-else"}',
                 '{"format": "faultiso-supervisor-v1"}'):
        with pytest.raises(ModelError):
            modelio.load_supervisor(text, twin_plant, twin_branch_document())


def assert_written_as_referee(doc, plant, run):
    """Under each tie-break, the writer's text is the referee's, and it loads
    back to the policy written."""
    for tie_break in TIE_BREAK_MODES:
        result = fi.good_fixpoint(run.live, run.deadlocks, tie_break)
        policy = fi.extract_supervisor(result, run.live)
        payload = modelio.supervisor_document(policy, doc, tie_break, result.isolation_bound)
        text = modelio.serialize_supervisor(payload)
        assert text == json_supervisor(payload)
        assert modelio.load_supervisor(text, plant, doc) == policy


@pytest.mark.parametrize("n", [None, 3, 4, 5, 6], ids=["twin", "lamps3", "lamps4", "lamps5",
                                                       "lamps6"])
def test_writer_matches_referee_on_the_gallery(n):
    text = twin_branch_text() if n is None else lamps_text(n, f"lamps{n}", f"{n} lamps")
    doc = modelio.parse_model_document(text)
    plant = fi.build_labeled_plant(modelio.to_system(doc)[0])
    assert_written_as_referee(doc, plant, fi.synthesize(plant))


def test_writer_matches_referee_on_the_pool(solvable_pool):
    for doc, plant, run in solvable_pool:
        assert_written_as_referee(doc, plant, run)


def test_writer_escapes_state_names_as_the_referee():
    # quotes, backslashes and non-ASCII state names, written by a real
    # synthesis and read back
    text = twin_branch_text()
    for old, new in (("1", 'q"1'), ("2", "q\\2"), ("3", "é3"), ("8", "☃8"), ("9", "😀9")):
        text = text.replace(f" {old}\n", f" {new}\n").replace(f" {old} ", f" {new} ")
    doc = modelio.parse_model_document(text)
    assert {'q"1', "q\\2", "é3", "☃8", "😀9"} <= set(doc.all_states())
    plant = fi.build_labeled_plant(modelio.to_system(doc)[0])
    assert_written_as_referee(doc, plant, fi.synthesize(plant))


@pytest.mark.parametrize("change", [
    lambda p: p.update(decisions=[]),
    lambda p: p.update(decisions=[], frontier=[]),
    lambda p: p.update(isolation_bound=None),
    lambda p: [d.update(disable=[]) for d in p["decisions"]],
    lambda p: p["decisions"][0].update(disable=["o3", "o1"], enforce=None),
    lambda p: p["decisions"][0].update(estimate=[['q"1', "F\\1"], ["\u00fc", "\u2603"],
                                                 ["\x00\n\t", "\U0001f600"]]),
    lambda p: p["frontier"].append([]),
], ids=["no-decisions", "nothing", "null-bound", "empty-disables", "disable-as-given",
        "escaped-names", "empty-estimate"])
def test_writer_matches_referee_on_edge_payloads(sup_doc, change):
    payload = copy.deepcopy(sup_doc)
    change(payload)
    assert modelio.serialize_supervisor(payload) == json_supervisor(payload)


@pytest.mark.parametrize("change", [
    lambda p: p.update(note="x"),
    lambda p: p.pop("tie_break"),
    lambda p: p["decisions"][0].update(note="x"),
    lambda p: p["decisions"][0].pop("disable"),
    lambda p: p.update(decisions={}),
    lambda p: p["decisions"][0].update(disable="o3"),
    lambda p: p["decisions"][0].update(enforce=1.5),
    lambda p: p["decisions"][0]["estimate"][0].__setitem__(0, 7),
    lambda p: p["decisions"][0]["estimate"].append("1F1"),
    lambda p: p["decisions"][0]["estimate"].append(["1", "F1", "x"]),
    lambda p: p["frontier"].append({"1": "F1"}),
    lambda p: p.update(isolation_bound=True),
    lambda p: p.update(model_hash=None, tie_break=b"default"),
], ids=["extra-key", "missing-key", "extra-decision-key", "missing-decision-key",
        "decisions-not-a-list", "disable-a-string", "float-enforce", "number-member",
        "string-member", "three-strings", "dict-estimate", "bool-bound", "bytes-tie-break"])
def test_writer_rejects_payloads_off_the_schema(sup_doc, change):
    payload = copy.deepcopy(sup_doc)
    change(payload)
    with pytest.raises(InvalidArgumentError, match="^not a faultiso-supervisor-v1 payload: "):
        modelio.serialize_supervisor(payload)


@pytest.mark.parametrize("first", [0, 1, 2])
def test_equal_raw_decisions_of_other_types_are_named_as_listed(first):
    # enforce 1, 1.0 and true are equal in Python; at the first three
    # estimates in name order, listed last to first, the first by name is
    # reported, with its value as listed
    plant, text, doc = lamp_supervisor()
    payload = json.loads(text)
    values = [1, 1.0, True]
    values = values[first:] + values[:first]
    for entry, value in zip(payload["decisions"], values):
        entry["enforce"] = value
    est = min(modelio.load_supervisor(text, plant, doc).decisions, key=str)
    payload["decisions"].reverse()
    with pytest.raises(ModelError) as caught:
        modelio.load_supervisor(json.dumps(payload), plant, doc)
    assert str(caught.value) == f"supervisor decision at {est}: unknown event: {values[0]}"


def test_each_distinct_decision_is_checked_once(monkeypatch):
    # four lamps list 205 decisions, 12 distinct: each is checked once, and
    # the estimates that list it share its one object
    plant, text, doc = lamp_supervisor()
    checked, real = [], modelio.canonical_decision

    def spy(plant, enforce, disable):
        checked.append((enforce, tuple(disable)))
        return real(plant, enforce, disable)

    monkeypatch.setattr(modelio, "canonical_decision", spy)
    policy = modelio.load_supervisor(text, plant, doc)
    assert len(checked) == len(set(checked)) == 12
    decisions = list(policy.decisions.values())
    assert len(decisions) == 205
    assert len(set(decisions)) == len(set(map(id, decisions))) == 12


def test_model_digest_is_computed_once_per_document(monkeypatch):
    plant, text, _ = lamp_supervisor(3)
    doc = modelio.parse_model_document(lamps_text(3, "lamps3", "3 lamps"))
    hashed, real = [], modelio.canonical_document

    def spy(d):
        hashed.append(d)
        return real(d)

    monkeypatch.setattr(modelio, "canonical_document", spy)
    policy = modelio.load_supervisor(text, plant, doc)
    assert modelio.serialize_supervisor(modelio.supervisor_document(
        policy, doc, "default", 1)) == text
    assert modelio.model_digest(doc) == modelio.model_digest(
        modelio.parse_model_document(lamps_text(3, "lamps3", "3 lamps")))
    assert len(hashed) == 2  # this document once, the second parse once
