"""Plant model text format and supervisor documents.

Model grammar (one directive per line, ``#`` starts a comment):

    name <text>                optional metadata
    desc <text>                optional metadata
    event <name> [obs] [ctrl] [forc] [fault=<i>]
    state <name>               optional; states may also appear implicitly
    init <name>
    trans <src> <event> <dst>

Duplicate transitions for the same (source, event) are rejected, as are
undeclared events and observable fault events.  A fault index is ASCII
digits, given once.  State names may not contain ``@``, ``{`` or ``}``:
estimate and closed-loop state names are built from them.  Supervisor
documents are canonical JSON bound to the model by a content digest.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .automata import Automaton, Event, EventTable
from .diagnosis import LabeledPlant, LabeledState, StateEstimate, fault_frontier
from .errors import InvalidArgumentError, ModelError
from .synthesis import ControlDecision, SupervisorPolicy, canonical_decision, policy_graph


@dataclass(frozen=True)
class ModelDocument:
    """Parsed model text, order-preserving so that serialisation round-trips."""

    name: Optional[str]
    description: Optional[str]
    events: tuple[Event, ...]
    explicit_states: tuple[str, ...]
    initial: str
    transitions: tuple[tuple[str, str, str], ...]

    def all_states(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for s in self.explicit_states:
            seen.setdefault(s)
        seen.setdefault(self.initial)
        for src, _, dst in self.transitions:
            seen.setdefault(src)
            seen.setdefault(dst)
        return tuple(seen)

    @cached_property
    def digest(self) -> str:
        """``model_digest``, computed once per document."""
        text = serialize_model(canonical_document(self))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


_EVENT_FLAGS = {"obs": "observable", "ctrl": "controllable", "forc": "forcible"}


def _state_name(lineno: int, name: str) -> str:
    if "@" in name or "{" in name or "}" in name:  # the scan is for the message
        ch = next(ch for ch in name if ch in "@{}")
        raise ModelError(f"line {lineno}: state {name} contains reserved character {ch!r}")
    return name


def parse_model_document(text: str) -> ModelDocument:
    meta: dict[str, str] = {}  # name, desc
    events: list[Event] = []
    states: list[str] = []
    initial = None
    transitions: list[tuple[str, str, str]] = []
    declared_events: set[str] = set()
    seen_pairs: dict[tuple[str, str], int] = {}

    # trans lines are most of a model, so they are tested first; the
    # "line N" prefix of a message is built only when a check fails
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        if not parts:
            continue
        kind = parts[0]
        if kind == "trans":
            if len(parts) != 4:
                raise ModelError(f"line {lineno}: trans takes source, event, target")
            _, src, ev, dst = parts
            if ev not in declared_events:
                raise ModelError(f"line {lineno}: undeclared event {ev}")
            if (pair := (src, ev)) in seen_pairs:
                raise ModelError(
                    f"line {lineno}: duplicate transition from {src} on {ev} "
                    f"(first at line {seen_pairs[pair]}); automata are deterministic")
            seen_pairs[pair] = lineno
            transitions.append((_state_name(lineno, src), ev, _state_name(lineno, dst)))
            continue
        args = parts[1:]
        if kind in ("name", "desc"):
            if not args:
                raise ModelError(f"line {lineno}: {kind} needs a value")
            meta[kind] = " ".join(args)
        elif kind == "event":
            if not args:
                raise ModelError(f"line {lineno}: event needs a name")
            ev_name, flags = args[0], args[1:]
            if ev_name in declared_events:
                raise ModelError(f"line {lineno}: event {ev_name} declared twice")
            attrs = {}
            fault_type = None
            for flag in flags:
                if flag in _EVENT_FLAGS:
                    attrs[_EVENT_FLAGS[flag]] = True
                elif flag.startswith("fault="):
                    digits = flag[len("fault="):]
                    if fault_type is not None:
                        raise ModelError(
                            f"line {lineno}: event {ev_name} gives its fault index twice")
                    if not (digits.isascii() and digits.isdigit()):
                        raise ModelError(f"line {lineno}: bad fault index in {flag!r}")
                    fault_type = int(digits)
                else:
                    raise ModelError(f"line {lineno}: unknown event flag {flag!r}")
            if fault_type is not None and attrs.get("observable"):
                raise ModelError(f"line {lineno}: fault event {ev_name} cannot be observable")
            declared_events.add(ev_name)
            events.append(Event(ev_name, fault_type=fault_type, **attrs))
        elif kind == "state":
            if len(args) != 1:
                raise ModelError(f"line {lineno}: state takes exactly one name")
            states.append(_state_name(lineno, args[0]))
        elif kind == "init":
            if len(args) != 1:
                raise ModelError(f"line {lineno}: init takes exactly one name")
            if initial is not None:
                raise ModelError(f"line {lineno}: init declared twice")
            initial = _state_name(lineno, args[0])
        else:
            raise ModelError(f"line {lineno}: unknown directive {kind!r}")
    if initial is None:
        raise ModelError("model has no init line")
    return ModelDocument(meta.get("name"), meta.get("desc"), tuple(events), tuple(states),
                         initial, tuple(transitions))


def serialize_model(doc: ModelDocument) -> str:
    lines = []
    if doc.name is not None:
        lines.append(f"name {doc.name}")
    if doc.description is not None:
        lines.append(f"desc {doc.description}")
    for e in doc.events:
        flags = [flag for flag, attr in _EVENT_FLAGS.items() if getattr(e, attr)]
        if e.fault_type is not None:
            flags.append(f"fault={e.fault_type}")
        lines.append(" ".join(["event", e.name] + flags))
    for s in doc.explicit_states:
        lines.append(f"state {s}")
    lines.append(f"init {doc.initial}")
    for src, ev, dst in doc.transitions:
        lines.append(f"trans {src} {ev} {dst}")
    return "\n".join(lines) + "\n"


def to_system(doc: ModelDocument) -> tuple[Automaton, EventTable]:
    table = EventTable(doc.events)
    states = frozenset(doc.all_states())
    trans = {(src, ev): dst for src, ev, dst in doc.transitions}
    return Automaton(table, states, doc.initial, trans), table


def parse_model(text: str) -> tuple[Automaton, EventTable]:
    """Parse model text straight to an automaton and its alphabet."""
    return to_system(parse_model_document(text))


def canonical_document(doc: ModelDocument) -> ModelDocument:
    """Sorted variant used for hashing, invariant under cosmetic reordering."""
    return ModelDocument(
        doc.name,
        doc.description,
        tuple(sorted(doc.events, key=lambda e: e.name)),
        tuple(sorted(doc.all_states())),
        doc.initial,
        tuple(sorted(doc.transitions)),
    )


def model_digest(doc: ModelDocument) -> str:
    """sha256 of the canonical model text, which a supervisor document names."""
    return doc.digest


# -- supervisor documents -------------------------------------------------------

_SCHEMA = {"decisions", "format", "frontier", "isolation_bound", "model_hash", "tie_break"}
_DECISION_KEYS = {"disable", "enforce", "estimate"}
_ENCODE = json.encoder.encode_basestring_ascii  # how json.dumps writes a string


def _estimate_to_json(est: StateEstimate) -> list[list[str]]:
    return [[m.base, m.label] for m in est]


def _decision_from_json(data) -> tuple:
    """A listed decision, raw: ``(disable as listed, enforce)``, hashable."""
    # a string is iterable too, and would silently disable its characters
    if not isinstance(data["disable"], list):
        raise ModelError(f"supervisor disable set is not a list: {data['disable']!r}")
    raw = (tuple(data["disable"]), data["enforce"])
    hash(raw)  # an unhashable value is malformed: disable's, in order, then enforce
    return raw


def _no_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")  # json.loads would take NaN, Infinity


def supervisor_document(policy: SupervisorPolicy, model_doc: ModelDocument,
                        tie_break: str, isolation_bound: Optional[int]) -> dict:
    """The JSON payload of ``policy``: its decision table, estimates in name
    order, plus provenance."""
    return {
        "format": "faultiso-supervisor-v1",
        "model_hash": model_digest(model_doc),
        "tie_break": tie_break,
        "isolation_bound": isolation_bound,
        "frontier": [_estimate_to_json(e)
                     for e in sorted(policy.initial_frontier, key=str)],
        "decisions": [
            {
                "estimate": _estimate_to_json(est),
                "enforce": dec.enforce,
                "disable": sorted(dec.disable),
            }
            for est, dec in sorted(policy.decisions.items(), key=lambda p: str(p[0]))
        ],
    }


def _json_list(items, indent: str) -> str:
    """Rendered ``items`` as ``json.dumps(indent=2)`` lays out a list that
    closes at ``indent``."""
    sep = "\n  " + indent
    body = ("," + sep).join(items)
    return f"[{sep}{body}\n{indent}]" if body else "[]"


def _listed(value) -> list:
    if type(value) is not list:
        raise TypeError(f"not a list: {value!r}")
    return value


def _json_scalar(value) -> str:
    if value is None:
        return "null"
    return str(value) if type(value) is int else _ENCODE(value)


def _json_estimate(est, indent: str) -> str:
    i = indent + "  "
    return _json_list([f"[\n{i}  {_ENCODE(b)},\n{i}  {_ENCODE(l)}\n{i}]"
                       for b, l in map(_listed, _listed(est))], indent)


def serialize_supervisor(payload: dict) -> str:
    """A ``supervisor_document`` payload as ``json.dumps(payload, indent=2,
    sort_keys=True)`` writes it, plus a newline, laid out here for the fixed
    schema, with strings through the C encoder's escaper.  Other keys, or
    values of other types, raise InvalidArgumentError."""
    try:
        if payload.keys() != _SCHEMA or any(
                d.keys() != _DECISION_KEYS for d in _listed(payload["decisions"])):
            raise TypeError("its keys are not the schema's")
        decisions = [f'{{\n      "disable": {_json_list(map(_ENCODE, _listed(d["disable"])), " " * 6)},'
                     f'\n      "enforce": {_json_scalar(d["enforce"])},'
                     f'\n      "estimate": {_json_estimate(d["estimate"], " " * 6)}\n    }}'
                     for d in payload["decisions"]]
        frontier = (_json_estimate(est, "    ") for est in _listed(payload["frontier"]))
        return (f'{{\n  "decisions": {_json_list(decisions, "  ")},'
                f'\n  "format": {_json_scalar(payload["format"])},'
                f'\n  "frontier": {_json_list(frontier, "  ")},'
                f'\n  "isolation_bound": {_json_scalar(payload["isolation_bound"])},'
                f'\n  "model_hash": {_json_scalar(payload["model_hash"])},'
                f'\n  "tie_break": {_json_scalar(payload["tie_break"])}\n}}\n')
    except (AttributeError, TypeError, ValueError) as exc:
        raise InvalidArgumentError(f"not a faultiso-supervisor-v1 payload: {exc}") from None


def load_supervisor(text: str, plant: LabeledPlant,
                    model_doc: ModelDocument) -> SupervisorPolicy:
    """Parse straight onto the plant, bind to the model, and verify the policy.

    Each listed ``[base, label]`` pair is its bit on ``plant.index``, and
    each estimate is interned once.  The hash must match the model, the
    frontier must be its ``fault_frontier`` (NotDiagnosableError if there is
    none), each estimate, in name order, must hold plant states only, be
    listed once and carry a feasible decision, and every estimate reachable
    from the frontier under the policy must carry a decision.  Each distinct
    listed decision is checked once, and equal listings are one object.
    """
    try:
        payload = json.loads(text, parse_constant=_no_constant)
    except ValueError as exc:
        raise ModelError(f"supervisor document is not valid JSON: {exc}") from None
    except RecursionError:
        raise ModelError("supervisor document is malformed: nested too deeply") from None
    if not isinstance(payload, dict) or payload.get("format") != "faultiso-supervisor-v1":
        raise ModelError("not a faultiso supervisor document")
    index = plant.index
    bit_of = {(m.base, m.label): 1 << i for i, m in enumerate(index.members)}

    def estimate(data) -> StateEstimate:
        try:  # the bits are distinct, so their sum is their union
            return index.estimate(sum({bit_of[b, l] for b, l in data}))
        except KeyError:  # not a plant state: strings, built as listed, for the checks to name
            if bad := [[b, l] for b, l in data if not (isinstance(b, str) and isinstance(l, str))]:
                raise TypeError(f"estimate member is not two strings: {json.dumps(bad[0])}")
            return StateEstimate.of(LabeledState(b, l) for b, l in data)

    try:
        model_hash = payload["model_hash"]
        if not isinstance(model_hash, str):  # it is sliced for messages
            raise TypeError(f"model_hash is not a string: {model_hash!r}")
        listed = frozenset(map(estimate, payload["frontier"]))
        table = sorted(((estimate(d["estimate"]), _decision_from_json(d))
                        for d in payload["decisions"]), key=lambda p: str(p[0]))
        for key in ("tie_break", "isolation_bound"):  # required, though not read
            if key not in payload:
                raise KeyError(key)
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelError(f"supervisor document is malformed: {exc!r}") from None
    del payload  # the parsed tree is not kept alive through the checks
    digest = model_digest(model_doc)
    if model_hash != digest:
        raise ModelError("supervisor was synthesised for a different model "
                         f"(hash {model_hash[:12]}.. != {digest[:12]}..)")
    frontier = fault_frontier(plant)
    if listed != frontier:
        diff = [f"{word}: " + ", ".join(sorted(map(str, ests))) for word, ests
                in (("missing", frontier - listed), ("extra", listed - frontier)) if ests]
        raise ModelError("supervisor frontier is not the model's fault frontier; "
                         + "; ".join(diff))
    decisions: dict[StateEstimate, ControlDecision] = {}
    # raw decision -> its canonical form.  Only a decision that passes is
    # kept, and it lists strings and null only, which equal no other type:
    # 1, 1.0 and true, equal in Python, are each checked and named as listed
    checked: dict[tuple, ControlDecision] = {}
    for est, raw in table:
        for m in est:
            if (m.base, m.label) not in bit_of:
                raise ModelError(f"supervisor references unknown labelled state {m}")
        if est in decisions:
            raise ModelError(f"supervisor lists a decision for {est} twice")
        dec = checked.get(raw)
        if dec is None:
            try:
                dec = checked[raw] = canonical_decision(plant, raw[1], raw[0])
            except (TypeError, ValueError) as exc:
                raise ModelError(f"supervisor decision at {est}: {exc}") from None
        decisions[est] = dec
    policy = SupervisorPolicy(frontier, decisions)
    reachable = policy_graph(plant, policy)
    missing = sorted((str(e) for e in reachable if e not in decisions))
    if missing:
        raise ModelError("supervisor decision table is not closed under its own "
                         "reachable estimates; missing: " + ", ".join(missing))
    return policy
