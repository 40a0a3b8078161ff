"""Random plant generator: the benchmark's own copy of ``tests/plantgen.py``.

Kept separate so that edits to the test generator cannot change the
benchmark's corpus.

Plants are built to satisfy the standing assumptions by construction:
states are globally ordered and unobservable edges (including faults) only
point forward, so no unobservable cycles exist; fault events of class i only
cross from the normal zone into zone i, whose internal edges carry no fault
events, so at most one class occurs per run; states without an outgoing edge
get an observable self-loop.

Two styles are mixed.  ``generic`` wires each zone independently, which
mostly yields plants that are either passively isolatable or hopeless.
``twin`` makes zone 2 a mutated copy of zone 1, so the classes stay
confusable until (sometimes) a disablement or an enforced event separates
them -- the regime the synthesis is for.
"""
from __future__ import annotations

import random

from faultiso.automata import Automaton, Event, EventTable


def random_plant(rng: random.Random, max_states: int = 10, max_fault_types: int = 3,
                 n_obs_range=(2, 4), small_controls: bool = False) -> Automaton:
    if rng.random() < 0.45:
        return _twin_style(rng, n_obs_range, small_controls)
    return _generic_style(rng, max_states, max_fault_types, n_obs_range, small_controls)


def _attributes(rng, obs, unobs, small_controls):
    if small_controls:
        controllable = set(rng.sample(obs, k=1)) if rng.random() < 0.85 else set()
        forcible = set(rng.sample(obs + unobs, k=1)) if rng.random() < 0.85 else set()
    else:
        controllable = {e for e in obs + unobs if rng.random() < 0.4}
        forcible = {e for e in obs + unobs if rng.random() < 0.4}
    return controllable, forcible


def _make_table(obs, unobs, k, controllable, forcible):
    events = [Event(e, observable=True, controllable=e in controllable,
                    forcible=e in forcible) for e in obs]
    events += [Event(e, controllable=e in controllable, forcible=e in forcible)
               for e in unobs]
    events += [Event(f"f{i}", fault_type=i) for i in range(1, k + 1)]
    return EventTable(tuple(events))


def _generic_style(rng, max_states, max_fault_types, n_obs_range, small_controls):
    k = rng.randint(1, max_fault_types)
    n_obs = rng.randint(*n_obs_range)
    n_unobs = rng.randint(0, 1 if small_controls else 2)
    obs = [f"o{i}" for i in range(1, n_obs + 1)]
    unobs = [f"u{i}" for i in range(1, n_unobs + 1)]
    controllable, forcible = _attributes(rng, obs, unobs, small_controls)
    table = _make_table(obs, unobs, k, controllable, forcible)

    budget = rng.randint(k + 2, max_states)
    n_normal = rng.randint(1, max(1, budget - k))
    zone_sizes = []
    remaining = budget - n_normal
    for i in range(k):
        left = k - i - 1
        size = rng.randint(1, max(1, remaining - left)) if remaining > left else 1
        zone_sizes.append(size)
        remaining -= size

    names = [f"n{i}" for i in range(n_normal)]
    zones = []
    for zi, size in enumerate(zone_sizes, start=1):
        zone = [f"z{zi}_{j}" for j in range(size)]
        zones.append(zone)
        names += zone
    index = {q: i for i, q in enumerate(names)}

    trans: dict[tuple[str, str], str] = {}

    def add_intra(zone_states):
        for q in zone_states:
            for ev in obs:
                if rng.random() < 0.35:
                    trans[(q, ev)] = rng.choice(zone_states)
            for ev in unobs:
                forward = [p for p in zone_states if index[p] > index[q]]
                if forward and rng.random() < 0.3:
                    trans[(q, ev)] = rng.choice(forward)

    add_intra(names[:n_normal])
    for zone in zones:
        add_intra(zone)

    for zi, zone in enumerate(zones, start=1):
        sources = rng.sample(names[:n_normal], k=rng.randint(1, n_normal))
        for q in sources:
            trans[(q, f"f{zi}")] = rng.choice(zone)

    _patch_liveness(rng, names, trans, obs)
    return Automaton(table, frozenset(names), names[0], trans)


def _twin_style(rng, n_obs_range, small_controls):
    n_obs = rng.randint(*n_obs_range)
    obs = [f"o{i}" for i in range(1, n_obs + 1)]
    # w is the pre-fault heartbeat: fault onset is detected at the first
    # zone observable, so diagnosability mostly survives the mutations
    obs_all = obs + ["w"]
    n_unobs = rng.randint(0, 1)
    unobs = [f"u{i}" for i in range(1, n_unobs + 1)]
    controllable, forcible = _attributes(rng, obs, unobs, small_controls)
    table = _make_table(obs_all, unobs, 2, controllable, forcible)

    size = rng.randint(2, 4)

    def random_zone():
        t = {}
        for i in range(size):
            for ev in obs:
                if rng.random() < 0.5:
                    t[(i, ev)] = rng.randrange(size)
            for ev in unobs:
                if i + 1 < size and rng.random() < 0.35:
                    t[(i, ev)] = rng.randrange(i + 1, size)
        return t

    template = random_zone()
    mutated = dict(template)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(size)
        ev = rng.choice(obs)
        roll = rng.random()
        if roll < 0.45:
            mutated[(i, ev)] = rng.randrange(size)
        elif (i, ev) in mutated:
            del mutated[(i, ev)]
        else:
            mutated[(i, ev)] = rng.randrange(size)

    names = ["n0"]
    trans: dict[tuple[str, str], str] = {("n0", "w"): "n0",
                                         ("n0", "f1"): "z1_0", ("n0", "f2"): "z2_0"}
    for zi, zone_map in ((1, template), (2, mutated)):
        zone = [f"z{zi}_{j}" for j in range(size)]
        names += zone
        for (i, ev), j in zone_map.items():
            trans[(f"z{zi}_{i}", ev)] = f"z{zi}_{j}"

    _patch_liveness(rng, names, trans, obs)
    return Automaton(table, frozenset(names), "n0", trans)


def _patch_liveness(rng, names, trans, obs):
    for q in names:
        if not any(src == q for (src, _) in trans):
            trans[(q, rng.choice(obs))] = q
