"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Criterion 8 generates a fresh 200-plant corpus (fixed
seed) and cross-checks every pipeline stage against the brute-force oracles
in ``oracles.py``.
"""
from __future__ import annotations

import functools
import random
import sys
import time
from pathlib import Path

import pytest

import faultiso as fi
from faultiso import cli, modelio
from faultiso.gallery import three_lamps_text

from conftest import names
from oracles import (
    brute_estimates,
    brute_zstate_deadlock,
    oracle_good_states,
    oracle_solvable,
)
from plantgen import random_plant

MODELS = Path(__file__).resolve().parent.parent / "models"
CORPUS_SEED = 20260809


def criterion(number, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"CRITERION {number} ({title}): FAIL", file=sys.stderr)
                raise
            print(f"CRITERION {number} ({title}): PASS")
        return wrapper
    return deco


@criterion(1, "diagnosable but not isolatable, trap-cycle witness")
def test_c1_check_verdicts(capsys):
    start = time.perf_counter()
    code = cli.main(["check", str(MODELS / "twin_branch.des")])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    assert "diagnosable: yes" in out
    assert "isolatable (uncontrolled): no" in out
    assert "{5F1,9F2} -> o3 -> {5F1,9F2}" in out
    assert elapsed < 1.0


@criterion(2, "certainty frontier and marked estimates")
def test_c2_frontier_and_marks(twin_bts):
    assert names(twin_bts.initial) == ["{1F1,6F2}", "{2F1,7F2}"]
    assert names(twin_bts.marked) == ["{3F1}", "{8F2}"]


@criterion(3, "exactly four feasible decisions at the frontier")
def test_c3_feasible_decision_count(twin_plant):
    est = next(y for y in fi.fault_frontier(twin_plant) if str(y) == "{1F1,6F2}")
    decs = fi.feasible_decisions(twin_plant, est)
    assert len(decs) == 4
    assert {str(d) for d in decs} == {"<o1,{}>", "<o2,{}>", "<~,{}>", "<~,{o3}>"}


@criterion(4, "exactly one deadlock Z-state")
def test_c4_deadlocks(twin_plant, twin_bts):
    deadlocks = fi.find_deadlocks(twin_plant, twin_bts)
    assert [str(z) for z in deadlocks] == ["({5F1,9F2},<~,{o3}>)"]


@criterion(5, "good-state sets")
def test_c5_good_states(twin_pipeline):
    _, _, result, _ = twin_pipeline
    assert names(result.good_y) == [
        "{1F1,6F2}", "{2F1,7F2}", "{3F1,8F2}", "{3F1}", "{8F2}"]
    assert "{5F1,9F2}" not in names(result.good_y)
    expected_good_z = {
        "({1F1,6F2},<o1,{}>)", "({1F1,6F2},<o2,{}>)",
        "({1F1,6F2},<~,{}>)", "({1F1,6F2},<~,{o3}>)",
        "({2F1,7F2},<o3,{}>)",
        "({3F1,8F2},<~,{}>)", "({3F1,8F2},<~,{o3}>)",
        "({8F2},<~,{o3}>)", "({8F2},<~,{}>)", "({8F2},<o2,{}>)",
        "({3F1},<~,{o3}>)", "({3F1},<~,{}>)", "({3F1},<o1,{}>)",
    }
    assert {str(z) for z in result.good_z} == expected_good_z


@criterion(6, "solvability and the documented tie-break")
def test_c6_solvable_and_tie_break(twin_plant, twin_pipeline):
    _, _, result, _ = twin_pipeline
    assert result.solvable
    alt = fi.synthesize(twin_plant, tie_break="paper-example").result
    chosen = {str(y): str(d) for y, d in alt.policy.items()}
    assert chosen["{1F1,6F2}"] == "<o2,{}>"


@criterion(7, "closed loop is live and isolatable within two observations")
def test_c7_closed_loop(twin_plant, twin_pipeline):
    start = time.perf_counter()
    _, bts_liv, result, policy = twin_pipeline
    closed = fi.build_closed_loop(twin_plant, policy)
    report = fi.verify_closed_loop(closed)
    assert report.live
    assert report.isolatable
    assert report.bound == 2
    # two observations suffice from {2F1,7F2} along every branch
    graph = fi.policy_graph(twin_plant, policy)
    y2 = next(y for y in graph if str(y) == "{2F1,7F2}")

    def depth(y, seen=frozenset()):
        if y in bts_liv.marked:
            return 0
        assert y not in seen
        return 1 + max(depth(d, seen | {y}) for _, d in graph[y])

    assert depth(y2) == 2
    assert time.perf_counter() - start < 1.0


# -- criterion 8: oracle equivalence on a random corpus -------------------------

@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(CORPUS_SEED)
    plants = []
    while len(plants) < 200:
        aut = random_plant(rng)
        assert fi.check_assumptions(aut).passing
        plants.append(fi.build_labeled_plant(aut))
    return plants


@pytest.fixture(scope="module")
def corpus_pipeline(corpus):
    rows = []
    for plant in corpus:
        row = {"plant": plant, "diagnosable": fi.check_diagnosability(plant).diagnosable}
        if row["diagnosable"]:
            row["run"] = fi.synthesize(plant)
        rows.append(row)
    return rows


@criterion("8a", "estimates match brute-force string enumeration")
def test_c8a_estimates(corpus):
    checked = 0
    for plant in corpus:
        brute, complete = brute_estimates(plant, 6)
        for t, expected in brute.items():
            if not complete(t):
                continue
            assert fi.estimate_after(plant, t) == expected, (t, str(expected))
            checked += 1
    assert checked > 2000


@criterion("8b", "deadlock detection matches continuation search")
def test_c8b_deadlocks(corpus_pipeline):
    plants = 0
    for row in corpus_pipeline:
        if not row["diagnosable"]:
            continue
        plants += 1
        deadlocks = row["run"].deadlocks
        for z in row["run"].bts.z_states:
            expected = brute_zstate_deadlock(row["plant"], z.estimate, z.decision)
            assert (z in deadlocks) == expected, str(z)
    assert plants >= 100


@criterion("8c", "good states match exhaustive policy enumeration")
def test_c8c_good_states():
    rng = random.Random(CORPUS_SEED + 1)
    evaluated = 0
    attempts = 0
    while evaluated < 30 and attempts < 400:
        attempts += 1
        aut = random_plant(rng, max_states=6, max_fault_types=2,
                           n_obs_range=(2, 3), small_controls=True)
        plant = fi.build_labeled_plant(aut)
        if len(plant.automaton.states) > 12:
            continue
        if not fi.check_diagnosability(plant).diagnosable:
            continue
        run = fi.synthesize(plant)
        liv = run.live
        oracle = oracle_good_states(liv, cap=20000)
        if oracle is None:
            continue
        assert oracle == set(run.result.good_y), names(liv.y_states)
        evaluated += 1
    assert evaluated >= 30


@criterion("8d", "every extracted supervisor verifies live and isolatable")
def test_c8d_soundness(corpus_pipeline):
    solvable = 0
    for row in corpus_pipeline:
        if not row["diagnosable"] or not row["run"].result.solvable:
            continue
        solvable += 1
        run = row["run"]
        report = fi.verify_closed_loop(fi.build_closed_loop(row["plant"], run.policy))
        assert report.live, names(run.live.initial)
        assert report.isolatable, names(run.live.initial)
    assert solvable >= 40


@criterion("8e", "unsolvable instances admit no isolating policy at all")
def test_c8e_completeness():
    rng = random.Random(CORPUS_SEED + 2)
    evaluated = 0
    attempts = 0
    while evaluated < 15 and attempts < 600:
        attempts += 1
        aut = random_plant(rng, max_states=6, max_fault_types=2,
                           n_obs_range=(2, 3), small_controls=True)
        plant = fi.build_labeled_plant(aut)
        if not fi.check_diagnosability(plant).diagnosable:
            continue
        run = fi.synthesize(plant)
        liv = run.live
        if run.result.solvable:
            continue
        enumerated = oracle_solvable(liv, cap=20000)
        if enumerated is None:
            continue
        assert enumerated is False, names(liv.y_states)
        evaluated += 1
    assert evaluated >= 15


@criterion(9, "three-lamp case study synthesises fast and verifies")
def test_c9_lamps():
    text = (MODELS / "three_lamps.des").read_text(encoding="utf-8")
    assert text == three_lamps_text()
    aut, table = modelio.parse_model(text)
    assert 30 <= len(aut.states) <= 45
    start = time.perf_counter()
    plant = fi.build_labeled_plant(aut)
    run = fi.synthesize(plant)
    assert run.result.solvable
    policy = run.policy
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"synthesis took {elapsed:.1f}s"
    report = fi.verify_closed_loop(fi.build_closed_loop(plant, policy))
    assert report.live
    assert report.isolatable
    assert not fi.check_isolatability(plant).isolatable  # control is essential
    assert run.deadlocks  # the pruning stage genuinely fires here
