#!/usr/bin/env python3
"""Write ``perfbench/answers.json``, the known answers every run checks.

    python3 perfbench/make_answers.py

Run from a full checkout: the corpus answers are cross-checked against the
brute-force oracles in ``tests/oracles.py`` before they are written, and the
file is not written if any check disagrees.  The answers are committed;
the benchmark never recomputes them from the code it measures.
"""
from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import faultiso as fi  # noqa: E402
from faultiso import modelio  # noqa: E402
from oracles import (  # noqa: E402
    brute_estimates,
    brute_zstate_deadlock,
    oracle_good_states,
    oracle_solvable,
)

import flows  # noqa: E402
import workloads as wls  # noqa: E402
from lamps import lamps_text  # noqa: E402
from tracing import Tracer  # noqa: E402

POOL_SEED = 2023
POOL_SIZE = 2000
POLICY_CAP = 5000
ESTIMATE_DEPTH = 6


def require(cond: bool, message: str) -> None:
    if not cond:
        raise SystemExit(f"make_answers: {message}")


def cli_answers(work: Path, args: list[str], files=()) -> dict:
    _, proc = wls.run_cli(ROOT, work, args)
    out = {"exit": proc.returncode, "stdout_sha256": flows.sha256(proc.stdout)}
    for key, name in files:
        out[key] = flows.sha256((work / name).read_text(encoding="utf-8"))
    return out


def lamp_answers(work: Path) -> dict:
    tracer = Tracer(False)
    four = lamps_text(4, "four-lamps", "the lamp ladder at four lamps")
    doc, aut = flows.parse(tracer, four)
    plant = fi.build_labeled_plant(aut)
    synth = flows.synthesize(tracer, plant, doc)
    require(len(aut.states) == 96 and synth["y_states"] == 205
            and synth["z_states"] == 52772 and synth["deadlocks"] == 671,
            f"four lamps sizes changed: {len(aut.states)} {synth}")
    require(synth["live"] and synth["cl_isolatable"], "four-lamp supervisor fails verification")
    (work / "four_lamps.des").write_text(four, encoding="utf-8")
    synth_cli = cli_answers(work, ["check", "four_lamps.des"])

    six = lamps_text(6, "six-lamps", "the lamp ladder at six lamps")
    _, aut6 = flows.parse(tracer, six)
    check = flows.check(tracer, aut6)[0]
    require(len(aut6.states) == 512 and len(aut6.transitions) == 2176
            and check["diagnoser_states"] == 2723 and check["diagnosable"]
            and not check["isolatable"], f"six lamps answers changed: {check}")
    (work / "six_lamps.des").write_text(six, encoding="utf-8")
    check_cli = cli_answers(work, ["diagnoser", "six_lamps.des"])

    three = ROOT / "models" / "three_lamps.des"
    online_cli = cli_answers(work, ["synth", str(three), "--out", "sup.json",
                                    "--dot", "bts.dot"],
                             [("supervisor_sha256", "sup.json"), ("dot_sha256", "bts.dot")])
    doc3, aut3 = flows.parse(tracer, three.read_text(encoding="utf-8"))
    plant3 = fi.build_labeled_plant(aut3)
    require(flows.synthesize(tracer, plant3, doc3)["supervisor_sha256"]
            == online_cli["supervisor_sha256"], "cli and library supervisors differ")
    policy = modelio.load_supervisor((work / "sup.json").read_text(encoding="utf-8"),
                                     plant3, doc3)
    closed, cl = flows.closed_loop(tracer, plant3, policy)
    require(closed["live"] and closed["cl_isolatable"], "three-lamp closed loop fails")
    trace = fi.simulate(cl, wls.TRACE_OBS + 1000, seed=wls.KNOWN_TRACE_SEED)
    return {
        "synth_lamps4": {"facts": synth, "cli": synth_cli},
        "check_lamps6": {"facts": check, "cli": check_cli},
        "lamps3_online": {"cli": online_cli, "closed_loop": closed,
                          "trace_sha256": flows.sha256(trace)},
    }


def oracle_check(plant, tally: dict) -> None:
    """Cross-check one corpus plant against the brute-force oracles."""
    brute, complete = brute_estimates(plant, ESTIMATE_DEPTH)
    for t, expected in brute.items():
        if complete(t):
            require(fi.estimate_after(plant, t) == expected, f"estimate after {t}")
            tally["estimates"] += 1
    if not fi.check_diagnosability(plant).diagnosable \
            or fi.check_isolatability(plant).isolatable:
        return
    bts = fi.build_bts(plant)
    deadlocks = fi.find_deadlocks(plant, bts)
    for z in bts.z_states:
        require((z in deadlocks) == brute_zstate_deadlock(plant, z.estimate, z.decision),
                f"deadlock status of {z}")
        tally["z_states"] += 1
    live = fi.prune_live(bts, deadlocks)
    result = fi.good_fixpoint(live, deadlocks)
    good = oracle_good_states(live, cap=POLICY_CAP)
    if good is not None:
        require(good == set(result.good_y), "good states")
        tally["good_states"] += 1
    solvable = oracle_solvable(live, cap=POLICY_CAP)
    if solvable is not None:
        require(solvable == result.solvable, "solvability")
        tally["solvability"] += 1


def corpus_answers() -> dict:
    tracer = Tracer(False)
    pool = wls.corpus_pool(POOL_SEED, POOL_SIZE)
    rows = []
    tally = {"plants": 0, "estimates": 0, "z_states": 0, "good_states": 0,
             "solvability": 0, "supervisors_verified": 0}
    for aut in pool:
        row = wls.corpus_facts(tracer, wls.plant_text(aut))
        plant = fi.build_labeled_plant(aut)
        oracle_check(plant, tally)
        tally["plants"] += 1
        if row["solvable"]:
            # corpus_facts replaces the digest when verification fails
            require(len(row["supervisor_sha256"]) == 64, "corpus supervisor fails verification")
            tally["supervisors_verified"] += 1
        rows.append([row[k] for k in wls.CORPUS_FIELDS])
    return {"pool_seed": POOL_SEED, "oracle_checks": tally,
            "fields": list(wls.CORPUS_FIELDS), "plants": rows}


def dump(answers: dict) -> str:
    """JSON with one corpus plant per line, so diffs stay readable."""
    plants = answers["corpus"]["plants"]
    answers["corpus"]["plants"] = "@plants@"
    text = json.dumps(answers, indent=1, sort_keys=True)
    rows = ",\n".join("   " + json.dumps(row) for row in plants)
    return text.replace('"@plants@"', f"[\n{rows}\n  ]") + "\n"


def main() -> int:
    start = time.perf_counter()
    work = ROOT / ".perfbench" / "answers-work"
    work.mkdir(parents=True, exist_ok=True)
    try:
        answers = lamp_answers(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    answers["corpus"] = corpus_answers()
    text = dump(answers)
    json.loads(text)
    (HERE / "answers.json").write_text(text, encoding="utf-8")
    print(f"answers written in {time.perf_counter() - start:.0f} s; "
          f"oracle checks: {answers['corpus']['oracle_checks']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
