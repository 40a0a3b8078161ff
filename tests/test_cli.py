"""CLI surface: subcommands, exit codes, DOT artifacts, reproducibility."""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from faultiso import cli, dotexport, modelio
import faultiso as fi
from faultiso.gallery import lamps_text, twin_branch_text

MODELS = Path(__file__).resolve().parent.parent / "models"
TWIN = str(MODELS / "twin_branch.des")


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def supervisor_file(tmp_path, capsys):
    out = tmp_path / "twin.sup.json"
    code, _, _ = run_cli(capsys, "synth", TWIN, "--out", str(out))
    assert code == 0
    return str(out)


def test_check_fixture(capsys):
    code, out, _ = run_cli(capsys, "check", TWIN)
    assert code == 0
    assert "diagnosable: yes" in out
    assert "isolatable (uncontrolled): no" in out
    assert "{5F1,9F2} -> o3 -> {5F1,9F2}" in out


def test_check_not_diagnosable(tmp_path, capsys):
    model = tmp_path / "m.des"
    model.write_text(
        "event f fault=1\nevent o1 obs\ninit 0\n"
        "trans 0 f 1\ntrans 0 o1 0\ntrans 1 o1 1\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "check", str(model))
    assert code == cli.EXIT_NOT_DIAGNOSABLE
    assert "diagnosable: no" in out


def test_check_assumption_failure(tmp_path, capsys):
    model = tmp_path / "m.des"
    model.write_text(
        "event f fault=1\nevent o1 obs\ninit 0\ntrans 0 f 1\ntrans 0 o1 0\n",
        encoding="utf-8")  # state 1 is not live
    code, out, _ = run_cli(capsys, "check", str(model))
    assert code == cli.EXIT_ASSUMPTIONS
    assert "non-live" in out


def test_check_rejects_gaps_in_fault_types(tmp_path, capsys):
    model = tmp_path / "m.des"
    model.write_text(
        "event f1 fault=1\nevent f3 fault=3\nevent o obs\ninit 0\n"
        "trans 0 f1 1\ntrans 0 f3 2\ntrans 0 o 0\ntrans 1 o 1\ntrans 2 o 2\n",
        encoding="utf-8")
    code, _, err = run_cli(capsys, "check", str(model))
    assert code == cli.EXIT_MODEL
    assert "without gaps, got [1, 3]" in err


def test_model_error_exit(tmp_path, capsys):
    model = tmp_path / "m.des"
    model.write_text("event e obs\ninit a\ntrans a e b\ntrans a e c\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "check", str(model))
    assert code == cli.EXIT_MODEL
    assert "line 4" in err
    code, _, err = run_cli(capsys, "check", str(tmp_path / "missing.des"))
    assert code == cli.EXIT_MODEL


def test_diagnoser_stats_and_dot(tmp_path, capsys):
    dot = tmp_path / "d.dot"
    code, out, _ = run_cli(capsys, "diagnoser", TWIN, "--dot", str(dot))
    assert code == 0
    assert "diagnoser: 7 states, 4 events, 11 transitions" in out
    text = dot.read_text(encoding="utf-8")
    assert text.startswith("digraph")
    assert text.count("shape=ellipse") == 7


def test_synth_fixture(capsys):
    code, out, _ = run_cli(capsys, "synth", TWIN)
    assert code == 0
    assert "Y0: {1F1,6F2} {2F1,7F2}" in out
    assert "Ym: {3F1} {8F2}" in out
    assert "deadlock Z-states: 1" in out
    assert "good Y-states: 5" in out
    assert "solvable: yes" in out


def test_synth_paper_example_tie_break(capsys):
    code, out, _ = run_cli(capsys, "synth", TWIN, "--tie-break", "paper-example")
    assert code == 0
    assert "decision {1F1,6F2}: <o2,{}>" in out


def test_synth_not_solvable(tmp_path, capsys):
    text = twin_branch_text().replace("event o3 obs ctrl forc", "event o3 obs ctrl")
    model = tmp_path / "m.des"
    model.write_text(text, encoding="utf-8")
    code, out, _ = run_cli(capsys, "synth", str(model))
    assert code == cli.EXIT_NOT_SOLVABLE
    assert "solvable: no" in out
    assert "not good: {2F1,7F2}" in out


def test_synth_exit_matches_solvability(tmp_path, capsys, twin_plant, twin_pipeline):
    _, _, result, _ = twin_pipeline
    code, _, _ = run_cli(capsys, "synth", TWIN)
    assert (code == 0) == result.solvable


def test_synth_dot_drops_deadlock_box(tmp_path, capsys):
    dot = tmp_path / "bts.dot"
    code, _, _ = run_cli(capsys, "synth", TWIN, "--dot", str(dot))
    assert code == 0
    text = dot.read_text(encoding="utf-8")
    assert "({5F1,9F2},<~,{o3}>)" not in text  # pruned away
    assert '"({5F1,9F2},<~,{}>)"' in text


def test_bts_dot_full_graph(twin_bts):
    text = dotexport.export_bts_dot(twin_bts)  # deadlocks red, from the graph's masks
    assert text.count("shape=ellipse") == 6
    assert text.count("shape=box") == 20
    assert text.count("color=red") == 1


DOT_QUOTED = r'"((?:[^"\\]|\\.)*)"'


def dot_strings(pattern, line):
    """The quoted DOT strings that ``pattern`` finds in ``line``, unescaped."""
    return {re.sub(r"\\(.)", r"\1", text) for text in re.findall(pattern, line)}


def test_dot_escapes_backslashes(tmp_path, capsys):
    # a backslash is legal in any name; written bare, event o\ would give
    # label="o\" and the quoted string would never close
    swap = {"o4": "o\\", "9": "9\\"}
    model = tmp_path / "m.des"
    model.write_text("".join(" ".join(swap.get(w, w) for w in line.split()) + "\n"
                             for line in twin_branch_text().splitlines()), encoding="utf-8")
    for command in ("diagnoser", "synth"):
        dot = tmp_path / f"{command}.dot"
        code, _, _ = run_cli(capsys, command, str(model), "--dot", str(dot))
        assert code == 0
        labels, texts = set(), set()
        for line in dot.read_text(encoding="utf-8").splitlines():
            assert '"' not in re.sub(DOT_QUOTED, "", line), line
            labels |= dot_strings("label=" + DOT_QUOTED, line)
            texts |= dot_strings(DOT_QUOTED, line)
        assert "o\\" in labels, command
        assert any("9\\F2" in text for text in texts), command


def test_explain(capsys, supervisor_file):
    code, out, _ = run_cli(capsys, "explain", TWIN, supervisor_file,
                           "--obs", "o2,o3,o2")
    assert code == 0
    assert "final verdict: F2" in out
    assert "obs o2 -> estimate {2F1,7F2}" in out


def test_explain_protocol_error(capsys, supervisor_file):
    code, out, err = run_cli(capsys, "explain", TWIN, supervisor_file,
                             "--obs", "o2,o4")
    assert code == cli.EXIT_PROTOCOL
    assert "runtime" in err
    # lines stream as the engine steps: the accepted prefix is printed
    assert out == ("obs o2 -> estimate {2F1,7F2} phase=isolation "
                   "decision=<o3,{}> verdict=F/FU\n")


def test_explain_obs_file_matches_obs(capsys, supervisor_file, tmp_path, monkeypatch):
    _, want, _ = run_cli(capsys, "explain", TWIN, supervisor_file, "--obs", "o2,o3,o2")
    path = tmp_path / "obs.txt"
    path.write_text("o2\n o3,o2\n\n", encoding="utf-8")
    assert run_cli(capsys, "explain", TWIN, supervisor_file, "--obs-file", str(path)) \
        == (0, want, "")
    monkeypatch.setattr(sys, "stdin", io.StringIO("o2,o3 o2"))
    assert run_cli(capsys, "explain", TWIN, supervisor_file, "--obs-file", "-") \
        == (0, want, "")


# the forms that exited 6 with "unknown event:  o3" or "unknown event: "
# while the same list in an --obs-file ran
SPLIT_FORMS = {"spaces": "{}, {}, {}", "empty-item": "{},,{},{}", "trailing-comma": "{},{},{},",
               "whitespace-only": " {}\t{} {} ", "comma-only": "{},{},{}"}


@pytest.mark.parametrize("form", SPLIT_FORMS)
def test_obs_splits_like_obs_file(capsys, supervisor_file, tmp_path, form):
    text = SPLIT_FORMS[form].format("o2", "o3", "o2")
    path = tmp_path / "obs.txt"
    path.write_text(text + "\n", encoding="utf-8")
    want = run_cli(capsys, "explain", TWIN, supervisor_file, "--obs-file", str(path))
    assert want == run_cli(capsys, "explain", TWIN, supervisor_file, "--obs", "o2,o3,o2")
    assert run_cli(capsys, "explain", TWIN, supervisor_file, "--obs", text) == want


@pytest.mark.parametrize("content", [None, b"\xd0\x00"], ids=["missing", "not-utf8"])
def test_explain_bad_obs_file_exits_2_with_one_line(supervisor_file, tmp_path, content):
    path = tmp_path / "obs.txt"
    if content is not None:
        path.write_bytes(content)
    proc = subprocess.run([sys.executable, "-m", "faultiso.cli", "explain", TWIN,
                           supervisor_file, "--obs-file", str(path)],
                          capture_output=True, text=True)
    assert proc.returncode == cli.EXIT_MODEL == 2, proc.stderr
    assert proc.stderr.startswith(f"error: cannot read observations {path}")
    assert proc.stderr.count("\n") == 1 and proc.stdout == ""


def test_explain_obs_and_obs_file_are_exclusive(supervisor_file, tmp_path):
    proc = subprocess.run([sys.executable, "-m", "faultiso.cli", "explain", TWIN,
                           supervisor_file, "--obs", "o2", "--obs-file", "-"],
                          capture_output=True, text=True)
    assert proc.returncode == 2 and "not allowed with" in proc.stderr


# runs the CLI in-process and reports its peak RSS in KiB on stderr: VmHWM
# belongs to the new process image, where ru_maxrss would keep the RSS of
# the forked test process
RSS_PROBE = ("import sys\n"
             "from faultiso import cli\n"
             "code = cli.main(sys.argv[1:])\n"
             "sys.stdout.flush()\n"
             "with open('/proc/self/status') as status:\n"
             "    print(next(line.split()[1] for line in status\n"
             "               if line.startswith('VmHWM:')), file=sys.stderr)\n"
             "sys.exit(code)\n")


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM")
def test_explain_streams_50000_observations_in_flat_memory(tmp_path, capsys):
    model, sup = str(MODELS / "three_lamps.des"), tmp_path / "lamps.sup.json"
    assert run_cli(capsys, "synth", model, "--out", str(sup))[0] == 0
    plant, policy = cli._load_closed_loop(model, str(sup))
    trace = fi.simulate(fi.build_closed_loop(plant, policy), 60_000, seed=5)
    observations = [line[4:] for line in trace.splitlines() if line.startswith("OBS ")]
    assert len(observations) >= 50_000
    final = fi.replay(plant, policy, observations[:50_000])[-1]
    assert final.phase == "isolation" and final.verdict.isolation != "FU"

    def explain(count):
        path = tmp_path / f"obs{count}.txt"
        path.write_text("\n".join(observations[:count]) + "\n", encoding="utf-8")
        proc = subprocess.run([sys.executable, "-c", RSS_PROBE, "explain", model, str(sup),
                               "--obs-file", "-"], stdin=path.open("rb"),
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == count + 1
        assert lines[-1] == f"final verdict: {final.verdict.isolation}"
        return int(proc.stderr)

    small, large = explain(5_000), explain(50_000)
    assert large - small < 2048, (small, large)


def test_simulate_script_and_seed(capsys, supervisor_file):
    code, out, _ = run_cli(capsys, "simulate", TWIN, supervisor_file,
                           "--script", "sf1,o2,o3,o1")
    assert code == 0
    assert "DEC enforce=o3 disable={}" in out
    code, out1, _ = run_cli(capsys, "simulate", TWIN, supervisor_file,
                            "--seed", "5", "--steps", "9")
    code, out2, _ = run_cli(capsys, "simulate", TWIN, supervisor_file,
                            "--seed", "5", "--steps", "9")
    assert out1 == out2
    assert out1.startswith("SEED 5\n")


def test_simulate_empty_script_runs_no_step(capsys, supervisor_file):
    code, out, err = run_cli(capsys, "simulate", TWIN, supervisor_file, "--script", "")
    assert (code, out, err) == (0, "", "")


@pytest.mark.parametrize("form", SPLIT_FORMS)
def test_script_splits_like_obs_file(capsys, supervisor_file, tmp_path, form):
    text = SPLIT_FORMS[form].format("sf1", "o2", "o3")
    path = tmp_path / "script.txt"
    path.write_text(text + "\n", encoding="utf-8")
    events = list(cli._read_observations(str(path)))
    assert events == ["sf1", "o2", "o3"]
    want = run_cli(capsys, "simulate", TWIN, supervisor_file, "--script", ",".join(events))
    assert want[0] == 0 and "DEC enforce=o3 disable={}" in want[1]
    assert run_cli(capsys, "simulate", TWIN, supervisor_file, "--script", text) == want


def test_simulate_closed_loop_name_collision_exits_2(capsys, tmp_path, colliding_loop_text):
    # the grammar rejects the characters closed-loop names are built from, so
    # synth already fails, and writes no supervisor for simulate to read
    model, sup = tmp_path / "m.des", tmp_path / "m.sup.json"
    model.write_text(colliding_loop_text, encoding="utf-8")
    for args in (["synth", str(model), "--out", str(sup)],
                 ["simulate", str(model), str(sup), "--seed", "1"]):
        code, out, err = run_cli(capsys, *args)
        assert (code, out) == (cli.EXIT_MODEL, "")
        assert err == "error: model: line 8: state bF1@{c contains reserved character '@'\n"
    assert not sup.exists()


def test_synth_out_rejects_closed_loop_name_collision(capsys, tmp_path,
                                                     comma_collision_text):
    # commas are legal in state names, so only the closed loop's name check
    # sees the collision: synth --out runs it and writes nothing
    model, sup = tmp_path / "m.des", tmp_path / "m.sup.json"
    model.write_text(comma_collision_text, encoding="utf-8")
    code, out, err = run_cli(capsys, "synth", str(model))
    assert (code, err) == (cli.EXIT_OK, "")
    assert out.endswith("solvable: yes\ndecision {dF1}: <~,{}>\n")
    code, out_with, err = run_cli(capsys, "synth", str(model), "--out", str(sup))
    assert (code, out_with) == (cli.EXIT_MODEL, out)
    assert err == "error: model: state name aN@{aN,yN,zN} stands for two states\n"
    assert not sup.exists()


def test_simulate_bad_script(capsys, supervisor_file):
    code, _, err = run_cli(capsys, "simulate", TWIN, supervisor_file,
                           "--script", "o3")
    assert code == cli.EXIT_PROTOCOL
    assert "not admissible" in err


def test_outputs_reproducible(capsys, tmp_path):
    results = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "synth", TWIN)
        results.append(out)
    assert results[0] == results[1]
    code, out_a, _ = run_cli(capsys, "check", TWIN)
    code, out_b, _ = run_cli(capsys, "check", TWIN)
    assert out_a == out_b


def test_console_script_wiring(tmp_path):
    import subprocess, sys
    proc = subprocess.run([sys.executable, "-m", "faultiso.cli", "check", TWIN],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "diagnosable: yes" in proc.stdout


def test_supervisor_file_is_canonical(supervisor_file, capsys, tmp_path):
    first = Path(supervisor_file).read_text(encoding="utf-8")
    out2 = tmp_path / "again.json"
    run_cli(capsys, "synth", TWIN, "--out", str(out2))
    assert out2.read_text(encoding="utf-8") == first
    assert json.loads(first)["tie_break"] == "default"


def _edited(change):
    def corrupt(text):
        doc = json.loads(text)
        change(doc)
        return json.dumps(doc).encode("utf-8")
    return corrupt


@pytest.mark.parametrize("corrupt, command, code", [
    (None, ["explain", "--obs", "zz"], cli.EXIT_PROTOCOL),
    (None, ["simulate", "--seed", "1", "--steps", "0"], cli.EXIT_MODEL),
    (_edited(lambda doc: doc["decisions"][0].update(enforce="o4")),
     ["explain", "--obs", "o2"], cli.EXIT_MODEL),
    (_edited(lambda doc: doc["decisions"][0].update(disable="o3")),
     ["explain", "--obs", "o2"], cli.EXIT_MODEL),
    (_edited(lambda doc: doc["decisions"][0]["estimate"][0].pop()),
     ["explain", "--obs", "o2"], cli.EXIT_MODEL),
    (_edited(lambda doc: doc["frontier"].append([["zz", "F1"]])),
     ["explain", "--obs", "o2"], cli.EXIT_MODEL),
    (lambda text: b"\xd0\x00", ["explain", "--obs", "o2"], cli.EXIT_MODEL),
    (_edited(lambda doc: doc["decisions"].append(dict(doc["decisions"][0], enforce=None))),
     ["explain", "--obs", "o2"], cli.EXIT_MODEL),
    (_edited(lambda doc: doc.update(frontier=[])), ["explain", "--obs", "o2,o3,o2"],
     cli.EXIT_MODEL),
    (_edited(lambda doc: doc.update(frontier=[], decisions=[
        d for d in doc["decisions"] if d["enforce"] != "o3"])),
     ["explain", "--obs", "o2,o3,o2"], cli.EXIT_MODEL),
    (lambda text: ("[" * 100000 + "]" * 100000).encode("utf-8"),
     ["explain", "--obs", "o2"], cli.EXIT_MODEL),
], ids=["unknown-observation", "zero-steps", "non-forcible-enforce", "string-disable",
        "one-element-pair", "unknown-frontier-state", "not-utf8", "estimate-listed-twice",
        "frontier-emptied", "frontier-emptied-decision-dropped", "deeply-nested"])
def test_hostile_input_exit_code(supervisor_file, tmp_path, corrupt, command, code):
    sup = supervisor_file
    if corrupt is not None:
        sup = tmp_path / "bad.sup.json"
        sup.write_bytes(corrupt(Path(supervisor_file).read_text(encoding="utf-8")))
    proc = subprocess.run([sys.executable, "-m", "faultiso.cli", command[0], TWIN,
                           str(sup), *command[1:]], capture_output=True, text=True)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr


def test_supervisor_on_non_diagnosable_model_exits_4(supervisor_file, tmp_path):
    # the document is bound to this model by its digest, but the model has no
    # fault frontier for it to match
    text = ("event f fault=1\nevent o1 obs\ninit 0\n"
            "trans 0 f 1\ntrans 0 o1 0\ntrans 1 o1 1\n")
    model = tmp_path / "m.des"
    model.write_text(text, encoding="utf-8")
    sup = tmp_path / "bad.sup.json"
    sup.write_bytes(_edited(lambda doc: doc.update(
        model_hash=modelio.model_digest(modelio.parse_model_document(text))))(
        Path(supervisor_file).read_text(encoding="utf-8")))
    proc = subprocess.run([sys.executable, "-m", "faultiso.cli", "explain", str(model),
                           str(sup), "--obs", "o1"], capture_output=True, text=True)
    assert proc.returncode == cli.EXIT_NOT_DIAGNOSABLE == 4, proc.stderr
    assert proc.stderr.startswith("error: not diagnosable")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("where", ["frontier", "decision"])
@pytest.mark.parametrize("pairs", [[[1, "F1"], ["3", "F1"]], [["3", "F1"], [1, "F1"]]],
                         ids=["number-first", "string-first"])
def test_mixed_type_members_are_malformed(supervisor_file, tmp_path, where, pairs):
    # a member that is not two strings is malformed, named as listed, whatever
    # the order of the members
    def change(doc):
        if where == "frontier":
            doc["frontier"][0] = pairs
        else:
            doc["decisions"][0]["estimate"] = pairs
    sup = tmp_path / "bad.sup.json"
    sup.write_bytes(_edited(change)(Path(supervisor_file).read_text(encoding="utf-8")))
    proc = subprocess.run([sys.executable, "-m", "faultiso.cli", "explain", TWIN,
                           str(sup), "--obs", "o2"], capture_output=True, text=True)
    assert proc.returncode == cli.EXIT_MODEL == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr == ("error: model: supervisor document is malformed: "
                           "TypeError('estimate member is not two strings: [1, \"F1\"]')\n")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("value", [5, None], ids=["number", "null"])
@pytest.mark.parametrize("command", [["explain", "--obs", "o2"],
                                     ["simulate", "--seed", "1", "--steps", "3"]],
                         ids=["explain", "simulate"])
def test_non_string_model_hash_is_malformed(supervisor_file, tmp_path, value, command):
    sup = tmp_path / "bad.sup.json"
    sup.write_bytes(_edited(lambda doc: doc.update(model_hash=value))(
        Path(supervisor_file).read_text(encoding="utf-8")))
    proc = subprocess.run([sys.executable, "-m", "faultiso.cli", command[0], TWIN,
                           str(sup), *command[1:]], capture_output=True, text=True)
    assert proc.returncode == cli.EXIT_MODEL == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: model: supervisor document is malformed")
    assert proc.stderr.count("\n") == 1


def _frontier_member(member):
    """Edit: the first frontier estimate lists ``member`` before its own members."""
    return lambda doc: doc["frontier"][0].insert(0, member)


def _decision_member(member):
    """Edit: the first decision's estimate lists ``member`` after its own."""
    return lambda doc: doc["decisions"][0]["estimate"].append(member)


@pytest.mark.parametrize("change, message", [
    (_frontier_member([float("nan"), "N"]), "document is not valid JSON: NaN is not a JSON number"),
    (_decision_member([float("inf"), "F1"]),
     "document is not valid JSON: Infinity is not a JSON number"),
    (_decision_member(["1", float("-inf")]),
     "document is not valid JSON: -Infinity is not a JSON number"),
    (_frontier_member([None, "N"]),
     "document is malformed: TypeError('estimate member is not two strings: [null, \"N\"]')"),
    (_decision_member(["zz", None]),
     "document is malformed: TypeError('estimate member is not two strings: [\"zz\", null]')"),
    (_decision_member([1.5, "F1"]),
     "document is malformed: TypeError('estimate member is not two strings: [1.5, \"F1\"]')"),
    (lambda doc: doc["decisions"][0].update(disable=["zz", "F1", 1]),
     "decision at {1F1,6F2}: unknown event: F1"),
], ids=["nan", "infinity", "minus-infinity", "null-base", "null-label", "number-base",
        "unknown-events"])
def test_supervisor_errors_do_not_vary_per_process(supervisor_file, tmp_path, change, message):
    # NaN and Infinity are not JSON; a member that is not two strings is
    # named as listed, and of unknown events the first by repr.  No message
    # depends on hash order, so two processes with different hash seeds
    # print the same line
    sup = tmp_path / "bad.sup.json"
    sup.write_bytes(_edited(change)(Path(supervisor_file).read_text(encoding="utf-8")))
    errors = set()
    for seed in ("0", "1"):
        proc = subprocess.run([sys.executable, "-m", "faultiso.cli", "explain", TWIN,
                               str(sup), "--obs", "o2"], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONHASHSEED=seed))
        assert proc.returncode == cli.EXIT_MODEL == 2, proc.stderr
        errors.add(proc.stderr)
    assert errors == {f"error: model: supervisor {message}\n"}


def test_huge_number_in_supervisor_is_one_line(supervisor_file, tmp_path):
    # past the interpreter's digit limit json.loads raises a plain ValueError;
    # it is invalid JSON there, and a member that is no string elsewhere
    sup = tmp_path / "bad.sup.json"
    sup.write_text(Path(supervisor_file).read_text(encoding="utf-8").replace(
        '"frontier": [', '"frontier": [[[' + "9" * 5000 + ', "N"]], ', 1), encoding="utf-8")
    proc = subprocess.run([sys.executable, "-m", "faultiso.cli", "explain", TWIN,
                           str(sup), "--obs", "o2"], capture_output=True, text=True)
    assert proc.returncode == cli.EXIT_MODEL == 2, proc.stderr
    assert proc.stderr.startswith("error: model: supervisor document is ")
    assert proc.stderr.count("\n") == 1


FUZZ_FLAGS = ["obs", "ctrl", "forc", "fault=1", "fault=2", "fault=0", "fault=x"]
FUZZ_NUMBERS = ["-1", "0", "-99999", str(2 ** 63), "9" * 40]
FUZZ_VALUES = [None, True, 0, -1, 1.5, 10 ** 30, -10 ** 30, "", "o2", [], {},
               [["1", "F1"]], [[["1", "F1"]]]]


def fuzz_lines(data, lines):
    """Drop, duplicate or edit one line: its event flags or one of its words."""
    lines = list(lines)
    i = data.draw(st.integers(0, len(lines) - 1))
    op = data.draw(st.sampled_from(["drop", "duplicate", "flags", "number"]))
    words = lines[i].split()
    if op == "drop":
        del lines[i]
    elif op == "duplicate":
        lines.insert(i, lines[i])
    elif op == "flags" and words[:1] == ["event"]:
        flags = data.draw(st.lists(st.sampled_from(FUZZ_FLAGS), max_size=3))
        lines[i] = " ".join(words[:2] + flags)
    elif words:
        j = data.draw(st.integers(0, len(words) - 1))
        number = data.draw(st.sampled_from(FUZZ_NUMBERS))
        words[j] = words[j].split("=")[0] + "=" + number if "=" in words[j] else number
        lines[i] = " ".join(words)
    return lines


def fuzz_json(data, doc):
    """Retype one value of the document, found by walking down from the top."""
    top = {"doc": doc}
    node, key = top, "doc"
    while isinstance(node[key], (dict, list)) and node[key] \
            and data.draw(st.booleans()):
        node = node[key]
        key = data.draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                        else range(len(node))))
    node[key] = data.draw(st.sampled_from(FUZZ_VALUES))
    return top["doc"]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    assert cli.main(["synth", TWIN, "--out", str(path / "twin.sup.json")]) == 0
    return path


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_inputs_exit_with_documented_codes(fuzz_dir, data):
    """Mutated twin-branch model text and supervisor JSON, run through
    ``check``, ``diagnoser --dot``, ``synth``, ``explain`` and ``simulate``
    in-process: every run ends with a documented exit code, never with an
    exception."""
    model, sup, own_sup = (fuzz_dir / name for name in ("m.des", "s.json", "own.json"))
    lines = twin_branch_text().splitlines()
    for _ in range(data.draw(st.integers(1, 3))):
        lines = fuzz_lines(data, lines)
    model.write_text("\n".join(lines) + "\n", encoding="utf-8")
    text = (fuzz_dir / "twin.sup.json").read_text(encoding="utf-8")
    if data.draw(st.booleans()):
        sup.write_text("\n".join(fuzz_lines(data, text.splitlines())), encoding="utf-8")
    else:
        sup.write_text(json.dumps(fuzz_json(data, json.loads(text))), encoding="utf-8")
    own_sup.unlink(missing_ok=True)
    runs = [["check", str(model)], ["diagnoser", str(model), "--dot", str(fuzz_dir / "m.dot")],
            ["synth", str(model), "--out", str(own_sup)]]
    for m, s in ((TWIN, sup), (model, own_sup)):
        runs += [["explain", str(m), str(s), "--obs", "o2,o3,o1"],
                 ["simulate", str(m), str(s), "--seed", "3", "--steps", "12"]]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for argv in runs:
            assert cli.main(argv) in {0, 2, 3, 4, 5, 6}, argv


def fuzz_bytes(data, raw):
    """Flip one bit, insert one byte, truncate, or put a NUL at one offset."""
    if not raw:
        return raw
    i = data.draw(st.integers(0, len(raw) - 1))
    op = data.draw(st.sampled_from(["flip", "insert", "truncate", "nul"]))
    if op == "flip":
        return raw[:i] + bytes([raw[i] ^ 1 << data.draw(st.integers(0, 7))]) + raw[i + 1:]
    if op == "insert":
        return raw[:i] + bytes([data.draw(st.integers(0, 255))]) + raw[i:]
    return raw[:i] if op == "truncate" else raw[:i] + b"\0" + raw[i + 1:]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_byte_mutated_models_exit_with_documented_codes(fuzz_dir, data):
    """Twin-branch model text with one to three byte-level mutations, run
    through ``check``, ``diagnoser --dot`` and ``synth`` in-process: every
    run ends with a documented exit code, never with an exception."""
    raw = twin_branch_text().encode("utf-8")
    for _ in range(data.draw(st.integers(1, 3))):
        raw = fuzz_bytes(data, raw)
    model = fuzz_dir / "b.des"
    model.write_bytes(raw)
    runs = [["check", str(model)], ["diagnoser", str(model), "--dot", str(fuzz_dir / "b.dot")],
            ["synth", str(model)]]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for argv in runs:
            assert cli.main(argv) in {0, 2, 3, 4, 5, 6}, argv


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_byte_mutated_lamps_exit_with_documented_codes(fuzz_dir, data):
    """The three-lamp model with one to three byte-level mutations, run
    through ``check``, ``diagnoser --dot`` and ``synth`` in-process: every
    run ends with a documented exit code, never with an exception."""
    raw = (MODELS / "three_lamps.des").read_bytes()
    for _ in range(data.draw(st.integers(1, 3))):
        raw = fuzz_bytes(data, raw)
    model = fuzz_dir / "lamps.des"
    model.write_bytes(raw)
    runs = [["check", str(model)], ["diagnoser", str(model), "--dot", str(fuzz_dir / "lamps.dot")],
            ["synth", str(model)]]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for argv in runs:
            assert cli.main(argv) in {0, 2, 3, 4, 5, 6}, argv


def synth_model(tmp_path, size):
    """The twin-branch model, whose ``synth`` stdout fits the stdout buffer
    and so is written at the final flush, or four lamps (about 22 KB), whose
    stdout is written while ``synth`` is still printing."""
    if size == "small":
        return TWIN
    model = tmp_path / "lamps4.des"
    model.write_text(lamps_text(4, "lamps4", "4 lamps"), encoding="utf-8")
    return str(model)


def synth_into(stdout, model):
    return subprocess.run([sys.executable, "-m", "faultiso.cli", "synth", model],
                          stdout=stdout, stderr=subprocess.PIPE, text=True)


@pytest.mark.parametrize("size", ["small", "large"])
def test_closed_stdout_is_a_quiet_exit(tmp_path, size):
    model = synth_model(tmp_path, size)
    read, write = os.pipe()
    os.close(read)  # the reader is gone before the first write
    try:
        proc = synth_into(write, model)
    finally:
        os.close(write)
    assert proc.returncode == cli.EXIT_BROKEN_PIPE == 141
    assert proc.stderr == ""


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs the /dev/full device")
@pytest.mark.parametrize("size", ["small", "large"])
def test_full_stdout_exits_2_with_one_line(tmp_path, size):
    model = synth_model(tmp_path, size)
    with open("/dev/full", "w") as full:
        proc = synth_into(full, model)
    assert proc.returncode == cli.EXIT_MODEL
    assert proc.stderr.startswith("error: cannot write standard output: ")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("command", [["synth", "--out"], ["synth", "--dot"],
                                     ["diagnoser", "--dot"]],
                         ids=["synth-out", "synth-dot", "diagnoser-dot"])
def test_unwritable_output_path(tmp_path, command):
    # a missing parent directory, then an existing directory as the target
    for target in (tmp_path / "missing" / "x.out", tmp_path):
        proc = subprocess.run([sys.executable, "-m", "faultiso.cli", command[0], TWIN,
                               command[1], str(target)], capture_output=True, text=True)
        assert proc.returncode == cli.EXIT_MODEL, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"error: cannot write {target}: ")
        assert proc.stderr.count("\n") == 1


# sha256 of `faultiso synth` stdout (no --out or --dot), of the --out
# supervisor document and of the --dot file, per bundled model and tie-break
SYNTH_DIGESTS = {
    ("twin_branch", "default"): (
        "5f17c9459d26440c913b95db94a54b64a57dba719a30a09c50a9e097ad5b5e91",
        "ecc50609de5fb73f2a0d321ccbdf669c72506d163068c689a8040950faa7f0aa",
        "399782854c98d8721a8b2fe75930547e2bb37182280b0fecbd29f8bb3af575c3"),
    ("twin_branch", "paper-example"): (
        "a9a621be94117e36a385a7b8d7becb1d603aa6db58af3726e75cb78e094d2f85",
        "47e4aaaf495f79ea289396688ce7b3ec39bc8506f5929dcf8893a652cec82b6b",
        "6e85e1009b735700f37d1acbf29ad04e611ed946922285ce3176140f7ae60c38"),
    ("three_lamps", "default"): (
        "1e05a427f6cf1a524e7f79dfc03838da70e289e7054a42e19a60392aead99e58",
        "eca8b20921cba945ec7ff0a414b57f35b1e9bbe41803572122b74c6dcdbf2b5e",
        "a14a58ed429b82b3b6cbfe7993577f5bf781a417e145e88ccc70853fc06b2841"),
    ("three_lamps", "paper-example"): (
        "c0f5195c9747cec9e9871ead3e079d95817d5cd7007a2e0240cd9951ffb4cda3",
        "b4ece5f114f8864d994d492bb6503fe25243a10babb115794f4cb0598956b63d",
        "09e72995e9474ea6459de0863ae4e9fc85c853cf8296308805bf001154830057"),
}


@pytest.mark.parametrize("model, tie_break", list(SYNTH_DIGESTS))
def test_synth_outputs_match_pinned_digests(capsys, tmp_path, model, tie_break):
    argv = ["synth", str(MODELS / f"{model}.des")]
    if tie_break != "default":
        argv += ["--tie-break", tie_break]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    sup, dot = tmp_path / "sup.json", tmp_path / "bts.dot"
    code, _, _ = run_cli(capsys, *argv, "--out", str(sup), "--dot", str(dot))
    assert code == 0
    digests = tuple(hashlib.sha256(data).hexdigest()
                    for data in (out.encode("utf-8"), sup.read_bytes(), dot.read_bytes()))
    assert digests == SYNTH_DIGESTS[(model, tie_break)]
