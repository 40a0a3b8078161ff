"""The four workloads: inputs from a seed, one round of timed work, checks.

Constructing a workload builds its inputs from the seed (the part timed as
``setup_s``, with the package import); then ``run_round`` is called until
the run's time is up.  Each round records the latency of every unit
operation in ``stats`` and compares every output with the committed known
answers in ``answers.json``; a mismatch or a raise outside the documented
verdict errors counts as a failed operation.

Every round also runs one ``faultiso`` command on the workload's model as
a whole process, as a user would.
"""
from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import faultiso as fi
from faultiso import modelio

import flows
from lamps import lamps_text
from plantgen import random_plant

HERE = Path(__file__).resolve().parent
CLI_TIMEOUT_S = 150


class Stats:
    """Per-run record of operations, their latencies and failures.

    Recording an operation gives the calibrator its turn to time its
    kernel, between operations and outside their timings.  A CLI process
    runs between two kernel samples and is scaled by those alone: a process
    is short and its start-up follows the machine's speed at that moment.
    """

    def __init__(self, calibrator):
        self.calibrator = calibrator
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.cli_raw: list[float] = []
        self.cli_s: list[float] = []
        self.notes: list[str] = []

    def op(self, seconds: float, ok: bool, what: str = "") -> None:
        self.latencies.append(seconds)
        self.attempted += 1
        if not ok:
            self.fail(what)
        self.calibrator.tick()

    def cli(self, tracer, command: str, root: Path, work: Path,
            args: list[str]) -> subprocess.CompletedProcess:
        """``run_cli(root, work, args)`` in a span named ``cli.<command>``."""
        (seconds, proc), factor = self.calibrator.around(
            tracer.call, f"cli.{command}", run_cli, root, work, args)
        self.cli_raw.append(seconds)
        self.cli_s.append(seconds * factor)
        return proc

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(what)


def load_answers() -> dict:
    return json.loads((HERE / "answers.json").read_text(encoding="utf-8"))


def _mismatch(got: dict, expected: dict) -> str:
    keys = sorted(set(got) | set(expected))
    diffs = [f"{k}: {got.get(k)!r} != {expected.get(k)!r}"
             for k in keys if got.get(k) != expected.get(k)]
    return "; ".join(diffs)


def run_cli(root: Path, work: Path, args: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    """One whole ``faultiso`` process, as the console script would start it.

    It runs in ``work``, so output files named relative to it print the same
    in every checkout.
    """
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "faultiso.cli", *args], env=env,
                          cwd=work, capture_output=True, text=True,
                          timeout=CLI_TIMEOUT_S)
    return time.perf_counter() - start, proc


class _Workload:
    # process start-up is noisier than the work it times: the cheap commands
    # run several times per round so that cli_s is a median over a dozen or more
    cli_repeats = 3

    def __init__(self, root: Path, work: Path, seed: int, answers: dict):
        self.root = root
        self.work = work
        self.seed = seed
        self.answers = answers[self.name]

    def _cli(self, tracer, stats: Stats, command: str) -> None:
        """``faultiso <command>`` on the workload's model file, ``cli_repeats``
        times; exit code and output must match the known answers."""
        for _ in range(self.cli_repeats):
            proc = stats.cli(tracer, command, self.root, self.work,
                             [command, self.model.name])
            got = {"exit": proc.returncode, "stdout_sha256": flows.sha256(proc.stdout)}
            stats.attempted += 1
            if got != self.answers["cli"]:
                stats.fail(f"cli {command}: {_mismatch(got, self.answers['cli'])}")


class SynthLamps4(_Workload):
    """The case study at 4 lamps through the whole synthesis pipeline."""

    name = "synth_lamps4"
    # three rounds fit a run; five commands each make fifteen processes
    cli_repeats = 5

    def __init__(self, *args):
        super().__init__(*args)
        self.text = lamps_text(4, "four-lamps", "the lamp ladder at four lamps")
        self.model = self.work / "four_lamps.des"
        self.model.write_text(self.text, encoding="utf-8")

    def run_round(self, tracer, stats: Stats) -> None:
        start = time.perf_counter()
        try:
            doc, aut = flows.parse(tracer, self.text)
            plant = tracer.call("diagnosis.build_labeled_plant", fi.build_labeled_plant, aut)
            tracer.count("diagnosis.labeled_states", len(plant.automaton.states))
            facts = flows.synthesize(tracer, plant, doc)
            problem = _mismatch(facts, self.answers["facts"])
        except Exception as exc:  # any raise is a failed operation, not a crash
            problem = f"raised {exc!r}"
        stats.op(time.perf_counter() - start, not problem, f"synth: {problem}")
        self._cli(tracer, stats, "check")


class CheckLamps6(_Workload):
    """Passive verification only (assumptions, diagnosability,
    isolatability) of the case study at 6 lamps."""

    name = "check_lamps6"

    def __init__(self, *args):
        super().__init__(*args)
        self.text = lamps_text(6, "six-lamps", "the lamp ladder at six lamps")
        self.model = self.work / "six_lamps.des"
        self.model.write_text(self.text, encoding="utf-8")

    def run_round(self, tracer, stats: Stats) -> None:
        start = time.perf_counter()
        try:
            _, aut = flows.parse(tracer, self.text)
            facts = flows.check(tracer, aut)[0]
            problem = _mismatch(facts, self.answers["facts"])
        except Exception as exc:
            problem = f"raised {exc!r}"
        stats.op(time.perf_counter() - start, not problem, f"check: {problem}")
        self._cli(tracer, stats, "diagnoser")


# -- corpus ---------------------------------------------------------------------

CORPUS_FIELDS = ("diagnosable", "isolatable", "solvable", "labeled_states",
                 "diagnoser_states", "diagnoser_transitions", "y_states", "z_states",
                 "zy_edges", "deadlocks", "live_z_states", "good_y", "good_z",
                 "max_round", "isolation_bound", "closed_loop_states", "cl_bound",
                 "witness_sha256", "supervisor_sha256")


def corpus_pool(pool_seed: int, size: int) -> list:
    rng = random.Random(pool_seed)
    return [random_plant(rng) for _ in range(size)]


def plant_text(aut) -> str:
    doc = modelio.ModelDocument(None, None, aut.table.events, (), aut.initial,
                                tuple(sorted((s, e, d) for (s, e), d in
                                             aut.transitions.items())))
    return modelio.serialize_model(doc)


def corpus_facts(tracer, text: str) -> dict:
    """Parse, check and, where the plant is detectable but not passively
    isolatable, synthesise; reduced to the committed answer fields."""
    doc, aut = flows.parse(tracer, text)
    facts, plant, needs_control = flows.check(tracer, aut)
    if needs_control:
        facts.update(flows.synthesize(tracer, plant, doc))
        if facts["solvable"] and not (facts["live"] and facts["cl_isolatable"]):
            facts["supervisor_sha256"] = "closed loop not live and isolatable"
    if facts.get("witness"):
        facts["witness_sha256"] = flows.sha256(facts["witness"])
    return {k: facts.get(k) for k in CORPUS_FIELDS}


class Corpus(_Workload):
    """Many small seeded random plants through the whole flow."""

    name = "corpus"

    def __init__(self, *args):
        super().__init__(*args)
        meta = self.answers
        self.rows = [dict(zip(meta["fields"], row)) for row in meta["plants"]]
        pool = corpus_pool(meta["pool_seed"], len(self.rows))
        self.texts = [plant_text(aut) for aut in pool]
        # every pass runs the whole pool, in an order drawn by the seed
        self.rng = random.Random(self.seed)
        self.order = list(range(len(pool)))
        self.rng.shuffle(self.order)
        self.model = self.work / "plant.des"

    def run_round(self, tracer, stats: Stats) -> None:
        for i in self.order:
            start = time.perf_counter()
            with tracer.span("corpus.plant", op=f"plant{i}"):
                try:
                    problem = _mismatch(corpus_facts(tracer, self.texts[i]), self.rows[i])
                except Exception as exc:
                    problem = f"raised {exc!r}"
            stats.op(time.perf_counter() - start, not problem, f"plant {i}: {problem}")
        self._cli_check(tracer, stats)

    def _cli_check(self, tracer, stats: Stats) -> None:
        """``faultiso check`` on plants of the pool, ``cli_repeats`` times;
        exit code and verdict lines must match each plant's known answers."""
        for _ in range(self.cli_repeats):
            i = self.rng.randrange(len(self.texts))
            self.model.write_text(self.texts[i], encoding="utf-8")
            proc = stats.cli(tracer, "check", self.root, self.work, ["check", self.model.name])
            row = self.rows[i]
            lines = proc.stdout.splitlines()
            yes_no = {True: "yes", False: "no"}
            got = {"exit": proc.returncode,
                   "diagnosable": f"diagnosable: {yes_no[row['diagnosable']]}" in lines,
                   "isolatable": row["isolatable"] is None or
                   f"isolatable (uncontrolled): {yes_no[row['isolatable']]}" in lines}
            expected = {"exit": 0 if row["diagnosable"] else 4, "diagnosable": True,
                        "isolatable": True}
            stats.attempted += 1
            if got != expected:
                stats.fail(f"cli check plant {i}: {_mismatch(got, expected)}")


# -- lamps3_online --------------------------------------------------------------

TRACE_OBS = 10_000
# the seed of the one trace per run that is checked against a committed digest
KNOWN_TRACE_SEED = 2023


def parse_trace(trace: str) -> list[tuple[str, str | None, str]]:
    """``simulate`` output to (observation, decision text, verdict text)."""
    steps: list[list] = []
    for line in trace.splitlines():
        kind, _, rest = line.partition(" ")
        if kind == "OBS":
            steps.append([rest, None, None])
        elif kind == "DEC":
            steps[-1][1] = rest
        elif kind == "VERDICT":
            steps[-1][2] = rest
    return [tuple(s) for s in steps]


def decision_text(dec) -> str:
    return f"enforce={dec.enforce or '~'} disable={{{','.join(sorted(dec.disable))}}}"


class Lamps3Online(_Workload):
    """The three-lamp case study as a user drives it: ``faultiso synth`` as a
    process, then load, closed loop, verify, and a long trace replayed one
    ``engine_step`` at a time."""

    name = "lamps3_online"

    def __init__(self, *args):
        super().__init__(*args)
        self.model = self.root / "models" / "three_lamps.des"
        self.text = self.model.read_text(encoding="utf-8")
        self.rounds = 0

    def _cli_synth(self, tracer, stats: Stats) -> str | None:
        """``faultiso synth --out --dot``; returns the supervisor JSON when
        every output matches the known answers."""
        out, dot = self.work / "sup.json", self.work / "bts.dot"
        proc = stats.cli(tracer, "synth", self.root, self.work,
                         ["synth", str(self.model), "--out", out.name, "--dot", dot.name])
        supervisor = out.read_text(encoding="utf-8") if out.exists() else None
        got = {"exit": proc.returncode, "stdout_sha256": flows.sha256(proc.stdout),
               "supervisor_sha256": supervisor and flows.sha256(supervisor),
               "dot_sha256": flows.sha256(dot.read_text(encoding="utf-8"))
               if dot.exists() else None}
        expected = self.answers["cli"]
        stats.attempted += 1
        for path in (out, dot):
            path.unlink(missing_ok=True)
        if got != expected:
            stats.fail(f"cli synth: {_mismatch(got, expected)} {proc.stderr[-300:]}")
            return None
        return supervisor

    def run_round(self, tracer, stats: Stats) -> None:
        self.rounds += 1
        supervisor = self._cli_synth(tracer, stats)
        if supervisor is None:
            return
        try:
            doc, aut = flows.parse(tracer, self.text)
            plant = tracer.call("diagnosis.build_labeled_plant", fi.build_labeled_plant, aut)
            policy = tracer.call("modelio.supervisor_io", modelio.load_supervisor,
                                 supervisor, plant, doc)
            facts, cl = flows.closed_loop(tracer, plant, policy)
            problem = _mismatch(facts, self.answers["closed_loop"])
            if self.rounds == 1:
                stats.attempted += 1
                known = fi.simulate(cl, TRACE_OBS + 1000, seed=KNOWN_TRACE_SEED)
                if flows.sha256(known) != self.answers["trace_sha256"]:
                    stats.fail(f"simulate at seed {KNOWN_TRACE_SEED} differs from its "
                               "known answer")
            trace = tracer.call("runtime.simulate", fi.simulate, cl, TRACE_OBS + 1000,
                                seed=self.seed * 1000 + self.rounds)
        except Exception as exc:
            problem, trace = f"raised {exc!r}", ""
        stats.attempted += 1
        steps = parse_trace(trace)[:TRACE_OBS]
        if problem or len(steps) < TRACE_OBS:
            stats.fail(f"session: {problem} ({len(steps)} observations)")
            return
        tracer.count("runtime.trace_obs", len(steps))
        self._replay(tracer, stats, plant, policy, steps)

    def _replay(self, tracer, stats, plant, policy, steps) -> None:
        state = fi.initial_engine_state(plant)
        step = fi.engine_step
        call = tracer.call
        for j, (obs, dec, verdict) in enumerate(steps):
            start = time.perf_counter()
            try:
                state = call("runtime.engine_step", step, plant, policy, state, obs,
                             op=j)
            except Exception as exc:
                stats.op(time.perf_counter() - start, False, f"step raised {exc!r}")
                return
            elapsed = time.perf_counter() - start
            got_dec = decision_text(state.active_decision) \
                if state.active_decision is not None else None
            got_verdict = f"det={state.verdict.detection} iso={state.verdict.isolation}"
            ok = got_dec == dec and got_verdict == verdict
            stats.op(elapsed, ok, f"step {obs}: {got_dec} {got_verdict} != {dec} {verdict}")


WORKLOADS = {w.name: w for w in (SynthLamps4, CheckLamps6, Corpus, Lamps3Online)}
