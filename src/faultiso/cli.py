"""Command-line front end.

Subcommands: ``check`` (assumptions, diagnosability, uncontrolled
isolatability), ``diagnoser`` (build and report), ``synth`` (full synthesis
pipeline), ``simulate`` (closed-loop runs) and ``explain`` (replay an
observation sequence through the runtime engine).

Exit codes: 0 success/solvable, 2 model error, 3 assumption failure,
4 not diagnosable, 5 not solvable, 6 runtime protocol error; 141 when the
reader of standard output closed it early.
"""
from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext
from pathlib import Path

from . import diagnosis, dotexport, modelio, runtime, synthesis
from .automata import check_assumptions
from .errors import (
    AssumptionError,
    FaultIsoError,
    ModelError,
    NotDiagnosableError,
    ProtocolError,
    SchedulerError,
    SynthesisError,
)

EXIT_OK = 0
EXIT_MODEL = 2
EXIT_ASSUMPTIONS = 3
EXIT_NOT_DIAGNOSABLE = 4
EXIT_NOT_SOLVABLE = 5
EXIT_PROTOCOL = 6
EXIT_BROKEN_PIPE = 141  # as for a process killed by SIGPIPE (128 + 13)


def _read(what: str, path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ModelError(f"cannot read {what} {path}: {exc}") from None


def _load_model(path: str):
    doc = modelio.parse_model_document(_read("model", path))
    aut, table = modelio.to_system(doc)
    return doc, aut, table


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise FaultIsoError(f"cannot write {path}: {exc}") from None


def _cmd_check(args) -> int:
    doc, aut, table = _load_model(args.model)
    print(f"model: {doc.name or args.model} ({len(aut.states)} states, "
          f"{len(table.events)} events, {len(aut.transitions)} transitions)")
    report = check_assumptions(aut)
    print(f"assumptions: {report.explain()}")
    if not report.passing:
        return EXIT_ASSUMPTIONS
    plant = diagnosis.build_labeled_plant(aut)
    diag_report = diagnosis.check_diagnosability(plant)
    print(f"diagnosable: {'yes' if diag_report.diagnosable else 'no'}")
    if not diag_report.diagnosable:
        faulty, normal = diag_report.witness
        print(f"  confusable runs: faulty [{' '.join(faulty)}] "
              f"vs normal [{' '.join(normal)}] (extendable forever)")
        return EXIT_NOT_DIAGNOSABLE
    iso = diagnosis.check_isolatability(plant)
    print(f"isolatable (uncontrolled): {'yes' if iso.isolatable else 'no'}")
    if not iso.isolatable:
        print(f"  mixed cycle: {iso.witness_text()}")
    return EXIT_OK


def _cmd_diagnoser(args) -> int:
    doc, aut, table = _load_model(args.model)
    plant = diagnosis.build_labeled_plant(aut)
    diag = diagnosis.build_diagnoser(plant)
    print(f"diagnoser: {len(diag.states)} states, {len(diag.alphabet)} events, "
          f"{len(diag.transitions)} transitions")
    print(f"initial: {diag.initial}")
    if args.dot:
        _write(args.dot, dotexport.export_diagnoser_dot(diag))
        print(f"dot written to {args.dot}")
    return EXIT_OK


def _cmd_synth(args) -> int:
    doc, aut, table = _load_model(args.model)
    plant = diagnosis.build_labeled_plant(aut)
    run = synthesis.synthesize(plant, args.tie_break)
    bts, deadlocks, result = run.bts, run.deadlocks, run.result
    print("Y0: " + " ".join(str(y) for y in sorted(bts.initial, key=str)))
    print("Ym: " + " ".join(str(y) for y in sorted(bts.marked, key=str)))
    print(f"deadlock Z-states: {len(deadlocks)}")
    print(f"good Y-states: {len(result.good_y)}")
    print(f"isolation bound: {result.isolation_bound if result.solvable else '-'}")
    print(f"solvable: {'yes' if result.solvable else 'no'}")
    if args.dot:
        # the pruned graph holds no deadlock Z-state, so none is drawn red
        _write(args.dot, dotexport.export_bts_dot(run.live, result=result))
        print(f"dot written to {args.dot}")
    try:
        policy = run.policy
    except SynthesisError as exc:
        for y, reasons in exc.bad_initials.items():
            print(f"not good: {y}")
            for dec, misses in reasons.items():
                if misses:
                    print(f"  {dec} can reach non-good: {' '.join(map(str, misses))}")
        return EXIT_NOT_SOLVABLE
    for y in sorted(policy.decisions, key=str):
        print(f"decision {y}: {policy.decisions[y]}")
    if args.out:
        runtime.build_closed_loop(plant, policy)  # ModelError if two of its states share a name
        del plant  # released before the document is built, to keep it out of the peak
        sup_doc = modelio.supervisor_document(policy, doc, args.tie_break,
                                              result.isolation_bound)
        _write(args.out, modelio.serialize_supervisor(sup_doc))
        print(f"supervisor written to {args.out}")
    return EXIT_OK


def _load_closed_loop(model_path: str, supervisor_path: str):
    doc, aut, table = _load_model(model_path)
    plant = diagnosis.build_labeled_plant(aut)
    policy = modelio.load_supervisor(_read("supervisor", supervisor_path), plant, doc)
    return plant, policy


def _cmd_simulate(args) -> int:
    plant, policy = _load_closed_loop(args.model, args.supervisor)
    cl = runtime.build_closed_loop(plant, policy)
    trace = runtime.simulate(cl, args.steps, script=args.script, seed=args.seed)
    sys.stdout.write(trace)
    return EXIT_OK


def _split_events(text: str) -> list[str]:
    """Events separated by commas or whitespace: ``--obs``, ``--script``, ``--obs-file`` lines."""
    return text.replace(",", " ").split()


def _read_observations(path: str):
    """The observations in ``path`` (``-``: stdin), read a line at a time."""
    try:
        with open(path, encoding="utf-8") if path != "-" else nullcontext(sys.stdin) as stream:
            for line in stream:
                yield from _split_events(line)
    except (OSError, UnicodeDecodeError) as exc:
        raise FaultIsoError(f"cannot read observations {path}: {exc}") from None


def _cmd_explain(args) -> int:
    plant, policy = _load_closed_loop(args.model, args.supervisor)
    observations = args.obs if args.obs_file is None else _read_observations(args.obs_file)
    st = runtime.initial_engine_state(plant)
    for obs in observations:
        st = runtime.engine_step(plant, policy, st, obs)
        dec = st.active_decision
        dec_text = f" decision={dec}" if dec is not None else ""
        print(f"obs {obs} -> estimate {st.estimate} phase={st.phase}"
              f"{dec_text} verdict={st.verdict}")
    print(f"final verdict: {st.verdict.isolation}")
    return EXIT_OK


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="faultiso",
        description="Synthesise and run active fault-isolation supervisors "
                    "for discrete event systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="assumptions, diagnosability, isolatability")
    p.add_argument("model")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("diagnoser", help="build the diagnoser")
    p.add_argument("model")
    p.add_argument("--dot", help="write diagnoser DOT to this file")
    p.set_defaults(func=_cmd_diagnoser)

    p = sub.add_parser("synth", help="synthesise an isolation supervisor")
    p.add_argument("model")
    p.add_argument("--tie-break", choices=list(synthesis.TIE_BREAK_MODES),
                   default="default")
    p.add_argument("--out", help="write the supervisor document to this file")
    p.add_argument("--dot", help="write the pruned bipartite system DOT to this file")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("simulate", help="run the closed loop")
    p.add_argument("model")
    p.add_argument("supervisor")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--script", type=_split_events,
                       help="plant events to execute, separated by commas or whitespace")
    group.add_argument("--seed", type=int, help="seed for the random scheduler")
    p.add_argument("--steps", type=_positive_int, default=20)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("explain", help="replay observations through the engine")
    p.add_argument("model")
    p.add_argument("supervisor")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--obs", type=_split_events,
                       help="observations separated by commas or whitespace")
    group.add_argument("--obs-file", metavar="PATH",
                       help="observations separated by commas or whitespace; - is stdin")
    p.set_defaults(func=_cmd_explain)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ModelError as exc:
        print(f"error: model: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except AssumptionError as exc:
        print(f"error: assumptions: {exc}", file=sys.stderr)
        return EXIT_ASSUMPTIONS
    except NotDiagnosableError as exc:
        print(f"error: not diagnosable: {exc}", file=sys.stderr)
        return EXIT_NOT_DIAGNOSABLE
    except SynthesisError as exc:
        print(f"error: not solvable: {exc}", file=sys.stderr)
        return EXIT_NOT_SOLVABLE
    except (ProtocolError, SchedulerError) as exc:
        print(f"error: runtime: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL
    except FaultIsoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MODEL


def entry():
    """Console entry point.  A reader that closes standard output early ends
    the run quietly with ``EXIT_BROKEN_PIPE``; any other failure to write it
    exits 2 with one ``error:`` line."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        code = EXIT_BROKEN_PIPE
    except OSError as exc:
        print(f"error: cannot write standard output: {exc}", file=sys.stderr)
        code = EXIT_MODEL
    else:
        raise SystemExit(code)
    # stdout is unusable: send it to devnull, so the flush at exit cannot fail again
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    raise SystemExit(code)


if __name__ == "__main__":
    entry()
