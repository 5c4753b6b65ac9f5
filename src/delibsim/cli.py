"""Command line interface.

Subcommands: ``run`` (one maximal deliberation), ``transitions`` (enumerate
from the initial structure), ``oracle`` (max support, optional exhaustive
reachability), ``batch`` (generated scenario sweeps to CSV), ``fixtures``
(list or dump the builtin scenarios).

Exit codes: 0 success, 1 usage error, 2 invalid scenario or structure,
3 solver or search cap exceeded.  Set ``DELIB_LOG=DEBUG`` (or any level
name) to see per-step engine logging on stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from .coalition import CoalitionStructure, potential, signature
from .engine import (
    GeneratorConfig,
    Policy,
    PolicyError,
    batch,
    run,
    summarize,
)
from .geometry import MetricError, SolverError
from .oracle import DEFAULT_STATE_CAP, OracleError, explore
from .space import DeliberationSpace, OracleCapError, SpaceError
from .transitions import (
    TRANSITION_KINDS,
    SubsetCapError,
    Transition,
    enumerate_transitions,
)
from .scenario_io import (
    FIXTURE_NAMES,
    ScenarioFormatError,
    ScenarioValidationError,
    builtin_fixture,
    dump_scenario,
    encode_structure,
    encode_transition,
    load_scenario,
    write_summary,
    write_trace,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_CAP = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _kind_list(text: str) -> tuple[str, ...]:
    kinds = tuple(k.strip() for k in text.split(",") if k.strip())
    for kind in kinds:
        if kind not in TRANSITION_KINDS:
            raise argparse.ArgumentTypeError(f"unknown transition kind {kind!r}")
    if not kinds:
        raise argparse.ArgumentTypeError("empty kind list")
    return kinds


def _seed_range(text: str) -> tuple[int, ...]:
    """Either "A..B" (inclusive) or a comma-separated list of integers."""
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
            if hi < lo:
                raise ValueError
            return tuple(range(lo, hi + 1))
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"seeds must be 'A..B' or comma-separated integers, got {text!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="delibsim", description=__doc__.splitlines()[0])
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    def add_source(p: argparse.ArgumentParser) -> None:
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--scenario", help="path to a scenario JSON file")
        group.add_argument("--fixture", help="name of a builtin scenario")

    p_run = sub.add_parser("run", help="run one maximal deliberation")
    add_source(p_run)
    p_run.add_argument(
        "--policy",
        default=",".join(TRANSITION_KINDS),
        help="tiers joined by '>', kinds within a tier by ','",
    )
    p_run.add_argument("--selector", choices=("uniform_random", "first_enumerated"),
                       default="uniform_random")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--step-cap", type=int, default=None)
    p_run.add_argument("--out", help="write the full trace JSON here")

    p_tr = sub.add_parser("transitions", help="enumerate transitions from the initial structure")
    add_source(p_tr)
    p_tr.add_argument("--kinds", type=_kind_list, default=TRANSITION_KINDS)

    p_or = sub.add_parser("oracle", help="max support; optional exhaustive reachability check")
    add_source(p_or)
    p_or.add_argument("--explore", action="store_true",
                      help="breadth-first search of every reachable structure")
    p_or.add_argument("--kinds", type=_kind_list, default=TRANSITION_KINDS)
    p_or.add_argument("--state-cap", type=int, default=DEFAULT_STATE_CAP)

    p_batch = sub.add_parser("batch", help="run policies over generated scenarios")
    p_batch.add_argument(
        "--gen", default='{"mode": "finite"}',
        help="generator config: a JSON file path or an inline JSON object",
    )
    p_batch.add_argument(
        "--policies", action="append", required=True,
        help="policy text; repeat the flag or separate policies with ';'",
    )
    p_batch.add_argument("--seeds", type=_seed_range, default=tuple(range(20)),
                         help="'A..B' inclusive, or comma-separated integers")
    p_batch.add_argument("--selector", choices=("uniform_random", "first_enumerated"),
                         default="uniform_random")
    p_batch.add_argument("--step-cap", type=int, default=None)
    p_batch.add_argument("--out", help="write the per-run CSV summary here")

    p_fix = sub.add_parser("fixtures", help="list or dump builtin scenarios")
    action = p_fix.add_mutually_exclusive_group(required=True)
    action.add_argument("--list", action="store_true")
    action.add_argument("--dump", metavar="NAME")

    return parser


def _load(args) -> tuple[DeliberationSpace, CoalitionStructure]:
    if args.fixture:
        return builtin_fixture(args.fixture)
    return load_scenario(Path(args.scenario).read_text())


def _transition_line(t: Transition) -> str:
    movers = " + ".join("{" + ",".join(sorted(m)) + "}" for m in t.movers if m)
    target = t.target_proposal if isinstance(t.target_proposal, str) else (
        "(" + ", ".join(f"{c:g}" for c in t.target_proposal) + ")"
    )
    return f"  sources={list(t.sources)} movers={movers or '{}'} -> {target}"


def _cmd_run(args) -> int:
    space, initial = _load(args)
    policy = Policy.parse(args.policy, selector=args.selector, seed=args.seed)
    scenario_ref = args.fixture or args.scenario
    trace = run(space, initial, policy, step_cap=args.step_cap, scenario_ref=scenario_ref)
    m_star = space.max_support().m_star
    if args.out:
        Path(args.out).write_text(write_trace(trace))
    if args.format == "json":
        print(json.dumps({
            "steps": len(trace.steps),
            "classification": trace.classification,
            "m_star": m_star,
            "terminal_potential": potential(trace.terminal),
            "terminal_signature": list(signature(trace.terminal)),
            "terminal_structure": encode_structure(trace.terminal),
        }, indent=2, sort_keys=True))
    else:
        print(
            f"terminal after {len(trace.steps)} steps: "
            f"{trace.classification} (m*={m_star})"
        )
    return EXIT_OK


def _cmd_transitions(args) -> int:
    space, structure = _load(args)
    if args.format == "json":
        payload = {
            kind: [encode_transition(t) for t in enumerate_transitions(structure, space, kind)]
            for kind in args.kinds
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return EXIT_OK
    for kind in args.kinds:
        found = enumerate_transitions(structure, space, kind)
        print(f"{kind}: {len(found)}")
        for t in found:
            print(_transition_line(t))
    return EXIT_OK


def _cmd_oracle(args) -> int:
    space, structure = _load(args)
    report = space.max_support()
    if not args.explore:
        if args.format == "json":
            print(json.dumps(
                {"m_star": report.m_star, "witnesses": list(report.witnesses)},
                indent=2, sort_keys=True,
            ))
        else:
            print(f"m*={report.m_star} witnesses=[{', '.join(report.witnesses)}]")
        return EXIT_OK
    result = explore(space, structure, args.kinds, state_cap=args.state_cap)
    unknown = result.truncated and not result.terminal_count
    all_successful = None if unknown else result.all_terminals_successful
    if args.format == "json":
        print(json.dumps({
            "m_star": report.m_star,
            "witnesses": list(report.witnesses),
            "states_visited": result.states_visited,
            "edges": result.edges,
            "truncated": result.truncated,
            "terminals": result.terminal_count,
            "all_terminals_successful": all_successful,
            "potential_monotone": result.potential_monotone,
            "signature_monotone": result.signature_monotone,
            "unsuccessful_witness_steps": (
                None if result.unsuccessful_witness is None
                else len(result.unsuccessful_witness)
            ),
        }, indent=2, sort_keys=True))
        return EXIT_OK
    print(f"m*={report.m_star} witnesses=[{', '.join(report.witnesses)}]")
    print(
        f"states={result.states_visited} edges={result.edges} "
        f"truncated={str(result.truncated).lower()}"
    )
    print(
        f"terminals={result.terminal_count} "
        f"all_successful={'unknown' if all_successful is None else str(all_successful).lower()}"
    )
    print(
        f"potential_monotone={str(result.potential_monotone).lower()} "
        f"signature_monotone={str(result.signature_monotone).lower()}"
    )
    if result.unsuccessful_witness is not None:
        print(f"unsuccessful witness: {len(result.unsuccessful_witness)} steps")
    return EXIT_OK


def _cmd_batch(args) -> int:
    gen_text = args.gen
    if os.path.exists(gen_text):
        gen_text = Path(gen_text).read_text()
    try:
        gen_data = json.loads(gen_text)
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(f"generator config is not valid JSON: {exc}") from None
    if not isinstance(gen_data, dict):
        raise ScenarioFormatError("generator config must be a JSON object")
    config = GeneratorConfig.from_dict(gen_data)

    policies = []
    for chunk in args.policies:
        for text in chunk.split(";"):
            text = text.strip()
            if text:
                policies.append(Policy.parse(text, selector=args.selector))
    if not policies:
        raise PolicyError("no policies given")

    rows = batch(config, policies, args.seeds, step_cap=args.step_cap)
    if args.out:
        Path(args.out).write_text(write_summary(rows))
    summary = summarize(rows)
    if args.format == "json":
        print(json.dumps(summary, indent=2, sort_keys=True))
        return EXIT_OK
    for policy_text in sorted(summary):
        entry = summary[policy_text]
        print(
            f"policy {policy_text}: runs={entry['runs']} "
            f"successful={entry['successful']} "
            f"success_rate={entry['success_rate']:.3f} "
            f"max_steps={entry['max_steps']}"
        )
    return EXIT_OK


def _cmd_fixtures(args) -> int:
    if args.list:
        if args.format == "json":
            print(json.dumps(list(FIXTURE_NAMES)))
        else:
            for name in FIXTURE_NAMES:
                print(name)
        return EXIT_OK
    space, structure = builtin_fixture(args.dump)
    sys.stdout.write(dump_scenario(space, structure))
    return EXIT_OK


_COMMANDS = {
    "run": _cmd_run,
    "transitions": _cmd_transitions,
    "oracle": _cmd_oracle,
    "batch": _cmd_batch,
    "fixtures": _cmd_fixtures,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    level_name = os.environ.get("DELIB_LOG")
    if level_name:
        logging.basicConfig(
            level=getattr(logging, level_name.upper(), logging.WARNING),
            stream=sys.stderr,
            format="%(name)s: %(message)s",
        )
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except (ScenarioFormatError, ScenarioValidationError, MetricError,
            SpaceError, PolicyError, OracleError) as exc:
        clause = getattr(exc, "clause", None)
        where = f" ({clause})" if clause else ""
        print(f"delibsim: invalid input{where}: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"delibsim: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (SolverError, OracleCapError, SubsetCapError) as exc:
        print(f"delibsim: solver limit: {exc}", file=sys.stderr)
        return EXIT_CAP


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
