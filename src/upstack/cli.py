"""Command-line surface: membership, the two approximations, the safety
checkers, DOT export, and the bounded oracle, over model files.

Each command imports the analysis it runs, so a call compiles and loads
only the modules its command needs."""

from __future__ import annotations

import argparse
import os
import sys

from .errors import UpstackError
from .limits import DEFAULT_CONFIG_BUDGET, DEFAULT_PHASES, DFA_STATE_BUDGET
from .model import parse_config_literal, parse_model, print_config_literal

class _Parser(argparse.ArgumentParser):
    """Usage problems exit with 3: codes 0-2 are analysis outcomes."""

    def error(self, message):
        self.exit(3, f"{self.prog}: error: {message}\n")


_DFA_BUDGET = (
    "state budget for determinizing each automaton; past it the automaton "
    "stays nondeterministic (default %(default)s)"
)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="upstack",
        description=(
            "Reachability analyses for pushdown systems that keep the "
            "memory above the stack pointer: exact membership, a "
            "phase-bounded under-approximation of predecessors, a regular "
            "over-approximation of successors, and safety checkers built "
            "from the two."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def model_arg(p):
        p.add_argument("model", help="model file (see the package README)")

    member = sub.add_parser(
        "member", help="exact forward reachability of one configuration"
    )
    model_arg(member)
    member.add_argument("--init", required=True, help="name of the initial set")
    member.add_argument(
        "--config", required=True, help="probe, e.g. \"p2: a ^ bot\""
    )
    member.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_CONFIG_BUDGET,
        help="how many configurations the search may store, each stored only "
        "up to the probe's upper stack",
    )

    pre = sub.add_parser(
        "pre-under",
        help="phase-bounded under-approximation of a target set's predecessors",
    )
    model_arg(pre)
    pre.add_argument("--target", required=True, help="name of the target set")
    pre.add_argument("-k", type=int, default=DEFAULT_PHASES, help="phase bound")
    pre.add_argument("--config", help="probe; without it, print a summary")
    pre.add_argument(
        "--budget", type=int, default=DFA_STATE_BUDGET, help=_DFA_BUDGET
    )

    post = sub.add_parser(
        "post-over", help="regular over-approximation of an initial set's successors"
    )
    model_arg(post)
    post.add_argument("--init", required=True, help="name of the initial set")
    post.add_argument("--config", help="probe; without it, print a summary")

    overflow = sub.add_parser(
        "check-overflow", help="can a push overwrite memory past the stack bound?"
    )
    model_arg(overflow)
    overflow.add_argument("-m", type=int, required=True, help="headroom cells")
    overflow.add_argument(
        "--lower", required=True, help="starting lower words ('_' for empty)"
    )
    overflow.add_argument("-k", type=int, default=DEFAULT_PHASES, help="phase bound")
    overflow.add_argument(
        "--budget", type=int, default=DFA_STATE_BUDGET, help=_DFA_BUDGET
    )

    read = sub.add_parser(
        "check-read",
        help="can the cell just above the stack pointer hold a given symbol?",
    )
    model_arg(read)
    read.add_argument("--init", required=True, help="name of the initial set")
    read.add_argument("--symbol", required=True, help="symbol to look for")
    read.add_argument("-k", type=int, default=DEFAULT_PHASES, help="phase bound")
    read.add_argument(
        "--budget", type=int, default=DFA_STATE_BUDGET, help=_DFA_BUDGET
    )

    dot = sub.add_parser("export-dot", help="render an artifact as Graphviz DOT")
    model_arg(dot)
    what = dot.add_mutually_exclusive_group(required=True)
    what.add_argument(
        "--set", dest="set_name", help="a configuration set (shown trimmed)"
    )
    what.add_argument(
        "--trace", dest="trace_name", help="trace abstraction seeded by a set"
    )
    what.add_argument(
        "--grammar", dest="grammar_name", help="forward-reachability grammar of a set"
    )
    dot.add_argument("-o", "--output", help="write here instead of stdout")

    oracle = sub.add_parser(
        "oracle", help="bounded explicit-state exploration (ground truth)"
    )
    model_arg(oracle)
    oracle.add_argument("--init", required=True, help="name of the initial set")
    oracle.add_argument("--depth", type=int, required=True, help="trace length bound")
    oracle.add_argument("--cap", type=int, default=8, help="total stack size cap")
    oracle.add_argument("--config", help="probe; without it, list what was found")
    return parser


def _load(path: str):
    with open(path, encoding="utf-8") as handle:
        return parse_model(handle.read())


def _bool_exit(value: bool) -> int:
    print("true" if value else "false")
    return 0 if value else 1


def _probe_or_summary(result, model, config: str | None) -> int:
    if config is None:
        print(result.summary())
        return 0
    return _bool_exit(result.accepts(parse_config_literal(model.spec, config)))


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = _dispatch(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader left early (`| head`). Point stdout at devnull so the
        # interpreter's final flush stays quiet, and exit as SIGPIPE would.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except UpstackError as err:
        print(f"upstack: error: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"upstack: error: {err}", file=sys.stderr)
        return 3


def _dispatch(args) -> int:
    model = _load(args.model)
    spec = model.spec
    if args.command == "member":
        from .oracle import is_reachable

        target = parse_config_literal(spec, args.config)
        initial = model.config_set(args.init)
        return _bool_exit(is_reachable(spec, initial, target, budget=args.budget))
    if args.command == "pre-under":
        from .kphase import bounded_phase_pre_star

        result = bounded_phase_pre_star(
            spec, model.config_set(args.target), args.k, node_budget=args.budget
        )
        return _probe_or_summary(result, model, args.config)
    if args.command == "post-over":
        from .upperapprox import overapprox_post

        result = overapprox_post(spec, model.config_set(args.init))
        return _probe_or_summary(result, model, args.config)
    if args.command == "check-overflow":
        from .checkers import check_stack_overflow

        verdict = check_stack_overflow(
            model, args.m, args.lower, k=args.k, node_budget=args.budget
        )
        print(verdict.describe())
        return verdict.exit_code
    if args.command == "check-read":
        from .checkers import check_upper_read

        verdict = check_upper_read(
            model, args.init, args.symbol, k=args.k, node_budget=args.budget
        )
        print(verdict.describe())
        return verdict.exit_code
    if args.command == "export-dot":
        return _export(args, model)
    if args.command == "oracle":
        return _explore(args, model)
    raise AssertionError(f"unhandled command {args.command!r}")


def _export(args, model) -> int:
    from .configsets import ConfigAutomaton
    from .dot import export_dot
    from .grammar import build_post_grammar
    from .upperapprox import single_origin, trace_overapprox

    if args.set_name:
        compiled = model.config_set(args.set_name)
        shown = ConfigAutomaton(
            compiled.alphabet,
            {
                state: nfa.eps_eliminate().trim()
                for state, nfa in compiled.components.items()
            },
        )
        text = export_dot(shown)
    elif args.trace_name:
        text = export_dot(
            trace_overapprox(model.spec, model.config_set(args.trace_name))
        )
    else:
        text = export_dot(
            build_post_grammar(
                single_origin(model.spec, model.config_set(args.grammar_name))
            )
        )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _explore(args, model) -> int:
    from .oracle import oracle_post

    found = oracle_post(
        model.spec,
        model.config_set(args.init).enumerate_configs(args.cap),
        args.depth,
        args.cap,
    )
    if args.config is not None:
        return _bool_exit(parse_config_literal(model.spec, args.config) in found)
    for c in sorted(found, key=lambda c: (c.total_size, repr(c))):
        print(print_config_literal(c))
    return 0


if __name__ == "__main__":
    sys.exit(main())
