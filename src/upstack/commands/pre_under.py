"""`upstack pre-under`: the phase-bounded under-approximation of a target
set's predecessors, probed or summarized."""

from __future__ import annotations

from ..limits import DEFAULT_PHASES, DFA_STATE_BUDGET
from . import add_model, check_nonnegative
from .post_over import probe_or_summary

HELP = "phase-bounded under-approximation of a target set's predecessors"


def add_arguments(parser) -> None:
    add_model(parser)
    parser.add_argument("--target", required=True, help="name of the target set")
    parser.add_argument("-k", type=int, default=DEFAULT_PHASES, help="phase bound")
    parser.add_argument("--config", help="probe; without it, print a summary")
    parser.add_argument(
        "--budget",
        type=int,
        default=DFA_STATE_BUDGET,
        help="state budget for determinizing each automaton; past it the automaton "
        "stays nondeterministic (default %(default)s)",
    )


def run(args, model) -> int:
    check_nonnegative(args, "-k", "--budget")
    from ..kphase import bounded_phase_pre_star

    result = bounded_phase_pre_star(
        model.spec, model.config_set(args.target), args.k, node_budget=args.budget
    )
    return probe_or_summary(result, model, args.config)
