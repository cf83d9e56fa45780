"""`upstack check-overflow`: can a push overwrite memory past the stack
bound?"""

from __future__ import annotations

from ..limits import DEFAULT_PHASES, DFA_STATE_BUDGET
from . import DFA_BUDGET_HELP, add_model, check_nonnegative

HELP = "can a push overwrite memory past the stack bound?"


def add_arguments(parser) -> None:
    add_model(parser)
    parser.add_argument("-m", type=int, required=True, help="headroom cells")
    parser.add_argument(
        "--lower", required=True, help="starting lower words ('_' for empty)"
    )
    parser.add_argument("-k", type=int, default=DEFAULT_PHASES, help="phase bound")
    parser.add_argument(
        "--budget", type=int, default=DFA_STATE_BUDGET, help=DFA_BUDGET_HELP
    )


def run(args, model) -> int:
    check_nonnegative(args, "-k", "--budget")
    from ..overflow import check_stack_overflow

    verdict = check_stack_overflow(
        model, args.m, args.lower, k=args.k, node_budget=args.budget
    )
    print(verdict.describe())
    return verdict.exit_code
