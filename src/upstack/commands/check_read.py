"""`upstack check-read`: can the cell just above the stack pointer hold
a given symbol?"""

from __future__ import annotations

from ..limits import DEFAULT_NODE_BUDGET, DEFAULT_PHASES
from . import TRACE_BUDGET_HELP, add_model, check_nonnegative

HELP = "can the cell just above the stack pointer hold a given symbol?"


def add_arguments(parser) -> None:
    add_model(parser)
    parser.add_argument("--init", required=True, help="name of the initial set")
    parser.add_argument("--symbol", required=True, help="symbol to look for")
    parser.add_argument("-k", type=int, default=DEFAULT_PHASES, help="phase bound")
    parser.add_argument(
        "--budget", type=int, default=DEFAULT_NODE_BUDGET, help=TRACE_BUDGET_HELP
    )


def run(args, model) -> int:
    check_nonnegative(args, "-k", "--budget")
    from ..residue import check_upper_read

    verdict = check_upper_read(
        model, args.init, args.symbol, k=args.k, node_budget=args.budget
    )
    print(verdict.describe())
    return verdict.exit_code
