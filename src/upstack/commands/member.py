"""`upstack member`: exact forward reachability of one configuration."""

from __future__ import annotations

from ..limits import DEFAULT_CONFIG_BUDGET
from ..model import parse_config_literal
from . import add_model, bool_exit, check_nonnegative

HELP = "exact forward reachability of one configuration"


def add_arguments(parser) -> None:
    add_model(parser)
    parser.add_argument("--init", required=True, help="name of the initial set")
    parser.add_argument("--config", required=True, help="probe, e.g. \"p2: a ^ bot\"")
    parser.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_CONFIG_BUDGET,
        help="how many configurations the search may store, each stored only "
        "up to the probe's upper stack",
    )


def run(args, model) -> int:
    check_nonnegative(args, "--budget")
    from ..membership import is_reachable

    target = parse_config_literal(model.spec, args.config)
    initial = model.config_set(args.init)
    return bool_exit(is_reachable(model.spec, initial, target, budget=args.budget))
