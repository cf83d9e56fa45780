"""`upstack oracle`: the bounded explicit-state closure of a set, listed
or probed (the ground truth for small instances)."""

from __future__ import annotations

from ..model import parse_config_literal, print_config_literal
from . import add_model, bool_exit

HELP = "bounded explicit-state exploration (ground truth)"


def add_arguments(parser) -> None:
    add_model(parser)
    parser.add_argument("--init", required=True, help="name of the initial set")
    parser.add_argument("--depth", type=int, required=True, help="trace length bound")
    parser.add_argument("--cap", type=int, default=8, help="total stack size cap")
    parser.add_argument("--config", help="probe; without it, list what was found")


def run(args, model) -> int:
    from ..oracle import oracle_post

    found = oracle_post(
        model.spec,
        model.config_set(args.init).enumerate_configs(args.cap),
        args.depth,
        args.cap,
    )
    if args.config is not None:
        return bool_exit(parse_config_literal(model.spec, args.config) in found)
    for c in sorted(found, key=lambda c: (c.total_size, repr(c))):
        print(print_config_literal(c))
    return 0
