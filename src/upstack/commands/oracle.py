"""`upstack oracle`: the bounded explicit-state closure of a set, listed
or probed (the ground truth for small instances).

The closure itself, `oracle_post`, is here because no other command runs
it; it still imports from `upstack` and `upstack.oracle`."""

from __future__ import annotations

from typing import Iterable

from ..core import Configuration, UpdsSpec
from ..limits import DEFAULT_NODE_BUDGET
from ..literal import parse_config_literal
from ..model import print_config_literal
from ..oracle import _checked, explore
from . import add_model, bool_exit, check_nonnegative

HELP = "bounded explicit-state exploration (ground truth)"


def add_arguments(parser) -> None:
    add_model(parser)
    parser.add_argument("--init", required=True, help="name of the initial set")
    parser.add_argument("--depth", type=int, required=True, help="trace length bound")
    parser.add_argument("--cap", type=int, default=8, help="total stack size cap")
    parser.add_argument("--config", help="probe; without it, list what was found")


def oracle_post(
    spec: UpdsSpec,
    initial: Iterable[Configuration],
    depth: int,
    size_cap: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> frozenset[Configuration]:
    """Configurations reachable from `initial` by traces of length <= depth,
    never passing through a configuration whose total stack size exceeds
    size_cap (initial configurations above the cap are discarded too).
    node_budget caps the stored configurations, the initial ones included,
    but those are always kept."""
    capped = [c for c in _checked(spec, initial) if len(c[1]) + len(c[2]) <= size_cap]
    budget = max(node_budget, len(set(capped)))
    _, stored = explore(spec, capped, lambda c: False, size_cap, depth, budget, links=False)
    return frozenset(Configuration(*c) for c in stored)


def run(args, model) -> int:
    check_nonnegative(args, "--depth", "--cap")
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
