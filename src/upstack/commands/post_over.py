"""`upstack post-over`: the regular over-approximation of an initial
set's successors, probed or summarized. `pre-under` probes and
summarizes its sets the same way."""

from __future__ import annotations

from . import add_model, bool_exit

HELP = "regular over-approximation of an initial set's successors"


def add_arguments(parser) -> None:
    add_model(parser)
    parser.add_argument("--init", required=True, help="name of the initial set")
    parser.add_argument("--config", help="probe; without it, print a summary")


def run(args, model) -> int:
    from ..upperapprox import overapprox_post

    result = overapprox_post(model.spec, model.config_set(args.init))
    return probe_or_summary(result, model, args.config)


def probe_or_summary(result, model, config: str | None) -> int:
    """Probe a computed set with a configuration literal, or print its
    `summary` without one."""
    if config is None:
        print(summary(result))
        return 0
    from ..literal import parse_config_literal

    return bool_exit(result.accepts(parse_config_literal(model.spec, config)))


def summary(configs) -> str:
    """The size of a configuration set's automaton per state, in state
    order: `state: N nodes, M edges`, joined by `; `, or `empty`."""
    parts = []
    for state, nfa in sorted(configs.components.items()):
        parts.append(f"{state}: {len(nfa.nodes())} nodes, {nfa.edge_count()} edges")
    return "; ".join(parts) if parts else "empty"
