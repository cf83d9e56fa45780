"""`upstack export-dot`: render a configuration set, the trace
abstraction seeded by a set, or a set's forward-reachability grammar as
Graphviz DOT. Each kind loads only the modules that build it."""

from __future__ import annotations

from . import add_model

HELP = "render an artifact as Graphviz DOT"


def add_arguments(parser) -> None:
    add_model(parser)
    what = parser.add_mutually_exclusive_group(required=True)
    what.add_argument(
        "--set", dest="set_name", help="a configuration set (shown trimmed)"
    )
    what.add_argument(
        "--trace", dest="trace_name", help="trace abstraction seeded by a set"
    )
    what.add_argument(
        "--grammar", dest="grammar_name", help="forward-reachability grammar of a set"
    )
    parser.add_argument("-o", "--output", help="write here instead of stdout")


def run(args, model) -> int:
    from ..dot import export_dot

    if args.set_name:
        # A compiled set is its position automaton: epsilon-free and
        # trimmed by construction, so it is rendered as it is.
        artifact = model.config_set(args.set_name)
    elif args.trace_name:
        from ..upperapprox import trace_overapprox

        artifact = trace_overapprox(model.spec, model.config_set(args.trace_name))
    else:
        from ..grammar import build_post_grammar, single_origin

        origin = single_origin(model.spec, model.config_set(args.grammar_name))
        artifact = build_post_grammar(origin)
    text = export_dot(artifact)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        # Nothing is written where stdout is closed (None).
        print(text, end="")
    return 0
