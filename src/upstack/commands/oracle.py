"""`upstack oracle`: the bounded explicit-state closure of a set, listed
or probed (the ground truth for small instances).

The closure itself, `oracle_post`, is here because no other command runs
it; it still imports from `upstack` and `upstack.oracle`. So is the
generic walk of an automaton's words in (length, label) order (`walk`,
`words_up_to`) and of a set's members (`members`, `enumerate_configs`),
which lists this command's starts: they are still methods of `Nfa` and
`ConfigAutomaton`, whose bodies load this module on first use. Exact
membership takes its start classes in a pass of its own
(`membership.start_classes`), so a `member` call does not compile the
walk."""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

from ..configsets import ConfigAutomaton, is_barred
from ..core import ConfigTuple, Configuration, UpdsSpec
from ..limits import DEFAULT_NODE_BUDGET
from ..literal import parse_config_literal
from ..membership import closed_steps, closure
from ..model import print_config_literal
from ..nfa import Label, Nfa, Node
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


def _extend_zones(c: ConfigTuple, label) -> ConfigTuple | None:
    state, upper, lower = c
    if not is_barred(label):
        return state, upper, lower + (label,)
    return None if lower else (state, upper + (label[1],), lower)


def members(configs: ConfigAutomaton, max_len: int) -> Iterator[ConfigTuple]:
    """The accepted configurations of total stack size <= max_len as
    (state, upper, lower) tuples: state by state in component order,
    each state's in `walk` order of their flattened words. Each word is
    split into its zones as it is extended, and a barred label is never
    added after a plain one."""
    for state, nfa in configs.components.items():
        yield from walk(nfa, max_len, _extend_zones, (state, (), ()))


def enumerate_configs(configs: ConfigAutomaton, max_len: int) -> list[Configuration]:
    """All accepted configurations of total stack size <= max_len, in
    `members` order."""
    return [Configuration(*c) for c in members(configs, max_len)]


def walk(
    nfa: Nfa,
    max_len: int,
    extend: Callable[[object, Label], object | None],
    seed: object,
    start: Iterable[Node] | None = None,
) -> Iterator[object]:
    """The accepted words of length <= max_len, in (length, label-key)
    order, each built from `seed` by `extend(built, label)` one label at
    a time; `extend` may return None to drop a word and every word it
    prefixes. A layer holds (word, epsilon-closed subset, accepting) for
    the words of one length. The subset walk reaches each word once, so
    extending a layer in order by labels in key order gives the next
    layer in order: nothing is sorted. Each subset's label steps are
    computed once (`membership.closed_steps`), with no closures when no
    edge is an epsilon edge. The number of words can grow exponentially
    with max_len."""
    edges, finals = nfa._edges, nfa.finals.keys()
    close = closure(nfa, frozenset)
    first = close(nfa.initial if start is None else start)
    layer = [(seed, first, not finals.isdisjoint(first))]
    steps: dict[frozenset[Node], list[tuple[Label, frozenset[Node], bool]]] = {}
    for length in range(max_len + 1):
        for built, _, accepting in layer:
            if accepting:
                yield built
        if length == max_len:
            return
        # The last layer keeps only accepted words: nothing extends them.
        last = length + 1 == max_len
        next_layer = []
        for built, subset, _ in layer:
            row = steps.get(subset)
            if row is None:
                row = steps[subset] = closed_steps(edges, finals, close, subset)
            for label, stepped, accepting in row:
                if accepting or not last:
                    grown = extend(built, label)
                    if grown is not None:
                        next_layer.append((grown, stepped, accepting))
        layer = next_layer


def _append(word: tuple[Label, ...], label: Label) -> tuple[Label, ...]:
    return word + (label,)


def words_up_to(
    nfa: Nfa, max_len: int, start: Iterable[Node] | None = None
) -> list[tuple[Label, ...]]:
    """All accepted words of length <= max_len, in `walk` order: by
    length, then by label keys. Their number can grow exponentially with
    max_len. Start configurations are not listed with this: `members`
    runs the same walk and cuts each word into its zones as it grows."""
    return list(walk(nfa, max_len, _append, (), start))
