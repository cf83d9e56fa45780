"""Exact membership: the start-set walk and the size-capped search.

`is_reachable` decides whether a configuration is reachable from a
regular start set. No step shrinks the total stack size (a pop moves a
symbol from one zone to the other; a push adds a lower cell and
overwrites at most one upper cell), so a breadth-first search from the
start-set members no larger than the target, never storing a larger
configuration, explores a finite region and decides membership exactly.

It stores each configuration only up to the goal's upper word U. No
rule reads the upper word: a pop appends the lower top to it, a push
drops its last cell, and which rules apply depends only on the state,
the lower word and the upper word's length. So configurations with the
same state, lower word, upper length and longest prefix shared with U
have the same runs, step for step, and one of them is U's configuration
exactly when all are. `oracle.explore(goal_upper=U)` stores one per
class: the shared prefix, then one placeholder cell per symbol above it.
This is exact, and the budget counts these classes. The search keeps no
parent links (`links=False`): the answer is whether the goal was hit,
and a link would cost a tuple per stored configuration.

The start set is validated once per set, and a set from
`ModelFile.config_set` never: it is valid by construction. Its members
(`members`) go into the search as they are walked (`walk`), in (length,
label) order straight from its automaton, each word cut into its zones
as it grows, so no start is built as an object, sorted or checked again.
`walk`, `words_up_to`, `members` and `enumerate_configs` are also the
methods of `Nfa` and `ConfigAutomaton` of those names.

Only the `member` command and the `oracle` command's start listing run
this module, so the other commands do not compile it.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

from .configsets import ConfigAutomaton, is_barred
from .core import ConfigTuple, Configuration, UpdsSpec, check_configuration
from .limits import DEFAULT_CONFIG_BUDGET
from .nfa import EPSILON, Label, Nfa, Node, label_key
from .oracle import explore

# The row of a node without edges; never written to.
_NO_ROW: dict = {}


def is_reachable(
    spec: UpdsSpec,
    start_set: ConfigAutomaton,
    config: Configuration,
    budget: int = DEFAULT_CONFIG_BUDGET,
) -> bool:
    """Whether some member of start_set reaches config. budget counts the
    configurations the search stores (see the module docstring). Members
    of a valid set over the system's states and alphabet are
    configurations of the system, so they go into the search unchecked."""
    check_configuration(spec, config)
    start_set.check_against(spec, "start set")
    size = config.total_size
    goal = (config.state, config.upper, config.lower)
    hit, _ = explore(
        spec, members(start_set, size), goal.__eq__, size, node_budget=budget,
        goal_upper=config.upper, links=False,
    )
    return hit is not None


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
    layer in order: nothing is sorted or deduplicated. Each subset's
    label steps are computed once, with no closures when no edge is an
    epsilon edge. The number of words can grow exponentially with
    max_len."""
    finals = nfa.finals.keys()
    eps_free = not any(EPSILON in row for row in nfa._edges.values())
    first = nfa.initial if start is None else start
    first = frozenset(first) if eps_free else nfa.eps_closure(first)
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
                row = steps[subset] = _closed_steps(nfa, subset, eps_free)
            for label, stepped, accepting in row:
                if accepting or not last:
                    grown = extend(built, label)
                    if grown is not None:
                        next_layer.append((grown, stepped, accepting))
        layer = next_layer


def _closed_steps(
    nfa: Nfa, closed: frozenset[Node], eps_free: bool
) -> list[tuple[Label, frozenset[Node], bool]]:
    """(label, epsilon-closed targets, whether they hold a final node)
    for each label that an edge leaving the epsilon-closed set carries,
    in label-key order: one subset construction step, in one pass over
    the set's rows (a single node's row is read as it is). eps_free says
    the automaton has no epsilon edge, so no closure is computed."""
    edges = nfa._edges
    if len(closed) == 1:
        (node,) = closed
        out = edges.get(node, _NO_ROW)
    else:
        out = {}
        for n in closed:
            for label, targets in edges.get(n, _NO_ROW).items():
                got = out.get(label)
                if got is None:
                    out[label] = set(targets)
                else:
                    got.update(targets)
    close = frozenset if eps_free else nfa.eps_closure
    finals = nfa.finals.keys()
    steps = []
    for label in sorted(out, key=label_key) if len(out) > 1 else out:
        if label is not EPSILON:
            stepped = close(out[label])
            steps.append((label, stepped, not finals.isdisjoint(stepped)))
    return steps


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
