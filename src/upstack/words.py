"""The generic walk of an automaton's words in (length, label) order
(`walk`, `words_up_to`) and of a set's members (`members`,
`enumerate_configs`).

They are methods of `Nfa` and `ConfigAutomaton`, whose bodies load this
module on first use (`upstack._MovedMethod`). The `oracle` command lists
its starts with them, and so do the library's callers and the tests;
exact membership takes its start classes in a pass of its own
(`membership.start_classes`), so a `member` call does not compile the
walk. The walk steps each subset with membership's `closed_steps`.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

from .configsets import ConfigAutomaton, is_barred
from .core import ConfigTuple, Configuration
from .membership import closed_steps, closure
from .nfa import Label, Nfa, Node


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
