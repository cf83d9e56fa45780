"""The automaton core: nondeterministic finite automata as rows of edges.

Nodes and edge labels are arbitrary hashables; the distinguished EPSILON
label marks silent edges. An `Nfa` is a row per node (label -> targets),
plus its initial and final nodes, in insertion order. This module holds
what the set compiler (`regex.compile_config_regex`), the per-state sets
(`configsets.ConfigAutomaton`), the membership walk and the DOT export
of a set use: building an automaton and reading its nodes and edges,
and the sort key for labels.

The automaton algebra lives in `compaction`, which only the analyses
load: copying one automaton into another under a node renaming and a
label map (`embed`), P-automaton saturation (`saturate`), epsilon
closure and closed steps, runs, shortest words, reversal, trimming,
epsilon elimination, `union`, `compact` to the canonical minimal DFA,
and structural equality (`same`). Each is still a method of `Nfa` or a
name of this module, whose home is loaded on first use (see
`upstack._MovedMethod`). So are `walk` and `words_up_to`, in
`membership`, `map_labels` and `from_words`, which no command runs, in
`extras`, `map_nodes` and `relabel`, in `grammar`, and `intersection`,
in `product`. `trim`, compaction and the phases of `kphase` share one
backward search, `_coreachable`. Insertion order is preserved
everywhere, but what the package prints does not depend on it.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator

from . import _forward, _moved_methods


class _Epsilon:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "EPSILON"


EPSILON = _Epsilon()

Node = Hashable
Label = Hashable


def label_key(label: Label) -> str:
    """A deterministic sort key for mixed-type labels."""
    return repr(label)


@_moved_methods(
    compaction="embed saturate has_edge labels out_edges targets edge_count "
    "eps_closure step _advance run accepts reachable shortest_word is_empty "
    "copy reverse trim _free_row eps_eliminate compact same",
    membership="walk words_up_to",
    extras="map_labels",
    grammar="map_nodes relabel",
)
class Nfa:
    """Mutable while being built; treat as immutable once handed out."""

    def __init__(self, initial: Iterable[Node] = (), finals: Iterable[Node] = ()):
        # node -> label -> dict used as an ordered set of targets
        self._edges: dict[Node, dict[Label, dict[Node, None]]] = {}
        self.initial: dict[Node, None] = {}
        self.finals: dict[Node, None] = {}
        for n in initial:
            self.add_initial(n)
        for n in finals:
            self.add_final(n)

    def add_node(self, node: Node) -> Node:
        self._edges.setdefault(node, {})
        return node

    def add_initial(self, node: Node) -> Node:
        self.add_node(node)
        self.initial[node] = None
        return node

    def add_final(self, node: Node) -> Node:
        self.add_node(node)
        self.finals[node] = None
        return node

    def add_edge(self, src: Node, label: Label, dst: Node) -> None:
        edges = self._edges
        row = edges.get(src)
        if row is None:
            row = edges[src] = {}
        if dst not in edges:
            edges[dst] = {}
        targets = row.get(label)
        if targets is None:
            row[label] = {dst: None}
        else:
            targets[dst] = None

    def nodes(self) -> list[Node]:
        return list(self._edges)

    def edges(self) -> Iterator[tuple[Node, Label, Node]]:
        for src, by_label in self._edges.items():
            for label, targets in by_label.items():
                for dst in targets:
                    yield src, label, dst


__getattr__ = _forward(
    __name__,
    compaction="union _coreachable _identity",
    extras="from_words",
    product="intersection",
    limits="DFA_STATE_BUDGET",
)
