"""A small nondeterministic finite automaton toolkit.

Nodes and edge labels are arbitrary hashables; the distinguished EPSILON
label marks silent edges. The analyses build their automata from two
steps: `embed` copies one automaton into another under a node renaming
and a label map, and `saturate` adds the edges a rule generator yields
until a whole pass adds nothing (P-automaton saturation). Insertion
order is preserved everywhere, but what the package prints does not
depend on it.

Reduction is `compact`, one pass over integer-numbered nodes that the
`compaction` module holds and that is loaded on the first call. It
gives the minimal DFA, numbered breadth-first over label-sorted edges,
so automata with the same language compact to the `same` nodes, edges,
initial and final nodes whatever their node names or edge order.
Language equality of two compacted automata is therefore `same`, unless
one of them fell back on the determinization budget; such a compaction
is the bisimulation quotient, which needs no subsets. `trim` and the
compaction share one backward search (`_coreachable`), and
`eps_eliminate` and the compaction one epsilon-free row (`_free_row`).
`walk` lists accepted words in (length, label-key) order without
sorting them. DOT exports sort what they print.

Like `compact`, what only some commands run lives in those commands'
modules, loaded on first use (see `upstack._MovedMethod`): `walk` and
`words_up_to` in `membership`, `map_labels`, `map_nodes` and `relabel`
in `upperapprox`, and `intersection`, which still imports from here, in
`product`.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Hashable, Iterable, Iterator

from . import _forward, _MovedMethod
from .limits import DFA_STATE_BUDGET


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


def _identity(x):
    return x


def label_key(label: Label) -> str:
    """A deterministic sort key for mixed-type labels."""
    return repr(label)


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

    # -- construction ----------------------------------------------------

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

    def has_edge(self, src: Node, label: Label, dst: Node) -> bool:
        return dst in self._edges.get(src, {}).get(label, ())

    def embed(
        self,
        other: "Nfa",
        node: Callable[[Node], Node] = _identity,
        label: Callable[[Label], Label | None] = _identity,
    ) -> "Nfa":
        """Copy other's nodes, renamed by `node`, and its edges, relabelled
        by `label`, into this automaton, and return it. `label` never sees
        EPSILON; an edge whose label maps to None is dropped. Initial and
        final marks are not copied."""
        names = {n: self.add_node(node(n)) for n in other._edges}
        add_edge = self.add_edge
        for src, by_label in other._edges.items():
            src = names[src]
            for old, targets in by_label.items():
                new = old if old is EPSILON else label(old)
                if new is not None:
                    for dst in targets:
                        add_edge(src, new, names[dst])
        return self

    def saturate(self, additions: Callable[[], Iterable[tuple[Node, Label, Node]]]) -> None:
        """Close the automaton under the rules `additions` encodes: each
        edge the generator yields is added as it is yielded, so the rest of
        the pass sees it, and the generator runs again until a whole pass
        adds nothing. It must not be walking a row that an added edge
        changes."""
        changed = True
        while changed:
            changed = False
            for src, label, dst in additions():
                if not self.has_edge(src, label, dst):
                    self.add_edge(src, label, dst)
                    changed = True

    # -- inspection ------------------------------------------------------

    def nodes(self) -> list[Node]:
        return list(self._edges)

    def edges(self) -> Iterator[tuple[Node, Label, Node]]:
        for src, by_label in self._edges.items():
            for label, targets in by_label.items():
                for dst in targets:
                    yield src, label, dst

    def labels(self) -> list[Label]:
        rows = self._edges.values()
        return list(dict.fromkeys(label for row in rows for label in row if label is not EPSILON))

    def out_edges(self, src: Node) -> Iterator[tuple[Label, Node]]:
        for label, targets in self._edges.get(src, {}).items():
            for dst in targets:
                yield label, dst

    def targets(self, src: Node, label: Label) -> tuple[Node, ...]:
        return tuple(self._edges.get(src, {}).get(label, ()))

    def edge_count(self) -> int:
        return sum(1 for _ in self.edges())

    # -- runs ------------------------------------------------------------

    def eps_closure(self, nodes: Iterable[Node]) -> frozenset[Node]:
        edges = self._edges
        seen = set(nodes)
        stack = list(seen)
        while stack:
            row = edges.get(stack.pop())
            if row and EPSILON in row:
                for m in row[EPSILON]:
                    if m not in seen:
                        seen.add(m)
                        stack.append(m)
        return frozenset(seen)

    def step(self, nodes: Iterable[Node], label: Label) -> frozenset[Node]:
        """One closed step: epsilon-close, follow label edges, close again."""
        return self._advance(self.eps_closure(nodes), label)

    def _advance(self, closed: Iterable[Node], label: Label) -> frozenset[Node]:
        """Follow label edges from an epsilon-closed set; close the result."""
        edges = self._edges
        out: set[Node] = set()
        for n in closed:
            row = edges.get(n)
            if row and label in row:
                out.update(row[label])
        return self.eps_closure(out)

    def run(self, word: Iterable[Label], start: Iterable[Node] | None = None) -> frozenset[Node]:
        current = self.eps_closure(self.initial if start is None else start)
        for sym in word:
            if not current:
                break
            current = self._advance(current, sym)
        return current

    def accepts(self, word: Iterable[Label], start: Iterable[Node] | None = None) -> bool:
        return any(n in self.finals for n in self.run(word, start))

    # -- analysis --------------------------------------------------------

    def reachable(self, start: Iterable[Node]) -> set[Node]:
        edges = self._edges
        seen = set(start)
        stack = list(seen)
        while stack:
            for targets in edges.get(stack.pop(), {}).values():
                for m in targets:
                    if m not in seen:
                        seen.add(m)
                        stack.append(m)
        return seen

    def shortest_word(self, start: Iterable[Node] | None = None) -> tuple[Label, ...] | None:
        """A shortest accepted word, or None if the language is empty.
        Zero-one BFS so epsilon edges cost nothing; deterministic."""
        starts = list(self.initial if start is None else start)
        best: dict[Node, tuple[Label, ...]] = {}
        queue: deque[Node] = deque()
        for n in starts:
            if n not in best:
                best[n] = ()
                queue.append(n)
        answer: tuple[Label, ...] | None = None
        while queue:
            n = queue.popleft()
            word = best[n]
            if answer is not None and len(word) >= len(answer):
                continue
            if n in self.finals and (answer is None or len(word) < len(answer)):
                answer = word
                continue
            for label, m in self.out_edges(n):
                nxt = word if label is EPSILON else word + (label,)
                if m not in best or len(nxt) < len(best[m]):
                    best[m] = nxt
                    if label is EPSILON:
                        queue.appendleft(m)
                    else:
                        queue.append(m)
        return answer

    def is_empty(self) -> bool:
        return self.shortest_word() is None

    # Listing words (see the module docstring).
    walk = _MovedMethod("membership")
    words_up_to = _MovedMethod("membership")

    # -- transformations (all build fresh automata) ----------------------

    def copy(self) -> "Nfa":
        return Nfa(self.initial, self.finals).embed(self)

    def reverse(self) -> "Nfa":
        out = Nfa(self.finals, self.initial)
        for n in self.nodes():
            out.add_node(n)
        for src, label, dst in self.edges():
            out.add_edge(dst, label, src)
        return out

    def trim(self) -> "Nfa":
        """Keep only nodes on some path from an initial to a final node."""
        edges = self._edges
        forward = self.reachable(self.initial)
        # Backward search over the forward-reachable part only: every node
        # on a path from an initial node is forward-reachable itself.
        ends = (n for n in self.finals if n in forward)
        keep = _coreachable({n: edges[n] for n in forward}, ends)
        out = Nfa(
            (n for n in self.initial if n in keep),
            (n for n in self.finals if n in keep),
        )
        # Copy the kept edges in order; nodes enter as add_edge would add them.
        out_edges = out._edges
        for src, by_label in edges.items():
            if src not in keep:
                continue
            for label, targets in by_label.items():
                kept = [dst for dst in targets if dst in keep]
                if not kept:
                    continue
                row = out_edges.get(src)
                if row is None:
                    row = out_edges[src] = {}
                for dst in kept:
                    if dst not in out_edges:
                        out_edges[dst] = {}
                row[label] = dict.fromkeys(kept)
        return out

    def _free_row(self, node: Node) -> tuple[dict[Label, dict[Node, None]], bool]:
        """The node's row and finality once epsilon edges are removed: the
        labelled edges and finality of its epsilon closure, in the closure's
        order. A row without epsilon edges is returned as it is."""
        edges = self._edges
        row = edges[node]
        if EPSILON not in row:
            return row, node in self.finals
        closure = self.eps_closure((node,))
        out: dict[Label, dict[Node, None]] = {}
        for m in closure:
            for label, targets in edges[m].items():
                if label is not EPSILON:
                    out.setdefault(label, {}).update(targets)
        return out, not self.finals.keys().isdisjoint(closure)

    def eps_eliminate(self) -> "Nfa":
        out = Nfa(self.initial)
        for n in self.nodes():
            row, final = self._free_row(n)
            out.add_node(n)
            if final:
                out.add_final(n)
            for label, targets in row.items():
                for dst in targets:
                    out.add_edge(n, label, dst)
        return out

    def compact(self, node_budget: int = DFA_STATE_BUDGET) -> "Nfa":
        """Language-preserving compression to the minimal partial DFA,
        numbered breadth-first over label-sorted edges, so automata with
        the same language compact to `same` ones; or, if the subset
        construction passes the node budget, to the bisimulation quotient
        of the epsilon-free trimmed automaton. See `compaction`, which is
        loaded on the first call."""
        from .compaction import compact

        return compact(self, node_budget)

    def same(self, other: "Nfa") -> bool:
        """Structural equality: the same nodes, edges, initial and final
        nodes, in whatever order they were added."""
        return (
            self._edges == other._edges
            and self.initial.keys() == other.initial.keys()
            and self.finals.keys() == other.finals.keys()
        )

    # Relabelling edges and renaming nodes, which only the
    # over-approximation does.
    map_labels = _MovedMethod("upperapprox")
    map_nodes = _MovedMethod("upperapprox")
    relabel = _MovedMethod("upperapprox")


def _coreachable(rows: dict[Node, dict], ends: Iterable[Node]) -> set[Node]:
    """The nodes of `rows` (node -> label -> targets) with a path to one of
    `ends`, by one backward search."""
    preds: dict[Node, list[Node]] = {}
    for n, row in rows.items():
        for targets in row.values():
            for m in targets:
                preds.setdefault(m, []).append(n)
    keep = set(ends)
    stack = list(keep)
    while stack:
        for m in preds.get(stack.pop(), ()):
            if m not in keep:
                keep.add(m)
                stack.append(m)
    return keep


def union(automata: Iterable[Nfa]) -> Nfa:
    """Side-by-side union; nodes are tagged with their operand index."""
    out = Nfa()
    for i, nfa in enumerate(automata):
        for n in nfa.initial:
            out.add_initial((i, n))
        for n in nfa.finals:
            out.add_final((i, n))
        out.embed(nfa, lambda n, i=i: (i, n))
    return out


def from_words(words: Iterable[tuple[Label, ...]]) -> Nfa:
    """An automaton accepting exactly the given words."""
    out = Nfa()
    root = out.add_initial("w")
    for i, word in enumerate(words):
        prev = root
        for j, sym in enumerate(word):
            node = out.add_node(("w", i, j))
            out.add_edge(prev, sym, node)
            prev = node
        out.add_final(prev)
    return out


__getattr__ = _forward(__name__, product="intersection")
