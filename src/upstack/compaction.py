"""The automaton algebra, which only the analyses run, and compaction of
an automaton to its canonical minimal DFA in one pass over
integer-numbered nodes.

`nfa` holds the automaton core that parsing, the set compiler, exact
membership and the DOT export of a set need; everything else that acts
on automata is here, and so is the algebra of configuration sets. Each
function whose first argument is an `Nfa` or a `ConfigAutomaton` is a
method of that class (`upstack._MovedMethod`), and each other name still
imports from `nfa` or `configsets`, so a command that runs none of it
(`member`, `export-dot --set`, the parsers) does not compile it.

The analyses build their automata from two steps: `embed` copies one
automaton into another under a node renaming and a label map, and
`saturate` adds the edges a rule generator yields until a whole pass
adds nothing (P-automaton saturation). `trim`, the compaction and the
phases of `kphase` share one backward search (`_coreachable`), and
`eps_eliminate` and the compaction one epsilon-free row (`_free_row`).

Compaction takes the epsilon-free rows of the forward-reachable nodes,
one closure per node, trims them backwards, merges the coarsest
bisimulation of what is left (`_quotient`, the one partition
refinement), runs the subset construction over its classes and merges
the DFA's own bisimulation, which gives the minimal DFA, numbered
breadth-first over label-sorted edges. The result is built once.
Automata with the same language compact to `same` ones, whatever their
node names or edge order, unless the subset construction passes its
budget: then the result is the first quotient, which needs no subsets.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from .configsets import ConfigAutomaton, bar
from .errors import MalformedInputError
from .limits import DFA_STATE_BUDGET
from .nfa import EPSILON, Label, Nfa, Node, label_key

if TYPE_CHECKING:
    from .core import Configuration


def compact(nfa: Nfa, node_budget: int = DFA_STATE_BUDGET) -> Nfa:
    """Language-preserving compression to the minimal partial DFA,
    numbered breadth-first over label-sorted edges, so automata with the
    same language compact to `same` ones; or, if the subset construction
    passes the node budget, to the bisimulation quotient of the
    epsilon-free trimmed automaton.

    The epsilon-free rows are built for forward-reachable nodes only, one
    closure per node, and trimmed backwards. The kept nodes, numbered in
    insertion order, are merged into the classes of their coarsest
    bisimulation (`_quotient`). Subsets of classes are numbered
    breadth-first over labels in label-key order; the subset past the
    budget returns the quotient instead, each class named by its first
    node. Every subset holds a class that reaches a final one, so the DFA
    is trimmed, and its own quotient is the minimal DFA. Nodes and rows
    come out in the order that building each of these automata in turn
    would give."""
    rows: dict[Node, dict] = dict.fromkeys(nfa.initial)
    accepting = set()
    stack = list(rows)
    while stack:
        n = stack.pop()
        row, final = nfa._free_row(n)
        rows[n] = row
        if final:
            accepting.add(n)
        for targets in row.values():
            for m in targets:
                if m not in rows:
                    rows[m] = None
                    stack.append(m)
    keep = _coreachable(rows, accepting)
    if not keep:
        return Nfa()
    order = [n for n in nfa._edges if n in keep]
    pos = {n: i for i, n in enumerate(order)}
    labels = sorted({label for n in order for label in rows[n]}, key=label_key)
    lid = {label: i for i, label in enumerate(labels)}
    final = [n in accepting for n in order]
    moves = [
        [(lid[label], pos[m]) for label, ms in rows[n].items() for m in ms if m in pos]
        for n in order
    ]
    cls, firsts, crows = _quotient(final, moves)
    cfinal = [final[i] for i in firsts]
    initial = [cls[pos[n]] for n in nfa.initial if n in pos]
    start = frozenset(initial)
    number = {start: 0}
    subsets = [start]
    drows, dfinal = [], []
    for subset in subsets:
        out: dict[int, set[int]] = {}
        for c in subset:
            for l, d in crows[c]:
                out.setdefault(l, set()).add(d)
        row = []
        for l in sorted(out):
            target = frozenset(out[l])
            j = number.get(target)
            if j is None:
                if len(number) >= node_budget:
                    names = [order[i] for i in firsts]
                    return _named(names, labels, initial, cfinal, crows)
                j = number[target] = len(subsets)
                subsets.append(target)
            row.append((l, j))
        drows.append(row)
        dfinal.append(any(cfinal[c] for c in subset))
    # Subsets are numbered breadth-first over label-sorted edges, and a
    # class's first subset is found from the first subset of another
    # class: numbering classes by their first subsets numbers the
    # minimal DFA breadth-first too.
    _, firsts, crows = _quotient(dfinal, drows)
    return _named(range(len(crows)), labels, (0,), [dfinal[i] for i in firsts], crows)


def _quotient(
    final: list[bool], moves: list[list[tuple[int, int]]]
) -> tuple[list[int], list[int], list[list[tuple[int, int]]]]:
    """The coarsest bisimulation of nodes 0..n-1 with these finalities and
    (label, target) moves: the class of each node, numbered in order of
    each class's first node; the first node of each class; and each
    class's (label, class) moves in sorted order. Moore-style refinement
    from finality until the nodes of a class have the same (label, class)
    moves; each round refines the last, so an equal count means stable."""
    size = len(final)
    cls = [int(f) for f in final]
    count = len(set(cls))
    while True:
        signatures: dict[tuple, int] = {}
        cls = [
            signatures.setdefault(
                (c, frozenset([l * size + cls[m] for l, m in row])), len(signatures)
            )
            for c, row in zip(cls, moves)
        ]
        if len(signatures) == count:
            break
        count = len(signatures)
    firsts: list[int] = []
    for i, c in enumerate(cls):
        if c == len(firsts):
            firsts.append(i)
    return cls, firsts, [sorted({(l, cls[m]) for l, m in moves[i]}) for i in firsts]


def _named(
    names: Sequence[Node],
    labels: list[Label],
    initial: Iterable[int],
    final: list[bool],
    rows: list[list[tuple[int, int]]],
) -> Nfa:
    """The automaton of classes with these names, initial classes and
    class finalities, whose class c has an edge labels[l] to class d for
    each (l, d) in rows[c], added class by class in that order."""
    out = Nfa((names[c] for c in initial), (names[c] for c, f in enumerate(final) if f))
    for c, row in enumerate(rows):
        src = out.add_node(names[c])
        for l, d in row:
            out.add_edge(src, labels[l], names[d])
    return out


# -- building from other automata (methods of Nfa) ----------------------------

def _identity(x):
    return x


def embed(
    nfa: Nfa,
    other: Nfa,
    node: Callable[[Node], Node] = _identity,
    label: Callable[[Label], Label | None] = _identity,
) -> Nfa:
    """Copy other's nodes, renamed by `node`, and its edges, relabelled
    by `label`, into nfa, and return it. `label` never sees EPSILON; an
    edge whose label maps to None is dropped. Initial and final marks are
    not copied."""
    names = {n: nfa.add_node(node(n)) for n in other._edges}
    add_edge = nfa.add_edge
    for src, by_label in other._edges.items():
        src = names[src]
        for old, targets in by_label.items():
            new = old if old is EPSILON else label(old)
            if new is not None:
                for dst in targets:
                    add_edge(src, new, names[dst])
    return nfa


def saturate(nfa: Nfa, additions: Callable[[], Iterable[tuple[Node, Label, Node]]]) -> None:
    """Close nfa under the rules `additions` encodes: each edge the
    generator yields is added as it is yielded, so the rest of the pass
    sees it, and the generator runs again until a whole pass adds
    nothing. It must not be walking a row that an added edge changes."""
    changed = True
    while changed:
        changed = False
        for src, label, dst in additions():
            if not nfa.has_edge(src, label, dst):
                nfa.add_edge(src, label, dst)
                changed = True


# -- inspection (methods of Nfa) ----------------------------------------------

def has_edge(nfa: Nfa, src: Node, label: Label, dst: Node) -> bool:
    return dst in nfa._edges.get(src, {}).get(label, ())


def labels(nfa: Nfa) -> list[Label]:
    rows = nfa._edges.values()
    return list(dict.fromkeys(label for row in rows for label in row if label is not EPSILON))


def out_edges(nfa: Nfa, src: Node) -> Iterator[tuple[Label, Node]]:
    for label, targets in nfa._edges.get(src, {}).items():
        for dst in targets:
            yield label, dst


def targets(nfa: Nfa, src: Node, label: Label) -> tuple[Node, ...]:
    return tuple(nfa._edges.get(src, {}).get(label, ()))


def edge_count(nfa: Nfa) -> int:
    return sum(1 for _ in nfa.edges())


# -- runs (methods of Nfa) ----------------------------------------------------

def eps_closure(nfa: Nfa, nodes: Iterable[Node]) -> frozenset[Node]:
    edges = nfa._edges
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


def step(nfa: Nfa, nodes: Iterable[Node], label: Label) -> frozenset[Node]:
    """One closed step: epsilon-close, follow label edges, close again."""
    return nfa._advance(nfa.eps_closure(nodes), label)


def _advance(nfa: Nfa, closed: Iterable[Node], label: Label) -> frozenset[Node]:
    """Follow label edges from an epsilon-closed set; close the result."""
    edges = nfa._edges
    out: set[Node] = set()
    for n in closed:
        row = edges.get(n)
        if row and label in row:
            out.update(row[label])
    return nfa.eps_closure(out)


def run(nfa: Nfa, word: Iterable[Label], start: Iterable[Node] | None = None) -> frozenset[Node]:
    current = nfa.eps_closure(nfa.initial if start is None else start)
    for sym in word:
        if not current:
            break
        current = nfa._advance(current, sym)
    return current


def accepts(nfa: Nfa, word: Iterable[Label], start: Iterable[Node] | None = None) -> bool:
    return any(n in nfa.finals for n in nfa.run(word, start))


# -- analysis (methods of Nfa) ------------------------------------------------

def reachable(nfa: Nfa, start: Iterable[Node]) -> set[Node]:
    edges = nfa._edges
    seen = set(start)
    stack = list(seen)
    while stack:
        for targets in edges.get(stack.pop(), {}).values():
            for m in targets:
                if m not in seen:
                    seen.add(m)
                    stack.append(m)
    return seen


def shortest_word(nfa: Nfa, start: Iterable[Node] | None = None) -> tuple[Label, ...] | None:
    """A shortest accepted word, or None if the language is empty.
    Zero-one BFS so epsilon edges cost nothing; deterministic."""
    best: dict[Node, tuple[Label, ...]] = dict.fromkeys(
        nfa.initial if start is None else start, ()
    )
    queue: deque[Node] = deque(best)
    answer: tuple[Label, ...] | None = None
    while queue:
        n = queue.popleft()
        word = best[n]
        if answer is not None and len(word) >= len(answer):
            continue
        if n in nfa.finals:
            answer = word
            continue
        for label, m in nfa.out_edges(n):
            nxt = word if label is EPSILON else word + (label,)
            if m not in best or len(nxt) < len(best[m]):
                best[m] = nxt
                if label is EPSILON:
                    queue.appendleft(m)
                else:
                    queue.append(m)
    return answer


def is_empty(nfa: Nfa) -> bool:
    return nfa.shortest_word() is None


# -- transformations, all building fresh automata (methods of Nfa) ------------

def copy(nfa: Nfa) -> Nfa:
    return Nfa(nfa.initial, nfa.finals).embed(nfa)


def reverse(nfa: Nfa) -> Nfa:
    out = Nfa(nfa.finals, nfa.initial)
    for n in nfa.nodes():
        out.add_node(n)
    for src, label, dst in nfa.edges():
        out.add_edge(dst, label, src)
    return out


def trim(nfa: Nfa) -> Nfa:
    """Keep only nodes on some path from an initial to a final node."""
    edges = nfa._edges
    forward = nfa.reachable(nfa.initial)
    # Backward search over the forward-reachable part only: every node
    # on a path from an initial node is forward-reachable itself.
    ends = (n for n in nfa.finals if n in forward)
    keep = _coreachable({n: edges[n] for n in forward}, ends)
    out = Nfa(
        (n for n in nfa.initial if n in keep),
        (n for n in nfa.finals if n in keep),
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


def _free_row(nfa: Nfa, node: Node) -> tuple[dict[Label, dict[Node, None]], bool]:
    """The node's row and finality once epsilon edges are removed: the
    labelled edges and finality of its epsilon closure, in the closure's
    order. A row without epsilon edges is returned as it is."""
    edges = nfa._edges
    row = edges[node]
    if EPSILON not in row:
        return row, node in nfa.finals
    closure = nfa.eps_closure((node,))
    out: dict[Label, dict[Node, None]] = {}
    for m in closure:
        for label, targets in edges[m].items():
            if label is not EPSILON:
                out.setdefault(label, {}).update(targets)
    return out, not nfa.finals.keys().isdisjoint(closure)


def eps_eliminate(nfa: Nfa) -> Nfa:
    out = Nfa(nfa.initial)
    for n in nfa.nodes():
        row, final = nfa._free_row(n)
        out.add_node(n)
        if final:
            out.add_final(n)
        for label, targets in row.items():
            for dst in targets:
                out.add_edge(n, label, dst)
    return out


def same(nfa: Nfa, other: Nfa) -> bool:
    """Structural equality: the same nodes, edges, initial and final
    nodes, in whatever order they were added."""
    return (
        nfa._edges == other._edges
        and nfa.initial.keys() == other.initial.keys()
        and nfa.finals.keys() == other.finals.keys()
    )


# -- automata from other automata and from words ------------------------------

def _predecessors(rows: dict[Node, dict]) -> dict:
    """Each node's predecessors in `rows` (node -> label -> targets)."""
    preds: dict[Node, list[Node]] = {}
    for n, row in rows.items():
        for targets in row.values():
            for m in targets:
                preds.setdefault(m, []).append(n)
    return preds


def _coreachable(rows: dict[Node, dict], ends: Iterable[Node], preds=None) -> set[Node]:
    """The nodes of `rows` (node -> label -> targets) with a path to one of
    `ends`, by one backward search over `preds`, which is
    `_predecessors(rows)`: pass it to search the same rows again."""
    preds = preds or _predecessors(rows)
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


# -- the algebra of configuration sets: methods of ConfigAutomaton, and
# `union_sets` and `intersect_sets` -------------------------------------------

def config_word(c: Configuration) -> tuple:
    return tuple(bar(s) for s in c.upper) + tuple(c.lower)


def set_accepts(configs: ConfigAutomaton, c: Configuration) -> bool:
    nfa = configs.components.get(c.state)
    return nfa.accepts(config_word(c)) if nfa is not None else False


def set_is_empty(configs: ConfigAutomaton) -> bool:
    return all(nfa.is_empty() for nfa in configs.components.values())


def set_compact(configs: ConfigAutomaton, node_budget: int = DFA_STATE_BUDGET) -> ConfigAutomaton:
    """Compact every component and drop the empty ones. Unless a
    component fell back on the budget, equal sets compact to sets that
    are `same`. The compaction of a valid set is valid: it keeps the
    labels, and each of its paths from an initial node spells a prefix
    of an accepted word of the set. A compaction is trimmed, so it has
    an initial node exactly when its language is not empty."""
    out: dict[str, Nfa] = {}
    for state, nfa in configs.components.items():
        compacted = nfa.compact(node_budget)
        if compacted.initial:
            out[state] = compacted
    compacted_set = ConfigAutomaton(configs.alphabet, out)
    compacted_set._validated = configs._validated
    return compacted_set


def set_same(configs: ConfigAutomaton, other: ConfigAutomaton) -> bool:
    """Structural equality: the same states, and `same` components."""
    return configs.components.keys() == other.components.keys() and all(
        nfa.same(other.components[state]) for state, nfa in configs.components.items()
    )


def check_alphabets(a: tuple[str, ...], b: tuple[str, ...]) -> None:
    """Raise MalformedInputError unless both alphabets hold the same symbols."""
    if set(a) != set(b):
        raise MalformedInputError(f"alphabet mismatch: {sorted(a)} vs {sorted(b)}")


def union_sets(a: ConfigAutomaton, b: ConfigAutomaton) -> ConfigAutomaton:
    check_alphabets(a.alphabet, b.alphabet)
    out: dict[str, Nfa] = {}
    for state in list(a.components) + [s for s in b.components if s not in a.components]:
        parts = [x.components[state] for x in (a, b) if state in x.components]
        out[state] = parts[0] if len(parts) == 1 else union(parts)
    return ConfigAutomaton(a.alphabet, out)


def intersect_sets(a: ConfigAutomaton, b: ConfigAutomaton) -> ConfigAutomaton:
    from .product import intersection

    check_alphabets(a.alphabet, b.alphabet)
    out: dict[str, Nfa] = {}
    for state, nfa in a.components.items():
        other = b.components.get(state)
        if other is not None:
            out[state] = intersection(nfa, other)
    return ConfigAutomaton(a.alphabet, out)
