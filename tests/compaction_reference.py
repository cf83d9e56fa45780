"""The compaction pipeline as separate passes, for tests.

`Nfa.compact` does this in one pass over integer-numbered nodes. Here
each step builds its own automaton: remove epsilon edges, trim, merge
bisimilar nodes, determinize the quotient, merge bisimilar nodes of the
DFA, and number the result breadth-first. `minimal_dfa` raises when the
determinization passes its budget; `compact` falls back on the first
quotient. Tests pin the one-pass version to this one edge for edge, in
the same order, and use `minimal_dfa` and `determinize` as the canonical
form and the subset construction of a language.
"""

from __future__ import annotations

from collections import deque

from upstack.errors import ResourceLimitError
from upstack.nfa import DFA_STATE_BUDGET, Label, Node, Nfa, label_key


def determinize(nfa: Nfa, node_budget: int = DFA_STATE_BUDGET) -> Nfa:
    """Subset construction (partial: no dead sink) over epsilon-closed
    subsets. Nodes of the result are ints in discovery order; labels
    are followed in label-key order. Raises ResourceLimitError past the
    node budget."""
    labels = sorted(nfa.labels(), key=label_key)
    first = nfa.eps_closure(nfa.initial)
    numbering: dict[frozenset[Node], int] = {first: 0}
    dfa = Nfa((0,))
    if not nfa.finals.keys().isdisjoint(first):
        dfa.add_final(0)
    queue: deque[frozenset[Node]] = deque((first,))
    while queue:
        subset = queue.popleft()
        src = numbering[subset]
        for label in labels:
            stepped = nfa._advance(subset, label)
            if not stepped:
                continue
            if stepped not in numbering:
                if len(numbering) >= node_budget:
                    raise ResourceLimitError(len(numbering), "determinization state budget")
                numbering[stepped] = len(numbering)
                if not nfa.finals.keys().isdisjoint(stepped):
                    dfa.add_final(numbering[stepped])
                queue.append(stepped)
            dfa.add_edge(src, label, numbering[stepped])
    return dfa


def bisimulation_quotient(nfa: Nfa) -> Nfa:
    """The epsilon-free trimmed automaton with each class of its coarsest
    bisimulation merged into one node: Moore-style refinement from
    finality until nodes of a class have the same (label, class)
    successors. Each class is named by its first node in nfa's insertion
    order; its edges are added in (label key, class) order."""
    free = nfa.eps_eliminate().trim()
    rows = free._edges
    order = [n for n in nfa.nodes() if n in rows]

    def moves(n: Node) -> frozenset[tuple[Label, int]]:
        return frozenset((label, cls[dst]) for label, targets in rows[n].items() for dst in targets)

    cls = {n: int(n in free.finals) for n in order}
    count = len(set(cls.values()))
    while True:
        signatures: dict[tuple, int] = {}
        cls = {n: signatures.setdefault((cls[n], moves(n)), len(signatures)) for n in order}
        if len(signatures) == count:
            break
        count = len(signatures)
    names: dict[int, Node] = {}
    for n in order:
        names.setdefault(cls[n], n)
    out = Nfa((names[cls[n]] for n in free.initial), (names[cls[n]] for n in free.finals))
    for name in names.values():
        out.add_node(name)
        for label, dst in sorted(moves(name), key=lambda m: (label_key(m[0]), m[1])):
            out.add_edge(name, label, names[dst])
    return out


def minimal_dfa(nfa: Nfa, node_budget: int = DFA_STATE_BUDGET) -> Nfa:
    """The quotient, determinized, quotiented again and numbered
    breadth-first: the minimal partial DFA. Raises ResourceLimitError past
    the node budget."""
    quotient = bisimulation_quotient(nfa)
    if not quotient.initial:
        return quotient
    return bisimulation_quotient(determinize(quotient, node_budget)).relabel()


def compact(nfa: Nfa, node_budget: int = DFA_STATE_BUDGET) -> Nfa:
    """`minimal_dfa`, or the first quotient if the determinization passes
    the node budget."""
    try:
        return minimal_dfa(nfa, node_budget)
    except ResourceLimitError:
        return bisimulation_quotient(nfa)


def layout(nfa: Nfa) -> tuple:
    """Everything insertion order shows of an automaton: its rows in node
    order, each row's labels and targets in order, and the initial and
    final nodes in order."""
    rows = [
        (n, [(label, list(targets)) for label, targets in row.items()])
        for n, row in nfa._edges.items()
    ]
    return rows, list(nfa.initial), list(nfa.finals)
