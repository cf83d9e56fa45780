"""Compaction of an automaton to its canonical minimal DFA, in one pass
over integer-numbered nodes.

`Nfa.compact` loads this module on its first call, so a command that
never compacts (`member`, the DOT exports, the parsers) does not compile
it. The pass takes the epsilon-free rows of the forward-reachable nodes,
one closure per node (`Nfa._free_row`), trims them backwards, merges the
coarsest bisimulation of what is left (`_quotient`, the one partition
refinement), runs the subset construction over its classes and merges
the DFA's own bisimulation, which gives the minimal DFA, numbered
breadth-first over label-sorted edges. The result is built once.
Automata with the same language compact to `same` ones, unless the
subset construction passes its budget: then the result is the first
quotient, which needs no subsets.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .nfa import Label, Nfa, Node, _coreachable, label_key


def compact(nfa: Nfa, node_budget: int) -> Nfa:
    """`Nfa.compact`: nfa's minimal partial DFA, or, if the subset
    construction passes the node budget, the bisimulation quotient of the
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
