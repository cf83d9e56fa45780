"""The synchronous product of two automata: the intersection of their
languages. No command intersects sets, only the library's
`safety.decide_safety` does, so this is loaded on first use by
`compaction.intersect_sets`; `intersection` still imports from `nfa`.
"""

from __future__ import annotations

from collections import deque

from .nfa import EPSILON, Label, Nfa, Node


def intersection(a: Nfa, b: Nfa) -> Nfa:
    """Synchronous product; epsilon edges advance either side alone."""
    out = Nfa()
    start = [(x, y) for x in a.initial for y in b.initial]
    queue: deque[tuple[Node, Node]] = deque()
    seen: set[tuple[Node, Node]] = set()
    for pair in start:
        out.add_initial(pair)
        if pair not in seen:
            seen.add(pair)
            queue.append(pair)
    while queue:
        pair = queue.popleft()
        x, y = pair
        if x in a.finals and y in b.finals:
            out.add_final(pair)
        moves: list[tuple[Label, tuple[Node, Node]]] = []
        for label, xd in a.out_edges(x):
            if label is EPSILON:
                moves.append((EPSILON, (xd, y)))
            else:
                for yd in b.targets(y, label):
                    moves.append((label, (xd, yd)))
        for label, yd in b.out_edges(y):
            if label is EPSILON:
                moves.append((EPSILON, (x, yd)))
        for label, nxt in moves:
            out.add_edge(pair, label, nxt)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return out
