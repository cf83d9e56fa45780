"""The lower stack on its own, stepped by brute force, for tests.

No rule reads the upper stack, so the lower stack alone is an ordinary
pushdown system. This module steps it configuration by configuration,
a configuration being a control state and a lower word (top first), and
answers the two questions that the checkers put to the lower stack:

- `pops`: does a run from the starts pop a given symbol?
- `growth`: how far above its start does a run's lower stack grow?

Each search explores every configuration reachable with at most `cap`
lower symbols and reports whether it had to leave one out for being
taller (`Search.capped`). An answer that no capped-off configuration
could change is exact; a capped search bounds the truth from one side.

`returns` and `head_growth` ask the same of one head (q, a) standing on a
bottom cell that no rule reads: the states in which the head's cell is
first popped, and the most the stack grows before then. They are what
`summaries.Summaries` computes as Ret and G.

It reads a system only through `UpdsSpec.rules` and imports no analysis
of the package.
"""

from __future__ import annotations

from collections import deque

# A bottom cell no rule reads: a run that pops down to it has popped the
# cell above it, and stops there.
BOTTOM = "#bottom"


class Search:
    """Every configuration reachable from the starts with at most `cap`
    lower symbols: `seen` maps each to the height of its start, and
    `capped` tells whether a taller successor was left out."""

    def __init__(self, spec, starts, cap):
        moves = {}
        for rule in spec.rules:
            moves.setdefault((rule[0], rule[1]), []).append(rule)
        self.popped = set()
        self.capped = False
        self.seen = {}
        queue = deque()
        for state, lower in starts:
            if (state, tuple(lower)) not in self.seen:
                self.seen[state, tuple(lower)] = len(lower)
                queue.append((state, tuple(lower)))
        while queue:
            state, lower = queue.popleft()
            height = self.seen[state, lower]
            if not lower:
                continue
            for _, read, to_state, written in moves.get((state, lower[0]), ()):
                if not written:
                    self.popped.add(read)
                succ = (to_state, tuple(written) + lower[1:])
                if len(succ[1]) > cap:
                    self.capped = True
                elif succ not in self.seen:
                    self.seen[succ] = height
                    queue.append(succ)

    def growth(self):
        """The most a reached lower stack stands above its start's."""
        return max(len(lower) - height for (_, lower), height in self.seen.items())


def pops(spec, starts, symbol, cap):
    """(whether a run from the starts pops `symbol`, whether the search
    was capped)."""
    search = Search(spec, starts, cap)
    return symbol in search.popped, search.capped


def growth(spec, starts, cap):
    """(the most a run from a start grows its lower stack, whether the
    search was capped). One start at a time, so that each run is measured
    from its own start."""
    searches = [Search(spec, [start], cap) for start in starts]
    if not searches:
        return None, False
    return (
        max(search.growth() for search in searches),
        any(search.capped for search in searches),
    )


def returns(spec, state, symbol, cap):
    """(the states in which a run from head (state, symbol) first pops
    that cell, whether the search was capped)."""
    search = Search(spec, [(state, (symbol, BOTTOM))], cap)
    found = {q for q, lower in search.seen if lower == (BOTTOM,)}
    return found, search.capped


def head_growth(spec, state, symbol, cap):
    """(the most a run from head (state, symbol) grows before it pops that
    cell, whether the search was capped)."""
    search = Search(spec, [(state, (symbol, BOTTOM))], cap)
    return search.growth(), search.capped
