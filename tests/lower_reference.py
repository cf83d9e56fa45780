"""The lower stack on its own, stepped by brute force, for tests.

No rule reads the upper stack, so the lower stack alone is an ordinary
pushdown system. This module steps it configuration by configuration,
a configuration being a control state and a lower word (top first), and
answers the two questions that the checkers put to the lower stack:

- `pops`: does a run from the starts pop a given symbol?
- `growth`: how far above its start does a run's lower stack grow?

`exposes` asks the read checker's own question of full configurations
(state, upper word, lower word), stepped as the package defines them: can
a run put a given symbol in the cell just above the boundary, by popping
it or by growing back up to a copy in the start's upper word?

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


def _moves(spec):
    moves = {}
    for rule in spec.rules:
        moves.setdefault((rule[0], rule[1]), []).append(rule)
    return moves


class Search:
    """Every configuration reachable from the starts with at most `cap`
    lower symbols: `seen` maps each to the height of its start, and
    `capped` tells whether a taller successor was left out."""

    def __init__(self, spec, starts, cap):
        moves = _moves(spec)
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


def exposes(spec, starts, symbol, cap):
    """(whether a run from the starts, each a full configuration (state,
    upper, lower), reaches one whose upper word ends with `symbol`,
    whether the search left out a configuration with more than `cap`
    lower symbols). A pop appends the lower top to the upper word, and a
    push deletes the upper word's last symbol, if there is one."""
    moves = _moves(spec)
    seen = {(state, tuple(upper), tuple(lower)) for state, upper, lower in starts}
    queue = deque(seen)
    capped = False
    while queue:
        state, upper, lower = queue.popleft()
        if upper[-1:] == (symbol,):
            return True, capped
        if not lower:
            continue
        for _, read, to_state, written in moves.get((state, lower[0]), ()):
            if not written:
                succ = (to_state, upper + (read,), lower[1:])
            else:
                kept = upper[:-1] if len(written) == 2 else upper
                succ = (to_state, kept, tuple(written) + lower[1:])
            if len(succ[2]) > cap:
                capped = True
            elif succ not in seen:
                seen.add(succ)
                queue.append(succ)
    return False, capped
