"""Both safety questions decided on the lower stack alone.

No rule reads the upper stack, so the lower stack on its own is an
ordinary pushdown system, and both checkers' questions can be put to it:

* read: the cell just above the pointer holds s right after a pop of s,
  or when a run grows back up to a copy of s held in its start's upper
  word. A pop adds one cell at the boundary and a push overwrites one,
  so the first time a run stands j cells above its start's lower height
  it is at its highest yet, and the cell above the pointer is the start
  upper cell j from the word's end. A run passes every height up to the
  most it grows, so a held s is exposed exactly when its last copy has
  at most that many cells after it;
* overflow: while `@top` survives, |upper| = m+1 - h, where h is the
  lower stack's net growth since the start, so `@top` is lost exactly
  when the growth first reaches m+1.

`Summaries` holds procedure summaries (Sharir and Pnueli 1981; Reps,
Horwitz and Sagiv, POPL 1995) of a system's heads (state, lower top),
Ret by saturation, as a P-automaton is saturated (Bouajjani, Esparza
and Maler, CONCUR 1997):

* Ret(q, a): the states in which a run from head (q, a) first pops that
  cell. A pop gives its target; a switch `q a -> q' b` adds Ret(q', b);
  a push `q a -> q' b c` adds Ret(r, c) for each r in Ret(q', b).
* The head graph: a switch is an edge to (q', b) of weight 0, a push an
  edge to (q', b) of weight 1 and one to (r, c) of weight 0 for each r in
  Ret(q', b). Its nodes reachable from (q, a) are the heads of the runs
  from (q, a) before that cell is popped, each at its height above it.
* G(q, a): the most such a run grows, a longest path of the head graph,
  over its strongly connected components; infinite when a reachable
  component holds a push edge. P(q, a): the symbols it can pop, those of
  the heads it reaches that have a pop rule.

`shortest_violation` searches a start set breadth first over (state,
node, d) triples: a lower symbol a read from (r, n) leads to each (r',
n') with r' in Ret(r, a), and d counts the cells read since the word's
start, or since its last marked upper cell. Let p count the start cells
popped. The most a run from the start set grows is M, the maximum over
reached triples of G(r, a) - p for each symbol a read from n, and of -p
where n is final: take a run's highest point and the last time before it
at its lowest height, when its head still holds a start cell a. So a run
grows past m exactly when some reached triple has G(r, a) - p > m, and
it pops s exactly when some reached triple has s in P(r, a). Counted
from the last held copy of s, d is the cells after that copy plus p, so
a run exposes it exactly when some reached triple has G(r, a) >= d, or
d = 0 where n is final. `Summaries.shows` asks the same of one
configuration.

A checker decides Safe from these facts alone. Where they show a
violation, it decides within k phases from the summaries of the
system's copy that counts phases, an ordinary pushdown system too
(`phasecopy`).

Every checker call compiles this module, so its helpers carry no type
annotations, which are syntax-tree nodes too; their docstrings say what
they take.
"""

from __future__ import annotations

import math
from collections import deque

from .configsets import is_barred
from .nfa import EPSILON, label_key


class Summaries:
    """Ret, G and P (see the module docstring) of each head with a rule,
    in dicts keyed by head; a head without a rule pops nothing and grows
    by 0. `cap` is one more than the largest finite G."""

    def __init__(self, spec):
        moves = spec.moves
        self.ret = ret = {head: {} for head in moves}
        changed = True
        while changed:
            changed = False
            for head, entries in moves.items():
                size = len(ret[head])
                for _, to_state, _, written in entries:
                    ret[head].update(self.after((to_state,), written))
                changed |= len(ret[head]) != size
        graph = {}
        for head, entries in moves.items():
            graph[head] = edges = []
            for _, to_state, arity, written in entries:
                if arity:
                    edges.append((arity - 1, (to_state, written[0])))
                if arity == 2:
                    inner = ret.get((to_state, written[0]), ())
                    edges += [(0, (r, written[1])) for r in inner]
        self.growth = growth = {}
        self.pops = pops = {}
        # Sinks first, so that what a component leads to is known.
        for members in _components(graph):
            grows = 0
            popped = {
                head[1] for head in members
                if any(arity == 0 for _, _, arity, _ in moves.get(head, ()))
            }
            for head in members:
                for weight, target in graph.get(head, ()):
                    if target in members:
                        grows = math.inf if weight else grows
                    else:
                        grows = max(grows, weight + growth[target])
                        popped |= pops[target]
            for head in members:
                growth[head] = grows
                pops[head] = popped
        self.cap = 1 + max((g for g in growth.values() if g != math.inf), default=0)

    def after(self, states, word):
        """The states, in a dict, in which runs from the given states pop
        the whole word."""
        states = dict.fromkeys(states)
        for cell in word:
            states = {r2: None for r in states for r2 in self.ret.get((r, cell), ())}
        return states

    def shows(self, state, word, violates, marked=None):
        """Do the summaries show a violation from the configuration of a
        state and a flattened word? `violates` and `marked` are as in
        `shortest_violation`."""
        pairs = {(state, None if marked else 0)}
        for label in word:
            pairs = {step for r, d in pairs for step in _steps(self, r, d, label, violates, marked)}
        return (None, None) in pairs or any(violates(r, None, d) for r, d in pairs)


def _components(graph):
    """The strongly connected components of a graph (node -> [(weight,
    node)]), by Tarjan's algorithm without recursion, each after every
    component it has an edge to."""
    index, low, stack, done, components = {}, {}, [], set(), []
    for root in graph:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(graph[root]))]
        while work:
            head, edges = work[-1]
            for _, target in edges:
                if target not in index:
                    index[target] = low[target] = len(index)
                    stack.append(target)
                    work.append((target, iter(graph.get(target, ()))))
                    break
                if target not in done:
                    low[head] = min(low[head], index[target])
            else:
                work.pop()
                if work:
                    low[work[-1][0]] = min(low[work[-1][0]], low[head])
                if low[head] == index[head]:
                    members = set(stack[stack.index(head):])
                    del stack[-len(members):]
                    done |= members
                    components.append(members)
    return components


def _steps(summaries, r, d, label, violates, marked):
    """The (state, d) pairs of a search at (r, d) once it reads `label`
    (see `shortest_violation`); (None, None) once a violation is shown."""
    if r is None or label is EPSILON:
        return [(r, d)]
    d2 = 0 if label == marked else (None if d is None else min(d + 1, summaries.cap))
    if is_barred(label):
        return [(r, d2)]
    steps = [(r2, d2) for r2 in summaries.ret.get((r, label), ())]
    if violates(r, label, d):
        steps.append((None, None))
    return steps


def shortest_violation(summaries, states, components, violates, marked=None):
    """The state and flattened word of a shortest start member from which
    the summaries show a violation, the first such state in the order
    given winning a tie; None if no member violates. `violates(r, a, d)`
    tells whether a run at head (r, a) violates before it pops that cell,
    and `violates(r, None, d)` whether one that popped the whole word
    does. d counts the cells read since the last barred `marked` one,
    start cells popped included; it is None before a first marked cell,
    and counts from the word's start when `marked` is None.

    Each component is searched breadth first over (state, node, d)
    triples, along edges sorted by `label_key`, with d capped at one past
    the largest finite G, past which no G reaches it. A barred or epsilon
    edge keeps the state; a lower symbol a read from (r, n) pops that cell
    into each state of Ret(r, a), and where violates(r, a, d) the search
    goes on to complete the word, in a triple whose state and d are None.
    Each triple keeps the word it was first reached by."""
    best = None
    for state in states:
        nfa = components.get(state)
        if nfa is None:
            continue
        rows, finals = nfa._edges, nfa.finals
        words = {(state, node, None if marked else 0): () for node in nfa.initial}
        queue = deque(words)
        while queue:
            triple = queue.popleft()
            r, node, d = triple
            word = words[triple]
            if node in finals and (r is None or violates(r, None, d)):
                if best is None or len(word) < len(best[1]):
                    best = (state, word)
                break
            for label, targets in sorted(rows[node].items(), key=lambda item: label_key(item[0])):
                steps = _steps(summaries, r, d, label, violates, marked)
                longer = word if label is EPSILON else word + (label,)
                for target in targets:
                    for r2, d2 in steps:
                        if (r2, target, d2) not in words:
                            words[r2, target, d2] = longer
                            queue.append((r2, target, d2))
    return best

