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
  component holds a push edge.
* P: the heads from which a run pops the one symbol s asked, those that
  reach a head (r, s) with a pop rule; empty for overflow, which asks
  for no symbol.

One worklist pass builds Ret and the head graph together (after Esparza,
Hansel, Rossmanith and Schwoon, CAV 2000), and scans no rule twice. Its
items are runs (h, r, w): a run from head h, now in state r, that pops
h's cell once it pops the word w. Each rule `q a -> q' w` starts the run
((q, a), q', w). A run whose w is empty puts r into Ret(h), once, and
that entry wakes every run waiting on h. A run with w = b w' waits on
(r, b): it gives h the edge to (r, b) of weight |w'|, and goes on as (h,
r', w') for each r' that Ret(r, b) already holds and each that enters it
later. So a switch waits on (q', b) for the empty word. A push waits on
(q', b) for c; each r that enters Ret(q', b) then starts a wait on (r,
c) for the empty word, which takes the entries Ret(r, c) holds and those
it gains.

`shortest_violation` searches a start set breadth first over (state,
node, d) triples: a lower symbol a read from (r, n) leads to each (r',
n') with r' in Ret(r, a), and d counts the cells read since the last
barred s, or, for overflow, since the word's start. Let p count the
start cells popped. The most a run from the start set grows is M, the
maximum over reached triples of G(r, a) - p for each symbol a read from
n, and of -p where n is final: take a run's highest point and the last
time before it at its lowest height, when its head still holds a start
cell a. For overflow d is m+1 + p, so a run grows past m exactly when
some reached triple has G(r, a) >= d. A read run pops s exactly when
some reached triple has (r, a) in P; counted from the last held copy of
s, d is the cells after that copy plus p, so a run exposes it exactly
when some reached triple has G(r, a) >= d, or d = 0 where n is final.
So one rule serves both questions: a triple violates when (r, a) is in
P or G(r, a) >= d, d being None before a first held s. `Summaries.shows`
asks the same of one configuration.

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

from .configsets import bar, is_barred
from .nfa import EPSILON, label_key


class Summaries:
    """Ret and G (see the module docstring) of each head with a rule, in
    dicts keyed by head, and P, the set of heads from which a run pops
    `symbol`: the question of a read of `symbol`, or, where it is None,
    of overflow, whose P is empty. A head without a rule pops nothing and
    grows by 0. `cap` is one more than the largest finite G."""

    def __init__(self, spec, symbol=None):
        self.symbol = symbol
        moves = spec.moves
        self.ret = ret = {head: {} for head in moves}
        graph = {head: [] for head in moves}
        # The runs (head, r, w) of the module docstring, and waiting[h]:
        # (head, w') for each run that waits on h for the rest w'.
        work = [(head, to, written) for head in moves for _, to, _, written in moves[head]]
        waiting = {}
        while work:
            head, r, word = work.pop()
            if word:
                target = (r, word[0])
                graph[head].append((len(word) - 1, target))
                waiting.setdefault(target, []).append((head, word[1:]))
                work += [(head, r2, word[1:]) for r2 in ret.get(target, ())]
            elif r not in ret[head]:
                ret[head][r] = None
                work += [(waiter, r, rest) for waiter, rest in waiting.get(head, ())]
        self.growth = growth = {}
        # The heads with a pop of `symbol`, and then each that reaches one.
        self.pops = pops = {(q, a) for q, a, _, w in spec.rules if a == symbol and not w}
        # Sinks first, so that what a component leads to is known.
        for members in _components(graph):
            grows, popped = 0, not pops.isdisjoint(members)
            for head in members:
                for weight, target in graph.get(head, ()):
                    if target in members:
                        grows = math.inf if weight else grows
                    else:
                        grows = max(grows, weight + growth[target])
                        popped |= target in pops
            for head in members:
                growth[head] = grows
            if popped:
                pops |= members
        self.cap = 1 + max((g for g in growth.values() if g != math.inf), default=0)

    def shows(self, state, word):
        """Do the summaries show a violation from the configuration of a
        state and a flattened word?"""
        pairs = {(state, None if self.symbol else 0)}
        for label in word:
            pairs = {step for r, d in pairs for step in _steps(self, r, d, label)}
        return any(r is None or d == 0 for r, d in pairs)


def _components(graph):
    """The strongly connected components of a graph (node -> [(weight,
    node)]), by Tarjan's algorithm without recursion, each after every
    component it has an edge to."""
    index, low, at, stack, done, components = {}, {}, {}, [], set(), []
    for root in graph:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        at[root] = len(stack)
        stack.append(root)
        work = [(root, iter(graph[root]))]
        while work:
            head, edges = work[-1]
            for _, target in edges:
                if target not in index:
                    index[target] = low[target] = len(index)
                    at[target] = len(stack)
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
                    members = set(stack[at[head]:])
                    del stack[at[head]:]
                    done |= members
                    components.append(members)
    return components


def _steps(summaries, r, d, label):
    """The (state, d) pairs of a search at (r, d) once it reads `label`
    (see `shortest_violation`); (None, None) once a violation is shown."""
    if r is None or label is EPSILON:
        return [(r, d)]
    d2 = None if d is None else min(d + 1, summaries.cap)
    if is_barred(label):
        return [(r, 0 if label == bar(summaries.symbol) else d2)]
    head = (r, label)
    steps = [(r2, d2) for r2 in summaries.ret.get(head, ())]
    if head in summaries.pops or d is not None and summaries.growth.get(head, 0) >= d:
        steps.append((None, None))
    return steps


def shortest_violation(summaries, components):
    """The state and flattened word of a shortest start member from which
    the summaries show a violation, the first such state in the order of
    `components` (state -> automaton) winning a tie; None if no member
    violates. A run at head (r, a) violates before it pops that cell when
    (r, a) is in P or G(r, a) >= d, and one that popped the whole word
    when d = 0. d counts the cells read since the last barred `symbol`,
    start cells popped included; it is None before a first such cell, and
    counts from the word's start, m+1 upper cells included, for overflow.

    Each component is searched breadth first over (state, node, d)
    triples, along edges sorted by `label_key`, with d capped at one past
    the largest finite G, past which no G reaches it. A barred or epsilon
    edge keeps the state; a lower symbol a read from (r, n) pops that cell
    into each state of Ret(r, a), and where (r, a) violates the search
    goes on to complete the word, in a triple whose state and d are None.
    Each triple keeps the word it was first reached by."""
    best = None
    for state, nfa in components.items():
        rows, finals = nfa._edges, nfa.finals
        words = {(state, node, None if summaries.symbol else 0): () for node in nfa.initial}
        queue = deque(words)
        while queue:
            triple = queue.popleft()
            r, node, d = triple
            word = words[triple]
            if node in finals and (r is None or d == 0):
                if best is None or len(word) < len(best[1]):
                    best = (state, word)
                break
            for label, targets in sorted(rows[node].items(), key=lambda item: label_key(item[0])):
                steps = _steps(summaries, r, d, label)
                longer = word if label is EPSILON else word + (label,)
                for target in targets:
                    for r2, d2 in steps:
                        if (r2, target, d2) not in words:
                            words[r2, target, d2] = longer
                            queue.append((r2, target, d2))
    return best
