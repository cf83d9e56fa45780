"""Phase-bounded backward reachability.

A *phase* is a trace that never mixes the two stack-moving directions:
it uses switches freely plus either only pops or only pushes. For a
regular target set, the exact set of configurations that reach it within
one phase is regular again, and this module computes it; iterating and
uniting the two phase kinds gives an under-approximation of the full
backward closure that is exact for traces splitting into at most k
phases. Once a round adds nothing, it is exact outright: it is the whole
backward closure (`pre_star_rounds` reports that round).

Within a phase the lower top moves along a finite graph of (state, top)
pairs (`_Moves`), built once per system, so each phase is a product of
the target automaton with that graph and needs no saturation. For the
pop phase, one pass follows each lower symbol through the switches that
rewrite it to the pop that sheds it, advancing the target automaton over
its barred image, or to the end of the trace. For the push phase, the
word the lower top turns into is read off the graph in lockstep with the
target automaton, so that the number of symbols dropped from the upper
word equals the number of pushes; a separate entry mode absorbs the case
where the upper word is exhausted entirely.

Both phases build on demand: a phase's part of each state's automaton
grows forward from where the phase enters a target, and a phase node is
made only when a final node can still be reached from it. The push phase
explores each target's lockstep pairs and lists their predecessors once
per round, and each state cuts them, by a backward search over those
lists, to those its exits can follow before adding an edge. Which nodes
can still reach a final node is the package's one backward search,
`compaction._coreachable`, run on the rows as they are: no automaton is
reversed. A round of `pre_star_rounds` builds both phases into one
automaton per state, copies into it once the whole reachable barred zone
of each target that either phase enters, and compacts that, trimming
the few zone nodes that lead to no entry. No target is copied verbatim:
the pop phase accepts the targets by the empty trace. A single phase on
its own, `phase_pre`, which no command runs, lives in `extras`, trims
what `_phases` returns and still imports from here.

Each target the phases read is a set as compaction leaves it: every
round of `pre_star_rounds` is compacted, a budget fallback included,
and `phase_pre` compacts what it is given. So each component is
epsilon-free, trimmed and nonempty, and the phases work none of that out
again: they read the targets' rows as they are, and a plain zone is
copied forward from where a phase enters it, since past a plain edge
only plain edges lead on to a final node.
"""

from __future__ import annotations

import enum
from typing import Iterator

from . import _forward
from .compaction import _coreachable, _identity, _predecessors
from .configsets import ConfigAutomaton, bar, is_barred
from .core import UpdsSpec
from .limits import DFA_STATE_BUDGET
from .nfa import EPSILON, Nfa


class PhaseKind(enum.Enum):
    POP = "pop"
    PUSH = "push"


# -- one-phase backward closures ------------------------------------------

class _Target:
    """What the phases read of one target component t, which is as
    compaction leaves it: epsilon-free, trimmed and with an initial node.
    Its barred zone (its barred edges, initial where t is) reads the part
    of the input upper word that a phase leaves in place, and `reach`
    holds the nodes it reaches; its plain zone (its plain edges, final
    where t is) reads the lower word once a phase's trace is exhausted.
    The lockstep tables of the push phase are the nodes that reach a
    final node over plain edges (`_plain_steps`), and the positions of
    those the barred zone reaches (`entered`) and of the initial ones
    (`first`). Since t is trimmed, every node that a plain edge reaches
    still reaches a final node, over plain edges only, as accepted words
    end in plain symbols. The phases only note where they enter the
    barred zone; `_phases` copies all of it (`reach`) once per state."""

    def __init__(self, t: Nfa) -> None:
        self.nfa = t
        self.upper = Nfa(t.initial).embed(t, label=lambda a: a if is_barred(a) else None)
        self.lower = Nfa(finals=t.finals).embed(t, label=lambda a: None if is_barred(a) else a)
        self.reach = self.upper.reachable(t.initial)
        self.names, self.steps = _plain_steps(t)
        self.entered = [i for i, r in enumerate(self.names) if r in self.reach]
        self.first = [i for i, r in enumerate(self.names) if r in t.initial]


class _Moves:
    """The graph of (state, top) pairs along which a phase moves the lower
    top, read by both phases. Its nodes are the pairs (p, x) and one start
    node per state p2, named p2. The start node of p2 reads x into
    (p2, x); a switch (p, y) -> (p', y') is an epsilon edge from (p', y')
    to (p, y); a push (p, y) -> (p', b c) reads c from (p', b) to (p, y).
    So the words read from the start of p2 to (q, top) are the lower words
    w with <q, top> ->* <p2, w> by switches and pushes, and the epsilon
    closure of a pair holds the pairs whose switches lead into it.

    The push phase reads the graph's lockstep tables (`_plain_steps`, every
    pair final), the position of each start node, and per state q the
    positions of q's pairs with their tops (`exits`). The pop phase reads
    a row per pair, pairs with no rules included: the pair, the states its
    pops move to, and its epsilon closure, sorted."""

    def __init__(self, spec: UpdsSpec) -> None:
        pairs = [(p, x) for p in spec.states for x in spec.alphabet]
        graph = Nfa(finals=pairs)
        for p, x in pairs:
            graph.add_edge(p, x, (p, x))
        for (p, y), group in spec.moves.items():
            for _, to_state, arity, written in group:
                if arity:
                    label = EPSILON if arity == 1 else written[1]
                    graph.add_edge((to_state, written[0]), label, (p, y))
        names, self.steps = _plain_steps(graph)
        number = {n: i for i, n in enumerate(names)}
        self.start = {p2: number[p2] for p2 in spec.states}
        self.exits = {q: {number[(q, x)]: x for x in spec.alphabet} for q in spec.states}
        self.rows = [
            (
                pair,
                [to_state for _, to_state, arity, _ in spec.moves.get(pair, ()) if not arity],
                # Sorted, so that node order does not follow the hash seed.
                sorted(graph.eps_closure((pair,))),
            )
            for pair in pairs
        ]


def _zone_part(comp: Nfa, zone: Nfa, keep, name=_identity) -> None:
    """Copy into comp the nodes of `zone` in `keep`, in the zone's order,
    each node r as name(r), with the edges between them, initial and
    final where the zone is."""
    for r, row in zone._edges.items():
        if r not in keep:
            continue
        src = name(r)
        for label, targets in row.items():
            for m in targets:
                if m in keep:
                    comp.add_edge(src, label, name(m))
        if r in zone.initial:
            comp.add_initial(src)
        if r in zone.finals:
            comp.add_final(src)


def _pop_phase_pre(
    spec: UpdsSpec, targets: dict[str, _Target], moves: _Moves, out: dict[str, Nfa], entered: dict
) -> None:
    """One pop phase, backwards, added to each state's automaton in `out`,
    with the (state, target) pairs it enters as keys of `entered`.
    A trace of switches and pops from <q, w_u, w_l> never shrinks the
    upper word: it appends the popped symbols z and leaves some final
    lower word, so the target automaton must read bar(w_u) bar(z) w_l'.
    The core automaton has one walker node per (predecessor state q,
    target state, target node): its language is the set of current lower
    words from which some trace lands in the target with the target
    automaton finishing from that node. The trace treats each lower
    symbol a on its own: switches rewrite (q, a) into some pair (qk, ak)
    whose graph closure holds (q, a), and then either a pop of ak
    advances the target automaton over bar(ak) and hands on to the popped
    state's walker, or, where qk is the target state, the trace ends and
    the target's plain zone reads ak and the rest of the lower word. So
    one pass over the pairs adds every core edge. Each state's part is
    then the epsilon edges from its barred zones into its own walkers,
    and the part of the core that those walkers reach and that can still
    reach a final node. Since a state's walker at its own target steps by
    epsilon into the target's plain zone, the phase accepts every target
    word by the empty trace."""
    core = Nfa()
    for p2, target in targets.items():
        t = target.nfa
        _zone_part(core, target.lower, t._edges, lambda r: ("e", p2, r))
        for r in t.nodes():
            core.add_edge(("i", p2, p2, r), EPSILON, ("e", p2, r))
        for (qk, ak), pops, into in moves.rows:
            if not pops and qk != p2:
                continue
            barred = bar(ak)
            for r, row in t._edges.items():
                landed = [("i", q2, p2, r2) for r2 in row.get(barred, ()) for q2 in pops]
                if qk == p2:
                    landed += [("e", p2, r2) for r2 in row.get(ak, ())]
                for q, a in into:
                    for node in landed:
                        core.add_edge(("i", q, p2, r), a, node)
    live = _coreachable(core._edges, core.finals)
    for q in spec.states:
        comp = out[q]
        walkers = []
        for p2, target in targets.items():
            for r in target.nfa.nodes():
                if r in target.reach and ("i", q, p2, r) in live:
                    comp.add_edge(("u", p2, r), EPSILON, ("i", q, p2, r))
                    walkers.append(("i", q, p2, r))
                    entered[q, p2] = None
        _zone_part(comp, core, core.reachable(walkers) & live)


def _plain_steps(nfa: Nfa) -> tuple[list, list[dict[str, tuple[int, ...]]]]:
    """The nodes of nfa from which a final node is reachable over plain and
    epsilon edges, in nfa's order, and for each its closed steps over the
    plain symbols: symbol -> the sorted list positions of the listed nodes
    reached. A symbol that reaches none is left out."""
    edges = nfa._edges
    plain = {r: {a: ms for a, ms in row.items() if not is_barred(a)} for r, row in edges.items()}
    keep = _coreachable(plain, nfa.finals)
    live = [r for r in edges if r in keep]
    number = {r: i for i, r in enumerate(live)}
    closures = [nfa.eps_closure((r,)) for r in live]
    closed = [[number[m] for m in closure if m in number] for closure in closures]
    steps = []
    for closure in closures:
        row: dict[str, set[int]] = {}
        for n in closure:
            for label, m in nfa.out_edges(n):
                if label is not EPSILON and not is_barred(label) and m in number:
                    row.setdefault(label, set()).update(closed[number[m]])
        steps.append({a: tuple(sorted(ms)) for a, ms in row.items()})
    return live, steps


def _push_phase_pre(
    spec: UpdsSpec, targets: dict[str, _Target], moves: _Moves, out: dict[str, Nfa], entered: dict
) -> None:
    """One push phase, backwards, added to each state's automaton in `out`,
    with the (state, target) pairs it enters as keys of `entered`.
    A trace of switches and pushes from <q, g v, w_u> rewrites the lower
    top g into some word z (one symbol per push plus the survivor, so z
    has one more symbol than there are pushes) and drops that many
    symbols from the right of the upper word, bottoming out at empty. The
    component guesses the split of the input upper word into the
    surviving prefix, read against the target's barred zone, and the
    dropped suffix, consumed during a lockstep walk that advances the
    target automaton and the move graph, from the start node of the
    target's state, over the same z, one dropped symbol per step except
    the last. The exit step instead lands the graph on a pair (q, g),
    consumes g and hands the remaining input to the target's plain zone.
    A second entry mode starts the lockstep at the target's initial nodes
    for traces that exhaust the upper word, where extra pushes advance for
    free. A trace needs a lower top to start from, so the empty trace on
    an empty lower word is left to the pop phase.

    Only what an accepted word uses is built. Each target's lockstep
    pairs are explored once (`_lockstep`), with their predecessor lists,
    and each state q keeps those from which a step lands on one of q's
    exits, by a backward search over those lists; a plain zone is copied
    only forward from the exits: past the plain edge that lands on an
    exit, every node the zone reaches is live."""
    barred = [bar(x) for x in spec.alphabet]
    for p2, target in targets.items():
        names = target.names
        z = moves.start[p2]
        walk = _lockstep(target.steps, moves.steps, [(r, z) for r in target.entered + target.first])
        preds = _predecessors(walk)
        for q in spec.states:
            comp = out[q]
            zexits = moves.exits[q]
            ends = [pair for pair, row in walk.items() if not zexits.keys().isdisjoint(row)]
            live = _coreachable(walk, ends, preds)
            exits: set = set()
            for free, rs in ((0, target.entered), (1, target.first)):
                reached = [(r, z) for r in rs if (r, z) in live]
                for r, _ in reached:
                    if free:
                        comp.add_initial(("k", p2, r, z, 1))
                    else:
                        comp.add_edge(("u", p2, names[r]), EPSILON, ("k", p2, r, z, 0))
                        entered[q, p2] = None
                seen = set(reached)
                while reached:
                    pair = reached.pop()
                    src = ("k", p2, *pair, free)
                    for z2, nexts in walk[pair].items():
                        top = zexits.get(z2)
                        for nxt in nexts:
                            if top is not None:
                                comp.add_edge(src, top, ("e", p2, names[nxt[0]]))
                                exits.add(names[nxt[0]])
                            if nxt not in live:
                                continue
                            dst = ("k", p2, *nxt, free)
                            for label in barred:
                                comp.add_edge(src, label, dst)
                            if free:
                                comp.add_edge(src, EPSILON, dst)
                            if nxt not in seen:
                                seen.add(nxt)
                                reached.append(nxt)
            if exits:
                lower = target.lower
                _zone_part(comp, lower, lower.reachable(exits), lambda r: ("e", p2, r))


def _lockstep(steps: list, zsteps: list, starts: list) -> dict:
    """The pairs (r, z) of a target node and a graph node that joint
    steps over one plain symbol reach from `starts`, each with its row:
    graph node landed on -> the pairs its steps reach there."""
    graph: dict = dict.fromkeys(starts)
    stack = list(graph)
    while stack:
        r, z = pair = stack.pop()
        graph[pair] = row = {}
        zrow = zsteps[z]
        for a, landed in steps[r].items():
            for z2 in zrow.get(a, ()):
                for r2 in landed:
                    nxt = (r2, z2)
                    row.setdefault(z2, []).append(nxt)
                    if nxt not in graph:
                        graph[nxt] = None
                        stack.append(nxt)
    return graph


def _phases(
    spec: UpdsSpec, targets: ConfigAutomaton, kinds: tuple[PhaseKind, ...], moves: _Moves
) -> ConfigAutomaton:
    """The configurations that reach the targets (a set as compaction
    leaves it) by one phase of any of the given kinds. Both phases write
    into one automaton per state: they share the copies of the target's
    zones, and a path through either phase's nodes is one of its own, so
    each state's automaton accepts the union of what the phases accept.
    Each (state, target) pair either phase enters, in the order entered
    (a dict, so that the order does not follow the hash seed), gets one
    copy of the target's whole reachable barred zone, whose nodes that
    lead to no entry stay dead until compaction trims them. A state whose
    automaton has no initial node reaches no target."""
    components = {state: _Target(nfa) for state, nfa in targets.components.items()}
    out = {q: Nfa() for q in spec.states}
    entered: dict = {}
    if PhaseKind.POP in kinds:
        _pop_phase_pre(spec, components, moves, out, entered)
    if PhaseKind.PUSH in kinds:
        _push_phase_pre(spec, components, moves, out, entered)
    for q, p2 in entered:
        target = components[p2]
        _zone_part(out[q], target.upper, target.reach, lambda r: ("u", p2, r))
    return ConfigAutomaton(spec.alphabet, {q: comp for q, comp in out.items() if comp.initial})


def pre_star_rounds(
    spec: UpdsSpec,
    targets: ConfigAutomaton,
    k: int,
    node_budget: int = DFA_STATE_BUDGET,
) -> Iterator[tuple[ConfigAutomaton, bool]]:
    """The rounds of `bounded_phase_pre_star`, each with whether it
    converged. Round 0 is the targets, compacted; round i closes round
    i - 1 under one pop phase and one push phase at once, so it holds the
    configurations reaching the targets by traces splitting into at most
    i phases. The rounds stop after round k, or after a round that is
    `same` as the one before: that round added nothing, so it is closed
    under every one-rule predecessor (one rule is one phase), which makes
    it the exact pre*, and it is the only round that comes with True.
    Rounds are compacted, so a round that adds nothing shows it, unless a
    compaction fell back on the node budget; k <= 0 yields round 0 only."""
    current = targets.compact(node_budget)
    yield current, False
    if k <= 0:
        return
    current.check_against(spec, "target set")
    moves = _Moves(spec)
    for _ in range(k):
        grown = _phases(spec, current, tuple(PhaseKind), moves).compact(node_budget)
        converged = grown.same(current)
        yield grown, converged
        if converged:
            return
        current = grown


def bounded_phase_pre_star(
    spec: UpdsSpec,
    targets: ConfigAutomaton,
    k: int,
    node_budget: int = DFA_STATE_BUDGET,
) -> ConfigAutomaton:
    """Configurations reaching the target set by traces splitting into at
    most k phases: the last of the `pre_star_rounds`. Monotone in k; k <= 0
    returns the targets. Stops early once a round is `same` as the one
    before."""
    for current, _ in pre_star_rounds(spec, targets, k, node_budget):
        pass
    return current


__getattr__ = _forward(__name__, extras="phase_pre")
