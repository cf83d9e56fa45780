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

Both phases build on demand, and build only their own nodes: the pop
phase's walkers and the push phase's lockstep pairs. A phase node is
made only when a final node can still be reached from it. The push
phase explores each target's lockstep pairs and lists their
predecessors once per round, and each state cuts them, by a backward
search over those lists, to those its exits can follow before adding an
edge. Which nodes can still reach a final node is the package's one
backward search, `compaction._coreachable`, run on the rows as they
are: no automaton is reversed. Where a phase touches a target it only
records it: the (state, target) pairs whose barred zone it enters, and
the nodes where it lands in the plain zone. A round of
`pre_star_rounds` builds both phases into one automaton per state, then
copies each recorded zone once, straight from the target: the whole
barred zone of each entered target, and the plain zone forward from its
landings. It compacts that, trimming the few barred-zone nodes that
lead to no entry. No target is copied verbatim: the pop phase accepts
the targets by the empty trace. A single phase on its own, `phase_pre`,
which no command runs, lives in `extras` and trims what `_phases`
returns.

Each target the phases read is a set as compaction leaves it: every
round of `pre_star_rounds` is compacted, a budget fallback included,
and `phase_pre` compacts what it is given. So each component is
epsilon-free, trimmed and nonempty, and the phases work none of that out
again: they read the targets' rows as they are. No plain edge precedes
a barred one, since accepted words end in plain symbols, so the barred
zone is the initial nodes and the targets of barred edges, and a plain
zone is copied forward from where a phase lands in it: past a plain
edge only plain edges lead on to a final node.
"""

from __future__ import annotations

import enum
from typing import Iterator

from .compaction import _coreachable, _predecessors
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
    of the input upper word that a phase leaves in place; its plain zone
    (its plain edges, final where t is) reads the lower word once a
    phase's trace is exhausted. No plain edge of t precedes a barred one,
    as accepted words end in plain symbols, so the nodes the barred zone
    reaches (`reach`) are the initial nodes and the targets of barred
    edges, and every node that a plain edge reaches still reaches a final
    node over plain edges only. The nodes that reach a final node over
    plain edges (`names`) are where the pop phase's liveness ends, and
    with their closed steps (`steps`, from `_plain_steps`) they are the
    push phase's lockstep tables, which it enters at the positions the
    barred zone reaches (`entered`) and at the initial ones (`first`).
    The phases only note where they touch t; `_phases` copies its
    zones."""

    def __init__(self, t: Nfa) -> None:
        self.nfa = t
        barred = [ms for row in t._edges.values() for a, ms in row.items() if is_barred(a)]
        self.reach = dict.fromkeys([*t.initial, *(m for ms in barred for m in ms)])
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


def _pop_phase_pre(
    spec: UpdsSpec, targets: dict[str, _Target], moves: _Moves, out: dict[str, Nfa],
    entered: dict, landings: dict,
) -> None:
    """One pop phase, backwards, added to each state's automaton in `out`,
    with the (state, target) pairs it enters as keys of `entered`, and the
    target nodes where it lands in each (state, target) pair's plain zone
    as keys of `landings[state, target]`. `_phases` copies both zones.
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
    one pass over the pairs adds every core edge. The core holds no plain
    zone: its edges into a plain zone end on a landing node, and a walker
    is live when it reaches a landing that reaches a final node over
    plain edges (`_Target.names`). Each state's part is then the epsilon
    edges from its barred zones into its own live walkers, and one walk
    from those that follows live nodes only and stops at the landings.
    Since a state's walker at its own target steps by epsilon into the
    target's plain zone, the phase accepts every target word by the empty
    trace."""
    core = Nfa()
    for p2, target in targets.items():
        t = target.nfa
        for r in target.names:
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
    ends = [("e", p2, r) for p2, target in targets.items() for r in target.names]
    live = _coreachable(core._edges, ends)
    for q in spec.states:
        comp = out[q]
        walkers = []
        for p2, target in targets.items():
            for r in target.reach:
                if ("i", q, p2, r) in live:
                    comp.add_edge(("u", p2, r), EPSILON, ("i", q, p2, r))
                    walkers.append(("i", q, p2, r))
                    entered[q, p2] = None
        seen = set(walkers)
        while walkers:
            src = walkers.pop()
            for label, nodes in core._edges[src].items():
                for node in nodes:
                    if node in live:
                        comp.add_edge(src, label, node)
                        if node[0] == "e":
                            landings.setdefault((q, node[1]), {})[node[2]] = None
                        elif node not in seen:
                            seen.add(node)
                            walkers.append(node)


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
    spec: UpdsSpec, targets: dict[str, _Target], moves: _Moves, out: dict[str, Nfa],
    entered: dict, landings: dict,
) -> None:
    """One push phase, backwards, added to each state's automaton in `out`,
    with the (state, target) pairs it enters as keys of `entered`, and the
    target nodes where it lands in each (state, target) pair's plain zone
    as keys of `landings[state, target]`. `_phases` copies both zones.
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
    exits, by a backward search over those lists. An exit step lands on a
    target node that a plain edge reaches, so every node the plain zone
    reaches from there is live."""
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
                                landings.setdefault((q, p2), {})[names[nxt[0]]] = None
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
    their own nodes into one automaton per state, and only record where
    they touch a target: the (state, target) pairs whose barred zone they
    enter, and the nodes where they land in each pair's plain zone. Both
    are dicts, so that the order does not follow the hash seed. Then each
    recorded zone is copied once, by one walk of the target over that
    zone's edges only: each entered pair's barred zone from the target's
    initial nodes, initial where the target is, so it is copied whole
    (`_Target.reach`) and its nodes that lead to no entry stay dead until
    compaction trims them; each pair's plain zone from its landings,
    final where the target is. The phases share these copies, and a path
    through either phase's nodes is one of its own, so each state's
    automaton accepts the union of what the phases accept. A state whose
    automaton has no initial node reaches no target."""
    components = {state: _Target(nfa) for state, nfa in targets.components.items()}
    out = {q: Nfa() for q in spec.states}
    entered: dict = {}
    landings: dict = {}
    if PhaseKind.POP in kinds:
        _pop_phase_pre(spec, components, moves, out, entered, landings)
    if PhaseKind.PUSH in kinds:
        _push_phase_pre(spec, components, moves, out, entered, landings)
    zones = [("u", key, dict.fromkeys(components[key[1]].nfa.initial)) for key in entered]
    for zone, (q, p2), seen in zones + [("e", key, landed) for key, landed in landings.items()]:
        t = components[p2].nfa
        comp, barred = out[q], zone == "u"
        marked, mark = (t.initial, comp.add_initial) if barred else (t.finals, comp.add_final)
        stack = list(seen)
        while stack:
            r = stack.pop()
            src = (zone, p2, r)
            for label, rs in t._edges[r].items():
                if is_barred(label) is barred:
                    for m in rs:
                        comp.add_edge(src, label, (zone, p2, m))
                        if m not in seen:
                            seen[m] = None
                            stack.append(m)
            if r in marked:
                mark(src)
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
