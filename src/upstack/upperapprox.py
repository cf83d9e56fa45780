"""Regular over-approximation of forward reachability.

Exact forward closures of these systems are context-sensitive in
general, so this module settles for a sound regular superset. The key
observation is that the upper word is a function of the rule sequence
alone: pops append their read symbol, pushes drop the rightmost symbol
of a nonempty word, switches leave it alone. Given any regular superset
of the real rule sequences (a *trace automaton*), a small saturation
turns it into an automaton for a superset of the reachable upper words,
and pairing those per-state with the classic regular forward closure of
the lower stack yields a regular superset of the reachable
configurations. The upper word is itself a stack whose top sits at the
boundary, so that saturation is the P-automaton post* saturation that
`pds_post_star` runs on the lower words, over an automaton that reads
each upper word from the boundary: the reverse of the one it returns
(`_close_upper`). Precision is whatever the trace abstraction buys;
soundness never depends on it. The abstraction here is a graph of
(control state, lower-stack top) pairs read off the system's move table
(`trace_overapprox`); `export-dot --trace` draws it.

Both saturations start from the query's regular start set itself, as
pushdown post* saturation can start from any regular set of
configurations (Bouajjani, Esparza and Maler, CONCUR 1997). The upper
one starts from each component's barred zone, which steps into the
abstraction at the (state, top) pair of each plain edge leaving it; the
lower one starts from the members' nonempty lower words. Each state's
component is built straight from the two closures: the closed upper
automaton, barred, then an epsilon step from each node the state owns
into the lower closure at the state's entry. Members with an empty lower
word have no successors at all; their zone, which nothing but the fresh
initial node enters, accepts them.

No command slices or projects a set, so the zone projections and their
product, one state's slice of an upper or a lower set
(`UpperAutomaton.slice`, `LowerAutomaton.slice`), `upper_config_set`
and relabelling an automaton's edges (`Nfa.map_labels`) live in
`extras`. So does the upper saturation from one configuration with an
empty upper word (`saturate_upper`): the analyses close the upper
automaton of a whole set with `_close_upper`. So do the checks of a
trace automaton built by hand (`TraceAutomaton.validate`) and its
membership test (`TraceAutomaton.accepts`): the analyses build theirs
valid and test no trace against them. The single-origin extension, which folds a start
set into the system, belongs to the grammar (`grammar.single_origin`).
"""

from __future__ import annotations

from typing import Mapping

from . import _MovedMethod, _forward
from .configsets import ConfigAutomaton, bar, is_barred, unbar
from .core import Frozen, UpdsSpec
from .nfa import EPSILON, Nfa
from .pds import LowerAutomaton, pds_post_star

# The fresh initial node of the upper saturation seeded by a set; the
# set's zone nodes there are tagged (_SET, state).
_SET = ("@set",)


class TraceAutomaton(Frozen):
    """An NFA over rule labels whose language contains every real rule
    sequence. Each node is owned by one control state: an edge labeled
    (p, a) -> (p', w) must leave a node owned by p and enter a node owned
    by p', so runs chain control states the way real traces do. Every
    node is final, making the language prefix-closed."""

    def __init__(self, nfa: Nfa, owner: Mapping[object, str] | None = None) -> None:
        _set = object.__setattr__
        _set(self, "nfa", nfa)
        _set(self, "owner", {} if owner is None else owner)

    def _fields(self) -> tuple:
        return (self.nfa, self.owner)

    # The checks of an automaton built by hand, and its membership test,
    # which no command runs.
    validate = _MovedMethod("extras", "trace_validate")
    accepts = _MovedMethod("extras", "trace_accepts")


class UpperAutomaton(Frozen):
    """Shares the trace automaton's nodes plus one fresh entry mirror per
    trace-initial node; its edges spell the upper words the rule
    sequences can leave behind. The words reaching a node owned by p,
    from the entry mirrors, form the slice for p. `entries` maps each
    mirror to the trace node it stands for."""

    def __init__(
        self,
        nfa: Nfa,
        owner: Mapping[object, str] | None = None,
        entries: Mapping[object, object] | None = None,
    ) -> None:
        _set = object.__setattr__
        _set(self, "nfa", nfa)
        _set(self, "owner", {} if owner is None else owner)
        _set(self, "entries", {} if entries is None else entries)

    def _fields(self) -> tuple:
        return (self.nfa, self.owner, self.entries)

    # One state's words on their own, which no command takes.
    slice = _MovedMethod("extras", "upper_slice")


def _zone_exits(component: Nfa) -> tuple[list[tuple], bool]:
    """The plain edges (node, top, target) leaving a set component's
    barred zone, which is walked from the initial nodes over barred and
    epsilon edges: their labels are the members' first lower symbols.
    Also whether some member has an empty lower word."""
    exits: list[tuple] = []
    empty_lower = False
    seen = set(component.initial)
    stack = list(component.initial)
    while stack:
        node = stack.pop()
        if node in component.finals:
            empty_lower = True
        for label, dst in component.out_edges(node):
            if label is EPSILON or is_barred(label):
                if dst not in seen:
                    seen.add(dst)
                    stack.append(dst)
            else:
                exits.append((node, label, dst))
    return exits, empty_lower


def trace_overapprox(spec: UpdsSpec, configs: ConfigAutomaton) -> TraceAutomaton:
    """A sound trace automaton for the rule sequences runnable from the
    given configurations, refined by the lower-stack top. Its nodes are
    pairs (state, top) of a control state and an abstract top, a symbol
    or None for unknown; initial ones are the states where the set is
    nonempty with each first lower symbol of their members (None for an
    empty lower word). A node's edges are the moves of its state and top
    (`UpdsSpec.moves`), every move of the state for an unknown top:
    pushes and switches set the top to the first symbol they write, pops
    forget it. Prefix-closed, and it accepts every real rule sequence."""
    pending: list[tuple[str, str | None]] = []
    for state, component in configs.components.items():
        if component.is_empty():
            continue
        exits, empty_lower = _zone_exits(component)
        pending.extend((state, top) for top in dict.fromkeys(top for _, top, _ in exits))
        if empty_lower:
            pending.append((state, None))
    nfa = Nfa(pending)
    owner: dict[object, str] = {}
    seen = set(pending)
    while pending:
        node = pending.pop()
        state, top = node
        nfa.add_final(node)
        owner[node] = state
        if top is None:
            moves = [m for a in spec.alphabet for m in spec.moves.get((state, a), ())]
        else:
            moves = spec.moves.get(node, ())
        for rule, to_state, _, written in moves:
            successor = (to_state, written[0] if written else None)
            nfa.add_edge(node, rule, successor)
            if successor not in seen:
                seen.add(successor)
                pending.append(successor)
    return TraceAutomaton(nfa, owner)


def _close_upper(at: TraceAutomaton, up: Nfa, owner: Mapping, entries=None) -> UpperAutomaton:
    """Close `up`, whose initial nodes carry the empty word alone, under
    the trace edges, and return it with its nodes' owning states. The
    upper word is a stack whose top is at the boundary, so the closure is
    P-automaton post* saturation, as `pds_post_star` runs it on the lower
    words, over the reverse of `up`, which reads each word from the
    boundary. Per trace edge q0 -> q1, by the arity of its rule, in the
    reverse: a pop adds
    q1 --a--> q0 for its read symbol; a switch adds q1 --eps--> q0; a push
    strips the boundary symbol, so it adds q1 --eps--> n for each node n
    one plain edge from q0's epsilon closure, and for each final node in
    that closure (the word there was empty and stays empty)."""
    rev = up.reverse()
    pushes = []
    for q0, rule, q1 in at.nfa.edges():
        arity = 1 if rule is EPSILON else len(rule.written)
        if arity == 1:
            rev.add_edge(q1, EPSILON, q0)
        elif arity == 0:
            rev.add_edge(q1, rule.read_symbol, q0)
        else:
            pushes.append((q0, q1))

    def additions():
        for q0, q1 in pushes:
            closure = rev.eps_closure((q0,))
            # Collect the targets before yielding: an added edge changes
            # q1's row, which the walk reads when q1 is in the closure (a
            # push self-loop, say).
            targets = [
                n for q in closure for label, n in rev.out_edges(q) if label is not EPSILON
            ]
            targets += [q for q in closure if q in rev.finals]
            for n in targets:
                yield q1, EPSILON, n

    rev.saturate(additions)
    return UpperAutomaton(rev.reverse(), owner, entries)


def overapprox_post(spec: UpdsSpec, configs: ConfigAutomaton) -> ConfigAutomaton:
    """A regular superset of everything reachable from the given set.
    Both saturations start from the set itself. The upper zone comes from
    closing the set's barred zones under the trace abstraction
    (`trace_overapprox`): one fresh initial node steps into every
    component, and each exit of a zone by a plain edge `top`
    epsilon-steps to the trace node (state, top). The lower zone comes
    from the forward pushdown closure of the members' nonempty lower
    words. Each state's component reads the closed upper automaton,
    barred, and then, from a node the state owns, the lower closure from
    the state's entry. Members with an empty lower word, which no rule
    can leave, end in their own zone: nothing enters a zone but the
    fresh node, so its final nodes accept just them."""
    configs.check_against(spec, "start set")
    at = trace_overapprox(spec, configs)
    upper = Nfa([_SET])
    lower_words: dict[str, Nfa] = {}
    members: dict[str, list] = {}
    for state, component in configs.components.items():
        # Trimmed, a zone leads only to members' words.
        component = component.trim()
        tag = (_SET, state)
        upper.embed(component, lambda n: (tag, n), lambda l: unbar(l) if is_barred(l) else None)
        for node in component.initial:
            upper.add_edge(_SET, EPSILON, (tag, node))
        words = Nfa([_SET], component.finals)
        for src, top, dst in _zone_exits(component)[0]:
            upper.add_edge((tag, src), EPSILON, (state, top))
            words.add_edge(_SET, top, dst)
        lower_words[state] = words.embed(component).trim()
        members[state] = [(tag, n) for n in component.finals]
    closed = _close_upper(at, upper, at.owner).nfa
    lower = pds_post_star(
        spec, LowerAutomaton.from_slices(spec.states, spec.alphabet, lower_words)
    )
    out: dict[str, Nfa] = {}
    for state in spec.states:
        component = Nfa([("u", _SET)])
        component.embed(closed, lambda n: ("u", n), bar)
        component.embed(lower.nfa, lambda n: ("l", n))
        entry = ("l", lower.entries[state])
        for node, owning in at.owner.items():
            if owning == state:
                component.add_edge(("u", node), EPSILON, entry)
        for node in members.get(state, ()):
            component.add_final(("u", node))
        for node in lower.nfa.finals:
            component.add_final(("l", node))
        out[state] = component
    return ConfigAutomaton(spec.alphabet, out).compact()


__getattr__ = _forward(__name__, extras="saturate_upper")
