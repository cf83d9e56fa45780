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
configurations. Precision is whatever the trace abstraction buys;
soundness never depends on it. The abstraction here is a graph of
(control state, lower-stack top) pairs read off the system's move table
(`trace_overapprox`); `export-dot --trace` draws it.

Before the saturation, the query's regular start set is folded into the
system itself (`single_origin`): an extended system with one origin
configuration <origin, eps, $> whose rules first spell a chosen start
configuration onto the lower stack (reading an automaton for the
reversed flattened word), then convert the barred prefix into upper
content, then hand control to the original rules. Start-set members
with an empty lower stack cannot be spelled that way (handing control
back reads a plain lower top), so the extension omits them; such
configurations have no successors at all.

The operations that only this module runs live here, so that commands
that never over-approximate do not compile them: the zone projections
and their product (still importable from `configsets`), fresh names
(from `core`), relabelling an automaton's edges and renaming its nodes
(the methods `Nfa.map_labels`, `Nfa.map_nodes` and `Nfa.relabel`), and
one state's slice of a lower set (`LowerAutomaton.slice`).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable, Mapping

from .compaction import _coreachable, from_words
from .configsets import ConfigAutomaton, bar, is_barred, unbar, union_sets
from .core import Configuration, Frozen, Rule, RuleKind, UpdsSpec
from .errors import MalformedInputError
from .nfa import EPSILON, Label, Nfa, Node
from .pds import LowerAutomaton, pds_post_star, singleton_lower


# -- set and automaton operations that only this module runs -----------------


def project_lower(a: ConfigAutomaton) -> dict[str, Nfa]:
    """Per-state NFAs for the lower words (upper zone erased)."""
    return {
        state: map_labels(nfa, lambda l: EPSILON if is_barred(l) else l)
        for state, nfa in a.components.items()
    }


def project_upper(a: ConfigAutomaton) -> dict[str, Nfa]:
    """Per-state NFAs for the upper words (bars dropped, lower zone erased)."""
    return {
        state: map_labels(nfa, lambda l: unbar(l) if is_barred(l) else EPSILON)
        for state, nfa in a.components.items()
    }


def lower_slice(lower: LowerAutomaton, state: str) -> Nfa:
    """One state's words as an automaton of their own
    (`LowerAutomaton.slice`)."""
    entry = lower.entries.get(state)
    if entry is None:
        return Nfa()
    return Nfa((entry,), lower.nfa.finals).embed(lower.nfa).trim()


def upper_lower_product(
    alphabet: Iterable[str],
    upper: Mapping[str, Nfa],
    lower: Mapping[str, Nfa],
) -> ConfigAutomaton:
    """Per-state product set {<p, u, l> : u in upper[p], l in lower[p]},
    given NFAs over the plain alphabet for both zones."""
    out: dict[str, Nfa] = {}
    for state, up in upper.items():
        low = lower.get(state)
        if low is None:
            continue
        component = Nfa(("u", n) for n in up.initial)
        component.embed(up, lambda n: ("u", n), bar)
        component.embed(low, lambda n: ("l", n))
        for n in up.finals:
            for m in low.initial:
                component.add_edge(("u", n), EPSILON, ("l", m))
        for n in low.finals:
            component.add_final(("l", n))
        out[state] = component
    return ConfigAutomaton(alphabet, out)


def fresh_name(used: set[str], base: str) -> str:
    """A name not in `used`, derived from base by appending primes; the
    chosen name is added to `used`."""
    name = base
    while name in used:
        name += "'"
    used.add(name)
    return name


def map_labels(nfa: Nfa, fn: Callable[[Label], Label]) -> Nfa:
    """The automaton with each edge label relabelled by fn, which may
    return EPSILON to erase it (`Nfa.map_labels`)."""
    return Nfa(nfa.initial, nfa.finals).embed(nfa, label=fn)


def map_nodes(nfa: Nfa, fn: Callable[[Node], Node]) -> Nfa:
    """The automaton with each node renamed by fn (`Nfa.map_nodes`)."""
    return Nfa(map(fn, nfa.initial), map(fn, nfa.finals)).embed(nfa, node=fn)


def relabel(nfa: Nfa) -> Nfa:
    """Rename nodes to consecutive ints in breadth-first discovery order."""
    order: dict[Node, int] = {}
    queue: deque[Node] = deque()
    for n in nfa.initial:
        if n not in order:
            order[n] = len(order)
            queue.append(n)
    while queue:
        for _, dst in nfa.out_edges(queue.popleft()):
            if dst not in order:
                order[dst] = len(order)
                queue.append(dst)
    for n in nfa.nodes():
        if n not in order:
            order[n] = len(order)
    return map_nodes(nfa, lambda n: order[n])


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

    def validate(self) -> None:
        for node in self.nfa.nodes():
            if node not in self.owner:
                raise MalformedInputError(f"node {node!r} has no owning state")
            if node not in self.nfa.finals:
                raise MalformedInputError(
                    f"node {node!r} is not final; the language must be prefix-closed"
                )
        for src, label, dst in self.nfa.edges():
            if label is EPSILON:
                continue
            if not isinstance(label, Rule):
                raise MalformedInputError(f"edge label {label!r} is not a rule")
            if self.owner[src] != label.from_state or self.owner[dst] != label.to_state:
                raise MalformedInputError(
                    f"edge {self.owner[src]!r} -> {self.owner[dst]!r} "
                    f"does not match rule {label}"
                )

    def accepts(self, trace) -> bool:
        return self.nfa.accepts(tuple(trace))


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

    def slice(self, state: str) -> Nfa:
        finals = [node for node, owning in self.owner.items() if owning == state]
        return Nfa(self.nfa.initial, finals).embed(self.nfa).trim()


def _first_lower_tops(component: Nfa) -> tuple[list[str], bool]:
    """The possible first lower-stack symbols of accepted configurations,
    plus whether some accepted configuration has an empty lower word.
    Walks the barred zone (barred and epsilon edges) and records the
    plain labels leaving it."""
    tops: dict[str, None] = {}
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
                tops[label] = None
    return list(tops), empty_lower


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
        tops, empty_lower = _first_lower_tops(component)
        pending.extend((state, top) for top in tops)
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


def saturate_upper(at: TraceAutomaton, origin: Configuration) -> UpperAutomaton:
    """The least edge set over the trace automaton's nodes such that the
    words reaching a node cover the upper words left behind, starting
    from an empty upper word, by the accepted rule sequences ending
    there. Per trace edge q0 -> q1: a pop adds q0 --a--> q1 for its read
    symbol; a switch adds q0 --eps--> q1; a push strips the last symbol,
    so any node q with a plain edge whose target reaches q0 by epsilon
    edges gets q --eps--> q1, and so does any entry node reaching q0 by
    epsilon edges (the word there was empty and stays empty).

    The entry rule is only exact for entry nodes that carry no word but
    the empty one, so an initial node with incoming trace edges is
    represented by a fresh mirror ("@entry", node) that epsilon-steps
    into it; mirrors become the result's initial nodes and nothing ever
    flows back into them."""
    at.validate()
    if origin.upper:
        raise MalformedInputError("origin configuration must have an empty upper word")
    up = Nfa(finals=at.nfa.nodes())
    owner = dict(at.owner)
    entries: dict[object, object] = {}
    targeted = {dst for _, _, dst in at.nfa.edges()}
    for node in at.nfa.initial:
        if node not in targeted:
            up.add_initial(node)
            continue
        mirror = ("@entry", node)
        entries[mirror] = node
        owner[mirror] = at.owner[node]
        up.add_initial(mirror)
        up.add_final(mirror)
        up.add_edge(mirror, EPSILON, node)
    trace_edges = list(at.nfa.edges())

    def additions():
        for q0, rule, q1 in trace_edges:
            if rule is EPSILON or rule.kind is RuleKind.SWITCH:
                yield q0, EPSILON, q1
            elif rule.kind is RuleKind.POP:
                yield q0, rule.read_symbol, q1
            else:
                # Collect the sources before yielding: an added edge would
                # change the rows being walked.
                rows = up._edges
                reach = _coreachable(
                    {n: {EPSILON: row[EPSILON]} for n, row in rows.items() if EPSILON in row},
                    (q0,),
                )
                sources = [
                    q
                    for q, row in rows.items()
                    if any(
                        label is not EPSILON and not reach.isdisjoint(targets)
                        for label, targets in row.items()
                    )
                ]
                sources += [q for q in up.initial if q in reach]
                for q in sources:
                    yield q, EPSILON, q1

    up.saturate(additions)
    return UpperAutomaton(up, owner, entries)


def upper_config_set(au: UpperAutomaton) -> dict[str, Nfa]:
    """Per-state upper-word languages; states with empty slices are
    dropped."""
    out: dict[str, Nfa] = {}
    states: dict[str, None] = {}
    for owning in au.owner.values():
        states.setdefault(owning, None)
    for state in states:
        part = au.slice(state)
        if not part.is_empty():
            out[state] = part
    return out


class SingleOriginUpds(Frozen):
    """Extension of a system whose entire start set collapses to one
    configuration <origin_state, eps, dollar>."""

    def __init__(
        self,
        spec: UpdsSpec,
        origin: Configuration,
        original_states: tuple[str, ...],
    ) -> None:
        _set = object.__setattr__
        _set(self, "spec", spec)
        _set(self, "origin", origin)
        _set(self, "original_states", original_states)

    def _fields(self) -> tuple:
        return (self.spec, self.origin, self.original_states)


def _spelling_automaton(component: Nfa) -> Nfa:
    """Reverse the flattened-word automaton and normalize it to a single
    initial node 'i' without in-edges and a single final node 'f' without
    out-edges, epsilon-free. The empty word is dropped: spelling it would
    mean an empty-lower start configuration, which the caller excludes."""
    base = relabel(component.reverse().eps_eliminate().trim())
    out = Nfa()
    out.add_initial("i")
    out.add_final("f")
    for node in base.nodes():
        out.add_node(("n", node))
    for src, label, dst in base.edges():
        out.add_edge(("n", src), label, ("n", dst))
        if dst in base.finals:
            out.add_edge(("n", src), label, "f")
        if src in base.initial:
            out.add_edge("i", label, ("n", dst))
            if dst in base.finals:
                out.add_edge("i", label, "f")
    return out.trim()


def single_origin(spec: UpdsSpec, start_set: ConfigAutomaton) -> SingleOriginUpds:
    """Extended system reaching exactly the original post-image of
    start_set on the original control states (empty-lower members of the
    start set excepted; see the module docstring)."""
    start_set.check_against(spec, "start set")
    used_states = set(spec.states)
    used_symbols = set(spec.alphabet)
    bar_names = {s: fresh_name(used_symbols, s + "~") for s in spec.alphabet}
    dollar = fresh_name(used_symbols, "$")
    origin_state = fresh_name(used_states, "$origin")

    def ext_label(label) -> str:
        return bar_names[unbar(label)] if is_barred(label) else label

    states = list(spec.states) + [origin_state]
    alphabet = list(spec.alphabet) + [bar_names[s] for s in spec.alphabet] + [dollar]
    rules: list[Rule] = list(spec.rules)
    push_targets = list(spec.alphabet) + [bar_names[s] for s in spec.alphabet]

    for state in start_set.states():
        component = start_set.component(state)
        walk = _spelling_automaton(component)
        if walk.is_empty():
            continue
        names = {
            node: fresh_name(used_states, f"{state}@w{i}")
            for i, node in enumerate(walk.nodes())
        }
        final = names["f"]
        halfway = fresh_name(used_states, f"{state}@setting")
        states.extend(names[n] for n in walk.nodes() if n != "i")
        states.append(halfway)
        for src, label, dst in walk.edges():
            symbol = ext_label(label)
            if src == "i":
                rules.append(Rule(origin_state, dollar, names[dst], (symbol,)))
            else:
                for below in push_targets:
                    rules.append(Rule(names[src], below, names[dst], (symbol, below)))
        for s in spec.alphabet:
            rules.append(Rule(final, bar_names[s], halfway, (s,)))
            rules.append(Rule(halfway, s, final, ()))
        for s in spec.alphabet:
            rules.append(Rule(final, s, state, (s,)))

    ext = UpdsSpec(states=tuple(states), alphabet=tuple(alphabet), rules=tuple(rules))
    return SingleOriginUpds(
        spec=ext,
        origin=Configuration(origin_state, (), (dollar,)),
        original_states=spec.states,
    )


def overapprox_post(spec: UpdsSpec, configs: ConfigAutomaton) -> ConfigAutomaton:
    """A regular superset of everything reachable from the given set.
    The set is first funneled through the single-origin extension; the
    upper zone comes from saturating a trace over-approximation of the
    extension, the lower zone from its forward pushdown closure, and the
    two are paired per original control state. The configurations' own
    per-state projection product joins the union so members that no rule
    can leave (empty lower word) are kept.

    The trace abstraction tracks the lower-stack top because the
    funnel's spelling rules are enabled purely by what tops the lower
    stack: a graph of control states alone would let their pops run
    unchecked and flood every upper zone."""
    configs.check_against(spec, "start set")
    own = upper_lower_product(
        spec.alphabet, project_upper(configs), project_lower(configs)
    )
    if configs.is_empty():
        return ConfigAutomaton(spec.alphabet)
    extension = single_origin(spec, configs)
    origin = extension.origin
    seeded = ConfigAutomaton(
        extension.spec.alphabet,
        {origin.state: from_words([origin.lower])},
    )
    au = saturate_upper(trace_overapprox(extension.spec, seeded), origin)
    lower = pds_post_star(
        extension.spec, singleton_lower(extension.spec, origin.state, origin.lower)
    )
    upper_slices: dict[str, Nfa] = {}
    lower_slices: dict[str, Nfa] = {}
    for state in spec.states:
        up = au.slice(state)
        if up.is_empty():
            continue
        low = lower_slice(lower, state)
        if low.is_empty():
            continue
        upper_slices[state] = up
        lower_slices[state] = low
    product = upper_lower_product(spec.alphabet, upper_slices, lower_slices)
    return union_sets(product, own).compact()
