"""The trace abstraction, the upper-word saturation and the
over-approximation of `upperapprox` as they were first built, for tests.

`trace_overapprox` scans every rule of the system at every node it
adds, keeping those that leave the node's state and read its abstract
top (any rule, for an unknown top). `close_upper` reads the upper words
forwards and finds the sources of a push edge q0 -> q1 by taking, for
every node and each of its out-edges, the epsilon closure of the edge's
target, and for every initial node its own closure; `saturate_upper`
closes an origin's seed with it, and `overapprox_post_with_projections`
the seed that `set_seed` builds from a set. `upperapprox` reads the
move table instead of scanning, and closes the reversed automaton, one
epsilon closure per push edge; tests pin the two to these `same`
automata, with equal owners and entry mirrors, from an origin and from
a set.

`overapprox_post` first folds the start set into the single-origin
extension (`single_origin`) and saturates that system from its one
origin configuration. `overapprox_post_with_projections` seeds both
saturations from the set itself, cuts the closed upper automaton and
the lower closure into per-state slices, pairs them and unites that
product with the set's own projection product (every member's upper
word with every member's lower word of the same state), which keeps the
members with an empty lower word but adds configurations that are
neither members nor reachable. `upperapprox` builds each state's
component straight from the two closures and keeps those members in
their own zone; tests check that its language is never larger than
either.
"""

from __future__ import annotations

from upstack.configsets import ConfigAutomaton, is_barred, unbar, union_sets
from upstack.core import Configuration, RuleKind, UpdsSpec
from upstack.errors import MalformedInputError
from upstack.extras import lower_slice, project_lower, project_upper, upper_lower_product
from upstack.grammar import single_origin
from upstack.nfa import EPSILON, Nfa, from_words
from upstack.pds import LowerAutomaton, pds_post_star, singleton_lower
from upstack import upperapprox
from upstack.upperapprox import (
    _SET,
    TraceAutomaton,
    UpperAutomaton,
    _zone_exits,
)


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
    """The top-refined trace abstraction, one scan of the rules per node."""
    starts = [state for state, nfa in configs.components.items() if not nfa.is_empty()]
    nfa = Nfa()
    owner: dict[object, str] = {}
    pending: list[tuple[str, str | None]] = []
    for state in starts:
        tops, empty_lower = _first_lower_tops(configs.components[state])
        for top in tops:
            pending.append((state, top))
        if empty_lower:
            pending.append((state, None))
    seen = set(pending)
    for node in pending:
        nfa.add_initial(node)
    while pending:
        node = pending.pop()
        state, top = node
        nfa.add_final(node)
        owner[node] = state
        for rule in spec.rules:
            if rule.from_state != state:
                continue
            if top is not None and rule.read_symbol != top:
                continue
            successor = (rule.to_state, rule.written[0] if rule.written else None)
            nfa.add_edge(node, rule, successor)
            if successor not in seen:
                seen.add(successor)
                pending.append(successor)
    return TraceAutomaton(nfa, owner)


def saturate_upper(at: TraceAutomaton, origin: Configuration) -> UpperAutomaton:
    """The upper-word saturation from an origin with an empty upper word,
    through entry mirrors for initial nodes with incoming trace edges."""
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
    return UpperAutomaton(close_upper(at, up), owner, entries)


def close_upper(at: TraceAutomaton, up: Nfa) -> Nfa:
    """Close `up` in place under the trace edges, read forwards: one
    epsilon closure per (node, out-edge), and one per initial node, for
    each push edge in every pass."""
    trace_edges = list(at.nfa.edges())

    def additions():
        for q0, rule, q1 in trace_edges:
            if rule is EPSILON or rule.kind is RuleKind.SWITCH:
                yield q0, EPSILON, q1
            elif rule.kind is RuleKind.POP:
                yield q0, rule.read_symbol, q1
            else:
                sources = [
                    q
                    for q in up.nodes()
                    if any(
                        label is not EPSILON and q0 in up.eps_closure([mid])
                        for label, mid in up.out_edges(q)
                    )
                ]
                sources += [q for q in up.initial if q0 in up.eps_closure([q])]
                for q in sources:
                    yield q, EPSILON, q1

    up.saturate(additions)
    return up


def set_seed(configs: ConfigAutomaton) -> tuple[Nfa, dict[str, Nfa]]:
    """The upper saturation's seed from a set, and each state's members'
    nonempty lower words. The seed holds every trimmed component's barred
    zone, tagged (_SET, state), behind one fresh initial node _SET; each
    exit of a zone by a plain edge `top` epsilon-steps to the trace node
    (state, top)."""
    upper = Nfa([_SET])
    lower_words: dict[str, Nfa] = {}
    for state, component in configs.components.items():
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
    return upper, lower_words


def overapprox_post(spec: UpdsSpec, configs: ConfigAutomaton) -> ConfigAutomaton:
    """The over-approximation through the single-origin extension: the
    upper zone from saturating the extension's trace abstraction from its
    origin, the lower zone from its forward pushdown closure, paired per
    original control state, and the set's own projection product."""
    configs.check_against(spec, "start set")
    own = upper_lower_product(spec.alphabet, project_upper(configs), project_lower(configs))
    if configs.is_empty():
        return ConfigAutomaton(spec.alphabet)
    extension = single_origin(spec, configs)
    origin = extension.origin
    seeded = ConfigAutomaton(
        extension.spec.alphabet,
        {origin.state: from_words([origin.lower])},
    )
    au = upperapprox.saturate_upper(
        upperapprox.trace_overapprox(extension.spec, seeded), origin
    )
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


def overapprox_post_with_projections(spec: UpdsSpec, configs: ConfigAutomaton) -> ConfigAutomaton:
    """The over-approximation seeded from the set itself: the closed upper
    automaton and the lower closure, each sliced per state, paired, and
    united with the set's own projection product."""
    configs.check_against(spec, "start set")
    own = upper_lower_product(spec.alphabet, project_upper(configs), project_lower(configs))
    if configs.is_empty():
        return ConfigAutomaton(spec.alphabet)
    at = upperapprox.trace_overapprox(spec, configs)
    upper, lower_words = set_seed(configs)
    au = UpperAutomaton(close_upper(at, upper), at.owner)
    lower = pds_post_star(
        spec, LowerAutomaton.from_slices(spec.states, spec.alphabet, lower_words)
    )
    product = upper_lower_product(
        spec.alphabet,
        {state: au.slice(state) for state in spec.states},
        {state: lower_slice(lower, state) for state in spec.states},
    )
    return union_sets(product, own).compact()
