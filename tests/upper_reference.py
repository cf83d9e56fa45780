"""The trace abstraction and the upper-word saturation of `upperapprox`
as they were first built, for tests.

`trace_overapprox` scans every rule of the system at every node it
adds, keeping those that leave the node's state and read its abstract
top (any rule, for an unknown top). `saturate_upper` finds the sources
of a push edge q0 -> q1 by taking, for every node and each of its
out-edges, the epsilon closure of the edge's target, and for every
initial node its own closure. `upperapprox` reads the move table
instead of scanning, and does one backward search over the epsilon
edges per push edge; tests pin the two to these `same` automata, with
equal owners and entry mirrors.
"""

from __future__ import annotations

from upstack.configsets import ConfigAutomaton
from upstack.core import Configuration, RuleKind, UpdsSpec
from upstack.errors import MalformedInputError
from upstack.nfa import EPSILON, Nfa
from upstack.upperapprox import TraceAutomaton, UpperAutomaton, _first_lower_tops


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
    """The upper-word saturation, one epsilon closure per (node, out-edge)
    for each push edge in every pass."""
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
    return UpperAutomaton(up, owner, entries)
