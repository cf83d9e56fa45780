"""The two phases of `kphase` as they were first built, for tests.

Both saturate: the pop phase closes a core automaton under the switch
and pop rules (`Nfa.saturate`), and the push phase reads the forward
closure of the push/switch fragment from each (state, top) pair, one
`pds_post_star` each. Every state's component embeds the zones of every
target component (the pop phase copies its whole saturated core per
state; the push phase runs the lockstep walk from every target node),
and one `trim` at the end throws away what no accepted word uses. A
round unites the two phases. `kphase` builds the same languages on
demand from one graph of (state, top) pairs, without saturating, both
phases into one automaton per state; tests compare the two after
compaction.
"""

from __future__ import annotations

from upstack.configsets import ConfigAutomaton, bar, is_barred, union_sets
from upstack.core import RuleKind, UpdsSpec
from upstack.limits import DFA_STATE_BUDGET
from upstack.nfa import EPSILON, Nfa
from upstack.pds import LowerAutomaton, pds_post_star, singleton_lower


def _upper_zone(comp: Nfa, p2: str, t: Nfa) -> None:
    """Embed the barred zone of target component t (its barred and epsilon
    edges) under the tag ("u", p2), initial where t is."""
    comp.embed(t, lambda r: ("u", p2, r), lambda label: label if is_barred(label) else None)
    for r in t.initial:
        comp.add_initial(("u", p2, r))


def _lower_zone(comp: Nfa, p2: str, t: Nfa) -> None:
    """Embed the plain zone of target component t (its plain and epsilon
    edges) under the tag ("e", p2), final where t is."""
    comp.embed(t, lambda r: ("e", p2, r), lambda label: None if is_barred(label) else label)
    for r in t.finals:
        comp.add_final(("e", p2, r))


def _nonempty(targets: ConfigAutomaton) -> dict[str, Nfa]:
    return {state: nfa for state, nfa in targets.components.items() if not nfa.is_empty()}


def pop_phase_pre(spec: UpdsSpec, targets: ConfigAutomaton) -> ConfigAutomaton:
    """One pop phase, backwards: a core of walker nodes, one per
    (predecessor state, target state, target node), saturated under the
    switch and pop rules, with the plain zones of all targets; each state
    gets a copy of the whole core plus the barred zones of all targets."""
    components = _nonempty(targets)
    core = Nfa()
    for p2, t in components.items():
        _lower_zone(core, p2, t)
    for q in spec.states:
        for p2, t in components.items():
            for r in t.nodes():
                core.add_node(("i", q, p2, r))
    for p2, t in components.items():
        for r in t.nodes():
            core.add_edge(("i", p2, p2, r), EPSILON, ("e", p2, r))
    rules = [rule for rule in spec.rules if rule.kind is not RuleKind.PUSH]

    def additions():
        for rule in rules:
            for p2, t in components.items():
                for r in t.nodes():
                    src = ("i", rule.from_state, p2, r)
                    if rule.kind is RuleKind.SWITCH:
                        reached = core.step([("i", rule.to_state, p2, r)], rule.written[0])
                    else:
                        reached = [
                            ("i", rule.to_state, p2, r2)
                            for r2 in t.step([r], bar(rule.read_symbol))
                        ]
                    for node in reached:
                        yield src, rule.read_symbol, node

    core.saturate(additions)
    out: dict[str, Nfa] = {}
    for q in spec.states:
        comp = core.copy()
        for p2, t in components.items():
            _upper_zone(comp, p2, t)
            for r in t.nodes():
                comp.add_edge(("u", p2, r), EPSILON, ("i", q, p2, r))
        comp = comp.trim()
        if not comp.is_empty():
            out[q] = comp
    return ConfigAutomaton(spec.alphabet, out)


def bounded_phase_pre_star(
    spec: UpdsSpec, targets: ConfigAutomaton, k: int, node_budget: int = DFA_STATE_BUDGET
) -> ConfigAutomaton:
    """k rounds of uniting one pop phase and one push phase, each round
    compacted, stopping once a round is `same` as the one before."""
    current = targets.compact(node_budget)
    for _ in range(max(k, 0)):
        grown = union_sets(pop_phase_pre(spec, current), push_phase_pre(spec, current))
        grown = grown.compact(node_budget)
        if grown.same(current):
            return grown
        current = grown
    return current


def push_closures(spec: UpdsSpec) -> dict[tuple[str, str], LowerAutomaton]:
    """For each control state q and symbol top, the forward closure of the
    push/switch fragment from <q, top>."""
    push_switch = UpdsSpec(
        spec.states, spec.alphabet, tuple(r for r in spec.rules if r.kind is not RuleKind.POP)
    )
    return {
        (q, top): pds_post_star(push_switch, singleton_lower(spec, q, (top,)))
        for q in spec.states
        for top in spec.alphabet
    }


def push_phase_pre(spec: UpdsSpec, targets: ConfigAutomaton) -> ConfigAutomaton:
    """One push phase, backwards: a verbatim copy of each state's own
    target component, the upper and lower zones of every target component,
    and the lockstep walk of the target automaton and the push/switch
    closure over the rewrite word of the lower top, in two entry modes
    (the upper word survives in part, or is used up and later pushes are
    free). Trimmed once per state."""
    components = _nonempty(targets)
    closures = push_closures(spec)
    barred = [bar(x) for x in spec.alphabet]
    landings_of: dict[tuple, frozenset] = {}
    out: dict[str, Nfa] = {}
    for q in spec.states:
        own = components.get(q)
        comp = Nfa() if own is None else own.map_nodes(lambda n: ("v", n))
        for p2, t in components.items():
            _upper_zone(comp, p2, t)
            _lower_zone(comp, p2, t)
        for top in spec.alphabet:
            rewrites = closures[(q, top)]
            znfa = rewrites.nfa
            advances_of: dict[tuple, frozenset] = {}
            for p2, t in components.items():
                starts = znfa.eps_closure([rewrites.entries[p2]])
                pending: list[tuple[object, object, int]] = []
                for r in t.nodes():
                    for z0 in starts:
                        comp.add_edge(("u", p2, r), EPSILON, ("k", top, p2, r, z0, 0))
                        pending.append((r, z0, 0))
                for r in t.eps_closure(t.initial):
                    for z0 in starts:
                        comp.add_initial(("k", top, p2, r, z0, 1))
                        pending.append((r, z0, 1))
                seen = set(pending)
                while pending:
                    r, z, free = pending.pop()
                    src = ("k", top, p2, r, z, free)
                    for a in spec.alphabet:
                        landings = landings_of.get((p2, r, a))
                        if landings is None:
                            landings = landings_of[(p2, r, a)] = t.step([r], a)
                        advances = advances_of.get((z, a))
                        if advances is None:
                            advances = advances_of[(z, a)] = znfa.step([z], a)
                        for r2 in landings:
                            for z2 in advances:
                                dst = ("k", top, p2, r2, z2, free)
                                for label in barred:
                                    comp.add_edge(src, label, dst)
                                if free:
                                    comp.add_edge(src, EPSILON, dst)
                                if z2 in znfa.finals:
                                    comp.add_edge(src, EPSILON, ("x", top, p2, r2))
                                    comp.add_edge(("x", top, p2, r2), top, ("e", p2, r2))
                                if (r2, z2, free) not in seen:
                                    seen.add((r2, z2, free))
                                    pending.append((r2, z2, free))
        comp = comp.trim()
        if not comp.is_empty():
            out[q] = comp
    return ConfigAutomaton(spec.alphabet, out)
