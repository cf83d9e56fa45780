"""Phase-bounded backward reachability.

A *phase* is a trace that never mixes the two stack-moving directions:
it uses switches freely plus either only pops or only pushes. For a
regular target set, the exact set of configurations that reach it within
one phase is regular again, and this module computes it; iterating and
uniting the two phase kinds gives an under-approximation of the full
backward closure that is exact for traces splitting into at most k
phases.

The constructions work directly on configuration automata. For the pop
phase, a product saturation tracks how far the target automaton has read
the barred image of the symbols popped so far. For the push phase, each
possible lower-top rewrite word is matched in lockstep between the
target automaton and a forward closure of the push/switch fragment, so
that the number of symbols dropped from the upper word equals the
number of pushes; a separate entry mode absorbs the case where the
upper word is exhausted entirely.
"""

from __future__ import annotations

import enum

from .configsets import ConfigAutomaton, bar, is_barred, union_sets
from .core import RuleKind, UpdsSpec
from .limits import DFA_STATE_BUDGET
from .nfa import EPSILON, Nfa
from .pds import LowerAutomaton, pds_post_star, singleton_lower


class PhaseKind(enum.Enum):
    POP = "pop"
    PUSH = "push"


# -- one-phase backward closures ------------------------------------------

def _upper_zone(comp: Nfa, p2: str, t: Nfa) -> None:
    """Embed the barred zone of target component t (its barred and epsilon
    edges) under the tag ("u", p2), initial where t is: it reads the part
    of the input upper word that a phase leaves in place."""
    comp.embed(t, lambda r: ("u", p2, r), lambda label: label if is_barred(label) else None)
    for r in t.initial:
        comp.add_initial(("u", p2, r))


def _lower_zone(comp: Nfa, p2: str, t: Nfa) -> None:
    """Embed the plain zone of target component t (its plain and epsilon
    edges) under the tag ("e", p2), final where t is: it reads the lower
    word once a phase's trace is exhausted."""
    comp.embed(t, lambda r: ("e", p2, r), lambda label: None if is_barred(label) else label)
    for r in t.finals:
        comp.add_final(("e", p2, r))


def _pop_phase_pre(spec: UpdsSpec, components: dict[str, Nfa]) -> dict[str, Nfa]:
    """One pop phase, backwards. A trace of switches and pops from
    <q, w_u, w_l> never shrinks the upper word: it appends the popped
    symbols z and leaves some final lower word, so the target automaton
    must read bar(w_u) bar(z) w_l'. The core automaton has one walker
    node per (predecessor state q, target state, target node): its
    language is the set of current lower words from which some trace
    lands in the target with the target automaton finishing from that
    node. Saturation mirrors the rules: a switch defers to the successor
    state's walker after reading the rewritten symbol; a pop consumes its
    symbol from the input and advances the target automaton over the
    barred copy. Embedded plain-zone copies terminate the walk once the
    trace is exhausted."""
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
    rules = spec.rules_of_kind(RuleKind.SWITCH, RuleKind.POP)

    def additions():
        for rule in rules:
            for p2, t in components.items():
                for r in t.nodes():
                    src = ("i", rule.from_state, p2, r)
                    if rule.kind is RuleKind.SWITCH:
                        reached = core.step(
                            [("i", rule.to_state, p2, r)], rule.written[0]
                        )
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
    return out


def push_closures(spec: UpdsSpec) -> dict[tuple[str, str], LowerAutomaton]:
    """For each control state q and symbol top, the forward closure of the
    push/switch fragment from <q, top>: the words a push phase can turn
    the lower top into. They depend on the system alone, so one set
    serves every push phase over it."""
    push_switch = spec.restricted(RuleKind.SWITCH, RuleKind.PUSH)
    return {
        (q, top): pds_post_star(push_switch, singleton_lower(spec, q, (top,)))
        for q in spec.states
        for top in spec.alphabet
    }


def _push_phase_pre(
    spec: UpdsSpec,
    components: dict[str, Nfa],
    closures: dict[tuple[str, str], LowerAutomaton],
) -> dict[str, Nfa]:
    """One push phase, backwards. A trace of switches and pushes from
    <q, g v, w_u> rewrites the lower top g into some word z (one symbol
    per push plus the survivor, so z has one more symbol than there are
    pushes) and drops that many symbols from the right of the upper word,
    bottoming out at empty. The component guesses the split of the input
    upper word into the surviving prefix, read against the target's
    barred zone, and the dropped suffix, consumed during a lockstep walk
    that advances the target automaton and a forward closure of the
    push/switch fragment over the same z, one dropped symbol per step
    except the last. The exit step instead consumes g and hands the
    remaining input to an embedded plain-zone copy of the target. A
    second entry mode starts the lockstep at the component's initial
    nodes for traces that exhaust the upper word, where extra pushes
    advance for free. A verbatim copy of the target component keeps
    empty traces. The closures come from push_closures(spec)."""
    barred = [bar(x) for x in spec.alphabet]
    # One-symbol steps of the target components, memoized as the walk
    # consumes them.
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
                        comp.add_edge(
                            ("u", p2, r), EPSILON, ("k", top, p2, r, z0, 0)
                        )
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
                            landings = t.step([r], a)
                            landings_of[(p2, r, a)] = landings
                        advances = advances_of.get((z, a))
                        if advances is None:
                            advances = znfa.step([z], a)
                            advances_of[(z, a)] = advances
                        for r2 in landings:
                            for z2 in advances:
                                dst = ("k", top, p2, r2, z2, free)
                                for label in barred:
                                    comp.add_edge(src, label, dst)
                                if free:
                                    comp.add_edge(src, EPSILON, dst)
                                if z2 in znfa.finals:
                                    comp.add_edge(src, EPSILON, ("x", top, p2, r2))
                                    comp.add_edge(
                                        ("x", top, p2, r2), top, ("e", p2, r2)
                                    )
                                if (r2, z2, free) not in seen:
                                    seen.add((r2, z2, free))
                                    pending.append((r2, z2, free))
        comp = comp.trim()
        if not comp.is_empty():
            out[q] = comp
    return out


def phase_pre(
    spec: UpdsSpec,
    targets: ConfigAutomaton,
    kind: PhaseKind,
    closures: dict[tuple[str, str], LowerAutomaton] | None = None,
) -> ConfigAutomaton:
    """All configurations from which some target configuration is reached
    by a trace, possibly empty, whose non-switch rules are all pops
    (PhaseKind.POP) or all pushes (PhaseKind.PUSH). Exact. A push phase
    uses push_closures(spec), computed here unless the caller passes it."""
    targets.check_against(spec, "target set")
    components = {state: nfa for state, nfa in targets.components.items() if not nfa.is_empty()}
    if kind is PhaseKind.POP:
        built = _pop_phase_pre(spec, components)
    else:
        if closures is None:
            closures = push_closures(spec)
        built = _push_phase_pre(spec, components, closures)
    return ConfigAutomaton(spec.alphabet, built)


def bounded_phase_pre_star(
    spec: UpdsSpec,
    targets: ConfigAutomaton,
    k: int,
    node_budget: int = DFA_STATE_BUDGET,
) -> ConfigAutomaton:
    """Configurations reaching the target set by traces splitting into at
    most k phases: k rounds of closing under one pop phase and one push
    phase and uniting. Monotone in k; k <= 0 returns the targets. Stops
    early once a round is `same` as the one before. Rounds are compacted,
    so that happens as soon as a round adds nothing, unless a compaction
    fell back on the node budget."""
    current = targets.compact(node_budget)
    closures = push_closures(spec) if k > 0 else None
    for _ in range(max(k, 0)):
        popped = phase_pre(spec, current, PhaseKind.POP)
        pushed = phase_pre(spec, current, PhaseKind.PUSH, closures)
        grown = union_sets(popped, pushed).compact(node_budget)
        if grown.same(current):
            return grown
        current = grown
    return current
