"""Language equality for tests, two ways.

`equivalent` and `equivalent_sets` compare canonical minimal DFAs, which
`compaction_reference.minimal_dfa` makes `same` for equal languages.
`product_equivalent` decides the same question another way: determinize
each side unless it is already a trimmed DFA, then walk the product of
the two trimmed DFAs and look for a node pair on which they disagree.
Tests compare the two.
"""

from __future__ import annotations

from compaction_reference import determinize, minimal_dfa
from upstack.configsets import ConfigAutomaton
from upstack.nfa import DFA_STATE_BUDGET, EPSILON, Nfa


def equivalent(a: Nfa, b: Nfa, node_budget: int = DFA_STATE_BUDGET) -> bool:
    """Language equality: the two automata are the same, or their minimal
    DFAs are. Past the node budget, ResourceLimitError."""
    return a.same(b) or minimal_dfa(a, node_budget).same(minimal_dfa(b, node_budget))


def equivalent_sets(a: ConfigAutomaton, b: ConfigAutomaton) -> bool:
    """Whether both sets hold the same configurations, state by state."""
    return set(a.alphabet) == set(b.alphabet) and all(
        equivalent(a.component(state), b.component(state))
        for state in set(a.components) | set(b.components)
    )


def _deterministic(nfa: Nfa) -> bool:
    """At most one initial node, no epsilon edge, at most one target per
    node and label."""
    if len(nfa.initial) > 1:
        return False
    for node in nfa.nodes():
        labels = [label for label, _ in nfa.out_edges(node)]
        if EPSILON in labels or len(labels) != len(set(labels)):
            return False
    return True


def _trimmed_dfa(nfa: Nfa, node_budget: int) -> Nfa:
    """A trimmed partial DFA for the language. Removing epsilons keeps
    every node of a trimmed automaton able to reach a final one, so every
    subset the construction reaches can too: the result is trimmed."""
    trimmed = nfa.trim()
    if not trimmed.initial or _deterministic(trimmed):
        return trimmed
    return determinize(trimmed.eps_eliminate(), node_budget)


def _same_trimmed_dfa_language(a: Nfa, b: Nfa) -> bool:
    """Language equality of two trimmed partial DFAs by one walk of their
    product. Every node of a trimmed automaton reaches a final node, so a
    label one side can read and the other cannot already tells the
    languages apart."""
    if not a.initial or not b.initial:
        return not a.initial and not b.initial
    start = (next(iter(a.initial)), next(iter(b.initial)))
    seen = {start}
    stack = [start]
    while stack:
        x, y = stack.pop()
        if (x in a.finals) != (y in b.finals):
            return False
        row_a = dict(a.out_edges(x))
        row_b = dict(b.out_edges(y))
        if row_a.keys() != row_b.keys():
            return False
        for label, dst in row_a.items():
            pair = (dst, row_b[label])
            if pair not in seen:
                seen.add(pair)
                stack.append(pair)
    return True


def product_equivalent(a: Nfa, b: Nfa, node_budget: int = DFA_STATE_BUDGET) -> bool:
    """Language equality by one walk of the product of the two trimmed
    DFAs; a side that is not a DFA is determinized first."""
    return _same_trimmed_dfa_language(
        _trimmed_dfa(a, node_budget), _trimmed_dfa(b, node_budget)
    )
