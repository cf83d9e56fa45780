"""The copy of a system that counts phases, and the checkers' decision
within k phases on it.

The copy's control states also carry the phases a run has used and the
arity of its last push or pop (`phase_copy`); it has no rule that passes
k phases. No rule reads the upper stack, so the copy is itself an
ordinary pushdown system. Its runs from a state marked (0, None) are
exactly the system's runs of at most k phases (bounded-phase analysis
after La Torre, Madhusudan and Parlato, LICS 2007), but for runs of
switches alone, which the copy for k=0 keeps although `count_phases`
gives them one phase: a switch changes no upper word, so no checker's
violation turns on them. So the copy's lower-stack summaries
(`summaries.Summaries`) answer a checker's question within k phases
exactly, and a search in the copy finds a shortest trace of at most k
phases (`copy_trace`), which `safety.decide_safety` replays its hit with
too.

A checker loads this module only once the system's own summaries show a
violation (`decide_within`). Every checker call that does compiles it, so
its helpers carry no type annotations; their docstrings say what they
take.
"""

from __future__ import annotations

from .checkers import UNKNOWN, UNSAFE, Verdict, config_from_word
from .configsets import bar
from .core import Configuration, Rule, UpdsSpec
from .errors import ResourceLimitError
from .model import print_config_literal
from .oracle import search_trace
from .summaries import Summaries, shortest_violation


def phase_copy(spec, k):
    """The copy of the system `spec` for at most k phases, and a dict that
    maps each of its rules to the rule it copies. A state (q, p, last)
    has used p phases, and `last` is the arity of its last push or pop
    (None before the first). A switch keeps the mark; a push or pop
    starts a phase where its arity differs from `last`. Only the marks
    that a run from (0, None) reaches are states of the copy."""
    marks = [(0, None)] + [(p, last) for p in range(1, k + 1) for last in (0, 2)]
    origin = {}
    for rule in spec.rules:
        q, a, q2, written = rule
        arity = len(written)
        for p, last in marks:
            to = (q2, p, last) if arity == 1 else (q2, p + (arity != last), arity)
            if to[1:] in marks:
                origin[Rule((q, p, last), a, to, written)] = rule
    states = tuple((q, *mark) for q in spec.states for mark in marks)
    return UpdsSpec(states, spec.alphabet, tuple(origin)), origin


def copy_trace(copy, origin, start, accepts, within, node_budget):
    """A shortest trace of at most k phases from `start`, a configuration
    of the system, to one whose tuple in the copy (`phase_copy`, with its
    rule map `origin`) `accepts`, through tuples that `within` holds for;
    each rule maps back to the rule it copies. None if there is none;
    `search_trace` stores at most node_budget configurations."""
    marked = Configuration((start.state, 0, None), start.upper, start.lower)
    trace = search_trace(copy, [marked], accepts, None, None, node_budget, within)
    return None if trace is None else tuple(origin[rule] for rule in trace)


def decide_within(spec, k, node_budget, shown, components, accepts, symbol=None):
    """A checker's verdict once the summaries of the system `spec` have
    shown a violation from `shown`, a shortest violating start member.
    `components` are the start set's (state -> automaton), in the order
    that breaks ties; `accepts` tells whether a configuration tuple is
    forbidden, and `symbol` is the one read, or None for overflow.

    Unknown (`phase-bound`) where the copy's summaries show no violation
    within k phases. Else Unsafe, decided by the lower stack, with a
    trace from the copy's shortest violating member, found by one search
    kept to the configurations from which the copy's summaries still show
    one: Unknown (`limit`) where it stores more than node_budget."""
    copy, origin = phase_copy(spec, k)
    summaries = Summaries(copy, symbol)
    best = shortest_violation(summaries, {(q, 0, None): nfa for q, nfa in components.items()})
    if best is None:
        return Verdict(
            UNKNOWN, k, node_budget, decided_by="phase-bound",
            note=f"no phase-bounded witness at k={k}; a violation exists past k={k} from "
            + print_config_literal(shown),
        )
    witness = config_from_word(best[0][0], best[1])

    def within(c):
        return accepts(c) or summaries.shows(c[0], tuple(map(bar, c[1])) + c[2])

    found = f"a violation within k={k} phases exists from {print_config_literal(witness)}, but "
    try:
        trace = copy_trace(copy, origin, witness, accepts, within, node_budget)
    except ResourceLimitError as exhausted:
        note = f"{found}the trace search ran out of its {exhausted}"
        return Verdict(UNKNOWN, k, node_budget, witness, None, note, "limit")
    # None is unreachable unless the copy's summaries show a violation that
    # no run has: a defect, kept as Unknown so that Unsafe never comes
    # without a replayed trace.
    note = "" if trace is not None else found + "no trace to it was found"
    return Verdict(UNKNOWN if note else UNSAFE, k, node_budget, witness, trace, note, "lower-stack")
