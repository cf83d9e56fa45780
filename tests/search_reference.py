"""The configuration searches as first written, kept as a test reference.

The package's forward search (`upstack.oracle.explore`) stores plain
(state, upper, lower) tuples and steps through a per-system move table.
These are the loops it replaced: they store `Configuration` objects and
apply each rule as written in the semantics, so the differential tests
compare the engine with an independent stepper as well as with the old
search order, dedup and budget rules.

The search takes its starts from `ConfigAutomaton.members`, which walks
each component's words in order and cuts them into zones as it goes.
`reference_members` is the enumeration it replaced: every accepted word
collected by subset construction, deduplicated, sorted by length and
label keys, and only then cut into a `Configuration`.

Exact membership stores each configuration only up to the goal's upper
word, and searches from both ends. `reference_membership` searches
concrete configurations forward from the starts and backward from the
goal, and counts one per class (state, upper length, prefix shared with
the goal's upper word, lower word) on each side, so it pins what that
search stores without sharing its (state, shared, above, lower) classes
or its backward step: a backward class is expanded by stepping each of
its configurations back with `reference_pre_step`.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Iterable

from upstack.configsets import ConfigAutomaton, config_from_word
from upstack.core import Configuration, Rule, UpdsSpec, check_configuration
from upstack.errors import ResourceLimitError
from upstack.nfa import Nfa, label_key


def reference_words(nfa: Nfa, max_len: int) -> list[tuple]:
    """The accepted words of length <= max_len: the words of each length
    grouped by the subset they reach, the accepted ones collected, then
    deduplicated and sorted by length and label keys."""
    labels = sorted(nfa.labels(), key=label_key)
    found: dict[tuple, None] = {}
    words: dict[frozenset, list[tuple]] = {nfa.eps_closure(nfa.initial): [()]}
    for length in range(max_len + 1):
        for nodes, ws in words.items():
            if nodes & nfa.finals.keys():
                found.update(dict.fromkeys(ws))
        if length == max_len:
            break
        grown: dict[frozenset, list[tuple]] = {}
        for nodes, ws in words.items():
            for label in labels:
                stepped = nfa.step(nodes, label)
                if stepped:
                    grown.setdefault(stepped, []).extend(w + (label,) for w in ws)
        words = grown
    return sorted(found, key=lambda w: (len(w), tuple(label_key(s) for s in w)))


def reference_members(start_set: ConfigAutomaton, max_len: int) -> list[Configuration]:
    """The configurations of total stack size <= max_len, state by state
    in component order, each word cut into its zones by `config_from_word`."""
    return [
        config_from_word(state, word)
        for state, nfa in start_set.components.items()
        for word in reference_words(nfa, max_len)
    ]


def reference_step(spec: UpdsSpec, c: Configuration) -> list[tuple[Rule, Configuration]]:
    """All one-step successors of c in rule declaration order: a pop moves
    the lower top to the right end of the upper word, a switch rewrites
    the lower top, a push writes two symbols and drops the rightmost upper
    symbol, if any."""
    out = []
    for rule in spec.rules:
        if not c.lower or (rule.from_state, rule.read_symbol) != (c.state, c.lower[0]):
            continue
        rest = c.lower[1:]
        if not rule.written:
            succ = Configuration(rule.to_state, c.upper + (rule.read_symbol,), rest)
        elif len(rule.written) == 1:
            succ = Configuration(rule.to_state, c.upper, rule.written + rest)
        else:
            succ = Configuration(rule.to_state, c.upper[:-1], rule.written + rest)
        out.append((rule, succ))
    return out


def reference_post(
    spec: UpdsSpec,
    initial: Iterable[Configuration],
    depth: int,
    size_cap: int,
    node_budget: int,
) -> frozenset[Configuration]:
    """Configurations reachable from `initial` by traces of length <= depth
    within size_cap; initial configurations above the cap are discarded,
    and the budget is checked before each successor is stored."""
    seen: set[Configuration] = set()
    frontier: list[Configuration] = []
    for c in initial:
        check_configuration(spec, c)
        if c.total_size <= size_cap and c not in seen:
            seen.add(c)
            frontier.append(c)
    for _ in range(depth):
        if not frontier:
            break
        next_frontier: list[Configuration] = []
        for c in frontier:
            for _, succ in reference_step(spec, c):
                if succ.total_size > size_cap or succ in seen:
                    continue
                if len(seen) >= node_budget:
                    raise ResourceLimitError(len(seen), "forward closure budget")
                seen.add(succ)
                next_frontier.append(succ)
        frontier = next_frontier
    return frozenset(seen)


def reference_trace(
    spec: UpdsSpec,
    starts: Iterable[Configuration],
    accepts: Callable[[Configuration], bool],
    size_cap: int,
    depth: int | None,
    node_budget: int,
) -> tuple[Rule, ...] | None:
    """A shortest trace from some start to an accepted configuration,
    breadth-first from the starts in the order given; starts are kept
    whatever their size, and the budget counts every stored one."""
    parent: dict[Configuration, tuple[Configuration, Rule] | None] = {}

    def store(c: Configuration, link: tuple[Configuration, Rule] | None) -> bool:
        if len(parent) >= node_budget:
            raise ResourceLimitError(len(parent), "configuration search budget")
        parent[c] = link
        return accepts(c)

    def trace_to(c: Configuration) -> tuple[Rule, ...]:
        rules: list[Rule] = []
        while (link := parent[c]) is not None:
            c, rule = link
            rules.append(rule)
        return tuple(reversed(rules))

    frontier: list[Configuration] = []
    for c in starts:
        check_configuration(spec, c)
        if c in parent:
            continue
        if store(c, None):
            return ()
        frontier.append(c)
    layer = 0
    while frontier and (depth is None or layer < depth):
        layer += 1
        next_frontier: list[Configuration] = []
        for c in frontier:
            for rule, succ in reference_step(spec, c):
                if succ.total_size > size_cap or succ in parent:
                    continue
                if store(succ, (c, rule)):
                    return trace_to(succ)
                next_frontier.append(succ)
        frontier = next_frontier
    return None


def reference_pre_step(spec: UpdsSpec, c: Configuration) -> list[tuple[Rule, Configuration]]:
    """All one-step predecessors of c: the pops undone first, then the
    switches, then the pushes, each kind in rule declaration order.
    Undoing a pop moves the upper word's last symbol back onto the lower
    stack, if it is the symbol read; undoing a switch rewrites the lower
    top; undoing a push restores the upper cell it overwrote, any symbol
    of the alphabet, or none when the upper word is empty."""
    out = []
    for arity in (0, 1, 2):
        for rule in spec.rules:
            if rule.to_state != c.state or len(rule.written) != arity:
                continue
            if c.lower[:arity] != rule.written:
                continue
            before = (rule.read_symbol,) + c.lower[arity:]
            if arity == 0:
                if c.upper[-1:] == (rule.read_symbol,):
                    out.append((rule, Configuration(rule.from_state, c.upper[:-1], before)))
            elif arity == 1:
                out.append((rule, Configuration(rule.from_state, c.upper, before)))
            else:
                for sym in spec.alphabet:
                    out.append((rule, Configuration(rule.from_state, c.upper + (sym,), before)))
                if not c.upper:
                    out.append((rule, Configuration(rule.from_state, (), before)))
    return out


def reference_pre_closure(spec: UpdsSpec, goal: Configuration) -> set[Configuration]:
    """Every configuration that reaches goal; none is larger than goal,
    since no step shrinks the total stack size."""
    seen = {goal}
    frontier = [goal]
    while frontier:
        grown = []
        for c in frontier:
            for _, pred in reference_pre_step(spec, c):
                if pred not in seen:
                    seen.add(pred)
                    grown.append(pred)
        frontier = grown
    return seen


def reference_membership(
    spec: UpdsSpec,
    starts: Iterable[Configuration],
    goal: Configuration,
    node_budget: int,
) -> tuple[bool, int, int]:
    """Whether some start reaches goal without passing its total size, and
    how many classes the search stored forward and backward.

    The forward side steps concrete configurations from the starts, a
    successor dropped when a configuration of its class was stored
    before; no rule reads the upper word, so the members of one class
    have the same runs, and goal is the only member of its class. The
    backward side starts from goal's class; a class is expanded by
    stepping each of its configurations back, and for each rule in
    `reference_pre_step`'s order, the classes its predecessors fall into
    are taken longer upper words first, then shorter shared prefixes.
    The backward side goes first, alone, while its frontier holds one
    class: if that chain runs dry, nothing more is stored, and the answer
    is whether some start falls in a class it stored. Once the frontier
    holds more, the starts are stored, and each round expands one layer
    of the side with fewer classes in its frontier, forward on a tie. The
    answer is true once a side meets a class the other side stored, and
    false once a frontier is empty. The budget counts the classes of both
    sides, goal's first."""
    stored: tuple[set[tuple], set[tuple]] = (set(), set())
    met = object()

    def key(c: Configuration) -> tuple:
        shared = 0
        for mine, theirs in zip(c.upper, goal.upper):
            if mine != theirs:
                break
            shared += 1
        return (c.state, len(c.upper), c.upper[:shared], c.lower)

    def store(c: Configuration, side: int):
        """met if the other side stored c's class; else its key if it is
        new to side, which then stores it, and None if it is not."""
        k = key(c)
        if k in stored[1 - side]:
            return met
        if k in stored[side]:
            return None
        total = len(stored[0]) + len(stored[1])
        if total >= node_budget:
            raise ResourceLimitError(total, "configuration search budget")
        stored[side].add(k)
        return k

    def members(k: tuple) -> list[Configuration]:
        state, length, prefix, lower = k
        out = []
        for rest in product(spec.alphabet, repeat=length - len(prefix)):
            upper = prefix + rest
            if key(Configuration(state, upper, lower)) == k:
                out.append(Configuration(state, upper, lower))
        return out

    def predecessors(k: tuple) -> list[Configuration]:
        by_rule: dict[Rule, dict[tuple, Configuration]] = {}
        for c in members(k):
            for rule, pred in reference_pre_step(spec, c):
                by_rule.setdefault(rule, {}).setdefault(key(pred), pred)
        out = []
        for rule in sorted(by_rule, key=lambda r: (len(r.written), spec.rules.index(r))):
            classes = by_rule[rule]
            out += [classes[pk] for pk in sorted(classes, key=lambda pk: (-pk[1], len(pk[2])))]
        return out

    store(goal, 1)
    starts = list(starts)
    backward = [key(goal)]
    forward: list[Configuration] | None = None
    while backward:
        if forward is None and len(backward) > 1:
            forward = []
            for c in starts:
                got = store(c, 0)
                if got is met:
                    return True, len(stored[0]), len(stored[1])
                if got is not None:
                    forward.append(c)
        if forward is not None and len(forward) <= len(backward):
            if not forward:
                break
            side, frontier, expand = 0, forward, lambda c: [s for _, s in reference_step(spec, c)]
        else:
            side, frontier, expand = 1, backward, predecessors
        grown = []
        for item in frontier:
            for nxt in expand(item):
                if nxt.total_size > goal.total_size:
                    continue
                got = store(nxt, side)
                if got is met:
                    return True, len(stored[0]), len(stored[1])
                if got is not None:
                    grown.append(nxt if side == 0 else got)
        if side == 0:
            forward = grown
        else:
            backward = grown
    if forward is None:
        # The chain ran dry: the starts are looked up, not stored.
        return any(key(c) in stored[1] for c in starts), 0, len(stored[1])
    return False, len(stored[0]), len(stored[1])
